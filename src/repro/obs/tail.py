"""``python -m repro.obs.tail`` — read flight-recorder dumps.

The console half of :mod:`repro.obs.events`: point it at a JSON dump
(written by :meth:`FlightRecorder.dump_json`, a crash hook, or the
serve daemon's ``--flight-recorder`` flag) and it prints the retained
events newest-last, one line each::

    $ python -m repro.obs.tail flight.json
      +0.012s e5a3c9f0 supervisor  worker.spawn        worker=w0g1
      +1.204s e91b20aa supervisor  breaker.transition  from_state=closed to_state=open
      ...

Options:

* ``--last N`` — only the newest N events;
* ``--kind K`` — filter by event kind (repeatable);
* ``--check`` — validate the dump against the
  :data:`~repro.obs.events.EVENT_KINDS` schema and exit non-zero on
  problems (CI runs this);
* ``--demo PATH`` — write a small deterministic dump to PATH and read
  it back, so CI can smoke-test the pipeline with no daemon running.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from repro.obs.events import FlightRecorder, validate_events

__all__ = ["main"]


def _demo_dump(path: str) -> str:
    """A deterministic sample dump exercising several event kinds."""
    tick = iter(range(100))
    rec = FlightRecorder(capacity=32, seed=7, origin="demo",
                         clock=lambda: float(next(tick)))
    rec.record("worker.spawn", worker="w0g1")
    rec.record("admission.shed", client="alice", why="queue_full")
    rec.record("breaker.transition", from_state="closed", to_state="open")
    rec.record("worker.kill", worker="w0g1", why="hang")
    rec.record("redispatch", request="r3", attempts=2)
    rec.record("fleet.place", member="gtx680:0", policy="cache_affinity")
    rec.record("cache.quarantine", path="plan-1f3.bin")
    rec.record("note", text="demo dump for repro.obs.tail")
    return rec.dump_json(path)


def _format_event(event: Dict[str, Any], now: float) -> str:
    attrs = event.get("attrs") or {}
    flat = " ".join(f"{k}={v}" for k, v in attrs.items())
    age = now - float(event.get("t", now))
    return (f"  -{age:8.3f}s {event.get('id', '?'):>9} "
            f"{event.get('origin', '?'):<12} "
            f"{event.get('kind', '?'):<20} {flat}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.tail",
        description="Read a flight-recorder JSON dump.")
    parser.add_argument("dump", help="path to a FlightRecorder dump")
    parser.add_argument("--last", type=int, default=0, metavar="N",
                        help="only the newest N events")
    parser.add_argument("--kind", action="append", default=[],
                        help="filter by event kind (repeatable)")
    parser.add_argument("--check", action="store_true",
                        help="validate against the event schema; "
                             "exit 1 on problems")
    parser.add_argument("--demo", action="store_true",
                        help="write a deterministic demo dump to DUMP "
                             "first, then read it back")
    args = parser.parse_args(argv)

    if args.demo:
        _demo_dump(args.dump)
        print(f"wrote demo dump: {args.dump}")

    try:
        with open(args.dump) as fh:
            dump = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.dump}: {exc}", file=sys.stderr)
        return 2

    events: List[Dict[str, Any]] = dump.get("events") or []

    if args.check:
        problems = validate_events(events)
        if problems:
            for problem in problems:
                print(f"PROBLEM: {problem}")
            print(f"{len(problems)} problem(s) in {args.dump}")
            return 1
        print(f"ok: {len(events)} events, schema valid "
              f"(dropped={dump.get('dropped', 0)})")
        return 0

    shown = events
    if args.kind:
        shown = [e for e in shown if e.get("kind") in args.kind]
    if args.last > 0:
        shown = shown[-args.last:]

    now = float(dump.get("now", 0.0))
    print(f"flight recorder: origin={dump.get('origin', '?')} "
          f"retained={len(events)} dropped={dump.get('dropped', 0)} "
          f"capacity={dump.get('capacity', '?')}")
    for event in shown:
        print(_format_event(event, now))
    if not shown:
        print("  (no events match)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
