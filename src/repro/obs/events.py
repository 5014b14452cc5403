"""Flight recorder: a bounded ring buffer of typed structured events.

Traces answer "where did the time go"; the flight recorder answers
"what happened" — the discrete state changes (a worker was killed, the
breaker opened, a cache entry was quarantined) that surround an
incident.  It is deliberately tiny: a :class:`collections.deque` with a
``maxlen``, so recording is O(1), memory is bounded, and the newest
``capacity`` events survive for forensics.

Events are plain dicts so they pickle across the serve/fleet process
boundary and serialize to JSON for ``python -m repro.obs.tail``::

    {"seq": 7, "id": "e5a3c9f01", "t": 123.4, "kind": "worker.kill",
     "origin": "supervisor", "attrs": {"worker": "w0g2", "why": "hang"}}

* ``seq`` increases monotonically per recorder — ``since(seq)`` gives
  the delta stream that workers ship back with each result.
* ``id`` is **seeded-deterministic**: ``crc32(f"{seed}:{seq}")``, so two
  runs with the same seed and event order produce identical ids and
  dumps diff cleanly.
* ``kind`` is drawn from :data:`EVENT_KINDS`, which maps each kind to
  the attr keys it must carry; :func:`validate_events` enforces the
  schema (used by ``repro.obs.report --check`` and ``tail --check``).

``install_crash_dump(path)`` chains onto ``sys.excepthook`` so an
uncaught exception leaves a JSON dump of the recorder's final state
behind — the "read the flight recorder after the crash" workflow.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import zlib
from collections import deque
from typing import (Any, Callable, Deque, Dict, Iterable, List, Mapping,
                    Optional)

__all__ = ["EVENT_KINDS", "FlightRecorder", "validate_events"]

#: Event schema: kind -> attr keys every event of that kind must carry.
#: Extra attrs are always allowed; missing ones fail validation.
EVENT_KINDS: Dict[str, tuple] = {
    # serve admission / circuit breaking
    "admission.shed": ("client", "why"),
    "breaker.transition": ("from_state", "to_state"),
    # serve worker lifecycle
    "worker.spawn": ("worker",),
    "worker.exit": ("worker", "why"),
    "worker.kill": ("worker", "why"),
    "redispatch": ("request", "attempts"),
    "deadline.kill": ("request", "worker"),
    # fleet (its worker deaths are the service's worker.exit/redispatch)
    "fleet.place": ("member", "policy"),
    # caches
    "cache.quarantine": ("path",),
    # free-form marker (demo dumps, tests)
    "note": ("text",),
}


def _event_id(seed: int, seq: int) -> str:
    return f"e{zlib.crc32(f'{seed}:{seq}'.encode()) & 0xFFFFFFFF:08x}"


class FlightRecorder:
    """Bounded, seeded-deterministic ring buffer of typed events."""

    def __init__(self, capacity: int = 256, seed: int = 0,
                 origin: str = "local",
                 clock: Callable[[], float] = time.monotonic):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seed = seed
        self.origin = origin
        self._clock = clock
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0  # events rotated out of the ring
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def record(self, kind: str, **attrs: Any) -> Dict[str, Any]:
        """Append one event; unknown kinds raise (schema is closed)."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "id": _event_id(self.seed, self._seq),
                     "t": self._clock(), "kind": kind,
                     "origin": self.origin, "attrs": attrs}
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)
            return event

    def extend(self, events: Iterable[Mapping[str, Any]],
               origin: Optional[str] = None) -> int:
        """Fold shipped events in (e.g. a worker's delta stream).

        Each event keeps its kind/attrs/timestamp but is re-sequenced
        into this recorder (new ``seq``/``id``); *origin* overrides the
        shipped origin so the dump says which process saw it.  Returns
        the number folded.
        """
        n = 0
        with self._lock:
            for src in events:
                self._seq += 1
                event = dict(src)
                event["seq"] = self._seq
                event["id"] = _event_id(self.seed, self._seq)
                if origin is not None:
                    event["origin"] = origin
                if len(self._events) == self.capacity:
                    self.dropped += 1
                self._events.append(event)
                n += 1
        return n

    # -- reading -------------------------------------------------------

    @property
    def last_seq(self) -> int:
        return self._seq

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first (copies of the dicts)."""
        with self._lock:
            return [dict(e) for e in self._events]

    def since(self, seq: int) -> List[Dict[str, Any]]:
        """Events recorded after sequence number *seq* (the delta)."""
        with self._lock:
            return [dict(e) for e in self._events if e["seq"] > seq]

    # -- dumping -------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """A JSON-ready snapshot: config + retained events."""
        with self._lock:
            return {"origin": self.origin, "seed": self.seed,
                    "capacity": self.capacity, "dropped": self.dropped,
                    "last_seq": self._seq, "now": self._clock(),
                    "events": [dict(e) for e in self._events]}

    def dump_json(self, path: str) -> str:
        """Write :meth:`dump` to *path*; returns the path."""
        with open(path, "w") as fh:
            json.dump(self.dump(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def install_crash_dump(self, path: str) -> None:
        """Dump to *path* when an uncaught exception kills the process.

        Chains onto the previous ``sys.excepthook`` so stack traces
        still print.
        """
        previous = sys.excepthook

        def _hook(exc_type, exc, tb):
            try:
                self.record("note", text=f"crash: {exc_type.__name__}: "
                                         f"{exc}")
                self.dump_json(path)
            except Exception:
                pass  # the crash report must never mask the crash
            previous(exc_type, exc, tb)

        sys.excepthook = _hook


def validate_events(events: Iterable[Mapping[str, Any]]) -> List[str]:
    """Check events against :data:`EVENT_KINDS`; returns problem strings.

    Accepts a list of event dicts (as found in a dump's ``events`` key
    or a trace file's ``otherData.events``).  An empty return means the
    stream is well-formed.
    """
    problems: List[str] = []
    prev_seq = 0
    for i, event in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(event, Mapping):
            problems.append(f"{where}: not a mapping")
            continue
        for key in ("seq", "id", "t", "kind", "origin", "attrs"):
            if key not in event:
                problems.append(f"{where}: missing key {key!r}")
        kind = event.get("kind")
        if kind is not None and kind not in EVENT_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
        attrs = event.get("attrs")
        if kind in EVENT_KINDS and isinstance(attrs, Mapping):
            for req in EVENT_KINDS[kind]:
                if req not in attrs:
                    problems.append(
                        f"{where}: kind {kind!r} missing attr {req!r}")
        elif attrs is not None and not isinstance(attrs, Mapping):
            problems.append(f"{where}: attrs is not a mapping")
        seq = event.get("seq")
        if isinstance(seq, int):
            if seq <= prev_seq:
                problems.append(
                    f"{where}: seq {seq} not increasing (prev {prev_seq})")
            prev_seq = seq
    return problems
