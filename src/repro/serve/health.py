"""Health reporting: one structured snapshot of service liveness.

:func:`health_report` assembles the `/health`-style answer the ISSUE
asks for — worker liveness (pid, busy/idle, heartbeat age, restart
counts), queue depth and shed counts, circuit-breaker state, per-client
rows with latency quantiles and SLO breach counts, the service metrics
snapshot (with the workers' warm-cache ``cache.kernel_evictions`` and
``cache.plan_evictions``), and the flight recorder — as a plain dict of
scalars and strings so it pickles over the wire and dumps as JSON
unchanged.

The report is advisory and read-mostly: it samples supervisor state
without stopping the dispatch loop, so a field can be a tick stale.
That is the right trade — health checks must never contend with the
work they are checking.
"""

from __future__ import annotations

import time
from typing import Dict, List


def _worker_rows(service) -> List[Dict[str, object]]:
    now = time.monotonic()
    rows: List[Dict[str, object]] = []
    for slot in range(service.config.workers):
        handle = service._handles[slot]
        if handle is None:
            rows.append({
                "slot": slot, "id": None, "pid": None, "alive": False,
                "busy": None, "beat_age_s": None,
                "restarts": service._generation[slot],
                "crash_streak": service._crash_streak[slot],
                "restart_in_s": max(
                    0.0, service._restart_at[slot] - now),
            })
            continue
        busy = handle.busy
        rows.append({
            "slot": slot, "id": handle.id, "pid": handle.proc.pid,
            "alive": bool(handle.proc.is_alive()),
            "busy": busy.id if busy is not None else None,
            "beat_age_s": now - handle.last_beat,
            "restarts": service._generation[slot],
            "crash_streak": service._crash_streak[slot],
            "restart_in_s": 0.0,
        })
    return rows


def _client_rows(service) -> Dict[str, Dict[str, object]]:
    """Per-client rows: outcome counters + latency quantiles + SLO.

    The submit/resolution paths attribute every request to the
    ``client`` tag it carried (``anon`` when untagged); this folds the
    ``client.<name>.<event>`` counters into one row per client and
    adds the client latency histogram's p50/p95/p99 estimates
    (``p50_s`` / ``p95_s`` / ``p99_s``, present once the client has a
    completed request) plus ``slo_breach`` (observations over the
    configured client SLO) — so `/health` answers *who* is loading the
    service, how slow their tail is, and whether the SLO holds.
    """
    rows: Dict[str, Dict[str, object]] = {}
    breaches: Dict[str, int] = {}
    for name, count in service.metrics.counters("slo.breach.client."
                                                ).items():
        tail = name[len("slo.breach.client."):]
        client = tail[:-len(".latency_s")] \
            if tail.endswith(".latency_s") else tail
        breaches[client] = count
    for name, count in service.metrics.counters("client.").items():
        tail = name[len("client."):]
        client, _, event = tail.rpartition(".")
        if not client:
            continue
        rows.setdefault(client, {})[event] = count
    for client, row in rows.items():
        quantiles = service.metrics.quantiles(
            f"client.{client}.latency_s")
        for key, value in quantiles.items():
            row[f"{key}_s"] = value
        if client in breaches or service._client_slo is not None:
            row["slo_breach"] = breaches.get(client, 0)
    return rows


def _slo_section(service) -> Dict[str, object]:
    """Configured thresholds and every breach counter, one place."""
    return {"thresholds": service.metrics.slos(),
            "breaches": service.metrics.counters("slo.breach.")}


def health_report(service) -> Dict[str, object]:
    """Build the full health dict for one service instance."""
    if service._stopped.is_set():
        status = "stopped"
    elif service._stopping or service.admission.stats()["closed"]:
        status = "draining"
    elif not service._started:
        status = "new"
    else:
        status = "ok"
    now = time.monotonic()
    flight = service.recorder.dump()
    return {
        "status": status,
        "uptime_s": (now - service._started_at
                     if service._started else 0.0),
        "workers": _worker_rows(service),
        "queue": service.admission.stats(),
        "breaker": service.breaker.stats(),
        "clients": _client_rows(service),
        "metrics": service.metrics.snapshot(),
        "slo": _slo_section(service),
        # Legacy human-readable event log shape, now fed by the typed
        # flight recorder; the structured form rides in "flight".
        "events": [{"age_s": now - e["t"],
                    "event": _event_line(e)}
                   for e in flight["events"]],
        "flight": flight,
    }


def _event_line(event: Dict[str, object]) -> str:
    attrs = event.get("attrs") or {}
    note = " ".join(f"{k}={v}" for k, v in attrs.items())
    return f"{event.get('kind', '?')} {note}".strip()
