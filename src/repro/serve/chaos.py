"""Chaos instrumentation for the serve daemon and the sweeps it runs.

Deterministic ways to hurt workers, used by the regression suites and
the CI chaos job.  Everything here is a plain picklable dataclass so
it crosses process boundaries exactly like real work:

* :class:`CrashRequest` — the receiving serve worker SIGKILLs itself
  *before* replying, exercising supervisor crash detection and the
  at-most-N-retries redispatch contract end to end.
* :class:`SleepRequest` — the worker busy-holds for ``seconds``,
  deliberately ignoring deadlines: the supervisor's
  deadline + ``kill_grace`` backstop (and queue backpressure under
  load) is the thing under test.
* :class:`KamikazeRunner` — a sweep run-callable that SIGKILLs its
  own worker on selected cells, for
  :class:`~repro.tuning.sweep.Sweeper` and
  :class:`~repro.runtime.fleet.DeviceFleet` worker-death regression
  tests.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class CrashRequest:
    """Kill the worker that dequeues this request (no reply is sent)."""

    #: Crash only on the first ``crashes`` deliveries; a later
    #: redispatch of the same request succeeds.  0 = always crash.
    crashes: int = 0
    #: Nominal app label echoed into the success result (when any).
    app: str = "chaos.crash"

    def execute(self, delivery: int):
        """Run worker-side; *delivery* is the dispatch attempt (1-based)."""
        if self.crashes == 0 or delivery <= self.crashes:
            os.kill(os.getpid(), signal.SIGKILL)
        from repro.apps.harness import RunResult
        return RunResult(app=self.app, seconds=0.0)


@dataclass(frozen=True)
class SleepRequest:
    """Hold the worker for ``seconds`` (ignores deadlines on purpose)."""

    seconds: float = 0.1
    app: str = "chaos.sleep"

    def execute(self, delivery: int):
        time.sleep(self.seconds)
        from repro.apps.harness import RunResult
        return RunResult(app=self.app, seconds=self.seconds)


@dataclass(frozen=True)
class KamikazeRunner:
    """Sweep evaluator that SIGKILLs its worker on chosen cells.

    The surviving cells return tiny valid records, so a
    ``Sweeper(jobs=N)`` sweep over this runner proves both halves of
    the worker-death contract: victims surface as
    ``ServiceWorkerError`` records in ``error_taxonomy()`` and every
    other cell keeps its result.
    """

    crash_cells: Tuple[int, ...] = ()
    axis: str = "cell"

    def __call__(self, config: dict):
        from repro.tuning.sweep import SweepRecord
        cell = config[self.axis]
        if cell in self.crash_cells:
            os.kill(os.getpid(), signal.SIGKILL)
        return SweepRecord(config=dict(config),
                           seconds=0.001 * (cell + 1))
