"""Fault-injection hook point, scoped by :class:`ExecutionContext`.

Hot paths consult the *current* context's injector — ``None`` unless a
chaos run installed one — via the ``injector`` attribute of the
context they already hold (or :func:`active` when they hold none).
The disabled-path cost is one attribute load and a ``None`` test, and
the wired-in sites sit at coarse granularity (per compile, per launch,
per gang batch, per allocation), so production runs pay effectively
nothing.  Being context state, the injector is automatically scoped: a
worker thread or process running under its own context sees its own
injector, never another sweep's.

Usage::

    from repro.faults import FaultPlan, injecting

    with injecting(FaultPlan(seed=7, rates={"nvcc.compile": 0.2})) as inj:
        run_workload()
    print(inj.summary())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Union

from repro.faults.plan import FaultInjector, FaultPlan


def _ctx():
    from repro.runtime.context import current_context
    return current_context()


def install(plan: Union[FaultPlan, FaultInjector]) -> FaultInjector:
    """Install *plan* on the current context; returns the live injector.

    Exactly one injector may be active per context — nested installs
    are a test bug and raise immediately.
    """
    return _ctx().install_faults(plan)


def clear() -> None:
    """Remove the current context's injector (idempotent)."""
    _ctx().clear_faults()


def active() -> Optional[FaultInjector]:
    """The current context's injector, or None when disabled."""
    return _ctx().injector


@contextmanager
def injecting(plan: Union[FaultPlan, FaultInjector]):
    """Context manager: install *plan*, always clear on exit."""
    ctx = _ctx()
    injector = ctx.install_faults(plan)
    try:
        yield injector
    finally:
        ctx.clear_faults()
