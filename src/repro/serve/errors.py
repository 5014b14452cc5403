"""The typed service-error ladder.

Every request a client submits to the serve daemon resolves to exactly
one of: a bit-identical :class:`~repro.apps.harness.RunResult`, or a
:class:`ServiceError` subclass — never a hang, a wrong answer, or a
bare exception.  Each subclass names *why* the service gave up, so
clients dispatch on class (and ``code``) instead of string-matching:

* :class:`ServiceOverloadError` — admission control shed the request
  because the bounded queue was full (back off and retry later);
* :class:`ServiceDeadlineError` — the request's deadline expired
  before or during evaluation;
* :class:`ServiceWorkerError` — the evaluating worker crashed more
  times than the at-most-N-retries redispatch contract allows (the
  one worker-death error: served sweep cells and fleet work carry it
  too);
* :class:`ServiceShutdownError` — the service is draining or stopped;
* :class:`ServiceProtocolError` — a malformed frame or unknown op;
* :class:`ServiceRequestError` — the request itself failed with a
  typed evaluation error (hard fault past the degradation ladder,
  malformed spec, ...); the original exception instance rides along
  as ``.cause`` so tests and clients can still dispatch on it.

All of these pickle cleanly (message in ``args``, extras in
``__dict__``), which is what lets the TCP server ship the *instance*
back to the client and re-raise it with type and fields intact.
"""

from __future__ import annotations

from repro.faults.errors import DeadlineExceeded

__all__ = [
    "ServiceError", "ServiceOverloadError", "ServiceDeadlineError",
    "ServiceWorkerError", "ServiceShutdownError", "ServiceProtocolError",
    "ServiceRequestError", "DeadlineExceeded",
]


class ServiceError(Exception):
    """Base class for every typed serve-daemon failure."""

    code: str = "service"


class ServiceOverloadError(ServiceError):
    """Admission control shed this request: the queue is full.

    Load shedding is the robustness contract here — the service
    answers *now* with a typed error instead of queueing unboundedly
    and answering never.
    """

    code = "overload"

    def __init__(self, message: str = "service overloaded",
                 depth: int = -1, capacity: int = -1):
        super().__init__(message)
        self.depth = depth
        self.capacity = capacity


class ServiceDeadlineError(ServiceError):
    """The request's deadline expired (queued, pre-launch, or mid-run)."""

    code = "deadline"

    def __init__(self, message: str = "request deadline expired",
                 phase: str = "unknown"):
        super().__init__(message)
        self.phase = phase  # "queued" | "before-launch" | "running" ...


class ServiceWorkerError(ServiceError):
    """Worker crashes exhausted the redispatch budget for this request."""

    code = "worker"

    def __init__(self, message: str = "worker crashed",
                 attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class ServiceShutdownError(ServiceError):
    """The service is draining or stopped; the request was not run."""

    code = "shutdown"


class ServiceProtocolError(ServiceError):
    """A malformed wire frame or unknown operation."""

    code = "protocol"


class ServiceRequestError(ServiceError):
    """The evaluation itself failed with a typed error.

    Exception chaining (``__cause__``) does not survive pickling, so
    the original exception instance is carried explicitly in
    ``.cause`` (it lives in ``__dict__`` and pickles with the rest).
    """

    code = "request"

    def __init__(self, message: str = "request evaluation failed",
                 cause: Exception = None, site: str = "unknown"):
        super().__init__(message)
        self.cause = cause
        self.site = site
