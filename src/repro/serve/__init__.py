"""Specialization-as-a-service: a resilient daemon over the run protocol.

The serve subsystem turns the per-request harness
(:func:`repro.apps.harness.run_request`) into a long-running service:
a supervised pool of warm worker processes sharing per-device
:class:`~repro.runtime.context.ExecutionContext` caches, behind
admission control, per-request deadlines, a circuit breaker on the SK
compile path, and `/health` reporting.  Start a daemon with
``python -m repro.serve``; embed one with
:class:`SpecializationService` + :class:`InProcClient`.

The robustness contract (verified by ``tests/test_serve.py``): every
submitted request resolves to a bit-identical
:class:`~repro.apps.harness.RunResult` or a typed
:class:`ServiceError` — never a hang, a wrong answer, or a bare
exception — under worker crashes, hangs, poisoned compiles, deadline
pressure, and overload.
"""

from repro.serve.admission import AdmissionController, Entry
from repro.serve.breaker import COMPILE_SITES, CircuitBreaker
from repro.serve.chaos import CrashRequest, KamikazeRunner, SleepRequest
from repro.serve.client import InProcClient, ServiceClient
from repro.serve.errors import (DeadlineExceeded, ServiceDeadlineError,
                                ServiceError, ServiceOverloadError,
                                ServiceProtocolError, ServiceRequestError,
                                ServiceShutdownError, ServiceWorkerError)
from repro.serve.health import health_report
from repro.serve.server import ServiceServer
from repro.serve.supervisor import (ServiceConfig, SpecializationService,
                                    WorkerHandle)
from repro.serve.wire import MAX_FRAME, recv_frame, send_frame

__all__ = [
    "AdmissionController", "Entry",
    "CircuitBreaker", "COMPILE_SITES",
    "CrashRequest", "SleepRequest", "KamikazeRunner",
    "ServiceClient", "InProcClient",
    "ServiceError", "ServiceOverloadError", "ServiceDeadlineError",
    "ServiceWorkerError", "ServiceShutdownError",
    "ServiceProtocolError", "ServiceRequestError",
    "DeadlineExceeded",
    "health_report", "ServiceServer",
    "ServiceConfig", "SpecializationService", "WorkerHandle",
    "send_frame", "recv_frame", "MAX_FRAME",
]
