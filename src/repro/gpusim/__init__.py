"""gpusim — a SIMT GPU simulator standing in for the paper's hardware.

Executes :mod:`repro.kernelc` IR the way CUDA hardware executes SASS:
warps of 32 lanes in lockstep with IPDOM-stack divergence, block-shared
memory with bank-conflict accounting, global memory with per-compute-
capability coalescing rules, an occupancy calculator, and a cycle-level
analytical timing model.  Three device models span three hardware
generations: the Tesla C1060 (compute capability 1.3) and Tesla C2070
(CC 2.0) mirror the dissertation's testbeds, and the Kepler-class
Tesla K20 (CC 3.5) extends the study axis one generation past the
paper.  Generation-conditional rules live on each device's declarative
:class:`~repro.gpusim.device.DeviceCaps` capability model.
"""

from repro.gpusim.device import (DEVICES, DeviceCaps, DeviceSpec,
                                 TESLA_C1060, TESLA_C2070, TESLA_K20,
                                 default_caps)
from repro.gpusim.engine import ENGINES, resolve_engine
from repro.gpusim.executor import clear_plan_cache, plan_for
from repro.gpusim.launcher import GPU, LaunchResult
from repro.gpusim.occupancy import OccupancyError, occupancy

__all__ = ["DeviceSpec", "DeviceCaps", "default_caps", "DEVICES",
           "TESLA_C1060", "TESLA_C2070", "TESLA_K20", "GPU",
           "LaunchResult", "occupancy", "OccupancyError",
           "ENGINES", "resolve_engine", "plan_for", "clear_plan_cache"]
