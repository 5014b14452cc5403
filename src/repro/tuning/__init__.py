"""Configuration-space exploration (the autotuning companion of §3.2).

Kernel specialization makes implementation parameters cheap to change
(a recompile instead of a rewrite); this package supplies the sweep
machinery that finds per-(problem, device) optima and the
percent-of-peak analyses behind Tables 6.13, 6.15-6.18, 6.20-6.22 and
Figures 6.1/6.2.
"""

from repro.tuning.sweep import (SweepRecord, Sweeper, best_record,
                                grid_configs)
from repro.tuning.grids import (percent_of_peak, peak_grid_text,
                                contour_series)
from repro.tuning.autotune import (APP_RULES, AutoTuner, SECONDS_RTOL,
                                   TuneResult, diagnose)
from repro.tuning.app_sweeps import (HarnessRunner, harness_autotune,
                                     harness_sweep)

__all__ = ["Sweeper", "SweepRecord", "best_record",
           "grid_configs", "percent_of_peak", "peak_grid_text",
           "contour_series", "HarnessRunner", "harness_sweep",
           "harness_autotune", "APP_RULES", "AutoTuner", "SECONDS_RTOL",
           "TuneResult", "diagnose"]
