"""Host pipeline for template matching, built on GPU-PF.

:class:`TemplateMatcher` assembles a GPU-PF pipeline for one
(problem, configuration) pair:

* upload the ROI crop and mean-subtracted template,
* one ``numeratorPartial`` launch per template tile region
  (main / right / bottom / corner — Figure 5.4), each with its own
  specialized module when ``config.specialize`` is on,
* ``combinePartials``, the separable window sums, ``normalizeNcc``,
* download of the NCC map.

Runtime operation (§5.1.3.4): new frames stream through the same
realized pipeline; only the host array changes between iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.template_matching import kernels as K
from repro.data.frames import roi_origin
from repro.gpupf import KernelCache, Pipeline
from repro.gpusim import GPU, DeviceSpec
from repro.kernelc.templates import specialization_defines
from repro.runtime.context import ExecutionContext, current_context


@dataclass(frozen=True)
class MatchProblem:
    """One patient-style problem instance (Table 5.1 shape)."""

    name: str
    frame_h: int
    frame_w: int
    tmpl_h: int
    tmpl_w: int
    shift_h: int
    shift_w: int
    n_frames: int = 2

    @property
    def n_shifts(self) -> int:
        return self.shift_h * self.shift_w

    @property
    def span(self) -> Tuple[int, int]:
        return (self.shift_h + self.tmpl_h - 1,
                self.shift_w + self.tmpl_w - 1)

    @property
    def corr2_calls(self) -> int:
        return self.n_frames


@dataclass(frozen=True)
class MatchConfig:
    """Implementation parameters (Table 6.1)."""

    tile_w: int = 16
    tile_h: int = 16
    threads: int = 128
    specialize: bool = True
    functional: bool = True
    sample_blocks: int = 4
    engine: Optional[str] = None  # simulator engine (None = default)


@dataclass(frozen=True)
class TileRegion:
    """One uniform-tile region of the template decomposition."""

    x0: int
    y0: int
    tile_w: int
    tile_h: int
    tiles_x: int
    tiles_y: int

    @property
    def count(self) -> int:
        return self.tiles_x * self.tiles_y


def tile_regions(tmpl_w: int, tmpl_h: int, tile_w: int,
                 tile_h: int) -> List[TileRegion]:
    """Decompose the template into main + edge regions (Figure 5.4)."""
    tile_w = min(tile_w, tmpl_w)
    tile_h = min(tile_h, tmpl_h)
    main_x = tmpl_w // tile_w
    main_y = tmpl_h // tile_h
    rem_w = tmpl_w - main_x * tile_w
    rem_h = tmpl_h - main_y * tile_h
    regions = [TileRegion(0, 0, tile_w, tile_h, main_x, main_y)]
    if rem_w:
        regions.append(TileRegion(main_x * tile_w, 0, rem_w, tile_h,
                                  1, main_y))
    if rem_h:
        regions.append(TileRegion(0, main_y * tile_h, tile_w, rem_h,
                                  main_x, 1))
    if rem_w and rem_h:
        regions.append(TileRegion(main_x * tile_w, main_y * tile_h,
                                  rem_w, rem_h, 1, 1))
    return [r for r in regions if r.count > 0]


@dataclass
class MatchResult:
    """Output of matching one frame."""

    ncc: np.ndarray
    shift: Tuple[int, int]
    kernel_seconds: float
    transfer_seconds: float
    reg_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.kernel_seconds + self.transfer_seconds


class TemplateMatcher:
    """GPU template matcher for one problem and configuration."""

    def __init__(self, problem: MatchProblem, template: np.ndarray,
                 config: Optional[MatchConfig] = None,
                 device: Optional[DeviceSpec] = None,
                 gpu: Optional[GPU] = None,
                 cache: Optional[KernelCache] = None,
                 context: Optional[ExecutionContext] = None):
        self.ctx = (context or getattr(gpu, "ctx", None)
                    or current_context())
        self.problem = problem
        self.config = config or MatchConfig()
        self.gpu = gpu or GPU(device or self.ctx.device,
                              context=self.ctx)
        if template.shape != (problem.tmpl_h, problem.tmpl_w):
            raise ValueError("template shape does not match the problem")
        self.template_c = (template
                           - template.mean()).astype(np.float32)
        self.sum_a2 = float((self.template_c.astype(np.float64) ** 2)
                            .sum())
        self.regions = tile_regions(problem.tmpl_w, problem.tmpl_h,
                                    self.config.tile_w,
                                    self.config.tile_h)
        self.num_tiles = sum(r.count for r in self.regions)
        self.pipe = Pipeline(self.gpu, f"match-{problem.name}",
                             cache=cache, engine=self.config.engine,
                             context=self.ctx)
        self._build()

    # -- pipeline construction ---------------------------------------

    def _specialize(self, values: Dict[str, int]) -> Dict[str, object]:
        if self.config.specialize:
            return specialization_defines(values)
        return {}

    def _build(self) -> None:
        p, cfg, pipe = self.problem, self.config, self.pipe
        span_h, span_w = p.span
        max_tile = max(r.tile_w * r.tile_h for r in self.regions)
        max_area = max((r.tile_w + p.shift_w - 1)
                       * (r.tile_h + p.shift_h - 1)
                       for r in self.regions)

        roi_ext = pipe.extent_param("roi", (span_h, span_w), 4)
        tmpl_ext = pipe.extent_param("tmpl", (p.tmpl_h, p.tmpl_w), 4)
        partial_ext = pipe.extent_param(
            "partials", (self.num_tiles, p.n_shifts), 4)
        shifts_ext = pipe.extent_param("shifts", (p.n_shifts,), 4)
        col_ext = pipe.extent_param("cols", (p.shift_h, span_w), 4)

        self.h_roi = pipe.host_memory("h_roi", roi_ext,
                                      dtype=np.float32)
        self.h_tmpl = pipe.host_memory("h_tmpl", tmpl_ext,
                                       dtype=np.float32)
        self.h_ncc = pipe.host_memory("h_ncc", shifts_ext,
                                      dtype=np.float32)
        d_roi = pipe.global_memory("d_roi", roi_ext)
        d_tmpl = pipe.global_memory("d_tmpl", tmpl_ext)
        d_partial = pipe.global_memory("d_partial", partial_ext)
        d_num = pipe.global_memory("d_num", shifts_ext)
        d_col = pipe.global_memory("d_col", col_ext)
        d_col2 = pipe.global_memory("d_col2", col_ext)
        d_win = pipe.global_memory("d_win", shifts_ext)
        d_win2 = pipe.global_memory("d_win2", shifts_ext)
        d_ncc = pipe.global_memory("d_ncc", shifts_ext)

        pipe.copy("up_roi", self.h_roi, d_roi)
        pipe.copy("up_tmpl", self.h_tmpl, d_tmpl)

        # Numerator: one module/launch per tile region.
        shift_blocks = math.ceil(p.n_shifts / cfg.threads)
        tile_base = 0
        self.numerator_kernels = []
        for ri, region in enumerate(self.regions):
            defines = dict(self._specialize({
                "TILE_W": region.tile_w, "TILE_H": region.tile_h,
                "SHIFT_W": p.shift_w, "SHIFT_H": p.shift_h,
                "THREADS": cfg.threads,
            }))
            defines["MAX_TILE_PIXELS"] = max_tile
            defines["MAX_AREA_PIXELS"] = max_area
            mod = pipe.module(f"num_mod_{ri}", K.NUMERATOR_SRC,
                              defines=defines)
            kern = pipe.kernel(f"numeratorPartial_{ri}", mod,
                               "numeratorPartial")
            self.numerator_kernels.append(kern)
            pipe.kernel_exec(
                f"exec_num_{ri}", kern,
                grid=(shift_blocks, region.count), block=cfg.threads,
                args=[d_roi, d_tmpl, d_partial, span_w, p.tmpl_w,
                      region.x0, region.y0, region.tile_w,
                      region.tile_h, region.tiles_x, tile_base,
                      p.shift_w, p.shift_h],
                functional=cfg.functional,
                sample_blocks=cfg.sample_blocks)
            tile_base += region.count

        comb_mod = pipe.module(
            "comb_mod", K.COMBINE_SRC,
            defines=self._specialize({"NUM_TILES": self.num_tiles}))
        comb_kern = pipe.kernel("combinePartials", comb_mod)
        pipe.kernel_exec("exec_combine", comb_kern,
                         grid=shift_blocks, block=cfg.threads,
                         args=[d_partial, d_num, self.num_tiles,
                               p.n_shifts],
                         functional=cfg.functional,
                         sample_blocks=cfg.sample_blocks)

        win_mod = pipe.module(
            "win_mod", K.WINDOW_SUMS_SRC,
            defines=self._specialize({
                "TMPL_W": p.tmpl_w, "TMPL_H": p.tmpl_h,
                "SHIFT_W": p.shift_w}))
        col_kern = pipe.kernel("colSums", win_mod)
        win_kern = pipe.kernel("windowSums", win_mod)
        col_blocks = math.ceil(span_w / cfg.threads)
        pipe.kernel_exec("exec_colsums", col_kern,
                         grid=(col_blocks, p.shift_h),
                         block=cfg.threads,
                         args=[d_roi, d_col, d_col2, span_w, span_w,
                               p.tmpl_h],
                         functional=cfg.functional,
                         sample_blocks=cfg.sample_blocks)
        sx_blocks = math.ceil(p.shift_w / cfg.threads)
        pipe.kernel_exec("exec_winsums", win_kern,
                         grid=(sx_blocks, p.shift_h),
                         block=cfg.threads,
                         args=[d_col, d_col2, d_win, d_win2, span_w,
                               p.shift_w, p.tmpl_w],
                         functional=cfg.functional,
                         sample_blocks=cfg.sample_blocks)

        norm_mod = pipe.module("norm_mod", K.NORMALIZE_SRC)
        norm_kern = pipe.kernel("normalizeNcc", norm_mod)
        inv_n = 1.0 / (p.tmpl_h * p.tmpl_w)
        pipe.kernel_exec("exec_normalize", norm_kern,
                         grid=shift_blocks, block=cfg.threads,
                         args=[d_num, d_win, d_win2, d_ncc, p.n_shifts,
                               self.sum_a2, inv_n],
                         functional=cfg.functional,
                         sample_blocks=cfg.sample_blocks)
        pipe.copy("down_ncc", d_ncc, self.h_ncc)

    # -- execution ------------------------------------------------------

    def match(self, frame: np.ndarray) -> MatchResult:
        """Match the template against one frame; returns the NCC map."""
        p = self.problem
        ry0, rx0 = roi_origin(p.frame_h, p.frame_w, p.tmpl_h, p.tmpl_w,
                              p.shift_h, p.shift_w)
        span_h, span_w = p.span
        self.pipe.refresh()
        self.h_roi.array[:] = frame[ry0 : ry0 + span_h,
                                    rx0 : rx0 + span_w]
        self.h_tmpl.array[:] = self.template_c
        before = {name: a.simulated_seconds
                  for name, a in self.pipe.actions.items()}
        self.pipe.run(1)
        kernel_s = transfer_s = 0.0
        for name, action in self.pipe.actions.items():
            delta = action.simulated_seconds - before[name]
            if name.startswith("exec_"):
                kernel_s += delta
            else:
                transfer_s += delta
        ncc = self.h_ncc.array.reshape(p.shift_h, p.shift_w).copy()
        flat = int(np.argmax(ncc))
        regs = {k.name: k.reg_count for k in self.numerator_kernels}
        return MatchResult(
            ncc=ncc,
            shift=(flat // p.shift_w, flat % p.shift_w),
            kernel_seconds=kernel_s,
            transfer_seconds=transfer_s,
            reg_counts=regs)

    def numerator_reg_count(self) -> int:
        """Main-region numerator kernel register footprint."""
        self.pipe.refresh()
        return self.numerator_kernels[0].reg_count

    def close(self) -> None:
        """Drop the pipeline's resources and actions: they point back
        at the pipeline, a cycle that would keep the GPU and its memory
        alive until the cyclic GC runs."""
        self.pipe.resources.clear()
        self.pipe.actions.clear()

    def __enter__(self) -> "TemplateMatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
