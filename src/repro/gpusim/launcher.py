"""Device front-end: memory management and kernel launching.

:class:`GPU` is the simulated equivalent of a CUDA context on one
device: allocate and copy memory, bind constant symbols, and launch
compiled kernels over a grid.  Launches validate the configuration
against the occupancy calculator (as the real runtime's launch-failure
checks would) and return both functional effects (in device memory) and
a :class:`~repro.gpusim.timing.Timing` estimate.

For large parameter sweeps, ``sample_blocks`` executes a representative
subset of the grid and extrapolates timing; ``functional=True`` (the
default) executes every block so outputs can be validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults.errors import ECCError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import resolve_engine, run_blocks_batched
from repro.gpusim.executor import (BlockExecutor, BlockStats, SimError,
                                   TextureBinding, plan_for)
from repro.gpusim.memory import FlatMemory, GlobalMemory
from repro.gpusim.occupancy import Occupancy, occupancy
from repro.gpusim.timing import Timing, kernel_timing
from repro.kernelc import typesys as T
from repro.kernelc.compiler import CompiledKernel, CompiledModule
from repro.kernelc.ir import IRModule
from repro.obs.profile import LaunchProfile

Dim = Union[int, Tuple[int, ...]]


def _as_dim3(value: Dim) -> Tuple[int, int, int]:
    if isinstance(value, int):
        return (value, 1, 1)
    items = tuple(int(v) for v in value)
    return items + (1,) * (3 - len(items))


@dataclass
class LaunchResult:
    """Everything a launch produced."""

    timing: Timing
    occupancy: Occupancy
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    blocks_executed: int
    stats: List[BlockStats] = field(default_factory=list)
    #: Per-launch micro-profile; populated only when the owning
    #: context is tracing (``ctx.tracer`` is not None).
    profile: Optional["LaunchProfile"] = None

    @property
    def seconds(self) -> float:
        return self.timing.seconds

    @property
    def cycles(self) -> float:
        return self.timing.cycles

    @property
    def instructions(self) -> int:
        return sum(s.instructions for s in self.stats)


class GPU:
    """A simulated CUDA device context.

    Bound to an :class:`~repro.runtime.context.ExecutionContext`
    (*context*, default: the caller's current context), which supplies
    the default device spec, engine selection, launch-plan/sample
    caches, and the fault injector.
    """

    def __init__(self, spec: Optional[DeviceSpec] = None,
                 memory_bytes: int = 256 * 1024 * 1024,
                 context=None):
        if context is None:
            from repro.runtime.context import current_context
            context = current_context()
        self.ctx = context
        self.spec = spec or context.device
        self.gmem = GlobalMemory(memory_bytes)
        self._const: Dict[int, FlatMemory] = {}
        self._textures: Dict[tuple, TextureBinding] = {}

    # -- memory API ------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        injector = self.ctx.injector
        if injector is not None:
            injector.check("memory.oom", detail=f"{nbytes}B")
        return self.gmem.alloc(nbytes)

    def alloc_array(self, array: np.ndarray) -> int:
        """Allocate and copy a host array to the device."""
        addr = self.malloc(array.nbytes)
        self.gmem.write(addr, array)
        return addr

    def zeros(self, count: int, dtype) -> int:
        """Allocate a zero-initialized typed buffer."""
        dtype = np.dtype(dtype)
        addr = self.malloc(count * dtype.itemsize)
        self.gmem.write(addr, np.zeros(count, dtype=dtype))
        return addr

    def memcpy_htod(self, addr: int, array: np.ndarray) -> None:
        self.gmem.write(addr, array)

    def memcpy_dtoh(self, addr: int, dtype, count: int) -> np.ndarray:
        return self.gmem.read(addr, dtype, count)

    def free(self, addr: int) -> None:
        self.gmem.free(addr)

    def reset(self) -> None:
        self.gmem.reset()
        self._const.clear()

    def memcpy_to_symbol(self, module: CompiledModule, name: str,
                         array: np.ndarray) -> None:
        """cudaMemcpyToSymbol: fill a module's __constant__ symbol."""
        decl = module.ir.const_globals.get(name)
        if decl is None:
            raise SimError(f"module has no constant symbol {name!r}")
        cmem = self._const_mem(module.ir)
        raw = np.ascontiguousarray(array)
        if raw.nbytes > decl.nbytes:
            raise SimError(
                f"constant symbol {name!r} holds {decl.nbytes} bytes, "
                f"got {raw.nbytes}")
        cmem.write(decl.offset, raw)

    def bind_texture(self, module: CompiledModule, name: str,
                     addr: int, width: int, height: int = 1,
                     dtype=np.float32, address: str = "clamp",
                     filter: str = "point") -> None:
        """cudaBindTexture[2D]: attach device memory to a texture ref.

        The texture must be declared in *module*
        (``texture<float, 2> name;``); traits mirror the CUDA address
        mode (clamp/wrap/border) and filter mode (point/linear).
        """
        ref = module.ir.textures.get(name)
        if ref is None:
            raise SimError(f"module has no texture reference {name!r}")
        if ref.dims == 1 and height > 1:
            raise SimError(f"texture {name!r} is 1D")
        if address not in ("clamp", "wrap", "border"):
            raise SimError(f"bad address mode {address!r}")
        if filter not in ("point", "linear"):
            raise SimError(f"bad filter mode {filter!r}")
        self._textures[(id(module.ir), name)] = TextureBinding(
            addr=int(addr), width=int(width), height=int(height),
            np_dtype=np.dtype(dtype), address=address, filter=filter)

    def _const_mem(self, module: IRModule) -> FlatMemory:
        key = id(module)
        if key not in self._const:
            if module.const_bytes > self.spec.const_bytes:
                raise SimError(
                    f"module needs {module.const_bytes} bytes of "
                    f"constant memory; device has "
                    f"{self.spec.const_bytes} (§2.4 limit)")
            self._const[key] = FlatMemory(
                max(module.const_bytes, 1), "const")
        return self._const[key]

    # -- launching -------------------------------------------------

    def launch(self, kernel: CompiledKernel, grid: Dim, block: Dim,
               args: Sequence[object],
               dynamic_smem: int = 0,
               functional: bool = True,
               sample_blocks: int = 8,
               engine: Optional[str] = None) -> LaunchResult:
        """Launch *kernel* over *grid* × *block*.

        Args:
            kernel: a :class:`CompiledKernel` from :func:`nvcc`.
            grid: grid dimensions (int or up-to-3 tuple).
            block: block dimensions.
            args: one value per kernel parameter (device addresses for
                pointers, Python numbers for scalars).
            dynamic_smem: extra dynamically-allocated shared memory.
            functional: execute every block (needed to validate
                outputs).  When False, only ``sample_blocks`` spread
                across the grid run, and timing is extrapolated.
            sample_blocks: number of blocks to execute when not
                functional.
            engine: ``"batched"`` (the default) runs every launch,
                single-block ones included, on the gang interpreter of
                :mod:`repro.gpusim.engine`; ``"serial"`` runs one
                :class:`BlockExecutor` per block, the test oracle the
                interpreter is checked against; ``None`` / ``"auto"``
                uses the owning context's ``engine``.  Both produce
                bit-identical memory, stats and timing.

        When the owning context is tracing, the launch records a
        ``launch:<kernel>`` span (with the engine's ``gang:*`` child
        spans inside it) and attaches a
        :class:`~repro.obs.profile.LaunchProfile` to both the span and
        ``result.profile``; untraced launches skip all of it behind
        one ``ctx.tracer is None`` test.

        Raises:
            SimError / OccupancyError: invalid configuration or a
                runtime fault in the kernel.
        """
        tracer = self.ctx.tracer
        if tracer is None:
            return self._launch_impl(kernel, grid, block, args,
                                     dynamic_smem, functional,
                                     sample_blocks, engine)
        resolved = resolve_engine(engine, ctx=self.ctx)
        grid3 = _as_dim3(grid)
        block3 = _as_dim3(block)
        with tracer.span(
                f"launch:{kernel.name}", "launch",
                grid="x".join(str(v) for v in grid3),
                block="x".join(str(v) for v in block3),
                engine=resolved, functional=functional) as span:
            result = self._launch_impl(kernel, grid, block, args,
                                       dynamic_smem, functional,
                                       sample_blocks, engine)
            profile = LaunchProfile.from_launch(kernel, result, resolved)
            result.profile = profile
            tracer.profiles.append(profile)
            span.attrs.update(profile.attrs())
        metrics = self.ctx.metrics
        metrics.inc("launch.count")
        metrics.observe("launch.cycles", profile.cycles)
        metrics.observe("launch.occupancy", profile.occupancy)
        metrics.observe("launch.mem_transactions",
                        profile.mem_transactions)
        return result

    def _launch_impl(self, kernel: CompiledKernel, grid: Dim,
                     block: Dim, args: Sequence[object],
                     dynamic_smem: int = 0,
                     functional: bool = True,
                     sample_blocks: int = 8,
                     engine: Optional[str] = None) -> LaunchResult:
        """The untraced launch path (see :meth:`launch`)."""
        engine = resolve_engine(engine, ctx=self.ctx)
        grid3 = _as_dim3(grid)
        block3 = _as_dim3(block)
        params = kernel.ir.params
        if len(args) != len(params):
            raise SimError(
                f"kernel {kernel.name!r} takes {len(params)} arguments "
                f"({[p[0] for p in params]}), got {len(args)}")
        arg_map: Dict[str, object] = {}
        for (name, ctype), value in zip(params, args):
            arg_map[name] = _convert_arg(name, ctype, value)
        smem_per_block = kernel.shared_bytes + dynamic_smem
        occ = occupancy(self.spec, block3[0] * block3[1] * block3[2],
                        kernel.reg_count, smem_per_block)
        cmem = self._const_mem(kernel.unit)
        plan = plan_for(kernel.ir, self.spec, ctx=self.ctx)
        total_blocks = grid3[0] * grid3[1] * grid3[2]
        if total_blocks == 0:
            raise SimError("empty grid")
        indices = _block_indices(grid3, total_blocks, functional,
                                 sample_blocks, ctx=self.ctx)
        textures = {name: binding
                    for (mod_id, name), binding in self._textures.items()
                    if mod_id == id(kernel.unit)}
        injector = self.ctx.injector
        if injector is not None:
            # Fault site: the driver rejects the launch outright
            # (before any block executes, so no side effects exist).
            injector.check("launch.fail", detail=kernel.name)
        if engine != "serial":
            stats = run_blocks_batched(
                kernel.ir, self.spec, self.gmem, cmem, arg_map,
                indices, block_dim=block3, grid_dim=grid3,
                dynamic_smem=dynamic_smem, plan=plan,
                textures=textures, ctx=self.ctx)
        else:
            stats = []
            for bidx in indices:
                if injector is not None:
                    # Fault site: watchdog kill mid-launch.  Blocks
                    # executed so far have already written device
                    # memory — retrying callers must snapshot/restore.
                    injector.check("launch.watchdog",
                                   detail=f"{kernel.name}@{bidx}")
                executor = BlockExecutor(
                    kernel.ir, self.spec, self.gmem, cmem, arg_map,
                    block_idx=bidx, block_dim=block3, grid_dim=grid3,
                    dynamic_smem=dynamic_smem, plan=plan,
                    textures=textures)
                stats.append(executor.run())
        if injector is not None:
            # Fault site: transient ECC bit flip surfacing at launch
            # completion.  The flip mutates simulated DRAM for real,
            # then raises as a *detected* uncorrectable error, the way
            # ECC hardware fails a kernel whose data went bad.
            flipped = injector.maybe_flip(
                "memory.bitflip",
                self.gmem.data[:self.gmem.allocated_bytes],
                detail=kernel.name, on_flip=self.gmem.note_range)
            if flipped is not None:
                raise ECCError(
                    f"uncorrectable ECC error during {kernel.name!r} "
                    f"(device byte offset {flipped})")
        timing = kernel_timing(self.spec, occ, total_blocks, stats)
        return LaunchResult(timing=timing, occupancy=occ, grid=grid3,
                            block=block3, blocks_executed=len(indices),
                            stats=stats)


#: Bound on each context's sampled-launch pick memo; the memo lives on
#: the ExecutionContext, keyed (grid3, sample_blocks).  Sweeps
#: re-launch the same grid hundreds of times with functional=False;
#: the pick list is pure geometry, so compute it once per shape.
_SAMPLE_CACHE_MAX = 512


def _block_indices(grid3, total_blocks, functional, sample_blocks,
                   ctx=None):
    gx, gy, gz = grid3
    if functional or total_blocks <= sample_blocks:
        return [(x, y, z)
                for z in range(gz) for y in range(gy) for x in range(gx)]
    if ctx is None:
        from repro.runtime.context import current_context
        ctx = current_context()
    cache = ctx.sample_cache
    key = (grid3, sample_blocks)
    cached = cache.get(key)
    if cached is not None:
        return cached
    # Spread samples across the grid so edge effects are represented.
    picks = np.linspace(0, total_blocks - 1, sample_blocks).astype(int)
    out = []
    for linear in dict.fromkeys(int(p) for p in picks):
        z, rem = divmod(linear, gx * gy)
        y, x = divmod(rem, gx)
        out.append((x, y, z))
    if len(cache) >= _SAMPLE_CACHE_MAX:
        cache.clear()
    cache[key] = out
    return out


def _convert_arg(name: str, ctype, value):
    if T.is_pointer(ctype):
        return int(value)
    if ctype.is_float:
        return float(value)
    if ctype.is_integer:
        return T.convert_const(int(value), ctype)
    raise SimError(f"cannot pass argument {name!r} of type {ctype}")
