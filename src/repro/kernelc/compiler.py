"""Compiler driver — the reproduction's ``nvcc``.

``nvcc(source, defines={...}, arch='sm_20')`` runs the preprocessor
(where ``defines`` plays the role of ``-D NAME=value`` command-line
macros), parses, lowers, optimizes, and returns a
:class:`CompiledModule` whose kernels carry the metadata the rest of
the system consumes: per-thread register count, static shared memory,
constant memory, and the PTX-like listing.

Per the dissertation (§4.4), specialization is *purely* a matter of
which macros are defined at compile time: the same source compiles
fully run-time evaluated (RE) when the ``CT_*`` toggles are absent and
specialized (SK) when they are present.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.kernelc import typesys as T
from repro.kernelc.codegen import CodeGen, CodegenError, CodegenOptions
from repro.kernelc.ir import IRKernel, IRModule
from repro.kernelc.lexer import LexError
from repro.kernelc.parser import ParseError, Parser
from repro.kernelc.passes import run_pipeline
from repro.kernelc.preprocessor import Preprocessor, PreprocessorError

#: Compute-capability macro per architecture, as nvcc defines it.
ARCH_MACROS = {"sm_10": 100, "sm_11": 110, "sm_12": 120, "sm_13": 130,
               "sm_20": 200, "sm_21": 210, "sm_30": 300, "sm_35": 350}


class CompileError(Exception):
    """Any front-end or middle-end failure, with context attached."""


@dataclass
class CompiledKernel:
    """One compiled kernel plus the resource metadata launches need.

    ``unit`` is the translation unit's IR (constant layout, textures),
    not its :class:`CompiledModule`: the module holds its kernels, and
    a back-reference would make every module a reference cycle that
    only the cyclic collector frees.  Acyclic, a module the kernel
    cache evicts dies by refcount, and its launch plans with it.
    """

    name: str
    ir: IRKernel
    unit: IRModule

    @property
    def reg_count(self) -> int:
        return self.ir.reg_count

    @property
    def shared_bytes(self) -> int:
        return self.ir.shared_bytes

    @property
    def local_bytes(self) -> int:
        return self.ir.local_bytes

    @property
    def static_instructions(self) -> int:
        return self.ir.static_instruction_count()

    def to_ptx(self) -> str:
        return self.ir.to_ptx()


@dataclass
class CompiledModule:
    """A compiled translation unit (the CUDA 'module')."""

    ir: IRModule
    arch: str
    defines: Dict[str, object]
    source: str
    opt_level: int
    compile_seconds: float = 0.0
    kernels: Dict[str, CompiledKernel] = field(default_factory=dict)

    @property
    def const_bytes(self) -> int:
        return self.ir.const_bytes

    def kernel(self, name: str) -> CompiledKernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise CompileError(
                f"module has no kernel {name!r}; available: "
                f"{sorted(self.kernels)}") from None

    def to_ptx(self) -> str:
        return self.ir.to_ptx()


def nvcc(source: str,
         defines: Optional[Mapping[str, object]] = None,
         arch: str = "sm_20",
         opt_level: int = 3,
         headers: Optional[Mapping[str, str]] = None,
         unroll: bool = True,
         max_unroll: int = 4096) -> CompiledModule:
    """Compile kernel source, specializing via *defines*.

    Args:
        source: CUDA-C-subset kernel source.
        defines: ``-D`` macro definitions; the specialization interface.
            Values may be int, float, bool, or raw token strings.
        arch: target architecture (``sm_13``/``sm_20`` for the two
            GPUs the dissertation evaluates, ``sm_35`` for the
            Kepler-class K20).  Sets ``__CUDA_ARCH__``.
        opt_level: 0 disables the optimizing passes (for testing);
            3 is the default full pipeline.
        headers: virtual ``#include`` files.
        unroll: allow automatic full unrolling of constant-trip loops.
        max_unroll: largest trip count eligible for unrolling.

    Returns:
        A :class:`CompiledModule`.

    Raises:
        CompileError: wrapping any preprocessor/parse/lowering failure.
    """
    from repro.runtime.context import current_context
    ctx = current_context()
    tracer = ctx.tracer
    if tracer is None:
        return _nvcc_impl(source, defines, arch, opt_level, headers,
                          unroll, max_unroll, ctx)
    with tracer.span("nvcc", "compile", arch=arch,
                     opt_level=opt_level,
                     defines=",".join(sorted(defines or {}))) as span:
        module = _nvcc_impl(source, defines, arch, opt_level, headers,
                            unroll, max_unroll, ctx)
        span.attrs["kernels"] = ",".join(sorted(module.kernels))
        span.attrs["compile_ms"] = module.compile_seconds * 1e3
        return module


def _untraced(name: str, cat: str) -> nullcontext:
    return nullcontext()


def _nvcc_impl(source, defines, arch, opt_level, headers, unroll,
               max_unroll, ctx) -> CompiledModule:
    """The compile itself (see :func:`nvcc`).  Traced, each compiler
    stage is a child span of ``nvcc`` in category ``kernelc``, so sums
    over the ``compile`` category do not count the stages twice; each
    optimization pass is a ``kernelc`` child span of ``optimize``."""
    stage = _untraced if ctx.tracer is None else ctx.tracer.span
    injector = ctx.injector
    if arch not in ARCH_MACROS:
        raise CompileError(f"unknown arch {arch!r}; expected one of "
                           f"{sorted(ARCH_MACROS)}")
    if injector is not None:
        # Fault sites: a crashed/garbage nvcc invocation and a hung one.
        # The detail string carries the -D names so plans can target
        # only specialized (CT_*) compiles.
        detail = ",".join(sorted(defines or {}))
        injector.check("nvcc.compile", detail=detail)
        injector.check("nvcc.timeout", detail=detail)
    started = time.perf_counter()
    all_defines: Dict[str, object] = {"__CUDA_ARCH__": ARCH_MACROS[arch],
                                      "__CUDACC__": 1}
    if defines:
        all_defines.update(defines)
    try:
        with stage("preprocess", "kernelc"):
            tokens = Preprocessor(all_defines, headers).process(source)
        with stage("parse", "kernelc"):
            unit = Parser(tokens).parse()
        opts = CodegenOptions(unroll=unroll and opt_level >= 1,
                              max_unroll=max_unroll,
                              fold=opt_level >= 1)
        with stage("codegen", "kernelc"):
            ir_module = CodeGen(unit, opts).run()
        with stage("optimize", "kernelc"):
            run_pipeline(ir_module, opt_level,
                         None if ctx.tracer is None else ctx.tracer.span)
    except (PreprocessorError, LexError, ParseError, CodegenError) as exc:
        raise CompileError(str(exc)) from exc
    elapsed = time.perf_counter() - started
    module = CompiledModule(ir=ir_module, arch=arch,
                            defines=dict(defines or {}), source=source,
                            opt_level=opt_level,
                            compile_seconds=elapsed)
    for name, kernel in ir_module.kernels.items():
        module.kernels[name] = CompiledKernel(name, kernel, ir_module)
    return module
