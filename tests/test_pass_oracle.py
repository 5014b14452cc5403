"""Per-pass differential oracle: every optimization pass on its own.

Each seeded random kernel from :func:`tests.test_fuzz_kernels._gen_kernel`
is lowered by codegen, then the -O3 pass list
(:data:`repro.kernelc.passes.PASSES`) is applied one pass at a time.
After every pass the serial engine runs a snapshot of the kernel, and
its device memory must equal the previous step's byte for byte, so a
miscompile names the pass that introduced it.  The fully optimized
snapshot must also print the same PTX as :func:`nvcc`, so the test
checks the pipeline that actually runs.
"""

import copy

import numpy as np
import pytest

from repro.gpusim import GPU, TESLA_C2070
from repro.kernelc import nvcc
from repro.kernelc.codegen import CodeGen, CodegenOptions
from repro.kernelc.compiler import ARCH_MACROS, CompiledKernel, CompiledModule
from repro.kernelc.parser import Parser
from repro.kernelc.passes import PASSES
from repro.kernelc.passes.regalloc import assign_registers
from repro.kernelc.preprocessor import Preprocessor
from tests.test_fuzz_kernels import _gen_kernel

ARCH = "sm_20"


def _codegen(src: str):
    """The IR module nvcc optimizes at -O3 (unrolled and folded)."""
    defines = {"__CUDA_ARCH__": ARCH_MACROS[ARCH], "__CUDACC__": 1}
    unit = Parser(Preprocessor(defines).process(src)).parse()
    return CodeGen(unit, CodegenOptions(unroll=True, max_unroll=4096,
                                        fold=True)).run()


def _device_memory(ir_module, blocks, threads, arrays, scalars):
    """Buffers after one serial launch of a snapshot of *ir_module*."""
    snapshot = copy.deepcopy(ir_module)
    module = CompiledModule(ir=snapshot, arch=ARCH, defines={}, source="",
                            opt_level=3)
    for name, kernel in snapshot.kernels.items():
        # Occupancy needs a register count before regalloc has run.
        assign_registers(kernel)
        module.kernels[name] = CompiledKernel(name, kernel, module.ir)
    gpu = GPU(TESLA_C2070)
    addrs = [gpu.alloc_array(a.copy()) for a in arrays]
    gpu.launch(module.kernel("k"), (blocks,), (threads,),
               addrs + list(scalars), engine="serial")
    return [gpu.memcpy_dtoh(addr, a.dtype, a.size).tobytes()
            for addr, a in zip(addrs, arrays)]


@pytest.mark.parametrize("seed", range(12))
def test_each_pass_preserves_device_memory(seed):
    src, blocks, threads, n, bins = _gen_kernel(
        np.random.default_rng(seed))
    data = np.random.default_rng(30_000 + seed)
    total = blocks * threads
    arrays = [np.zeros(total, np.float32), np.zeros(bins, np.float32),
              np.zeros(bins, np.int32),
              data.standard_normal(total).astype(np.float32),
              data.integers(0, 1000, total).astype(np.int32)]
    ir_module = _codegen(src)
    kernel = ir_module.kernels["k"]
    expected = _device_memory(ir_module, blocks, threads, arrays, (n,))
    for step, (name, run, _) in enumerate(PASSES):
        run(kernel)
        got = _device_memory(ir_module, blocks, threads, arrays, (n,))
        assert got == expected, \
            f"pass {step} ({name}) changed device memory, seed {seed}"
    assert kernel.to_ptx() == nvcc(src, arch=ARCH).kernel("k").to_ptx()
