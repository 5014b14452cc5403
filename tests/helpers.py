"""Shared test utilities: compile-and-run harness for kernel snippets,
and a driver that calls a function from another thread or process."""

from __future__ import annotations

import multiprocessing
import threading
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar, Union)

import numpy as np

from repro.gpusim import GPU, TESLA_C1060, TESLA_C2070
from repro.kernelc import nvcc

T = TypeVar("T")

CALLERS = ("inline", "thread", "process")


def call_from(caller: str, fn: Callable[[], T],
              timeout: float = 300.0) -> T:
    """Call ``fn()`` from ``caller`` and return its result.

    ``inline`` calls it on this thread, ``thread`` on a fresh helper
    thread, and ``process`` in a forked, non-daemonic child process
    (so ``fn`` may start worker processes of its own) whose result
    comes back pickled.  An exception ``fn`` raises is re-raised here;
    a caller that neither returns nor raises within ``timeout``
    seconds fails with ``TimeoutError``.
    """
    if caller not in CALLERS:
        raise ValueError(f"caller must be one of {CALLERS}, not {caller!r}")
    if caller == "inline":
        return fn()
    if caller == "thread":
        out: Dict[str, object] = {}

        def target():
            try:
                out["value"] = fn()
            except BaseException as exc:  # re-raised on the caller
                out["error"] = exc

        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join(timeout)
        if worker.is_alive():
            raise TimeoutError(f"helper thread ran over {timeout} s")
    else:
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def target():
            try:
                send.send(("value", fn()))
            except BaseException as exc:  # re-raised on the caller
                send.send(("error", exc))

        child = ctx.Process(target=target)
        child.start()
        send.close()
        try:
            if not recv.poll(timeout):
                raise TimeoutError(f"child process ran over {timeout} s")
            kind, payload = recv.recv()
        finally:
            recv.close()
            child.join(timeout)
            if child.is_alive():
                child.kill()
                child.join()
        out = {kind: payload}
    if "error" in out:
        raise out["error"]
    return out["value"]


class KernelHarness:
    """Compile a kernel and run it with NumPy arrays as buffers.

    Array arguments are copied to the device before launch and read
    back after; scalars pass through.  Returns the output arrays.
    """

    def __init__(self, source: str, kernel: Optional[str] = None,
                 defines: Optional[Dict[str, object]] = None,
                 arch: str = "sm_20", opt_level: int = 3,
                 spec=None, headers=None):
        self.module = nvcc(source, defines=defines, arch=arch,
                           opt_level=opt_level, headers=headers)
        if kernel is None:
            kernel = next(iter(self.module.kernels))
        self.kernel = self.module.kernel(kernel)
        if spec is None:
            spec = TESLA_C1060 if arch == "sm_13" else TESLA_C2070
        self.gpu = GPU(spec)

    def __call__(self, grid, block, *args, dynamic_smem: int = 0,
                 const: Optional[Dict[str, np.ndarray]] = None,
                 functional: bool = True, sample_blocks: int = 8,
                 engine: Optional[str] = None):
        """Run the kernel; returns (outputs, launch_result).

        ``args`` entries that are ndarrays are treated as in/out
        buffers; their post-launch contents are returned in order.
        """
        if const:
            for name, array in const.items():
                self.gpu.memcpy_to_symbol(self.module, name, array)
        dev_args = []
        buffers: List[Tuple[int, np.ndarray]] = []
        for a in args:
            if isinstance(a, np.ndarray):
                addr = self.gpu.alloc_array(a)
                buffers.append((addr, a))
                dev_args.append(addr)
            else:
                dev_args.append(a)
        result = self.gpu.launch(self.kernel, grid, block, dev_args,
                                 dynamic_smem=dynamic_smem,
                                 functional=functional,
                                 sample_blocks=sample_blocks,
                                 engine=engine)
        outputs = [self.gpu.memcpy_dtoh(addr, arr.dtype, arr.size)
                   .reshape(arr.shape)
                   for addr, arr in buffers]
        return outputs, result


def assert_same_launch(src, grid, block, *arrays, scalars=(),
                       arch="sm_20", functional=True, sample_blocks=8,
                       const=None, defines=None):
    """Run serial and batched with identical inputs; demand equality.

    The batched engine's whole contract: bit-identical device memory,
    per-warp stats, and Timing versus the serial oracle.
    """
    results = {}
    for engine in ("serial", "batched"):
        h = KernelHarness(src, arch=arch, defines=defines)
        args = [a.copy() for a in arrays] + list(scalars)
        outputs, res = h(grid, block, *args, functional=functional,
                         sample_blocks=sample_blocks, const=const,
                         engine=engine)
        results[engine] = (outputs, res)
    (out_s, res_s), (out_b, res_b) = results["serial"], results["batched"]
    for a, b in zip(out_s, out_b):
        assert a.tobytes() == b.tobytes()
    assert res_s.blocks_executed == res_b.blocks_executed
    assert len(res_s.stats) == len(res_b.stats)
    for bs, bb in zip(res_s.stats, res_b.stats):
        assert bs.warps == bb.warps
    assert res_s.timing == res_b.timing
    return results


def run_kernel(source: str, grid, block, *args, **kwargs):
    """One-shot convenience wrapper around :class:`KernelHarness`."""
    const = kwargs.pop("const", None)
    dynamic_smem = kwargs.pop("dynamic_smem", 0)
    harness = KernelHarness(source, **kwargs)
    return harness(grid, block, *args, dynamic_smem=dynamic_smem,
                   const=const)
