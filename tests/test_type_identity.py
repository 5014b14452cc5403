"""Scalar types keep their identity across pickle hops.

IR code tests types by identity (``ctype is T.F32``), so a module that
went through ``pickle`` — a ``KernelCache`` disk hit, a worker reply —
must unpickle to the canonical type objects.  Every golden-PTX module
prints the same ``to_ptx()`` after a pickle round trip and after a
disk-cache round trip as it does fresh from the compiler.
"""

from __future__ import annotations

import pickle

import pytest

from repro.gpupf import cache as cache_mod
from repro.gpupf.cache import KernelCache
from repro.kernelc import nvcc
from repro.kernelc import typesys as T
from repro.kernelc.compiler import CompileError
from tests.test_golden_ptx import _cases

ONE_KERNEL = """
__global__ void bump(float *x) { x[threadIdx.x] = x[threadIdx.x] + 1.5f; }
"""


def _ptx(module):
    return {name: k.to_ptx() for name, k in module.kernels.items()}


def test_unpickled_types_are_canonical():
    for t in T._CANONICAL.values():
        assert pickle.loads(pickle.dumps(t)) is t
    odd = T.ScalarType("float", "float", 64)  # not the canonical float
    back = pickle.loads(pickle.dumps(odd))
    assert back == odd and back is not T.F32


def test_float_immediate_prints_the_same_after_pickle():
    module = nvcc(ONE_KERNEL)
    fresh = _ptx(module)
    assert "0F" in fresh["bump"]
    assert _ptx(pickle.loads(pickle.dumps(module))) == fresh


def test_old_format_entries_are_not_served(tmp_path):
    cache = KernelCache(disk_dir=str(tmp_path))
    module = cache.compile(ONE_KERNEL)
    (entry,) = tmp_path.glob("*.mod")
    entry.write_bytes(pickle.dumps((cache_mod._FORMAT_VERSION - 1,
                                    module)))
    again = KernelCache(disk_dir=str(tmp_path))
    again.compile(ONE_KERNEL)
    assert (again.hits, again.misses, again.corrupt) == (0, 1, 1)


@pytest.fixture(scope="module")
def golden_round_trips(tmp_path_factory):
    disk = str(tmp_path_factory.mktemp("kcache"))
    out = []
    for name, source, defines, arch, opt in _cases():
        try:
            fresh = KernelCache(disk_dir=disk).compile(
                source, defines=defines, arch=arch, opt_level=opt)
        except CompileError:
            continue
        reader = KernelCache(disk_dir=disk)
        from_disk = reader.compile(source, defines=defines, arch=arch,
                                   opt_level=opt)
        assert (reader.hits, reader.misses) == (1, 0), name
        out.append((name, fresh, from_disk))
    return out


def test_golden_modules_survive_pickle(golden_round_trips):
    moved = [name for name, fresh, _ in golden_round_trips
             if _ptx(pickle.loads(pickle.dumps(fresh))) != _ptx(fresh)]
    assert not moved


def test_golden_modules_survive_disk_cache(golden_round_trips):
    assert golden_round_trips
    moved = [name for name, fresh, from_disk in golden_round_trips
             if _ptx(from_disk) != _ptx(fresh)]
    assert not moved
