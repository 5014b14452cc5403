"""Unit and property tests for the IR optimization passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.occupancy import OccupancyError
from repro.kernelc import nvcc
from repro.kernelc import typesys as T
from repro.kernelc.ir import Imm, Instr, Reg
from repro.kernelc.passes.constfold import fold_instr, fold_mul24
from tests.helpers import KernelHarness, run_kernel

rng = np.random.default_rng(5)

ints = st.integers(-(2**31), 2**31 - 1)


class TestFoldInstr:
    def _imm(self, v, t=T.S32):
        return Imm(T.convert_const(v, t), t)

    @settings(max_examples=200)
    @given(a=ints, b=ints,
           op=st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]))
    def test_fold_matches_numpy_wraparound(self, a, b, op):
        instr = Instr(op, T.S32, Reg("r1", T.S32),
                      [self._imm(a), self._imm(b)])
        folded = fold_instr(instr)
        fn = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
              "and": np.bitwise_and, "or": np.bitwise_or,
              "xor": np.bitwise_xor}[op]
        with np.errstate(over="ignore"):
            expected = fn(np.int32(a), np.int32(b))
        assert folded is not None
        assert folded.value == int(expected)

    @settings(max_examples=100)
    @given(a=ints, b=ints.filter(lambda v: v != 0))
    def test_fold_division_truncates(self, a, b):
        instr = Instr("div", T.S32, Reg("r1", T.S32),
                      [self._imm(a), self._imm(b)])
        folded = fold_instr(instr)
        expected = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            expected = -expected
        assert folded.value == T.convert_const(expected, T.S32)

    @given(a=ints)
    def test_fold_div_by_zero_stays_runtime(self, a):
        instr = Instr("div", T.S32, Reg("r1", T.S32),
                      [self._imm(a), self._imm(0)])
        assert fold_instr(instr) is None

    @settings(max_examples=100)
    @given(a=ints, b=ints)
    def test_fold_mul24_semantics(self, a, b):
        def ext24(x):
            x &= 0xFFFFFF
            return x - 0x1000000 if x & 0x800000 else x
        assert fold_mul24(a, b, T.S32) == T.convert_const(
            ext24(a) * ext24(b), T.S32)

    @settings(max_examples=100)
    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    def test_fold_float_matches_f32(self, a, b):
        instr = Instr("add", T.F32, Reg("f1", T.F32),
                      [self._imm(a, T.F32), self._imm(b, T.F32)])
        folded = fold_instr(instr)
        assert folded.value == float(np.float32(np.float32(a)
                                                + np.float32(b)))

    def test_fold_setp(self):
        instr = Instr("setp", T.S32, Reg("p1", T.BOOL),
                      [self._imm(3), self._imm(5)], cmp="lt")
        assert fold_instr(instr).value is True

    def test_fold_selp(self):
        instr = Instr("selp", T.S32, Reg("r1", T.S32),
                      [self._imm(10), self._imm(20), Imm(False, T.BOOL)])
        assert fold_instr(instr).value == 20

    def test_no_fold_with_register_operand(self):
        instr = Instr("add", T.S32, Reg("r1", T.S32),
                      [Reg("r2", T.S32), self._imm(1)])
        assert fold_instr(instr) is None


class TestStrengthReduction:
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(0, 10), seed=st.integers(0, 1000))
    def test_unsigned_divrem_pow2_equivalence(self, k, seed):
        """Strength-reduced div/rem must be bit-exact with hardware."""
        d = 1 << k
        src = """
        __global__ void dr(const unsigned int* x, unsigned int* q,
                           unsigned int* r) {
            int i = threadIdx.x;
            q[i] = x[i] / %du;
            r[i] = x[i] %% %du;
        }
        """ % (d, d)
        local = np.random.default_rng(seed)
        x = local.integers(0, 2**32, 32, dtype=np.uint32)
        q = np.zeros(32, np.uint32)
        r = np.zeros(32, np.uint32)
        (_, q_, r_), _ = run_kernel(src, 1, 32, x, q, r)
        np.testing.assert_array_equal(q_, x // d)
        np.testing.assert_array_equal(r_, x % d)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 8), seed=st.integers(0, 1000))
    def test_signed_div_pow2_fixup(self, k, seed):
        """The signed round-toward-zero fixup sequence must match C."""
        d = 1 << k
        src = """
        __global__ void sd(const int* x, int* q, int* r) {
            int i = threadIdx.x;
            q[i] = x[i] / %d;
            r[i] = x[i] %% %d;
        }
        """ % (d, d)
        local = np.random.default_rng(seed)
        x = local.integers(-(2**20), 2**20, 32, dtype=np.int32)
        q = np.zeros(32, np.int32)
        r = np.zeros(32, np.int32)
        (_, q_, r_), _ = run_kernel(src, 1, 32, x, q, r)
        expected_q = np.where(x >= 0, x // d, -((-x) // d))
        np.testing.assert_array_equal(q_, expected_q.astype(np.int32))
        np.testing.assert_array_equal(r_, (x - expected_q * d)
                                      .astype(np.int32))

    def test_div_pow2_emits_no_divide(self):
        src = """
        __global__ void k(const unsigned int* x, unsigned int* o) {
            o[threadIdx.x] = x[threadIdx.x] / 16u;
        }
        """
        ptx = nvcc(src).kernel("k").to_ptx()
        assert "div" not in ptx and "shr" in ptx

    def test_non_pow2_divide_becomes_mulhi(self):
        """Non-power-of-two constants take the magic-number path."""
        src = """
        __global__ void k(const unsigned int* x, unsigned int* o) {
            o[threadIdx.x] = x[threadIdx.x] / 7u;
        }
        """
        ptx = nvcc(src).kernel("k").to_ptx()
        assert "div" not in ptx and "mulhi" in ptx

    def test_non_pow2_divide_survives_at_o1(self):
        """Magic division is an -O2 optimization; -O1 keeps the div."""
        src = """
        __global__ void k(const unsigned int* x, unsigned int* o) {
            o[threadIdx.x] = x[threadIdx.x] / 7u;
        }
        """
        assert "div" in nvcc(src, opt_level=1).kernel("k").to_ptx()

    def test_float_div_pow2_becomes_mul(self):
        src = """
        __global__ void k(const float* x, float* o) {
            o[threadIdx.x] = x[threadIdx.x] / 8.0f;
        }
        """
        ptx = nvcc(src).kernel("k").to_ptx()
        assert "div" not in ptx and "mul" in ptx

    def test_mul_pow2_becomes_shift(self):
        src = """
        __global__ void k(const int* x, int* o) {
            o[threadIdx.x] = x[threadIdx.x] * 32;
        }
        """
        ptx = nvcc(src).kernel("k").to_ptx()
        assert "shl" in ptx


class TestUnrolling:
    def test_constant_trip_count_unrolls(self):
        src = """
        __global__ void k(const float* x, float* o) {
            float acc = 0.0f;
            for (int i = 0; i < 8; i++) acc += x[i];
            o[threadIdx.x] = acc;
        }
        """
        ptx = nvcc(src).kernel("k").to_ptx()
        assert "bra" not in ptx

    def test_runtime_trip_count_stays_rolled(self):
        src = """
        __global__ void k(const float* x, float* o, int n) {
            float acc = 0.0f;
            for (int i = 0; i < n; i++) acc += x[i];
            o[threadIdx.x] = acc;
        }
        """
        assert "bra" in nvcc(src).kernel("k").to_ptx()

    def test_pragma_unroll_budget(self):
        """'#pragma unroll 1' disables unrolling of a constant loop."""
        src = """
        __global__ void k(const float* x, float* o) {
            float acc = 0.0f;
            #pragma unroll 1
            for (int i = 0; i < 8; i++) acc += x[i];
            o[threadIdx.x] = acc;
        }
        """
        # trip count 8 > budget 1 -> stays a loop
        assert "bra" in nvcc(src).kernel("k").to_ptx()

    def test_loop_with_break_not_unrolled_but_correct(self):
        src = """
        __global__ void k(const int* x, int* o) {
            int acc = 0;
            for (int i = 0; i < 8; i++) {
                if (x[i] == 0) break;
                acc += x[i];
            }
            o[threadIdx.x] = acc;
        }
        """
        x = np.array([1, 2, 3, 0, 9, 9, 9, 9], dtype=np.int32)
        o = np.zeros(1, np.int32)
        (_, o_), _ = run_kernel(src, 1, 1, x, o)
        assert o_[0] == 6

    def test_downward_loop_unrolls(self):
        src = """
        __global__ void k(int* o) {
            int acc = 0;
            for (int i = 8; i > 0; i--) acc += i;
            o[threadIdx.x] = acc;
        }
        """
        mod = nvcc(src)
        assert "bra" not in mod.kernel("k").to_ptx()
        o = np.zeros(1, np.int32)
        (o_,), _ = run_kernel(src, 1, 1, o)
        assert o_[0] == 36

    def test_const_local_bound_unrolls(self):
        """const int n = MACRO*2; for(i<n) — folds through const locals."""
        src = """
        __global__ void k(const float* x, float* o) {
            const int n = 3 * 2;
            float acc = 0.0f;
            for (int i = 0; i < n; i++) acc += x[i];
            o[threadIdx.x] = acc;
        }
        """
        assert "bra" not in nvcc(src).kernel("k").to_ptx()

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 30), seed=st.integers(0, 100))
    def test_unrolled_equals_rolled(self, n, seed):
        """Property: unrolling never changes results."""
        src_template = """
        __global__ void k(const float* x, float* o) {
            float acc = 0.0f;
            for (int i = 0; i < %s; i++) acc += x[i] * (float)(i + 1);
            o[threadIdx.x] = acc;
        }
        """
        local = np.random.default_rng(seed)
        x = local.random(max(n, 1)).astype(np.float32)
        o1 = np.zeros(1, np.float32)
        o2 = np.zeros(1, np.float32)
        (_, r1), _ = run_kernel(src_template % n, 1, 1, x, o1)
        # force rolled via a runtime bound
        src_rt = src_template % "nn"
        src_rt = src_rt.replace("float* o)", "float* o, int nn)")
        (_, r2), _ = run_kernel(src_rt, 1, 1, x, o2, n)
        np.testing.assert_array_equal(r1, r2)


class TestDCEAndRegisters:
    def test_dead_code_removed(self):
        src = """
        __global__ void k(const float* x, float* o) {
            float unused = x[0] * 3.0f + 7.0f;
            float kept = x[1];
            o[threadIdx.x] = kept;
        }
        """
        mod = nvcc(src)
        # Only one global load should remain.
        loads = [i for i in mod.kernel("k").ir.instructions()
                 if i.op == "ld" and i.space == "global"]
        assert len(loads) == 1

    def test_cse_shares_address_math(self):
        src = """
        __global__ void k(const float* x, float* o, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            o[i] = x[i] + x[i];
        }
        """
        kernel = nvcc(src).kernel("k")
        loads = [i for i in kernel.ir.instructions()
                 if i.op == "ld" and i.space == "global"]
        # x[i] twice: CSE shares the address; both loads remain (memory
        # ops are not merged) but address math is computed once.
        adds64 = [i for i in kernel.ir.instructions()
                  if i.op == "add" and i.dtype.bits == 64]
        assert len(adds64) <= 2  # one per distinct base pointer

    def test_unreachable_branch_removed(self):
        src = """
        __global__ void k(float* o) {
            if (0) { o[0] = 1.0f; }
            else { o[1] = 2.0f; }
        }
        """
        kernel = nvcc(src).kernel("k")
        stores = [i for i in kernel.ir.instructions() if i.op == "st"]
        assert len(stores) == 1

    def test_register_count_grows_with_blocking(self):
        src = """
        __global__ void k(const float* x, float* o, int n) {
            float acc[RB];
            for (int r = 0; r < RB; r++) acc[r] = 0.0f;
            for (int i = 0; i < n; i++)
                for (int r = 0; r < RB; r++)
                    acc[r] += x[i * RB + r];
            for (int r = 0; r < RB; r++) o[r] = acc[r];
        }
        """
        regs = [nvcc(src, defines={"RB": rb}).kernel("k").reg_count
                for rb in (2, 4, 8, 16)]
        assert regs == sorted(regs)
        assert regs[-1] - regs[0] >= 10


def _shift_chain(count: int) -> str:
    """``count`` locals shifted down one slot per loop trip: after ``n``
    trips ``a0`` holds ``n - (count - 1)``, and constant propagation
    needs one trip around the loop per local to learn that none of them
    is a constant."""
    decls = " ".join(f"int a{i} = 0;" for i in range(count))
    shifts = " ".join(f"a{i} = a{i + 1};" for i in range(count - 1))
    last = f"a{count - 1}"
    return f"""
    __global__ void k(int* o, int n) {{
        {decls}
        for (int i = 0; i < n; ++i) {{ {shifts} {last} = {last} + 1; }}
        o[0] = a0;
    }}
    """


class TestConstantPropagation:
    def test_short_shift_chain_runs_correctly(self):
        out = np.zeros(1, np.int32)
        (result,), _ = KernelHarness(_shift_chain(40))(
            1, 1, out, 1000, engine="serial")
        assert int(result[0]) == 1000 - 39

    def test_long_shift_chain_is_not_folded_to_a_constant(self):
        # A propagation that rewrites before its facts converge folds
        # the store to ``st [o], 0``: the kernel writes 0, not 701.
        harness = KernelHarness(_shift_chain(300))
        stores = [i for i in harness.kernel.ir.instructions()
                  if i.op == "st"]
        assert len(stores) == 1 and isinstance(stores[0].srcs[1], Reg)
        # 300 live locals do not fit an SM: a typed error, not 0.
        assert harness.kernel.reg_count > 300
        with pytest.raises(OccupancyError):
            harness(1, 1, np.zeros(1, np.int32), 1000, engine="serial")

    def test_code_behind_a_branch_that_never_runs_is_ignored(self):
        # The walk follows executable edges only: ``seen`` is only ever
        # set inside ``if (seen)``, so it stays false, both guarded
        # statements go, and ``v`` is the constant 0.
        src = """
        __global__ void k(int* o, int n) {
            bool seen = false;
            int v = 0;
            for (int i = 0; i < n; ++i) {
                if (seen) v = v + 7;
                if (seen) seen = true;
            }
            o[0] = v;
        }
        """
        harness = KernelHarness(src)
        instrs = harness.kernel.ir.instructions()
        (store,) = [i for i in instrs if i.op == "st"]
        assert store.srcs[1] == Imm(0, T.S32)
        # Only the loop's exit test and back edge branch.
        assert len([i for i in instrs if i.op == "bra"]) == 2
        (out,), _ = harness(1, 1, np.ones(1, np.int32), 5, engine="serial")
        assert int(out[0]) == 0
