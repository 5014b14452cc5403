"""Per-instruction constant folding and algebraic simplification rules.

:func:`fold_instr` computes the immediate a pure instruction produces
when all of its operands are immediates, and :func:`fold_identity`
applies the usual algebraic identities (``x+0``, ``x*1``, ``x*0``,
``x<<0``, ``x&0``, ``x%1``...).  Neither walks a kernel: the
constant-propagation walk (:mod:`~repro.kernelc.passes.constprop`)
applies both to every reachable instruction once known constants are
substituted.  Constant folding is the workhorse of kernel
specialization: once ``-D`` macros pin parameter values, whole
address-computation chains collapse into immediates (compare
Appendices C and D of the dissertation).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.kernelc import typesys as T
from repro.kernelc.codegen import fold_binary, fold_unary_math
from repro.kernelc.ir import Imm, Instr

_BIN_OPS = {"add": "+", "sub": "-", "mul": "*", "div": "/", "rem": "%",
            "and": "&", "or": "|", "xor": "^", "shl": "<<", "shr": ">>"}

_CMP = {"eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
        "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
        "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b}


def fold_mul24(a: int, b: int, ctype) -> int:
    """Exact __[u]mul24 semantics: multiply the low 24 bits."""
    if ctype.signed:
        def ext(x):
            x &= 0xFFFFFF
            return x - 0x1000000 if x & 0x800000 else x
        return T.convert_const(ext(int(a)) * ext(int(b)), ctype)
    return T.convert_const((int(a) & 0xFFFFFF) * (int(b) & 0xFFFFFF), ctype)


def fold_instr(instr: Instr) -> Optional[Imm]:
    """Fold *instr* to an immediate result, or return None."""
    if not instr.is_pure():
        return None
    srcs = instr.srcs
    if not all(isinstance(s, Imm) for s in srcs):
        return None
    t = instr.dtype
    op = instr.op
    if op == "mov":
        return Imm(T.convert_const(srcs[0].value, t), t)
    if op == "cvt":
        value = srcs[0].value
        if t.is_integer and isinstance(value, float):
            value = math.trunc(value)  # C float->int truncates
        if instr.cmp.endswith(".rn") and t.is_integer:
            value = round(srcs[0].value)
        return Imm(T.convert_const(value, t), t)
    if op in _BIN_OPS:
        if t.is_bool and op in ("and", "or", "xor"):
            a, b = bool(srcs[0].value), bool(srcs[1].value)
            value = {"and": a and b, "or": a or b, "xor": a != b}[op]
            return Imm(value, T.BOOL)
        value = fold_binary(_BIN_OPS[op], srcs[0].value, srcs[1].value, t)
        return None if value is None else Imm(value, t)
    if op == "mul24":
        return Imm(fold_mul24(srcs[0].value, srcs[1].value, t), t)
    if op == "mulhi":
        a, b = int(srcs[0].value), int(srcs[1].value)
        return Imm(T.convert_const((a * b) >> 32, t), t)
    if op == "setp":
        return Imm(bool(_CMP[instr.cmp](srcs[0].value, srcs[1].value)),
                   T.BOOL)
    if op == "selp":
        return Imm(T.convert_const(
            srcs[0].value if srcs[2].value else srcs[1].value, t), t)
    if op in ("min", "max"):
        fn = min if op == "min" else max
        return Imm(T.convert_const(fn(srcs[0].value, srcs[1].value), t), t)
    if op in ("neg",):
        return Imm(T.convert_const(-srcs[0].value, t), t)
    if op == "not":
        if t.is_bool:
            return Imm(not srcs[0].value, T.BOOL)
        return Imm(T.convert_const(~int(srcs[0].value), t), t)
    if op in ("mad", "fma"):
        prod = fold_binary("*", srcs[0].value, srcs[1].value, t)
        if prod is None:
            return None
        value = fold_binary("+", prod, srcs[2].value, t)
        return None if value is None else Imm(value, t)
    if op in ("sqrt", "rsqrt", "abs", "floor", "ceil", "round", "trunc"):
        value = fold_unary_math(op, srcs[0].value, t)
        return None if value is None else Imm(value, t)
    if op == "rcp":
        if srcs[0].value == 0:
            return None
        return Imm(T.convert_const(1.0 / srcs[0].value, t), t)
    if op in ("exp2", "lg2", "sin", "cos"):
        try:
            fn = {"exp2": lambda x: 2.0 ** x,
                  "lg2": lambda x: math.log2(x),
                  "sin": math.sin, "cos": math.cos}[op]
            return Imm(T.convert_const(fn(srcs[0].value), t), t)
        except (ValueError, OverflowError):
            return None
    return None


def fold_identity(instr: Instr) -> Optional[Instr]:
    """Apply algebraic identities, returning a replacement or None."""
    op, t, srcs = instr.op, instr.dtype, instr.srcs
    if len(srcs) != 2 or t.is_bool:
        return None
    a, b = srcs

    def is_const(x, v):
        return isinstance(x, Imm) and x.value == v

    def mov(src):
        return Instr("mov", t, instr.dst, [src], line=instr.line)

    if op == "add":
        if is_const(b, 0):
            return mov(a)
        if is_const(a, 0) and not T.is_pointer(t):
            return mov(b)
    elif op == "sub":
        if is_const(b, 0):
            return mov(a)
    elif op == "mul":
        if is_const(b, 1):
            return mov(a)
        if is_const(a, 1):
            return mov(b)
        if (is_const(b, 0) or is_const(a, 0)) and t.is_integer:
            return mov(Imm(T.convert_const(0, t), t))
    elif op == "div":
        if is_const(b, 1):
            return mov(a)
    elif op in ("shl", "shr"):
        if is_const(b, 0):
            return mov(a)
    elif op == "and":
        if is_const(b, 0) or is_const(a, 0):
            return mov(Imm(T.convert_const(0, t), t))
        mask = (1 << t.bits) - 1 if t.is_integer else None
        if mask is not None and is_const(b, mask):
            return mov(a)
    elif op == "or":
        if is_const(b, 0):
            return mov(a)
        if is_const(a, 0):
            return mov(b)
    elif op == "rem":
        if is_const(b, 1) and t.is_integer:
            return mov(Imm(T.convert_const(0, t), t))
    return None
