"""Per-instruction constant folding and algebraic simplification rules.

:func:`fold_instr` computes the immediate a pure instruction produces
when all of its operands are immediates (:func:`fold_values` does the
same from the bare operand values), and :func:`fold_identity` applies
the usual algebraic identities (``x+0``, ``x*1``, ``x*0``, ``x<<0``,
``x&0``, ``x%1``...), which :func:`identity` picks from operand values.
Neither walks a kernel: the constant-propagation walk
(:mod:`~repro.kernelc.passes.constprop`) applies both to every reachable
instruction once known constants are substituted.  Constant folding is
the workhorse of kernel specialization: once ``-D`` macros pin parameter
values, whole address-computation chains collapse into immediates
(compare Appendices C and D of the dissertation).
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
    return fold_values(instr.op, instr.dtype, instr.cmp,
                       [s.value for s in srcs])


def fold_values(op: str, t, cmp: str, values: list) -> Optional[Imm]:
    """The immediate the pure *op* (type *t*, comparison *cmp*) yields
    from the constant operand *values*, or None when it does not fold."""
    if op == "mov":
        return Imm(T.convert_const(values[0], t), t)
    if op == "cvt":
        value = values[0]
        if t.is_integer and isinstance(value, float):
            value = math.trunc(value)  # C float->int truncates
        if cmp.endswith(".rn") and t.is_integer:
            value = round(values[0])
        return Imm(T.convert_const(value, t), t)
    if op in _BIN_OPS:
        if t.is_bool and op in ("and", "or", "xor"):
            a, b = bool(values[0]), bool(values[1])
            value = {"and": a and b, "or": a or b, "xor": a != b}[op]
            return Imm(value, T.BOOL)
        value = fold_binary(_BIN_OPS[op], values[0], values[1], t)
        return None if value is None else Imm(value, t)
    if op == "mul24":
        return Imm(fold_mul24(values[0], values[1], t), t)
    if op == "mulhi":
        a, b = int(values[0]), int(values[1])
        return Imm(T.convert_const((a * b) >> 32, t), t)
    if op == "setp":
        return Imm(bool(_CMP[cmp](values[0], values[1])), T.BOOL)
    if op == "selp":
        return Imm(T.convert_const(
            values[0] if values[2] else values[1], t), t)
    if op in ("min", "max"):
        fn = min if op == "min" else max
        return Imm(T.convert_const(fn(values[0], values[1]), t), t)
    if op in ("neg",):
        return Imm(T.convert_const(-values[0], t), t)
    if op == "not":
        if t.is_bool:
            return Imm(not values[0], T.BOOL)
        return Imm(T.convert_const(~int(values[0]), t), t)
    if op in ("mad", "fma"):
        prod = fold_binary("*", values[0], values[1], t)
        if prod is None:
            return None
        value = fold_binary("+", prod, values[2], t)
        return None if value is None else Imm(value, t)
    if op in ("sqrt", "rsqrt", "abs", "floor", "ceil", "round", "trunc"):
        value = fold_unary_math(op, values[0], t)
        return None if value is None else Imm(value, t)
    if op == "rcp":
        if values[0] == 0:
            return None
        return Imm(T.convert_const(1.0 / values[0], t), t)
    if op in ("exp2", "lg2", "sin", "cos"):
        try:
            fn = {"exp2": lambda x: 2.0 ** x,
                  "lg2": lambda x: math.log2(x),
                  "sin": math.sin, "cos": math.cos}[op]
            return Imm(T.convert_const(fn(values[0]), t), t)
        except (ValueError, OverflowError):
            return None
    return None


def fold_identity(instr: Instr) -> Optional[Instr]:
    """Apply algebraic identities, returning a replacement or None."""
    srcs = instr.srcs
    if len(srcs) != 2:
        return None
    a, b = srcs
    pick = identity(instr.op, instr.dtype,
                    a.value if isinstance(a, Imm) else None,
                    b.value if isinstance(b, Imm) else None)
    if pick is None:
        return None
    t = instr.dtype
    src = Imm(T.convert_const(0, t), t) if pick == ZERO else srcs[pick]
    return Instr("mov", t, instr.dst, [src], line=instr.line)


#: :func:`identity`'s answer when ``op a, b`` is the constant zero.
ZERO = 2


def identity(op: str, t, a, b) -> Optional[int]:
    """The algebraic identity (``x+0``, ``x*1``, ``x*0``, ``x<<0``,
    ``x&0``, ``x%1``...) that reduces ``op a, b`` of type *t* to a copy:
    0 for a copy of ``a``, 1 for ``b``, :data:`ZERO` for the constant
    zero, None when none applies.  *a* and *b* are the operands'
    constant values, None where not constant."""
    if t.is_bool:
        return None

    def is_const(x, v):
        return x is not None and x == v

    if op == "add":
        if is_const(b, 0):
            return 0
        if is_const(a, 0) and not T.is_pointer(t):
            return 1
    elif op == "sub":
        if is_const(b, 0):
            return 0
    elif op == "mul":
        if is_const(b, 1):
            return 0
        if is_const(a, 1):
            return 1
        if (is_const(b, 0) or is_const(a, 0)) and t.is_integer:
            return ZERO
    elif op == "div":
        if is_const(b, 1):
            return 0
    elif op in ("shl", "shr"):
        if is_const(b, 0):
            return 0
    elif op == "and":
        if is_const(b, 0) or is_const(a, 0):
            return ZERO
        mask = (1 << t.bits) - 1 if t.is_integer else None
        if mask is not None and is_const(b, mask):
            return 0
    elif op == "or":
        if is_const(b, 0):
            return 0
        if is_const(a, 0):
            return 1
    elif op == "rem":
        if is_const(b, 1) and t.is_integer:
            return ZERO
    return None
