"""C-like scalar and pointer types for the kernel language.

The kernel language supports the scalar types the dissertation's kernels
use (``int``, ``unsigned int``, ``float``, ``double``, and the 64-bit
integers that back pointers) plus pointers to them.  Types double as the
IR's operand types, so conversion and promotion rules live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ScalarType:
    """A scalar machine type.

    Attributes:
        name: C spelling (``int``, ``unsigned int``, ``float``...).
        kind: one of ``'int'``, ``'float'``, ``'bool'``, ``'void'``.
        bits: width in bits (0 for void).
        signed: meaningful only for integers.
    """

    name: str
    kind: str
    bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        # Both are asked for once per instruction by the passes and the
        # launch planner, so each is computed once per type.
        object.__setattr__(self, "_np_dtype", _scalar_dtype(self))
        object.__setattr__(self, "_ptx_suffix", _scalar_suffix(self))

    def __reduce__(self):
        # Pickle the fields only.  Unpickling returns the canonical
        # instance of that name, so ``t is F32``-style identity tests
        # agree with ``==`` after any process hop or cache disk hit.
        return _scalar_type, (self.name, self.kind, self.bits,
                              self.signed)

    def __hash__(self) -> int:  # cheap: name determines identity
        return hash(self.name)

    @property
    def size(self) -> int:
        """Size in bytes."""
        return self.bits // 8

    @property
    def is_integer(self) -> bool:
        return self.kind == "int"

    @property
    def is_float(self) -> bool:
        return self.kind == "float"

    @property
    def is_void(self) -> bool:
        return self.kind == "void"

    @property
    def is_bool(self) -> bool:
        return self.kind == "bool"

    def np_dtype(self) -> np.dtype:
        """The NumPy dtype used to hold lane values of this type."""
        if self._np_dtype is None:
            raise ValueError(f"no dtype for {self.name}")
        return self._np_dtype

    def ptx_suffix(self) -> str:
        """The PTX-style type suffix used when printing IR (e.g. ``.s32``)."""
        return self._ptx_suffix

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


_INT_DTYPES = {
    (8, True): np.int8, (8, False): np.uint8,
    (16, True): np.int16, (16, False): np.uint16,
    (32, True): np.int32, (32, False): np.uint32,
    (64, True): np.int64, (64, False): np.uint64,
}


def _scalar_dtype(t: ScalarType) -> Optional[np.dtype]:
    if t.kind == "bool":
        return np.dtype(np.bool_)
    if t.kind == "float":
        return np.dtype(np.float32 if t.bits == 32 else np.float64)
    if t.kind == "int":
        return np.dtype(_INT_DTYPES[(t.bits, t.signed)])
    return None


def _scalar_suffix(t: ScalarType) -> str:
    if t.kind == "bool":
        return ".pred"
    if t.kind == "float":
        return f".f{t.bits}"
    return f".{'s' if t.signed else 'u'}{t.bits}"


VOID = ScalarType("void", "void", 0)
BOOL = ScalarType("bool", "bool", 1)
S8 = ScalarType("char", "int", 8, True)
U8 = ScalarType("unsigned char", "int", 8, False)
S16 = ScalarType("short", "int", 16, True)
U16 = ScalarType("unsigned short", "int", 16, False)
S32 = ScalarType("int", "int", 32, True)
U32 = ScalarType("unsigned int", "int", 32, False)
S64 = ScalarType("long long", "int", 64, True)
U64 = ScalarType("unsigned long long", "int", 64, False)
F32 = ScalarType("float", "float", 32)
F64 = ScalarType("double", "float", 64)

_CANONICAL = {t.name: t for t in (VOID, BOOL, S8, U8, S16, U16, S32, U32,
                                  S64, U64, F32, F64)}


def _scalar_type(name: str, kind: str, bits: int,
                 signed: bool) -> ScalarType:
    """Unpickle a :class:`ScalarType`: the canonical instance when the
    fields name one, else a fresh type."""
    t = _CANONICAL.get(name)
    if t is not None and (t.kind, t.bits, t.signed) == (kind, bits,
                                                        signed):
        return t
    return ScalarType(name, kind, bits, signed)


#: Types addressable by name in kernel source.
NAMED_TYPES = {
    t.name: t
    for t in (VOID, S8, U8, S16, U16, S32, U32, S64, U64, F32, F64)
}
NAMED_TYPES["size_t"] = U64
NAMED_TYPES["unsigned"] = U32
NAMED_TYPES["uchar"] = U8
NAMED_TYPES["uint"] = U32
NAMED_TYPES["ushort"] = U16


@dataclass(frozen=True)
class PointerType:
    """A pointer to a scalar type in a particular memory space.

    Memory spaces follow CUDA: ``global`` (default for kernel pointer
    arguments), ``shared``, ``const``, ``local``.
    """

    pointee: ScalarType
    space: str = "global"

    def __hash__(self) -> int:
        return hash((self.pointee.name, self.space))

    @property
    def size(self) -> int:
        return 8

    @property
    def bits(self) -> int:
        return 64

    @property
    def kind(self) -> str:
        return "ptr"

    @property
    def is_integer(self) -> bool:
        return False

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_void(self) -> bool:
        return False

    @property
    def is_bool(self) -> bool:
        return False

    signed = False

    def np_dtype(self) -> np.dtype:
        return _POINTER_DTYPE

    def ptx_suffix(self) -> str:
        return ".u64"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.pointee}*"


_POINTER_DTYPE = np.dtype(np.uint64)

CType = object  # ScalarType | PointerType; kept loose for 3.9 compat


def is_pointer(t: CType) -> bool:
    return isinstance(t, PointerType)


def common_type(a: CType, b: CType) -> CType:
    """Usual arithmetic conversions for a binary operator.

    Pointer + integer keeps the pointer type.  Otherwise the wider /
    "floatier" type wins, with unsigned beating signed at equal width
    (matching C semantics closely enough for kernel code).
    """
    if is_pointer(a):
        return a
    if is_pointer(b):
        return b
    if a.is_float or b.is_float:
        if a.is_float and b.is_float:
            return a if a.bits >= b.bits else b
        return a if a.is_float else b
    if a.is_bool:
        a = S32
    if b.is_bool:
        b = S32
    # Integer promotion: everything below 32 bits promotes to int.
    if a.bits < 32:
        a = S32
    if b.bits < 32:
        b = S32
    if a.bits != b.bits:
        return a if a.bits > b.bits else b
    if a.signed != b.signed:
        return a if not a.signed else b
    return a


def convert_const(value, t: CType):
    """Convert a Python constant to the Python value domain of type *t*.

    Integers wrap modulo 2**bits with the proper sign; floats are rounded
    to the representable value via NumPy so constant folding matches what
    the simulator computes at run time.
    """
    if is_pointer(t):
        return int(value) & 0xFFFFFFFFFFFFFFFF
    if t.is_bool:
        return bool(value)
    if t.is_float:
        return float(np.dtype(t.np_dtype()).type(value))
    if t.is_integer:
        mask = (1 << t.bits) - 1
        v = int(value) & mask
        if t.signed and v >= (1 << (t.bits - 1)):
            v -= 1 << t.bits
        return v
    raise ValueError(f"cannot convert constant to {t}")
