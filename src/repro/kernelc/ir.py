"""PTX-like intermediate representation.

The IR is a typed, virtual-register, load/store representation with
labels and (optionally predicated) branches — the same abstraction level
as the PTX listings in the dissertation's Appendices C and D.  Virtual
registers are unlimited; a register-usage accounting pass
(:mod:`repro.kernelc.passes.regalloc`) later computes the per-thread
register footprint that drives the occupancy model, mirroring the
PTX → SASS register assignment step of the real toolchain.

Memory spaces: ``global``, ``shared``, ``const``, ``local``, ``param``.
Special-register reads (thread/block indices and dimensions) use ``mov``
from a :class:`Special` operand, as PTX does (``mov.u32 %r1, %tid.x``).

Register identity: a :class:`Reg` is the object :meth:`RegFactory.new`
returned, and registers compare and hash by identity.  ``new`` is the
only constructor the compiler uses, and every register it hands out
within one kernel has a distinct name: codegen's factory counts from 0,
and the passes that add registers (strength reduction, scalarization and
magic division) start their own factories at 1M, 2M and 3M.  So identity
and name agree, and passes key dictionaries and sets by register without
hashing its fields.  Pickling keeps identity within one pickle, so a
module round-trips with its registers shared as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.kernelc import typesys as T

# ----------------------------------------------------------------------
# Operands


@dataclass(frozen=True, eq=False)
class Reg:
    """A virtual register, equal only to itself (see the module
    docstring).  ``name`` is unique within a kernel."""

    # Compiled modules keep every register of every kernel they hold.
    __slots__ = ("name", "ctype")

    name: str
    ctype: object

    def __reduce__(self):
        # Frozen slots cannot be set by unpickling's setattr; pickle
        # memoizes the rebuilt object, so identity still round-trips.
        return Reg, (self.name, self.ctype)

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Imm:
    """An immediate constant operand."""

    value: object
    ctype: object

    def __hash__(self) -> int:
        return hash((self.value, self.ctype.name
                     if hasattr(self.ctype, "name") else str(self.ctype)))

    def __str__(self) -> str:
        if isinstance(self.value, float):
            return f"0F{self.value!r}" if self.ctype is T.F32 else repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class Special:
    """A special (hardware) register, e.g. ``tid.x`` or ``ntid.y``."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


Operand = Union[Reg, Imm, Special]


# ----------------------------------------------------------------------
# Instructions

#: Opcodes with no side effects (candidates for DCE / CSE).
#: Texture fetches read immutable memory within a launch, but are kept
#: out of PURE_OPS so they survive like loads (removable only via the
#: unused-destination rule in DCE).
PURE_OPS = {
    "mov", "cvt", "add", "sub", "mul", "mul24", "mulhi", "mad", "fma",
    "div", "rem", "neg", "abs", "min", "max", "and", "or", "xor", "not",
    "shl", "shr", "setp", "selp", "sqrt", "rsqrt", "rcp", "floor",
    "ceil", "round", "trunc", "exp2", "lg2", "sin", "cos", "sad",
}

#: Opcodes that read memory (still removable if the result is unused,
#: except volatile — which the subset does not model).
LOAD_OPS = {"ld"}

#: Commutative binary opcodes (used by CSE's operand canonicalization).
COMMUTATIVE_OPS = {"add", "mul", "mul24", "and", "or", "xor", "min", "max"}


@dataclass
class Instr:
    """One IR instruction.

    Attributes:
        op: opcode mnemonic (see module docstring).
        dtype: operation type (:class:`~repro.kernelc.typesys.ScalarType`
            or pointer type).
        dst: destination register or None.
        srcs: operand list.
        cmp: comparison for ``setp`` (eq/ne/lt/le/gt/ge).
        space: memory space for ``ld``/``st``/``atom``.
        target: label name for ``bra``.
        pred: optional guard predicate register.
        pred_neg: when True the guard is ``@!pred``.
        line: originating source line (diagnostics only).
    """

    op: str
    dtype: object = T.S32
    dst: Optional[Reg] = None
    srcs: List[Operand] = field(default_factory=list)
    cmp: str = ""
    space: str = ""
    target: str = ""
    pred: Optional[Reg] = None
    pred_neg: bool = False
    line: int = 0

    def is_pure(self) -> bool:
        return self.op in PURE_OPS

    def is_memory(self) -> bool:
        return self.op in ("ld", "st", "atom")

    def mnemonic(self) -> str:
        parts = [self.op]
        if self.cmp:
            parts.append(self.cmp)
        if self.space:
            parts.append(self.space)
        if self.op not in ("bra", "bar", "exit", "ret", "membar"):
            suffix = self.dtype.ptx_suffix().lstrip(".")
            parts.append(suffix)
        return ".".join(parts)

    def __str__(self) -> str:
        guard = ""
        if self.pred is not None:
            guard = f"@{'!' if self.pred_neg else ''}{self.pred} "
        ops: List[str] = []
        if self.dst is not None:
            ops.append(str(self.dst))
        if self.op == "ld":
            ops.append(f"[{self.srcs[0]}]")
            ops.extend(str(s) for s in self.srcs[1:])
        elif self.op == "st":
            ops = [f"[{self.srcs[0]}]"] + [str(s) for s in self.srcs[1:]]
        elif self.op == "atom":
            ops.append(f"[{self.srcs[0]}]")
            ops.extend(str(s) for s in self.srcs[1:])
        else:
            ops.extend(str(s) for s in self.srcs)
        if self.op == "bra":
            ops.append(self.target)
        body = f"{self.mnemonic()} " + ", ".join(ops)
        return f"\t{guard}{body.rstrip()};"


@dataclass
class Label:
    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


BodyItem = Union[Instr, Label]


# ----------------------------------------------------------------------
# Kernels and modules


@dataclass
class SharedDecl:
    """A block-shared array: element type + element count + byte offset."""

    name: str
    ctype: object
    count: int
    offset: int = 0

    @property
    def nbytes(self) -> int:
        return self.count * self.ctype.size


@dataclass
class IRKernel:
    """A compiled kernel: signature, body, and memory layout metadata."""

    name: str
    params: List[Tuple[str, object]]
    body: List[BodyItem] = field(default_factory=list)
    shared: Dict[str, SharedDecl] = field(default_factory=dict)
    local_arrays: Dict[str, SharedDecl] = field(default_factory=dict)
    launch_bounds: Optional[Tuple[int, int]] = None
    #: Filled by the regalloc pass: 32-bit register equivalents per thread.
    reg_count: int = 0
    line: int = 0

    @property
    def shared_bytes(self) -> int:
        """Static shared memory required per block."""
        return sum(d.nbytes for d in self.shared.values())

    @property
    def local_bytes(self) -> int:
        """Per-thread local (spill) memory."""
        return sum(d.nbytes for d in self.local_arrays.values())

    def instructions(self) -> List[Instr]:
        return [item for item in self.body if isinstance(item, Instr)]

    def static_instruction_count(self) -> int:
        return len(self.instructions())

    def param_index(self, name: str) -> int:
        for i, (pname, _) in enumerate(self.params):
            if pname == name:
                return i
        raise KeyError(name)

    def to_ptx(self) -> str:
        """Render the kernel in PTX-like text (Appendix C/D style)."""
        lines = []
        params = ", ".join(
            f".param {t.ptx_suffix().lstrip('.')} {n}"
            for n, t in self.params)
        lines.append(f".entry {self.name} ({params})")
        lines.append("{")
        for decl in self.shared.values():
            lines.append(
                f"\t.shared .align {decl.ctype.size} "
                f".b8 {decl.name}[{decl.nbytes}];")
        for decl in self.local_arrays.values():
            lines.append(
                f"\t.local .align {decl.ctype.size} "
                f".b8 {decl.name}[{decl.nbytes}];")
        for item in self.body:
            lines.append(str(item))
        lines.append("}")
        return "\n".join(lines)


@dataclass
class ConstGlobal:
    """Module-scope __constant__ memory declaration."""

    name: str
    ctype: object
    count: int
    offset: int = 0

    @property
    def nbytes(self) -> int:
        return self.count * self.ctype.size


@dataclass
class TextureRef:
    """A module-scope texture reference awaiting a host-side binding."""

    name: str
    ctype: object
    dims: int


@dataclass
class IRModule:
    """A compiled translation unit: kernels plus constant-memory layout."""

    kernels: Dict[str, IRKernel] = field(default_factory=dict)
    const_globals: Dict[str, ConstGlobal] = field(default_factory=dict)
    textures: Dict[str, TextureRef] = field(default_factory=dict)

    @property
    def const_bytes(self) -> int:
        return sum(g.nbytes for g in self.const_globals.values())

    def to_ptx(self) -> str:
        lines = ["// generated by repro.kernelc", ".version 2.3",
                 ".target sm_20", ""]
        for g in self.const_globals.values():
            lines.append(
                f".const .align {g.ctype.size} .b8 {g.name}[{g.nbytes}];")
        for kernel in self.kernels.values():
            lines.append("")
            lines.append(kernel.to_ptx())
        return "\n".join(lines)


def _reg_prefix(ctype) -> str:
    """PTX register-name prefix of a *ctype* register."""
    if T.is_pointer(ctype) or ctype.kind == "int" and ctype.bits == 64:
        return "rd"
    if ctype.kind == "bool":
        return "p"
    if ctype.kind == "float":
        return "fd" if ctype.bits == 64 else "f"
    return "r"


#: ctype -> :func:`_reg_prefix`, asked once per register made.
_REG_PREFIX: Dict[object, str] = {}


class RegFactory:
    """Allocates uniquely named virtual registers per kernel."""

    def __init__(self) -> None:
        self._counter = 0

    def new(self, ctype) -> Reg:
        self._counter += 1
        prefix = _REG_PREFIX.get(ctype)
        if prefix is None:
            prefix = _REG_PREFIX[ctype] = _reg_prefix(ctype)
        return Reg(f"{prefix}{self._counter}", ctype)


def renumber(kernel: IRKernel) -> None:
    """Renumber virtual registers densely after passes (cosmetic)."""
    factory = RegFactory()
    mapping: Dict[Reg, Reg] = {}

    def remap(reg: Reg) -> Reg:
        new = mapping.get(reg)
        if new is None:
            new = mapping[reg] = factory.new(reg.ctype)
        return new

    for instr in kernel.body:
        if not isinstance(instr, Instr):
            continue
        if instr.dst is not None:
            instr.dst = remap(instr.dst)
        if instr.srcs:
            # A copy, not a comprehension: exact-size lists stay small
            # in the modules a cache keeps.
            srcs = instr.srcs = list(instr.srcs)
            for j, s in enumerate(srcs):
                if isinstance(s, Reg):
                    srcs[j] = remap(s)
        if instr.pred is not None:
            instr.pred = remap(instr.pred)
