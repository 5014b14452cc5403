"""AST → IR lowering.

The code generator performs the constant-driven work that ``nvcc``'s
front end performs and that kernel specialization exploits:

* **Eager constant folding** — expressions whose operands are literals
  (after ``-D`` macro substitution) fold at lowering time, so specialized
  kernels never materialize their parameters.
* **Loop unrolling** — ``for`` loops whose bounds are compile-time
  constants (directly, or through ``const`` locals initialized from
  constants) are fully unrolled up to a budget, binding the induction
  variable to a constant in each copy.
* **Compile-time dead branch elimination** — ``if`` over a constant
  condition lowers only the taken arm.
* **Register blocking enablement** — local arrays indexed by unrolled
  induction variables end up with constant indices, letting the
  scalarization pass promote them to registers (NVIDIA GPUs cannot
  indirectly address the register file, so this requires fixed indices —
  §2.4 of the dissertation).

Device functions are force-inlined, as the dissertation's
``__forceinline__`` template utilities are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.kernelc import ast_nodes as A
from repro.kernelc import typesys as T
from repro.kernelc.ir import (ConstGlobal, Imm, Instr, IRKernel, IRModule,
                              Label, Operand, Reg, RegFactory, SharedDecl,
                              Special)


class CodegenError(Exception):
    """Raised on semantic errors (unknown identifiers, bad types...)."""


@dataclass
class CodegenOptions:
    """Front-end lowering options.

    Attributes:
        unroll: automatically unroll constant-trip-count loops.
        max_unroll: largest trip count eligible for full unrolling.
        fold: eagerly fold constant expressions (turning this off
            produces deliberately naive IR for testing the IR passes).
    """

    unroll: bool = True
    max_unroll: int = 4096
    fold: bool = True


# A variable binding: ('reg', Reg) | ('imm', Imm) | ('array', ArrayInfo)
@dataclass
class ArrayInfo:
    name: str
    elem: object
    count: int
    space: str  # shared | local | const
    base: int  # byte offset within its space


@dataclass
class _LoopCtx:
    break_label: str
    continue_label: str


class _FuncLowering:
    """Lowers one kernel (including everything inlined into it)."""

    def __init__(self, gen: "CodeGen", func: A.FuncDef):
        self.gen = gen
        self.func = func
        self.opts = gen.opts
        self.regs = RegFactory()
        self.body: List[Union[Instr, Label]] = []
        self.scopes: List[Dict[str, tuple]] = [{}]
        self.kernel = IRKernel(
            name=func.name,
            params=[(p.name, p.ctype) for p in func.params],
            launch_bounds=func.launch_bounds,
            line=func.line,
        )
        self._label_counter = 0
        self._shared_offset = 0
        self._local_offset = 0
        self._special_cache: Dict[str, Reg] = {}
        self._param_cache: Dict[str, Reg] = {}
        self._loops: List[_LoopCtx] = []
        self._exit_label = self._new_label("EXIT")
        self._inline_depth = 0
        # Inside an inlined device function, return jumps here and
        # writes this register.
        self._ret_stack: List[Tuple[str, Optional[Reg]]] = []

    # -- infrastructure ------------------------------------------------

    def emit(self, instr: Instr) -> Instr:
        self.body.append(instr)
        return instr

    def _new_label(self, stem: str = "L") -> str:
        self._label_counter += 1
        return f"${stem}_{self.func.name}_{self._label_counter}"

    def place(self, label: str) -> None:
        self.body.append(Label(label))

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def lookup(self, name: str):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def bind(self, name: str, binding: tuple) -> None:
        self.scopes[-1][name] = binding

    # -- entry ---------------------------------------------------------

    def lower(self) -> IRKernel:
        for param in self.func.params:
            self.bind(param.name, ("param", param))
        # Hoist parameter and special-register loads to the entry block
        # (as nvcc does) so they are never first-executed under a
        # divergent mask; DCE sweeps the unused ones.
        for param in self.func.params:
            reg = self.regs.new(param.ctype)
            self.emit(Instr("ld", param.ctype, reg, [Special(param.name)],
                            space="param", line=self.func.line))
            self._param_cache[param.name] = reg
        for axis in ("x", "y", "z"):
            for unit in ("tid", "ntid", "ctaid", "nctaid"):
                name = f"{unit}.{axis}"
                reg = self.regs.new(T.U32)
                self.emit(Instr("mov", T.U32, reg, [Special(name)],
                                line=self.func.line))
                self._special_cache[name] = reg
        for stmt in self.func.body:
            self.stmt(stmt)
        self.place(self._exit_label)
        self.emit(Instr("exit", T.VOID))
        self.kernel.body = self.body
        return self.kernel

    # -- statements ----------------------------------------------------

    def stmt(self, node: A.Stmt) -> None:
        method = getattr(self, f"_stmt_{type(node).__name__}", None)
        if method is None:
            raise CodegenError(
                f"line {node.line}: cannot lower {type(node).__name__}")
        method(node)

    def _stmt_Block(self, node: A.Block) -> None:
        self.push_scope()
        for child in node.body:
            self.stmt(child)
        self.pop_scope()

    def _stmt_ExprStmt(self, node: A.ExprStmt) -> None:
        self.expr(node.expr)

    def _stmt_SyncThreads(self, node: A.SyncThreads) -> None:
        self.emit(Instr("bar", T.VOID, line=node.line))

    def _stmt_DeclStmt(self, node: A.DeclStmt) -> None:
        for name, ctype, array_size, init in node.decls:
            if array_size is not None:
                self._declare_array(node, name, ctype, array_size, init)
                continue
            init_op: Optional[Operand] = None
            if init is not None:
                if T.is_pointer(ctype):
                    # Pointer variables inherit the memory space of
                    # their initializer (e.g. 'float* p = sharedArr;').
                    probe, actual = self.expr(init)
                    if T.is_pointer(actual) and \
                            actual.space != ctype.space:
                        ctype = T.pointer_type(ctype.pointee, actual.space)
                    init_op = self.coerce(probe, actual, ctype, node.line)
                else:
                    init_op = self.expr_as(init, ctype)
            if (node.const and isinstance(init_op, Imm)
                    and self.opts.fold):
                # Compile-time constant: participate in folding directly,
                # exactly like a specialized macro value would.
                self.bind(name, ("imm", Imm(init_op.value, ctype)))
                continue
            reg = self.regs.new(ctype)
            self.bind(name, ("reg", reg))
            if init_op is not None:
                self.emit(Instr("mov", ctype, reg, [init_op],
                                line=node.line))

    def _declare_array(self, node: A.DeclStmt, name, ctype, size_expr,
                       init) -> None:
        if init is not None:
            raise CodegenError(
                f"line {node.line}: array initializers are not supported")
        size_op = self.expr(size_expr)[0]
        if not isinstance(size_op, Imm):
            raise CodegenError(
                f"line {node.line}: array {name!r} needs a compile-time "
                "size — specialize the size parameter or keep it a macro")
        count = int(size_op.value)
        if count <= 0:
            raise CodegenError(
                f"line {node.line}: array {name!r} has non-positive size")
        align = ctype.size
        if node.shared:
            offset = _align(self._shared_offset, align)
            self._shared_offset = offset + count * ctype.size
            uname = self._unique_mem_name(name)
            self.kernel.shared[uname] = SharedDecl(uname, ctype, count,
                                                   offset)
            self.bind(name, ("array", ArrayInfo(uname, ctype, count,
                                                "shared", offset)))
        else:
            offset = _align(self._local_offset, align)
            self._local_offset = offset + count * ctype.size
            uname = self._unique_mem_name(name)
            self.kernel.local_arrays[uname] = SharedDecl(uname, ctype,
                                                         count, offset)
            self.bind(name, ("array", ArrayInfo(uname, ctype, count,
                                                "local", offset)))

    def _unique_mem_name(self, name: str) -> str:
        base = name
        i = 0
        existing = set(self.kernel.shared) | set(self.kernel.local_arrays)
        while name in existing:
            i += 1
            name = f"{base}${i}"
        return name

    def _stmt_If(self, node: A.If) -> None:
        pred = self.condition(node.cond)
        if isinstance(pred, Imm):
            branch = node.then if pred.value else node.other
            self.push_scope()
            for child in branch:
                self.stmt(child)
            self.pop_scope()
            return
        else_label = self._new_label("ELSE")
        end_label = self._new_label("ENDIF")
        target = else_label if node.other else end_label
        self.emit(Instr("bra", T.VOID, target=target, pred=pred,
                        pred_neg=True, line=node.line))
        self.push_scope()
        for child in node.then:
            self.stmt(child)
        self.pop_scope()
        if node.other:
            self.emit(Instr("bra", T.VOID, target=end_label))
            self.place(else_label)
            self.push_scope()
            for child in node.other:
                self.stmt(child)
            self.pop_scope()
        self.place(end_label)

    def _stmt_While(self, node: A.While) -> None:
        top = self._new_label("WHILE")
        end = self._new_label("ENDWHILE")
        self.place(top)
        pred = self.condition(node.cond)
        if isinstance(pred, Imm):
            if not pred.value:
                self.place(end)
                return
        else:
            self.emit(Instr("bra", T.VOID, target=end, pred=pred,
                            pred_neg=True, line=node.line))
        self._loops.append(_LoopCtx(end, top))
        self.push_scope()
        for child in node.body:
            self.stmt(child)
        self.pop_scope()
        self._loops.pop()
        self.emit(Instr("bra", T.VOID, target=top))
        self.place(end)

    def _stmt_DoWhile(self, node: A.DoWhile) -> None:
        top = self._new_label("DO")
        cond_label = self._new_label("DOCOND")
        end = self._new_label("ENDDO")
        self.place(top)
        self._loops.append(_LoopCtx(end, cond_label))
        self.push_scope()
        for child in node.body:
            self.stmt(child)
        self.pop_scope()
        self._loops.pop()
        self.place(cond_label)
        pred = self.condition(node.cond)
        if isinstance(pred, Imm):
            if pred.value:
                self.emit(Instr("bra", T.VOID, target=top))
        else:
            self.emit(Instr("bra", T.VOID, target=top, pred=pred,
                            line=node.line))
        self.place(end)

    def _stmt_For(self, node: A.For) -> None:
        if self._try_unroll(node):
            return
        self.push_scope()
        if node.init is not None:
            self.stmt(node.init)
        top = self._new_label("FOR")
        step_label = self._new_label("FORSTEP")
        end = self._new_label("ENDFOR")
        self.place(top)
        if node.cond is not None:
            pred = self.condition(node.cond)
            if isinstance(pred, Imm):
                if not pred.value:
                    self.place(end)
                    self.pop_scope()
                    return
            else:
                self.emit(Instr("bra", T.VOID, target=end, pred=pred,
                                pred_neg=True, line=node.line))
        self._loops.append(_LoopCtx(end, step_label))
        self.push_scope()
        for child in node.body:
            self.stmt(child)
        self.pop_scope()
        self._loops.pop()
        self.place(step_label)
        if node.step is not None:
            self.expr(node.step)
        self.emit(Instr("bra", T.VOID, target=top))
        self.place(end)
        self.pop_scope()

    # -- loop unrolling --------------------------------------------

    def _try_unroll(self, node: A.For) -> bool:
        """Fully unroll a constant-trip-count counted loop.

        Requires the canonical shape ``for (int i = C0; i CMP C1; STEP)``
        with all of C0/C1/STEP folding to constants at this point, no
        writes to ``i`` in the body, and no ``break``/``continue``.
        This is exactly the condition under which nvcc can unroll — and
        what specialization restores when the bounds come from ``-D``
        macros (§2.4, §4).
        """
        if not self.opts.unroll or node.unroll == 0:
            return False
        plan = self._unroll_plan(node)
        if plan is None:
            return False
        var, ctype, values = plan
        limit = (self.opts.max_unroll if node.unroll in (None, -1)
                 else max(node.unroll, 1))
        if len(values) > limit:
            return False
        self.push_scope()
        for value in values:
            self.push_scope()
            self.bind(var, ("imm", Imm(T.convert_const(value, ctype),
                                       ctype)))
            for child in node.body:
                self.stmt(child)
            self.pop_scope()
        self.pop_scope()
        return True

    def _unroll_plan(self, node: A.For):
        init = node.init
        var = None
        ctype = T.S32
        start = None
        if isinstance(init, A.DeclStmt) and len(init.decls) == 1:
            name, dtype, array_size, init_expr = init.decls[0]
            if array_size is not None or init_expr is None:
                return None
            if not (hasattr(dtype, "is_integer") and dtype.is_integer):
                return None
            start = self._fold_const(init_expr)
            var, ctype = name, dtype
        elif isinstance(init, A.ExprStmt) and \
                isinstance(init.expr, A.Assign) and not init.expr.op and \
                isinstance(init.expr.target, A.Ident):
            # for (i = C; ...) over an existing variable: only safe when
            # the variable is dead after the loop; be conservative.
            return None
        else:
            return None
        if start is None or var is None:
            return None
        cond = node.cond
        if not (isinstance(cond, A.Binary)
                and cond.op in ("<", "<=", ">", ">=", "!=")
                and isinstance(cond.left, A.Ident)
                and cond.left.name == var):
            return None
        bound = self._fold_const(cond.right)
        if bound is None:
            return None
        step = node.step
        delta = None
        if isinstance(step, A.IncDec) and isinstance(step.target, A.Ident) \
                and step.target.name == var:
            delta = 1 if step.op == "++" else -1
        elif isinstance(step, A.Assign) and step.op in ("+", "-") and \
                isinstance(step.target, A.Ident) and \
                step.target.name == var:
            d = self._fold_const(step.value)
            if d is None or d == 0:
                return None
            delta = d if step.op == "+" else -d
        if delta is None or delta == 0:
            return None
        if _writes_var(node.body, var) or _has_loop_escape(node.body):
            return None
        values: List[int] = []
        i = int(start)
        bound = int(bound)
        cmp = cond.op
        guard = 0
        while guard <= self.opts.max_unroll:
            ok = {"<": i < bound, "<=": i <= bound, ">": i > bound,
                  ">=": i >= bound, "!=": i != bound}[cmp]
            if not ok:
                break
            values.append(i)
            i += delta
            guard += 1
        else:
            return None
        return var, ctype, values

    def _fold_const(self, expr: A.Expr) -> Optional[int]:
        """Evaluate *expr* to an integer without emitting code, or None.

        Speculative: any instructions emitted while probing are rolled
        back, along with cache entries they would have defined.
        """
        mark = len(self.body)
        special_snapshot = dict(self._special_cache)
        param_snapshot = dict(self._param_cache)
        try:
            op, _ = self.expr(expr)
        except CodegenError:
            op = None
        if isinstance(op, Imm) and len(self.body) == mark:
            return int(op.value)
        del self.body[mark:]
        self._special_cache = special_snapshot
        self._param_cache = param_snapshot
        return None

    # -- jumps -----------------------------------------------------

    def _stmt_Break(self, node: A.Break) -> None:
        if not self._loops:
            raise CodegenError(f"line {node.line}: break outside a loop")
        self.emit(Instr("bra", T.VOID, target=self._loops[-1].break_label,
                        line=node.line))

    def _stmt_Continue(self, node: A.Continue) -> None:
        if not self._loops:
            raise CodegenError(f"line {node.line}: continue outside a loop")
        self.emit(Instr("bra", T.VOID,
                        target=self._loops[-1].continue_label,
                        line=node.line))

    def _stmt_Return(self, node: A.Return) -> None:
        if self._ret_stack:
            label, reg = self._ret_stack[-1]
            if node.value is not None:
                if reg is None:
                    raise CodegenError(
                        f"line {node.line}: void function returns a value")
                value = self.expr_as(node.value, reg.ctype)
                self.emit(Instr("mov", reg.ctype, reg, [value],
                                line=node.line))
            self.emit(Instr("bra", T.VOID, target=label, line=node.line))
        else:
            if node.value is not None:
                raise CodegenError(
                    f"line {node.line}: kernels return void")
            self.emit(Instr("bra", T.VOID, target=self._exit_label,
                            line=node.line))

    # -- expressions -----------------------------------------------

    def expr(self, node: A.Expr) -> Tuple[Operand, object]:
        method = getattr(self, f"_expr_{type(node).__name__}", None)
        if method is None:
            raise CodegenError(
                f"line {node.line}: cannot lower expression "
                f"{type(node).__name__}")
        return method(node)

    def expr_as(self, node: A.Expr, ctype) -> Operand:
        op, actual = self.expr(node)
        return self.coerce(op, actual, ctype, node.line)

    def coerce(self, op: Operand, from_t, to_t, line: int = 0) -> Operand:
        if from_t == to_t:
            return op
        if isinstance(op, Imm):
            return Imm(T.convert_const(op.value, to_t), to_t)
        if T.is_pointer(from_t) and T.is_pointer(to_t):
            # Pointer reinterpretation is free.
            return Reg(op.name, to_t) if isinstance(op, Reg) else op
        dst = self.regs.new(to_t)
        self.emit(Instr("cvt", to_t, dst, [op], cmp=_cvt_tag(from_t),
                        line=line))
        return dst

    def _expr_IntLit(self, node: A.IntLit):
        return Imm(T.convert_const(node.value, node.ctype),
                   node.ctype), node.ctype

    def _expr_FloatLit(self, node: A.FloatLit):
        return Imm(T.convert_const(node.value, node.ctype),
                   node.ctype), node.ctype

    def _expr_BoolLit(self, node: A.BoolLit):
        return Imm(node.value, T.BOOL), T.BOOL

    def _expr_BuiltinVar(self, node: A.BuiltinVar):
        if node.name == "warpSize":
            return Imm(32, T.S32), T.S32
        reg = self._special_cache.get(node.name)
        if reg is None:
            reg = self.regs.new(T.U32)
            self.emit(Instr("mov", T.U32, reg, [Special(node.name)],
                            line=node.line))
            self._special_cache[node.name] = reg
        return reg, T.U32

    def _expr_Ident(self, node: A.Ident):
        if node.name == "warpSize":
            return Imm(32, T.S32), T.S32
        binding = self.lookup(node.name)
        if binding is None:
            const = self.gen.const_globals.get(node.name)
            if const is not None:
                ptr_t = T.pointer_type(const.ctype, "const")
                return Imm(const.offset, ptr_t), ptr_t
            raise CodegenError(
                f"line {node.line}: unknown identifier {node.name!r} — "
                "if this is a specialization constant, pass it via "
                "defines=...")
        kind = binding[0]
        if kind == "imm":
            imm = binding[1]
            return imm, imm.ctype
        if kind == "reg":
            reg = binding[1]
            return reg, reg.ctype
        if kind == "param":
            param = binding[1]
            reg = self._param_cache.get(param.name)
            if reg is None:
                reg = self.regs.new(param.ctype)
                self.emit(Instr("ld", param.ctype, reg,
                                [Special(param.name)], space="param",
                                line=node.line))
                self._param_cache[param.name] = reg
            return reg, param.ctype
        if kind == "array":
            info: ArrayInfo = binding[1]
            ptr_t = T.pointer_type(info.elem, info.space)
            return Imm(info.base, ptr_t), ptr_t
        raise CodegenError(f"line {node.line}: bad binding for "
                           f"{node.name!r}")

    def _expr_Cast(self, node: A.Cast):
        op, from_t = self.expr(node.operand)
        to_t = node.ctype
        if T.is_pointer(to_t) and not T.is_pointer(from_t):
            # int -> pointer (specialized pointer constants, §4 fn 1)
            if isinstance(op, Imm):
                return Imm(int(op.value) & ((1 << 64) - 1), to_t), to_t
            op64 = self.coerce(op, from_t, T.U64, node.line)
            reg = (Reg(op64.name, to_t) if isinstance(op64, Reg)
                   else Imm(op64.value, to_t))
            return reg, to_t
        if T.is_pointer(from_t) and not T.is_pointer(to_t):
            return self.coerce(op, T.U64, to_t, node.line), to_t
        return self.coerce(op, from_t, to_t, node.line), to_t

    def _expr_Comma(self, node: A.Comma):
        result: Tuple[Operand, object] = (Imm(0, T.S32), T.S32)
        for part in node.parts:
            result = self.expr(part)
        return result

    # -- unary -------------------------------------------------------

    def _expr_Unary(self, node: A.Unary):
        if node.op == "*":
            ptr, ptr_t = self.expr(node.operand)
            return self._load(ptr, ptr_t, node.line)
        if node.op == "&":
            return self._address_of(node.operand)
        op, ctype = self.expr(node.operand)
        if node.op == "!":
            pred = self._to_pred(op, ctype, node.line)
            if isinstance(pred, Imm):
                return Imm(not pred.value, T.BOOL), T.BOOL
            dst = self.regs.new(T.BOOL)
            self.emit(Instr("not", T.BOOL, dst, [pred], line=node.line))
            return dst, T.BOOL
        if ctype.is_bool:
            op = self.coerce(op, ctype, T.S32, node.line)
            ctype = T.S32
        elif ctype.is_integer and ctype.bits < 32:
            op = self.coerce(op, ctype, T.S32, node.line)
            ctype = T.S32
        if isinstance(op, Imm):
            value = -op.value if node.op == "-" else ~int(op.value)
            return Imm(T.convert_const(value, ctype), ctype), ctype
        dst = self.regs.new(ctype)
        self.emit(Instr("neg" if node.op == "-" else "not", ctype, dst,
                        [op], line=node.line))
        return dst, ctype

    def _address_of(self, node: A.Expr):
        if isinstance(node, A.Index):
            ptr, elem_t, space = self._index_address(node)
            return ptr, (ptr.ctype if isinstance(ptr, (Imm, Reg))
                         else T.pointer_type(elem_t, space))
        if isinstance(node, A.Ident):
            op, ctype = self.expr(node)
            if T.is_pointer(ctype):
                return op, ctype
        raise CodegenError(
            f"line {node.line}: '&' is only supported on array elements")

    # -- binary ------------------------------------------------------

    def _expr_Binary(self, node: A.Binary):
        if node.op in ("&&", "||"):
            return self._logical(node)
        if node.op in ("==", "!=", "<", "<=", ">", ">="):
            return self._compare(node)
        lhs, lt = self.expr(node.left)
        rhs, rt = self.expr(node.right)
        return self._arith(node.op, lhs, lt, rhs, rt, node.line)

    def _arith(self, op: str, lhs, lt, rhs, rt, line):
        # Pointer arithmetic: scale the integer side by the element size.
        if T.is_pointer(lt) or T.is_pointer(rt):
            return self._pointer_arith(op, lhs, lt, rhs, rt, line)
        ctype = T.common_type(lt, rt)
        lhs = self.coerce(lhs, lt, ctype, line)
        rhs = self.coerce(rhs, rt, ctype, line)
        if isinstance(lhs, Imm) and isinstance(rhs, Imm) and self.opts.fold:
            folded = fold_binary(op, lhs.value, rhs.value, ctype)
            if folded is not None:
                return Imm(folded, ctype), ctype
        opcode = {"+": "add", "-": "sub", "*": "mul", "/": "div",
                  "%": "rem", "&": "and", "|": "or", "^": "xor",
                  "<<": "shl", ">>": "shr"}[op]
        dst = self.regs.new(ctype)
        self.emit(Instr(opcode, ctype, dst, [lhs, rhs], line=line))
        return dst, ctype

    def _pointer_arith(self, op, lhs, lt, rhs, rt, line):
        if op not in ("+", "-"):
            raise CodegenError(f"line {line}: bad pointer operator {op!r}")
        if T.is_pointer(lt) and T.is_pointer(rt):
            if op != "-":
                raise CodegenError(f"line {line}: pointer + pointer")
            diff, _ = self._arith("-", self.coerce(lhs, lt, T.S64, line),
                                  T.S64, self.coerce(rhs, rt, T.S64, line),
                                  T.S64, line)
            size = lt.pointee.size
            return self._arith("/", diff, T.S64, Imm(size, T.S64), T.S64,
                               line)
        if T.is_pointer(rt):  # int + ptr
            lhs, lt, rhs, rt = rhs, rt, lhs, lt
            if op == "-":
                raise CodegenError(f"line {line}: int - pointer")
        size = lt.pointee.size
        scaled, _ = self._arith("*", rhs, rt, Imm(size, T.S64), T.S64, line)
        offset = self.coerce(scaled, T.S64, T.U64, line)
        if isinstance(lhs, Imm) and isinstance(offset, Imm) \
                and self.opts.fold:
            base = int(lhs.value)
            delta = int(offset.value)
            value = base + delta if op == "+" else base - delta
            return Imm(value & ((1 << 64) - 1), lt), lt
        dst = self.regs.new(lt)
        lhs64 = lhs if isinstance(lhs, (Reg, Imm)) else lhs
        self.emit(Instr("add" if op == "+" else "sub", lt, dst,
                        [lhs64, offset], line=line))
        return dst, lt

    def _compare(self, node: A.Binary):
        lhs, lt = self.expr(node.left)
        rhs, rt = self.expr(node.right)
        if T.is_pointer(lt) or T.is_pointer(rt):
            ctype = T.U64
        else:
            ctype = T.common_type(lt, rt)
        lhs = self.coerce(lhs, lt, ctype, node.line)
        rhs = self.coerce(rhs, rt, ctype, node.line)
        cmp = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt",
               ">=": "ge"}[node.op]
        if isinstance(lhs, Imm) and isinstance(rhs, Imm) and self.opts.fold:
            result = {"eq": lhs.value == rhs.value,
                      "ne": lhs.value != rhs.value,
                      "lt": lhs.value < rhs.value,
                      "le": lhs.value <= rhs.value,
                      "gt": lhs.value > rhs.value,
                      "ge": lhs.value >= rhs.value}[cmp]
            return Imm(bool(result), T.BOOL), T.BOOL
        dst = self.regs.new(T.BOOL)
        self.emit(Instr("setp", ctype, dst, [lhs, rhs], cmp=cmp,
                        line=node.line))
        return dst, T.BOOL

    def _logical(self, node: A.Binary):
        lhs = self.condition(node.left)
        if isinstance(lhs, Imm):
            if node.op == "&&" and not lhs.value:
                return Imm(False, T.BOOL), T.BOOL
            if node.op == "||" and lhs.value:
                return Imm(True, T.BOOL), T.BOOL
            return self.condition(node.right), T.BOOL
        # Both sides of the kernels' conditions are side-effect free;
        # lower without branching (predicate logic), as nvcc does.
        rhs = self.condition(node.right)
        if isinstance(rhs, Imm):
            if node.op == "&&":
                return (lhs, T.BOOL) if rhs.value \
                    else (Imm(False, T.BOOL), T.BOOL)
            return (lhs, T.BOOL) if not rhs.value \
                else (Imm(True, T.BOOL), T.BOOL)
        dst = self.regs.new(T.BOOL)
        self.emit(Instr("and" if node.op == "&&" else "or", T.BOOL, dst,
                        [lhs, rhs], line=node.line))
        return dst, T.BOOL

    def condition(self, node: A.Expr):
        """Lower *node* as a branch condition → predicate Reg or Imm."""
        op, ctype = self.expr(node)
        return self._to_pred(op, ctype, node.line)

    def _to_pred(self, op: Operand, ctype, line):
        if ctype.is_bool:
            if isinstance(op, Imm):
                return Imm(bool(op.value), T.BOOL)
            return op
        if isinstance(op, Imm):
            return Imm(bool(op.value), T.BOOL)
        dst = self.regs.new(T.BOOL)
        zero = Imm(T.convert_const(0, ctype), ctype)
        self.emit(Instr("setp", ctype, dst, [op, zero], cmp="ne",
                        line=line))
        return dst

    def _expr_Ternary(self, node: A.Ternary):
        pred = self.condition(node.cond)
        if isinstance(pred, Imm):
            return self.expr(node.then if pred.value else node.other)
        if _is_pure_expr(node.then) and _is_pure_expr(node.other):
            then_op, then_t = self.expr(node.then)
            other_op, other_t = self.expr(node.other)
            ctype = T.common_type(then_t, other_t)
            then_op = self.coerce(then_op, then_t, ctype, node.line)
            other_op = self.coerce(other_op, other_t, ctype, node.line)
            dst = self.regs.new(ctype)
            self.emit(Instr("selp", ctype, dst, [then_op, other_op, pred],
                            line=node.line))
            return dst, ctype
        # Side effects: lower with control flow into a temporary.
        else_label = self._new_label("TELSE")
        end_label = self._new_label("TEND")
        self.emit(Instr("bra", T.VOID, target=else_label, pred=pred,
                        pred_neg=True, line=node.line))
        then_op, then_t = self.expr(node.then)
        result = self.regs.new(then_t)
        self.emit(Instr("mov", then_t, result, [then_op], line=node.line))
        self.emit(Instr("bra", T.VOID, target=end_label))
        self.place(else_label)
        other_op = self.expr_as(node.other, then_t)
        self.emit(Instr("mov", then_t, result, [other_op], line=node.line))
        self.place(end_label)
        return result, then_t

    # -- assignment ----------------------------------------------------

    def _expr_Assign(self, node: A.Assign):
        target = node.target
        if isinstance(target, A.Ident):
            return self._assign_var(node, target)
        if isinstance(target, A.Index):
            return self._assign_index(node, target)
        if isinstance(target, A.Unary) and target.op == "*":
            ptr, ptr_t = self.expr(target.operand)
            return self._assign_mem(node, ptr, ptr_t)
        raise CodegenError(
            f"line {node.line}: unsupported assignment target")

    def _assign_var(self, node: A.Assign, target: A.Ident):
        binding = self.lookup(target.name)
        if binding is None:
            raise CodegenError(
                f"line {node.line}: unknown identifier {target.name!r}")
        kind = binding[0]
        if kind == "imm":
            raise CodegenError(
                f"line {node.line}: cannot assign to compile-time "
                f"constant {target.name!r}")
        if kind == "param":
            # Writing a parameter: promote it to a mutable register.
            param = binding[1]
            current, ctype = self._expr_Ident(target)
            reg = self.regs.new(param.ctype)
            self.emit(Instr("mov", param.ctype, reg, [current],
                            line=node.line))
            self._rebind(target.name, ("reg", reg))
            binding = ("reg", reg)
            kind = "reg"
        if kind != "reg":
            raise CodegenError(
                f"line {node.line}: cannot assign to {target.name!r}")
        reg: Reg = binding[1]
        if node.op:
            lhs, lt = reg, reg.ctype
            rhs, rt = self.expr(node.value)
            value, vt = self._arith(node.op, lhs, lt, rhs, rt, node.line)
            value = self.coerce(value, vt, reg.ctype, node.line)
        else:
            value = self.expr_as(node.value, reg.ctype)
        self.emit(Instr("mov", reg.ctype, reg, [value], line=node.line))
        return reg, reg.ctype

    def _rebind(self, name: str, binding: tuple) -> None:
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = binding
                return
        self.scopes[-1][name] = binding

    def _assign_index(self, node: A.Assign, target: A.Index):
        ptr, elem_t, space = self._index_address(target)
        return self._store_through(node, ptr, elem_t, space)

    def _assign_mem(self, node: A.Assign, ptr, ptr_t):
        if not T.is_pointer(ptr_t):
            raise CodegenError(
                f"line {node.line}: dereferencing a non-pointer")
        return self._store_through(node, ptr, ptr_t.pointee, ptr_t.space)

    def _store_through(self, node: A.Assign, ptr, elem_t, space):
        if node.op:
            old = self.regs.new(elem_t)
            self.emit(Instr("ld", elem_t, old, [ptr], space=space,
                            line=node.line))
            rhs, rt = self.expr(node.value)
            value, vt = self._arith(node.op, old, elem_t, rhs, rt,
                                    node.line)
            value = self.coerce(value, vt, elem_t, node.line)
        else:
            value = self.expr_as(node.value, elem_t)
        self.emit(Instr("st", elem_t, None, [ptr, value], space=space,
                        line=node.line))
        return value, elem_t

    def _expr_IncDec(self, node: A.IncDec):
        delta = A.IntLit(line=node.line, value=1)
        op = "+" if node.op == "++" else "-"
        if node.prefix:
            return self._expr_Assign(
                A.Assign(line=node.line, target=node.target, value=delta,
                         op=op))
        # Postfix: capture old value first.
        old_op, ctype = self.expr(node.target)
        old = self.regs.new(ctype)
        self.emit(Instr("mov", ctype, old, [old_op], line=node.line))
        self._expr_Assign(A.Assign(line=node.line, target=node.target,
                                   value=delta, op=op))
        return old, ctype

    # -- memory ----------------------------------------------------

    def _expr_Index(self, node: A.Index):
        ptr, elem_t, space = self._index_address(node)
        return self._load_elem(ptr, elem_t, space, node.line)

    def _index_address(self, node: A.Index):
        base, base_t = self.expr(node.base)
        if not T.is_pointer(base_t):
            raise CodegenError(
                f"line {node.line}: indexing a non-pointer")
        idx, idx_t = self.expr(node.index)
        ptr, ptr_t = self._pointer_arith("+", base, base_t, idx, idx_t,
                                         node.line)
        return ptr, base_t.pointee, base_t.space

    def _load(self, ptr, ptr_t, line):
        if not T.is_pointer(ptr_t):
            raise CodegenError(f"line {line}: dereferencing a non-pointer")
        return self._load_elem(ptr, ptr_t.pointee, ptr_t.space, line)

    def _load_elem(self, ptr, elem_t, space, line):
        dst = self.regs.new(elem_t)
        self.emit(Instr("ld", elem_t, dst, [ptr], space=space, line=line))
        return dst, elem_t

    # -- calls -----------------------------------------------------

    _MATH_1 = {
        "sqrtf": ("sqrt", T.F32), "sqrt": ("sqrt", T.F64),
        "rsqrtf": ("rsqrt", T.F32),
        "fabsf": ("abs", T.F32), "fabs": ("abs", T.F64),
        "abs": ("abs", T.S32),
        "floorf": ("floor", T.F32), "floor": ("floor", T.F64),
        "ceilf": ("ceil", T.F32), "ceil": ("ceil", T.F64),
        "truncf": ("trunc", T.F32),
        "rintf": ("round", T.F32), "roundf": ("round", T.F32),
        "__expf": ("exp2", T.F32), "expf": ("exp2", T.F32),
        "__logf": ("lg2", T.F32), "logf": ("lg2", T.F32),
        "__sinf": ("sin", T.F32), "sinf": ("sin", T.F32),
        "__cosf": ("cos", T.F32), "cosf": ("cos", T.F32),
    }

    def _expr_Call(self, node: A.Call):
        name = node.name
        if name in self._MATH_1 and len(node.args) == 1:
            opcode, ctype = self._MATH_1[name]
            arg = self.expr_as(node.args[0], ctype)
            if isinstance(arg, Imm) and self.opts.fold:
                folded = fold_unary_math(opcode, arg.value, ctype)
                if folded is not None:
                    return Imm(folded, ctype), ctype
            dst = self.regs.new(ctype)
            self.emit(Instr(opcode, ctype, dst, [arg], line=node.line))
            return dst, ctype
        if name in ("min", "max", "fminf", "fmaxf", "umin", "umax") \
                and len(node.args) == 2:
            return self._minmax(node)
        if name in ("__mul24", "__umul24") and len(node.args) == 2:
            ctype = T.S32 if name == "__mul24" else T.U32
            lhs = self.expr_as(node.args[0], ctype)
            rhs = self.expr_as(node.args[1], ctype)
            if isinstance(lhs, Imm) and isinstance(rhs, Imm) \
                    and self.opts.fold:
                folded = fold_binary("*", lhs.value, rhs.value, ctype)
                return Imm(folded, ctype), ctype
            dst = self.regs.new(ctype)
            self.emit(Instr("mul24", ctype, dst, [lhs, rhs],
                            line=node.line))
            return dst, ctype
        if name == "__fdividef" and len(node.args) == 2:
            lhs = self.expr_as(node.args[0], T.F32)
            rhs = self.expr_as(node.args[1], T.F32)
            dst = self.regs.new(T.F32)
            self.emit(Instr("div", T.F32, dst, [lhs, rhs], cmp="approx",
                            line=node.line))
            return dst, T.F32
        if name == "__fmaf_rn" or name == "fmaf":
            a = self.expr_as(node.args[0], T.F32)
            b = self.expr_as(node.args[1], T.F32)
            c = self.expr_as(node.args[2], T.F32)
            dst = self.regs.new(T.F32)
            self.emit(Instr("fma", T.F32, dst, [a, b, c], line=node.line))
            return dst, T.F32
        if name == "atomicAdd" and len(node.args) == 2:
            ptr, ptr_t = self.expr(node.args[0])
            if not T.is_pointer(ptr_t):
                raise CodegenError(
                    f"line {node.line}: atomicAdd needs a pointer")
            value = self.expr_as(node.args[1], ptr_t.pointee)
            dst = self.regs.new(ptr_t.pointee)
            self.emit(Instr("atom", ptr_t.pointee, dst, [ptr, value],
                            cmp="add", space=ptr_t.space, line=node.line))
            return dst, ptr_t.pointee
        if name == "__float2int_rn":
            arg = self.expr_as(node.args[0], T.F32)
            dst = self.regs.new(T.S32)
            self.emit(Instr("cvt", T.S32, dst, [arg], cmp="f32.rn",
                            line=node.line))
            return dst, T.S32
        if name == "__saturatef":
            arg = self.expr_as(node.args[0], T.F32)
            lo, _ = self._minmax_op("max", arg, Imm(0.0, T.F32), T.F32,
                                    node.line)
            return self._minmax_op("min", lo, Imm(1.0, T.F32), T.F32,
                                   node.line)
        if name in ("tex1Dfetch", "tex2D"):
            return self._texture_fetch(node)
        device_fn = self.gen.device_functions.get(name)
        if device_fn is not None:
            return self._inline_call(node, device_fn)
        raise CodegenError(
            f"line {node.line}: unknown function {name!r}")

    def _texture_fetch(self, node: A.Call):
        """tex1Dfetch(ref, i) / tex2D(ref, x, y) — §4's texture path."""
        if not node.args or not isinstance(node.args[0], A.Ident):
            raise CodegenError(
                f"line {node.line}: first argument of {node.name} must "
                "name a texture reference")
        tex_name = node.args[0].name
        decl = self.gen.textures.get(tex_name)
        if decl is None:
            raise CodegenError(
                f"line {node.line}: unknown texture {tex_name!r}")
        want_dims = 1 if node.name == "tex1Dfetch" else 2
        if decl.dims != want_dims:
            raise CodegenError(
                f"line {node.line}: texture {tex_name!r} is "
                f"{decl.dims}D; {node.name} needs {want_dims}D")
        if len(node.args) != 1 + want_dims:
            raise CodegenError(
                f"line {node.line}: {node.name} expects "
                f"{1 + want_dims} arguments")
        coord_t = T.S32 if node.name == "tex1Dfetch" else T.F32
        coords = [self.expr_as(a, coord_t) for a in node.args[1:]]
        dst = self.regs.new(decl.ctype)
        self.emit(Instr("tex", decl.ctype, dst,
                        [Special(tex_name)] + coords, space="tex",
                        cmp=f"{want_dims}d", line=node.line))
        return dst, decl.ctype

    def _minmax(self, node: A.Call):
        lhs, lt = self.expr(node.args[0])
        rhs, rt = self.expr(node.args[1])
        if node.name in ("fminf", "fmaxf"):
            ctype = T.F32
        elif node.name in ("umin", "umax"):
            ctype = T.U32
        else:
            ctype = T.common_type(lt, rt)
        lhs = self.coerce(lhs, lt, ctype, node.line)
        rhs = self.coerce(rhs, rt, ctype, node.line)
        op = "min" if "min" in node.name else "max"
        return self._minmax_op(op, lhs, rhs, ctype, node.line)

    def _minmax_op(self, op, lhs, rhs, ctype, line):
        if isinstance(lhs, Imm) and isinstance(rhs, Imm) and self.opts.fold:
            value = (min if op == "min" else max)(lhs.value, rhs.value)
            return Imm(T.convert_const(value, ctype), ctype), ctype
        dst = self.regs.new(ctype)
        self.emit(Instr(op, ctype, dst, [lhs, rhs], line=line))
        return dst, ctype

    def _inline_call(self, node: A.Call, fn: A.FuncDef):
        if self._inline_depth > 32:
            raise CodegenError(
                f"line {node.line}: device-function inlining too deep "
                f"(recursion in {fn.name!r}?)")
        if len(node.args) != len(fn.params):
            raise CodegenError(
                f"line {node.line}: {fn.name!r} expects "
                f"{len(fn.params)} arguments, got {len(node.args)}")
        if len(node.template_args) != len(fn.template_params):
            raise CodegenError(
                f"line {node.line}: {fn.name!r} expects "
                f"{len(fn.template_params)} template arguments, got "
                f"{len(node.template_args)}")
        self._inline_depth += 1
        self.push_scope()
        # Template parameters bind to compile-time constants — that is
        # their whole point (the §4 C++-template specialization route).
        for tname, targ in zip(fn.template_params, node.template_args):
            op, actual = self.expr(targ)
            if not isinstance(op, Imm):
                raise CodegenError(
                    f"line {node.line}: template argument {tname!r} of "
                    f"{fn.name!r} must be a compile-time constant")
            self.bind(tname, ("imm", op))
        for param, arg in zip(fn.params, node.args):
            op, actual = self.expr(arg)
            op = self.coerce(op, actual, param.ctype, node.line)
            if isinstance(op, Imm):
                self.bind(param.name, ("imm", op))
            else:
                reg = self.regs.new(param.ctype)
                self.emit(Instr("mov", param.ctype, reg, [op],
                                line=node.line))
                self.bind(param.name, ("reg", reg))
        ret_label = self._new_label(f"RET_{fn.name}")
        ret_reg = (None if fn.return_type.is_void
                   else self.regs.new(fn.return_type))
        self._ret_stack.append((ret_label, ret_reg))
        for stmt in fn.body:
            self.stmt(stmt)
        self._ret_stack.pop()
        self.place(ret_label)
        self.pop_scope()
        self._inline_depth -= 1
        if ret_reg is None:
            return Imm(0, T.S32), T.S32
        return ret_reg, fn.return_type


# ----------------------------------------------------------------------
# Module driver


class CodeGen:
    """Lowers a translation unit to an :class:`IRModule`."""

    def __init__(self, unit: A.TranslationUnit,
                 opts: Optional[CodegenOptions] = None):
        self.unit = unit
        self.opts = opts or CodegenOptions()
        self.device_functions: Dict[str, A.FuncDef] = {}
        self.const_globals: Dict[str, ConstGlobal] = {}
        self.textures = {t.name: t for t in unit.textures}

    def run(self) -> IRModule:
        from repro.kernelc.ir import TextureRef

        module = IRModule()
        for t in self.unit.textures:
            module.textures[t.name] = TextureRef(t.name, t.ctype,
                                                 t.dims)
        offset = 0
        for g in self.unit.globals:
            count = g.array_size if g.array_size is not None else 1
            ctype = g.ctype
            if T.is_pointer(ctype):
                raise CodegenError(
                    f"line {g.line}: pointer-typed constant globals are "
                    "not supported")
            offset = _align(offset, ctype.size)
            decl = ConstGlobal(g.name, ctype, count, offset)
            offset += decl.nbytes
            self.const_globals[g.name] = decl
            module.const_globals[g.name] = decl
        for fn in self.unit.functions:
            if not fn.is_kernel:
                self.device_functions[fn.name] = fn
        for fn in self.unit.functions:
            if fn.is_kernel:
                module.kernels[fn.name] = _FuncLowering(self, fn).lower()
        return module


# ----------------------------------------------------------------------
# Constant folding helpers (shared with the IR passes)


def fold_binary(op: str, a, b, ctype):
    """Fold a binary operation over Python-domain constants.

    Returns the folded value in the value domain of *ctype*, or ``None``
    when the operation is undefined (division by zero) — callers then
    emit the instruction and let the hardware produce its garbage.
    """
    try:
        if op == "+":
            value = a + b
        elif op == "-":
            value = a - b
        elif op == "*":
            value = a * b
        elif op == "/":
            if ctype.is_integer:
                if b == 0:
                    return None
                q = abs(a) // abs(b)
                value = q if (a >= 0) == (b >= 0) else -q
            else:
                if b == 0:
                    value = float("inf") if a > 0 else (
                        float("-inf") if a < 0 else float("nan"))
                else:
                    value = a / b
        elif op == "%":
            if b == 0:
                return None
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            value = a - q * b
        elif op == "&":
            value = int(a) & int(b)
        elif op == "|":
            value = int(a) | int(b)
        elif op == "^":
            value = int(a) ^ int(b)
        elif op == "<<":
            value = int(a) << (int(b) & (ctype.bits - 1))
        elif op == ">>":
            shift = int(b) & (ctype.bits - 1)
            if ctype.signed:
                value = int(a) >> shift
            else:
                mask = (1 << ctype.bits) - 1
                value = (int(a) & mask) >> shift
        else:
            return None
    except (OverflowError, ValueError):
        return None
    return T.convert_const(value, ctype)


def fold_unary_math(opcode: str, value, ctype):
    """Fold single-argument math ops used by the builtin table."""
    import math

    try:
        if opcode == "sqrt":
            result = math.sqrt(value)
        elif opcode == "rsqrt":
            result = 1.0 / math.sqrt(value)
        elif opcode == "abs":
            result = abs(value)
        elif opcode == "floor":
            result = math.floor(value)
        elif opcode == "ceil":
            result = math.ceil(value)
        elif opcode == "round":
            result = round(value)
        elif opcode == "trunc":
            result = math.trunc(value)
        else:
            return None
    except (ValueError, OverflowError):
        return None
    return T.convert_const(result, ctype)


def _align(offset: int, align: int) -> int:
    return (offset + align - 1) // align * align


def _cvt_tag(from_t) -> str:
    """Source-type tag recorded on cvt instructions."""
    if T.is_pointer(from_t):
        return "u64"
    return from_t.ptx_suffix().lstrip(".")


def _is_pure_expr(node: A.Expr) -> bool:
    """True when evaluating *node* has no side effects."""
    if isinstance(node, (A.IntLit, A.FloatLit, A.BoolLit, A.Ident,
                         A.BuiltinVar)):
        return True
    if isinstance(node, (A.Assign, A.IncDec)):
        return False
    if isinstance(node, A.Unary):
        return _is_pure_expr(node.operand)
    if isinstance(node, A.Binary):
        return _is_pure_expr(node.left) and _is_pure_expr(node.right)
    if isinstance(node, A.Ternary):
        return all(_is_pure_expr(x) for x in (node.cond, node.then,
                                              node.other))
    if isinstance(node, A.Index):
        return _is_pure_expr(node.base) and _is_pure_expr(node.index)
    if isinstance(node, A.Cast):
        return _is_pure_expr(node.operand)
    if isinstance(node, A.Call):
        # Math builtins are pure; atomics and user functions may not be.
        return (node.name in _FuncLowering._MATH_1
                or node.name in ("min", "max", "fminf", "fmaxf",
                                 "__mul24", "__umul24", "__fdividef")) \
            and all(_is_pure_expr(a) for a in node.args)
    if isinstance(node, A.Comma):
        return all(_is_pure_expr(p) for p in node.parts)
    return False


def _writes_var(stmts: List[A.Stmt], var: str) -> bool:
    """Does any statement in *stmts* assign to *var*?"""

    hit = False

    def visit_expr(node):
        nonlocal hit
        if hit or node is None or not isinstance(node, A.Expr):
            return
        if isinstance(node, A.Assign):
            if isinstance(node.target, A.Ident) and node.target.name == var:
                hit = True
                return
            visit_expr(node.target)
            visit_expr(node.value)
        elif isinstance(node, A.IncDec):
            if isinstance(node.target, A.Ident) and node.target.name == var:
                hit = True
                return
            visit_expr(node.target)
        elif isinstance(node, A.Unary):
            visit_expr(node.operand)
        elif isinstance(node, A.Binary):
            visit_expr(node.left)
            visit_expr(node.right)
        elif isinstance(node, A.Ternary):
            visit_expr(node.cond)
            visit_expr(node.then)
            visit_expr(node.other)
        elif isinstance(node, A.Index):
            visit_expr(node.base)
            visit_expr(node.index)
        elif isinstance(node, A.Cast):
            visit_expr(node.operand)
        elif isinstance(node, A.Call):
            for a in node.args:
                visit_expr(a)
        elif isinstance(node, A.Comma):
            for p in node.parts:
                visit_expr(p)

    def visit_stmt(node):
        nonlocal hit
        if hit or node is None:
            return
        if isinstance(node, A.DeclStmt):
            for name, _, size, init in node.decls:
                if name == var:
                    # Shadowing declaration: inner uses are a new var.
                    return
                visit_expr(size)
                visit_expr(init)
        elif isinstance(node, A.ExprStmt):
            visit_expr(node.expr)
        elif isinstance(node, A.If):
            visit_expr(node.cond)
            for s in node.then:
                visit_stmt(s)
            for s in node.other:
                visit_stmt(s)
        elif isinstance(node, A.For):
            visit_stmt(node.init)
            visit_expr(node.cond)
            visit_expr(node.step)
            for s in node.body:
                visit_stmt(s)
        elif isinstance(node, (A.While, A.DoWhile)):
            visit_expr(node.cond)
            for s in node.body:
                visit_stmt(s)
        elif isinstance(node, A.Block):
            for s in node.body:
                visit_stmt(s)
        elif isinstance(node, A.Return):
            visit_expr(node.value)

    for stmt in stmts:
        visit_stmt(stmt)
    return hit


def _has_loop_escape(stmts: List[A.Stmt]) -> bool:
    """True when *stmts* contain break/continue at this loop's level."""

    def scan(items, depth):
        for node in items:
            if isinstance(node, (A.Break, A.Continue)) and depth == 0:
                return True
            if isinstance(node, A.If):
                if scan(node.then, depth) or scan(node.other, depth):
                    return True
            elif isinstance(node, A.Block):
                if scan(node.body, depth):
                    return True
            elif isinstance(node, (A.For, A.While, A.DoWhile)):
                if scan(node.body, depth + 1):
                    return True
        return False

    return scan(stmts, 0)
