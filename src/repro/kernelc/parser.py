"""Recursive-descent parser for the kernel language.

Parses the preprocessed token stream into the AST of
:mod:`repro.kernelc.ast_nodes`.  The grammar is the CUDA-C subset used by
the dissertation's kernels: ``__global__``/``__device__`` functions,
scalar/pointer/array declarations with ``__shared__``/``__constant__``
qualifiers, the full C expression grammar (including casts, ternaries and
compound assignment), structured statements, and ``#pragma unroll``
(handled via the ``__pragma_unroll`` marker the compiler driver injects —
see compiler.py).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.kernelc import ast_nodes as A
from repro.kernelc import typesys as T
from repro.kernelc.lexer import (LexError, Token, TokenStream, decode_float,
                                 decode_int)


class ParseError(Exception):
    """Raised on syntax errors, with a source line number."""


_TYPE_KEYWORDS = {"void", "int", "float", "double", "char", "short",
                  "long", "bool", "unsigned", "signed"}

_BUILTIN_VARS = {"threadIdx": "tid", "blockIdx": "ctaid",
                 "blockDim": "ntid", "gridDim": "nctaid"}

_ASSIGN_OPS = {"=": "", "+=": "+", "-=": "-", "*=": "*", "/=": "/",
               "%=": "%", "&=": "&", "|=": "|", "^=": "^",
               "<<=": "<<", ">>=": ">>"}

# Binary operator precedence (C), highest binds tightest.
_BIN_PREC = {
    "*": 13, "/": 13, "%": 13,
    "+": 12, "-": 12,
    "<<": 11, ">>": 11,
    "<": 10, ">": 10, "<=": 10, ">=": 10,
    "==": 9, "!=": 9,
    "&": 8, "^": 7, "|": 6,
    "&&": 5, "||": 4,
}


class Parser:
    """Parses a token list into a :class:`TranslationUnit`."""

    def __init__(self, tokens: List[Token], typedefs: Optional[dict] = None):
        self.ts = TokenStream(tokens)
        self.typedefs = dict(typedefs or {})

    # ------------------------------------------------------------------
    # Top level

    def parse(self) -> A.TranslationUnit:
        unit = A.TranslationUnit()
        while not self.ts.at_end():
            tok = self.ts.peek()
            if tok.is_punct(";"):
                self.ts.next()
                continue
            if tok.is_kw("typedef"):
                self._parse_typedef()
                continue
            if tok.kind == "id" and tok.text == "texture":
                unit.textures.append(self._parse_texture_decl())
                continue
            template_params = None
            if tok.is_kw("template"):
                template_params = self._parse_template_header()
            item = self._parse_top_item()
            if isinstance(item, A.FuncDef):
                if template_params:
                    item.template_params = template_params
                unit.functions.append(item)
            elif isinstance(item, A.GlobalDecl):
                if template_params:
                    raise ParseError(
                        f"line {item.line}: templates only apply to "
                        "functions")
                unit.globals.append(item)
        return unit

    def _err(self, tok: Token, msg: str) -> ParseError:
        return ParseError(f"line {tok.line}: {msg} (near {tok.text!r})")

    def _parse_typedef(self) -> None:
        self.ts.expect("kw", "typedef")
        base = self._parse_type_name()
        name = self.ts.expect("id").text
        self.ts.expect("punct", ";")
        self.typedefs[name] = base

    def _parse_texture_decl(self) -> A.TextureDecl:
        """``texture<float, 2> projTex;`` — a module texture reference.

        An optional third template argument (the CUDA read mode) is
        accepted and ignored; only element-type reads are modelled.
        """
        line = self.ts.expect("id").line  # 'texture'
        self.ts.expect("punct", "<")
        ctype = self._parse_type_name()
        dims = 1
        if self.ts.accept("punct", ","):
            dims_tok = self.ts.expect("int")
            dims = decode_int(dims_tok.text)[0]
            if dims not in (1, 2):
                raise ParseError(
                    f"line {dims_tok.line}: only 1D/2D textures are "
                    "supported")
            if self.ts.accept("punct", ","):
                self.ts.next()  # read mode token, ignored
        self.ts.expect("punct", ">")
        name = self.ts.expect("id").text
        self.ts.expect("punct", ";")
        return A.TextureDecl(name=name, ctype=ctype, dims=dims,
                             line=line)

    def _parse_template_header(self) -> List[str]:
        """Parse ``template<int N, bool B, ...>`` into parameter names.

        The dissertation's flexibly-specializable kernels use non-type
        template parameters (the ``gpu::ctrt`` utilities); the compiler
        binds them to compile-time constants at each call site.
        ``typename`` parameters are not supported — the kernels select
        data types through typedef'd macros instead.
        """
        self.ts.expect("kw", "template")
        self.ts.expect("punct", "<")
        names: List[str] = []
        while not self.ts.peek().is_punct(">"):
            tok = self.ts.peek()
            if tok.is_kw("typename") or (tok.kind == "kw"
                                         and tok.text == "struct"):
                raise ParseError(
                    f"line {tok.line}: typename template parameters "
                    "are not supported — use a macro-selected typedef")
            if not (tok.kind == "kw" and tok.text in _TYPE_KEYWORDS):
                raise ParseError(
                    f"line {tok.line}: expected an integer template "
                    f"parameter type, found {tok.text!r}")
            self._parse_type_name()
            names.append(self.ts.expect("id").text)
            if not self.ts.accept("punct", ","):
                break
        self.ts.expect("punct", ">")
        return names

    def _parse_top_item(self):
        quals = self._parse_qualifiers()
        line = self.ts.peek().line
        base = self._parse_type_name()
        # __launch_bounds__ conventionally sits after the return type.
        more = self._parse_qualifiers()
        for key, value in more.items():
            if value:
                quals[key] = value
        # pointer declarators handled per-declarator
        ptr_space = "global"
        if quals["constant"]:
            ptr_space = "const"
        stars = 0
        while self.ts.accept("punct", "*"):
            stars += 1
        name = self.ts.expect("id").text
        ctype = base
        for _ in range(stars):
            ctype = T.pointer_type(ctype, ptr_space)
        if self.ts.peek().is_punct("("):
            return self._parse_function(name, ctype, quals, line)
        # Module-scope declaration (constant memory array, usually).
        size: Optional[int] = None
        if self.ts.accept("punct", "["):
            size_expr = self._parse_expr()
            self.ts.expect("punct", "]")
            size = _const_int(size_expr)
            if size is None:
                raise self._err(self.ts.peek(),
                                "module-scope array size must be constant")
        if self.ts.accept("punct", "="):
            self._parse_assignment()  # initializer ignored at module scope
        self.ts.expect("punct", ";")
        return A.GlobalDecl(name, ctype, size,
                            constant=quals["constant"], line=line)

    def _parse_qualifiers(self) -> dict:
        quals = {"global": False, "device": False, "shared": False,
                 "constant": False, "const": False, "force_inline": False,
                 "launch_bounds": None}
        while True:
            tok = self.ts.peek()
            if tok.is_kw("__global__"):
                quals["global"] = True
            elif tok.is_kw("__device__"):
                quals["device"] = True
            elif tok.is_kw("__shared__"):
                quals["shared"] = True
            elif tok.is_kw("__constant__"):
                quals["constant"] = True
            elif tok.is_kw("const"):
                quals["const"] = True
            elif tok.is_kw("__forceinline__") or tok.is_kw("inline") \
                    or tok.is_kw("static") or tok.is_kw("volatile"):
                if tok.is_kw("__forceinline__") or tok.is_kw("inline"):
                    quals["force_inline"] = True
            elif tok.kind == "id" and tok.text == "__launch_bounds__":
                self.ts.next()
                self.ts.expect("punct", "(")
                max_threads = _const_int(self._parse_assignment())
                min_blocks = 1
                if self.ts.accept("punct", ","):
                    min_blocks = _const_int(self._parse_assignment())
                self.ts.expect("punct", ")")
                quals["launch_bounds"] = (max_threads, min_blocks)
                continue
            else:
                return quals
            self.ts.next()

    def _parse_type_name(self):
        """Parse a (possibly multi-keyword) scalar type name."""
        tok = self.ts.peek()
        words: List[str] = []
        while tok.kind == "kw" and tok.text in _TYPE_KEYWORDS:
            words.append(self.ts.next().text)
            tok = self.ts.peek()
        if not words:
            if tok.kind == "id" and tok.text in self.typedefs:
                self.ts.next()
                return self.typedefs[tok.text]
            if tok.kind == "id" and tok.text in T.NAMED_TYPES:
                self.ts.next()
                return T.NAMED_TYPES[tok.text]
            raise self._err(tok, "expected a type name")
        return _scalar_from_words(words, tok)

    def _looks_like_type(self, offset: int = 0) -> bool:
        tok = self.ts.peek(offset)
        if tok.kind == "kw" and tok.text in (_TYPE_KEYWORDS | {
                "const", "__shared__", "__constant__"}):
            return True
        return tok.kind == "id" and (tok.text in self.typedefs
                                     or tok.text in T.NAMED_TYPES)

    # ------------------------------------------------------------------
    # Functions

    def _parse_function(self, name, return_type, quals, line) -> A.FuncDef:
        self.ts.expect("punct", "(")
        params: List[A.Param] = []
        if not self.ts.peek().is_punct(")"):
            while True:
                params.append(self._parse_param())
                if not self.ts.accept("punct", ","):
                    break
        self.ts.expect("punct", ")")
        body = self._parse_block()
        return A.FuncDef(
            name=name, params=params, body=body, return_type=return_type,
            is_kernel=quals["global"], force_inline=quals["force_inline"],
            launch_bounds=quals["launch_bounds"], line=line)

    def _parse_param(self) -> A.Param:
        const = bool(self.ts.accept("kw", "const"))
        base = self._parse_type_name()
        if self.ts.accept("kw", "const"):
            const = True
        ctype = base
        while self.ts.accept("punct", "*"):
            ctype = T.pointer_type(ctype, "global")
            if self.ts.accept("kw", "const"):
                const = True
        restrict = bool(self.ts.accept("kw", "__restrict__"))
        name = self.ts.expect("id").text
        return A.Param(name=name, ctype=ctype, restrict=restrict, const=const)

    # ------------------------------------------------------------------
    # Statements

    def _parse_block(self) -> List[A.Stmt]:
        self.ts.expect("punct", "{")
        body: List[A.Stmt] = []
        while not self.ts.peek().is_punct("}"):
            if self.ts.at_end():
                raise ParseError("unexpected end of input inside block")
            body.append(self._parse_stmt())
        self.ts.expect("punct", "}")
        return body

    def _parse_stmt(self) -> A.Stmt:
        tok = self.ts.peek()
        line = tok.line
        if tok.is_punct("{"):
            return A.Block(line=line, body=self._parse_block())
        if tok.is_punct(";"):
            self.ts.next()
            return A.Block(line=line, body=[])
        if tok.is_kw("if"):
            return self._parse_if()
        if tok.is_kw("for"):
            return self._parse_for(unroll=None)
        if tok.is_kw("while"):
            return self._parse_while()
        if tok.is_kw("do"):
            return self._parse_do()
        if tok.is_kw("return"):
            self.ts.next()
            value = None
            if not self.ts.peek().is_punct(";"):
                value = self._parse_expr()
            self.ts.expect("punct", ";")
            return A.Return(line=line, value=value)
        if tok.is_kw("break"):
            self.ts.next()
            self.ts.expect("punct", ";")
            return A.Break(line=line)
        if tok.is_kw("continue"):
            self.ts.next()
            self.ts.expect("punct", ";")
            return A.Continue(line=line)
        if tok.kind == "id" and tok.text == "__pragma_unroll":
            # Injected by the compiler driver for '#pragma unroll [N]'.
            self.ts.next()
            self.ts.expect("punct", "(")
            count_tok = self.ts.peek()
            count = 0
            if count_tok.kind == "int":
                count = decode_int(self.ts.next().text)[0]
            self.ts.expect("punct", ")")
            stmt = self._parse_stmt()
            if isinstance(stmt, A.For):
                stmt.unroll = count if count > 0 else -1  # -1 = full
            return stmt
        if tok.kind == "id" and tok.text == "__syncthreads":
            self.ts.next()
            self.ts.expect("punct", "(")
            self.ts.expect("punct", ")")
            self.ts.expect("punct", ";")
            return A.SyncThreads(line=line)
        if self._is_decl_start():
            return self._parse_decl_stmt()
        expr = self._parse_expr()
        self.ts.expect("punct", ";")
        return A.ExprStmt(line=line, expr=expr)

    def _is_decl_start(self) -> bool:
        tok = self.ts.peek()
        if tok.kind == "kw" and tok.text in (
                {"const", "__shared__", "__constant__", "volatile", "static"}
                | _TYPE_KEYWORDS):
            # 'const' could also start '(const float*)x' — but casts never
            # open a statement in this grammar.
            return True
        if tok.kind == "id" and (tok.text in self.typedefs
                                 or tok.text in T.NAMED_TYPES):
            nxt = self.ts.peek(1)
            return nxt.kind == "id" or nxt.is_punct("*")
        return False

    def _parse_decl_stmt(self) -> A.DeclStmt:
        line = self.ts.peek().line
        shared = constant = const = False
        while True:
            tok = self.ts.peek()
            if tok.is_kw("__shared__"):
                shared = True
            elif tok.is_kw("__constant__"):
                constant = True
            elif tok.is_kw("const"):
                const = True
            elif tok.is_kw("volatile") or tok.is_kw("static"):
                pass
            else:
                break
            self.ts.next()
        base = self._parse_type_name()
        if self.ts.accept("kw", "const"):
            const = True
        decls = []
        while True:
            ctype = base
            while self.ts.accept("punct", "*"):
                # A pointer variable points to global memory unless its
                # initializer says otherwise (handled during lowering).
                ctype = T.pointer_type(ctype, "global")
            name = self.ts.expect("id").text
            array_size = None
            if self.ts.accept("punct", "["):
                array_size = self._parse_expr()
                self.ts.expect("punct", "]")
            init = None
            if self.ts.accept("punct", "="):
                init = self._parse_assignment()
            decls.append((name, ctype, array_size, init))
            if not self.ts.accept("punct", ","):
                break
        self.ts.expect("punct", ";")
        return A.DeclStmt(line=line, decls=decls, shared=shared,
                          constant=constant, const=const)

    def _parse_if(self) -> A.If:
        line = self.ts.expect("kw", "if").line
        self.ts.expect("punct", "(")
        cond = self._parse_expr()
        self.ts.expect("punct", ")")
        then = self._stmt_as_list()
        other: List[A.Stmt] = []
        if self.ts.accept("kw", "else"):
            other = self._stmt_as_list()
        return A.If(line=line, cond=cond, then=then, other=other)

    def _stmt_as_list(self) -> List[A.Stmt]:
        stmt = self._parse_stmt()
        if isinstance(stmt, A.Block):
            return stmt.body
        return [stmt]

    def _parse_for(self, unroll) -> A.For:
        line = self.ts.expect("kw", "for").line
        self.ts.expect("punct", "(")
        init: Optional[A.Stmt] = None
        if not self.ts.peek().is_punct(";"):
            if self._is_decl_start():
                init = self._parse_decl_stmt()
            else:
                expr = self._parse_expr()
                self.ts.expect("punct", ";")
                init = A.ExprStmt(line=line, expr=expr)
        else:
            self.ts.expect("punct", ";")
        cond = None
        if not self.ts.peek().is_punct(";"):
            cond = self._parse_expr()
        self.ts.expect("punct", ";")
        step = None
        if not self.ts.peek().is_punct(")"):
            step = self._parse_expr()
        self.ts.expect("punct", ")")
        body = self._stmt_as_list()
        return A.For(line=line, init=init, cond=cond, step=step, body=body,
                     unroll=unroll)

    def _parse_while(self) -> A.While:
        line = self.ts.expect("kw", "while").line
        self.ts.expect("punct", "(")
        cond = self._parse_expr()
        self.ts.expect("punct", ")")
        body = self._stmt_as_list()
        return A.While(line=line, cond=cond, body=body)

    def _parse_do(self) -> A.DoWhile:
        line = self.ts.expect("kw", "do").line
        body = self._stmt_as_list()
        self.ts.expect("kw", "while")
        self.ts.expect("punct", "(")
        cond = self._parse_expr()
        self.ts.expect("punct", ")")
        self.ts.expect("punct", ";")
        return A.DoWhile(line=line, cond=cond, body=body)

    # ------------------------------------------------------------------
    # Expressions

    def _parse_expr(self) -> A.Expr:
        expr = self._parse_assignment()
        if self.ts.peek().is_punct(","):
            parts = [expr]
            while self.ts.accept("punct", ","):
                parts.append(self._parse_assignment())
            return A.Comma(line=expr.line, parts=parts)
        return expr

    def _parse_assignment(self) -> A.Expr:
        left = self._parse_ternary()
        tok = self.ts.peek()
        if tok.kind == "punct" and tok.text in _ASSIGN_OPS:
            self.ts.next()
            value = self._parse_assignment()
            return A.Assign(line=tok.line, target=left, value=value,
                            op=_ASSIGN_OPS[tok.text])
        return left

    def _parse_ternary(self) -> A.Expr:
        cond = self._parse_binary(0)
        tok = self.ts.peek()
        if tok.is_punct("?"):
            self.ts.next()
            then = self._parse_assignment()
            self.ts.expect("punct", ":")
            other = self._parse_assignment()
            return A.Ternary(line=tok.line, cond=cond, then=then, other=other)
        return cond

    def _parse_binary(self, min_prec: int) -> A.Expr:
        left = self._parse_unary()
        while True:
            tok = self.ts.peek()
            if tok.kind != "punct" or tok.text not in _BIN_PREC:
                return left
            prec = _BIN_PREC[tok.text]
            if prec < min_prec:
                return left
            self.ts.next()
            right = self._parse_binary(prec + 1)
            left = A.Binary(line=tok.line, op=tok.text, left=left,
                            right=right)

    def _parse_unary(self) -> A.Expr:
        tok = self.ts.peek()
        if tok.kind == "punct" and tok.text in ("-", "!", "~", "+", "*", "&"):
            self.ts.next()
            operand = self._parse_unary()
            if tok.text == "+":
                return operand
            return A.Unary(line=tok.line, op=tok.text, operand=operand)
        if tok.is_punct("++") or tok.is_punct("--"):
            self.ts.next()
            target = self._parse_unary()
            return A.IncDec(line=tok.line, target=target, op=tok.text,
                            prefix=True)
        if tok.is_punct("(") and self._looks_like_cast():
            self.ts.next()
            const = bool(self.ts.accept("kw", "const"))
            base = self._parse_type_name()
            self.ts.accept("kw", "const")
            ctype = base
            while self.ts.accept("punct", "*"):
                ctype = T.pointer_type(ctype, "global")
            self.ts.expect("punct", ")")
            operand = self._parse_unary()
            return A.Cast(line=tok.line, ctype=ctype, operand=operand)
        if tok.is_kw("sizeof"):
            self.ts.next()
            self.ts.expect("punct", "(")
            if self._looks_like_type():
                base = self._parse_type_name()
                ctype = base
                while self.ts.accept("punct", "*"):
                    ctype = T.pointer_type(ctype, "global")
                size = ctype.size
            else:
                self._parse_expr()
                size = 4  # sizeof(expr) not tracked; kernels use types
            self.ts.expect("punct", ")")
            return A.IntLit(line=tok.line, value=size, ctype=T.U64)
        return self._parse_postfix()

    def _looks_like_cast(self) -> bool:
        """Heuristic: '(' followed by a type name and then '*' or ')'. """
        i = 1
        if self.ts.peek(i).is_kw("const"):
            i += 1
        tok = self.ts.peek(i)
        if not ((tok.kind == "kw" and tok.text in _TYPE_KEYWORDS)
                or (tok.kind == "id" and (tok.text in self.typedefs
                                          or tok.text in T.NAMED_TYPES))):
            return False
        i += 1
        while self.ts.peek(i).kind == "kw" and \
                self.ts.peek(i).text in (_TYPE_KEYWORDS | {"const"}):
            i += 1
        while self.ts.peek(i).is_punct("*"):
            i += 1
        return self.ts.peek(i).is_punct(")")

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self.ts.peek()
            if tok.is_punct("["):
                self.ts.next()
                index = self._parse_expr()
                self.ts.expect("punct", "]")
                expr = A.Index(line=tok.line, base=expr, index=index)
            elif tok.is_punct("++") or tok.is_punct("--"):
                self.ts.next()
                expr = A.IncDec(line=tok.line, target=expr, op=tok.text,
                                prefix=False)
            elif tok.is_punct("."):
                self.ts.next()
                member = self.ts.expect("id").text
                expr = self._member_access(expr, member, tok)
            else:
                return expr

    def _member_access(self, expr: A.Expr, member: str, tok) -> A.Expr:
        if isinstance(expr, A.Ident) and expr.name in _BUILTIN_VARS:
            if member not in ("x", "y", "z"):
                raise self._err(tok, f"bad builtin member .{member}")
            return A.BuiltinVar(line=tok.line,
                                name=f"{_BUILTIN_VARS[expr.name]}.{member}")
        raise self._err(tok, "struct member access is not supported")

    def _parse_primary(self) -> A.Expr:
        tok = self.ts.peek()
        if tok.is_punct("("):
            self.ts.next()
            expr = self._parse_expr()
            self.ts.expect("punct", ")")
            return expr
        if tok.kind == "int":
            self.ts.next()
            value, unsigned, is_long = decode_int(tok.text)
            if is_long:
                ctype = T.U64 if unsigned else T.S64
            elif unsigned:
                ctype = T.U32
            elif value > 0x7FFFFFFF:
                ctype = T.S64 if value <= 0x7FFFFFFFFFFFFFFF else T.U64
            else:
                ctype = T.S32
            return A.IntLit(line=tok.line, value=value, ctype=ctype)
        if tok.kind == "float":
            self.ts.next()
            value, is_double = decode_float(tok.text)
            return A.FloatLit(line=tok.line, value=value,
                              ctype=T.F64 if is_double else T.F32)
        if tok.is_kw("true") or tok.is_kw("false"):
            self.ts.next()
            return A.BoolLit(line=tok.line, value=tok.text == "true")
        if tok.kind == "id" or tok.kind == "kw":
            if tok.kind == "kw" and tok.text not in ("int", "float",
                                                     "double"):
                raise self._err(tok, "unexpected keyword in expression")
            self.ts.next()
            name = tok.text
            # Function-style casts like float(x) and calls.
            template_args: List[A.Expr] = []
            if self.ts.peek().is_punct("<") and self._template_call_ahead():
                self.ts.next()
                while not self.ts.peek().is_punct(">"):
                    # Template arguments parse above relational/shift
                    # precedence so the closing '>' is not consumed.
                    template_args.append(self._parse_binary(12))
                    if not self.ts.accept("punct", ","):
                        break
                self.ts.expect("punct", ">")
            if self.ts.peek().is_punct("("):
                self.ts.next()
                args: List[A.Expr] = []
                if not self.ts.peek().is_punct(")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self.ts.accept("punct", ","):
                            break
                self.ts.expect("punct", ")")
                if name in T.NAMED_TYPES and len(args) == 1:
                    return A.Cast(line=tok.line, ctype=T.NAMED_TYPES[name],
                                  operand=args[0])
                return A.Call(line=tok.line, name=name, args=args,
                              template_args=template_args)
            return A.Ident(line=tok.line, name=name)
        raise self._err(tok, "expected an expression")

    def _template_call_ahead(self) -> bool:
        """Disambiguate ``f<8>(x)`` from ``a < b``: scan for '>' '('. """
        depth = 0
        for offset in range(0, 40):
            tok = self.ts.peek(offset)
            if tok.kind == "eof" or tok.is_punct(";") or tok.is_punct("{"):
                return False
            if tok.is_punct("<"):
                depth += 1
            elif tok.is_punct(">"):
                depth -= 1
                if depth == 0:
                    return self.ts.peek(offset + 1).is_punct("(")
            elif tok.is_punct("&&") or tok.is_punct("||"):
                return False
        return False


def _scalar_from_words(words: List[str], tok) -> T.ScalarType:
    unsigned = "unsigned" in words
    words = [w for w in words if w not in ("unsigned", "signed")]
    if not words:
        return T.U32 if unsigned else T.S32
    joined = " ".join(words)
    table = {
        "void": T.VOID, "bool": T.BOOL, "char": T.S8, "short": T.S16,
        "int": T.S32, "long": T.S64, "long long": T.S64,
        "long long int": T.S64, "long int": T.S64,
        "short int": T.S16, "float": T.F32, "double": T.F64,
    }
    if joined not in table:
        raise ParseError(f"line {tok.line}: unknown type {joined!r}")
    base = table[joined]
    if unsigned:
        flip = {T.S8: T.U8, T.S16: T.U16, T.S32: T.U32, T.S64: T.U64}
        base = flip.get(base, base)
    return base


def _const_int(expr: A.Expr) -> Optional[int]:
    """Statically evaluate simple constant expressions (literals, + - * /)."""
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.Unary) and expr.op == "-":
        inner = _const_int(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, A.Binary):
        left = _const_int(expr.left)
        right = _const_int(expr.right)
        if left is None or right is None:
            return None
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b,
               "/": lambda a, b: a // b if b else None,
               "%": lambda a, b: a % b if b else None,
               "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b}
        if expr.op in ops:
            return ops[expr.op](left, right)
    return None


def parse(tokens: List[Token]) -> A.TranslationUnit:
    """Parse preprocessed *tokens* into a translation unit."""
    return Parser(tokens).parse()
