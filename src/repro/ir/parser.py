"""Parser for the textual IR form produced by :mod:`repro.ir.printer`.

The format is line-oriented: one instruction, label, or top-level
declaration per line. Forward references (branch targets, phi operands)
are resolved with placeholder values patched after the function body is
read. Global initializers other than ``zeroinitializer`` are not part
of the textual form (construct them through the API).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from . import opcodes as OP
from . import types as T
from .function import BasicBlock, Function
from .instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    BroadcastInst,
    CallInst,
    CastInst,
    ExtractElementInst,
    FCmpInst,
    GepInst,
    ICmpInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
    UnreachableInst,
)
from .module import Module
from .values import Constant, UndefValue, Value


class ParseError(Exception):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<float>-?\d+\.\d*(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+|-?inf|nan)"
    r"|(?P<int>-?\d+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_.$-]*)"
    r"|(?P<ref>[%@][A-Za-z0-9_.$-]+)"
    r"|(?P<punct>[(){}\[\]<>,=:])"
    r")"
)


#: Matches a global whose initializer is a flat ``[...]`` body (no
#: nested brackets): the type is everything between the kind keyword
#: and the last bracketed group on the line. Element bodies never
#: contain ``]``, so nested-array initializers simply fail to match
#: and fall back to the token-by-token path.
_GLOBAL_ARRAY_RE = re.compile(
    r"@(?P<name>[A-Za-z0-9_.$-]+) = (?P<kind>global|constant) "
    r"(?P<ty>.+?) \[(?P<body>[^\]]+)\]\s*$"
)


def _tokenize(line: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            if line[pos:].strip() == "":
                break
            raise ParseError(f"cannot tokenize: {line[pos:]!r}")
        tokens.append(m.group().strip())
        pos = m.end()
    return tokens


class _Forward(Value):
    """Placeholder for a not-yet-defined local value."""

    def __init__(self, ty: T.Type, name: str):
        super().__init__(ty, name)


class _Cursor:
    def __init__(self, tokens: List[str], line: str):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of line: {self.line!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r} in {self.line!r}")

    def accept(self, tok: str) -> bool:
        if self.peek() == tok:
            self.pos += 1
            return True
        return False

    @property
    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def _parse_type(cur: _Cursor) -> T.Type:
    tok = cur.next()
    if tok == "void":
        return T.VOID
    if tok == "ptr":
        return T.PTR
    if tok == "float":
        return T.F32
    if tok == "double":
        return T.F64
    if tok.startswith("i") and tok[1:].isdigit():
        return T.int_type(int(tok[1:]))
    if tok == "<":
        count = int(cur.next())
        cur.expect("x")
        elem = _parse_type(cur)
        cur.expect(">")
        return T.vector(elem, count)
    if tok == "[":
        count = int(cur.next())
        cur.expect("x")
        elem = _parse_type(cur)
        cur.expect("]")
        return T.ArrayType(elem, count)
    raise ParseError(f"expected a type, got {tok!r} in {cur.line!r}")


class Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.index = 0
        self.module = Module()
        # Per-function state:
        self.values: Dict[str, Value] = {}
        self.forwards: Dict[str, List[_Forward]] = {}
        self.blocks: Dict[str, BasicBlock] = {}

    # Top level ---------------------------------------------------------------

    def parse(self) -> Module:
        for raw in self.lines:
            stripped = raw.strip()
            if stripped.startswith("; module "):
                self.module.name = stripped[len("; module "):].strip()
                break
            if stripped and not stripped.startswith(";"):
                break
        self._declare_signatures()
        self.index = 0
        while self.index < len(self.lines):
            line = self._current_line()
            if line is None:
                break
            if line.startswith("@"):
                self._parse_global(line)
                self.index += 1
            elif line.startswith("define"):
                self._parse_function_body(line)
            elif line.startswith("declare"):
                self.index += 1
            else:
                raise ParseError(f"unexpected top-level line: {line!r}")
        return self.module

    def _current_line(self) -> Optional[str]:
        while self.index < len(self.lines):
            raw = self.lines[self.index].split(";", 1)[0].strip()
            if raw:
                return raw
            self.index += 1
        return None

    def _declare_signatures(self) -> None:
        """Pre-scan so calls can reference functions defined later."""
        for raw in self.lines:
            line = raw.split(";", 1)[0].strip()
            if line.startswith("define") or line.startswith("declare"):
                name, ftype, arg_names, hardened = self._parse_header(line)
                if name not in self.module.functions:
                    fn = self.module.add_function(name, ftype, arg_names)
                    fn.hardened = hardened

    def _parse_header(
        self, line: str,
    ) -> Tuple[str, T.FunctionType, List[str], Optional[str]]:
        cur = _Cursor(_tokenize(line), line)
        kw = cur.next()
        if kw not in ("define", "declare"):
            raise ParseError(f"expected define/declare: {line!r}")
        ret = _parse_type(cur)
        name_tok = cur.next()
        if not name_tok.startswith("@"):
            raise ParseError(f"expected @name in {line!r}")
        cur.expect("(")
        params: List[T.Type] = []
        arg_names: List[str] = []
        while not cur.accept(")"):
            if params:
                cur.expect(",")
            ty = _parse_type(cur)
            params.append(ty)
            if cur.peek() is not None and cur.peek().startswith("%"):
                arg_names.append(cur.next()[1:])
            else:
                arg_names.append(f"arg{len(params) - 1}")
        # The hardening scheme that produced a function (Function.hardened)
        # picks the fault-injection scope, so it round-trips too.
        hardened = None
        if cur.accept("hardened"):
            cur.expect("(")
            hardened = cur.next()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.-]*", hardened):
                raise ParseError(f"bad hardening scheme in {line!r}")
            cur.expect(")")
        if not (cur.done if kw == "declare" else cur.peek() == "{"):
            raise ParseError(f"unexpected tokens after header: {line!r}")
        return (name_tok[1:], T.FunctionType(ret, tuple(params)), arg_names,
                hardened)

    def _parse_global(self, line: str) -> None:
        if self._parse_global_fast(line):
            return
        cur = _Cursor(_tokenize(line), line)
        name = cur.next()[1:]
        cur.expect("=")
        kind = cur.next()
        if kind not in ("global", "constant"):
            raise ParseError(f"bad global kind in {line!r}")
        ty = _parse_type(cur)
        initializer = self._parse_initializer(cur, ty)
        if name not in self.module.globals:
            self.module.add_global(
                name, ty, initializer, constant=(kind == "constant")
            )

    def _parse_global_fast(self, line: str) -> bool:
        """Fast path for flat constant-array globals. Workload inputs
        are baked into the module as (possibly huge) arrays of scalars;
        tokenizing them element by element dominates module parse time,
        so split the printed ``[elem v, elem v, ...]`` body directly.
        Returns False (parse nothing) for any shape it cannot prove it
        handles — nested arrays, zeroinitializer, scalars — which then
        take the general token path."""
        m = _GLOBAL_ARRAY_RE.match(line)
        if m is None:
            return False
        ty = _parse_type(_Cursor(_tokenize(m.group("ty")), line))
        if not ty.is_array or ty.elem.is_array:
            return False
        prefix = f"{ty.elem} "
        plen = len(prefix)
        conv = float if ty.elem.is_float else int
        values = []
        try:
            for part in m.group("body").split(", "):
                if not part.startswith(prefix):
                    return False
                values.append(conv(part[plen:]))
        except ValueError:
            return False
        name = m.group("name")
        if name not in self.module.globals:
            self.module.add_global(
                name, ty, values, constant=(m.group("kind") == "constant")
            )
        return True

    def _parse_initializer(self, cur: _Cursor, ty: T.Type):
        tok = cur.peek()
        if tok == "zeroinitializer":
            cur.next()
            return None
        if tok == "[":
            cur.next()
            values = []
            while not cur.accept("]"):
                if values:
                    cur.expect(",")
                ety = _parse_type(cur)
                lit = cur.next()
                values.append(float(lit) if ety.is_float else int(lit))
            return values
        # Scalar literal.
        lit = cur.next()
        return float(lit) if ty.is_float else int(lit)

    # Function body -----------------------------------------------------------

    def _parse_function_body(self, header_line: str) -> None:
        name = self._parse_header(header_line)[0]
        fn = self.module.get_function(name)
        self.values = {f"%{a.name}": a for a in fn.args}
        self.forwards = {}
        self.blocks = {}
        self.index += 1

        # First pass: create all blocks so branches can reference them.
        body_lines: List[Tuple[int, str]] = []
        depth_index = self.index
        while depth_index < len(self.lines):
            line = self.lines[depth_index].split(";", 1)[0].strip()
            depth_index += 1
            if not line:
                continue
            if line == "}":
                break
            body_lines.append((depth_index - 1, line))
            if line.endswith(":") and re.fullmatch(r"[A-Za-z0-9_.$-]+:", line):
                label = line[:-1]
                self.blocks[label] = fn.append_block(label)
        else:
            raise ParseError(f"function @{name} has no closing brace")

        current: Optional[BasicBlock] = None
        for _, line in body_lines:
            if line.endswith(":") and line[:-1] in self.blocks:
                current = self.blocks[line[:-1]]
                continue
            if current is None:
                raise ParseError(f"instruction before first label: {line!r}")
            inst = self._parse_instruction(line, fn)
            current.append(inst)

        self._resolve_forwards(fn)
        self.index = depth_index

    def _resolve_forwards(self, fn: Function) -> None:
        unresolved = []
        for name, placeholders in self.forwards.items():
            real = self.values.get(name)
            if real is None or isinstance(real, _Forward):
                unresolved.append(name)
                continue
            for inst in fn.instructions():
                for i, op in enumerate(inst.operands):
                    if any(op is ph for ph in placeholders):
                        if op.type != real.type:
                            raise ParseError(
                                f"type mismatch for {name}: used as {op.type}, "
                                f"defined as {real.type}"
                            )
                        inst.operands[i] = real
        if unresolved:
            raise ParseError(
                f"undefined values in @{fn.name}: {sorted(unresolved)}"
            )

    # Operands ------------------------------------------------------------------

    def _value_ref(self, cur: _Cursor, ty: T.Type) -> Value:
        tok = cur.peek()
        if tok is None:
            raise ParseError(f"expected a value in {cur.line!r}")
        if tok.startswith("%"):
            cur.next()
            existing = self.values.get(tok)
            if existing is not None:
                return existing
            placeholder = _Forward(ty, tok[1:])
            self.forwards.setdefault(tok, []).append(placeholder)
            return placeholder
        if tok.startswith("@"):
            cur.next()
            name = tok[1:]
            if name in self.module.globals:
                return self.module.globals[name]
            if name in self.module.functions:
                return self.module.functions[name]
            raise ParseError(f"unknown global reference {tok}")
        if tok == "undef":
            cur.next()
            return UndefValue(ty)
        if tok == "<":
            cur.next()
            elems = []
            while not cur.accept(">"):
                if elems:
                    cur.expect(",")
                ety = _parse_type(cur)
                lit = cur.next()
                elems.append(
                    float(lit) if ety.is_float else int(lit)
                )
            if not ty.is_vector:
                raise ParseError(f"vector literal where {ty} expected")
            return Constant(ty, tuple(elems))
        # Numeric literal.
        cur.next()
        if ty.is_float:
            return Constant(ty, float(tok))
        return Constant(ty, int(tok))

    def _typed_value(self, cur: _Cursor) -> Value:
        ty = _parse_type(cur)
        return self._value_ref(cur, ty)

    def _label(self, cur: _Cursor) -> BasicBlock:
        cur.expect("label")
        tok = cur.next()
        if not tok.startswith("%"):
            raise ParseError(f"expected %label, got {tok!r}")
        block = self.blocks.get(tok[1:])
        if block is None:
            raise ParseError(f"unknown block {tok}")
        return block

    # Instructions ----------------------------------------------------------------

    def _parse_instruction(self, line: str, fn: Function) -> Instruction:
        cur = _Cursor(_tokenize(line), line)
        result_name = ""
        if cur.peek() is not None and cur.peek().startswith("%"):
            result_name = cur.next()[1:]
            cur.expect("=")
        opcode = cur.next()
        inst = self._dispatch(opcode, cur, fn)
        if result_name:
            inst.name = result_name
            self.values[f"%{result_name}"] = inst
        return inst

    def _dispatch(self, opcode: str, cur: _Cursor, fn: Function) -> Instruction:
        if opcode in OP.BINARY_OPS:
            ty = _parse_type(cur)
            lhs = self._value_ref(cur, ty)
            cur.expect(",")
            rhs = self._value_ref(cur, ty)
            return BinaryInst(opcode, lhs, rhs)
        if opcode in ("icmp", "fcmp"):
            pred = cur.next()
            ty = _parse_type(cur)
            lhs = self._value_ref(cur, ty)
            cur.expect(",")
            rhs = self._value_ref(cur, ty)
            cls = ICmpInst if opcode == "icmp" else FCmpInst
            return cls(pred, lhs, rhs)
        if opcode in OP.CAST_OPS:
            src_ty = _parse_type(cur)
            value = self._value_ref(cur, src_ty)
            cur.expect("to")
            to_ty = _parse_type(cur)
            return CastInst(opcode, value, to_ty)
        if opcode == "alloca":
            ty = _parse_type(cur)
            cur.expect(",")
            cur.expect("i64")
            count = int(cur.next())
            return AllocaInst(ty, count)
        if opcode == "load":
            ty = _parse_type(cur)
            cur.expect(",")
            ptr = self._typed_value(cur)
            return LoadInst(ty, ptr)
        if opcode == "store":
            value = self._typed_value(cur)
            cur.expect(",")
            ptr = self._typed_value(cur)
            return StoreInst(value, ptr)
        if opcode == "gep":
            elem_ty = _parse_type(cur)
            cur.expect(",")
            ptr = self._typed_value(cur)
            cur.expect(",")
            index = self._typed_value(cur)
            return GepInst(elem_ty, ptr, index)
        if opcode == "br":
            if cur.peek() == "label":
                return BranchInst(None, self._label(cur))
            cond = self._typed_value(cur)
            cur.expect(",")
            then_block = self._label(cur)
            cur.expect(",")
            else_block = self._label(cur)
            return BranchInst(cond, then_block, else_block)
        if opcode == "ret":
            if cur.peek() == "void":
                return RetInst(None)
            return RetInst(self._typed_value(cur))
        if opcode == "unreachable":
            return UnreachableInst()
        if opcode == "call":
            _parse_type(cur)  # return type; taken from callee signature
            callee_tok = cur.next()
            callee = self.module.get_function(callee_tok[1:])
            cur.expect("(")
            args: List[Value] = []
            while not cur.accept(")"):
                if args:
                    cur.expect(",")
                args.append(self._typed_value(cur))
            return CallInst(callee, args)
        if opcode == "phi":
            ty = _parse_type(cur)
            phi = PhiInst(ty)
            first = True
            while cur.peek() == "[" or (not first and cur.peek() == ","):
                if not first:
                    cur.expect(",")
                cur.expect("[")
                value = self._value_ref(cur, ty)
                cur.expect(",")
                block_tok = cur.next()
                block = self.blocks.get(block_tok[1:])
                if block is None:
                    raise ParseError(f"phi references unknown block {block_tok}")
                cur.expect("]")
                phi.add_incoming(value, block)
                first = False
            return phi
        if opcode == "select":
            cond = self._typed_value(cur)
            cur.expect(",")
            tval = self._typed_value(cur)
            cur.expect(",")
            fval = self._typed_value(cur)
            return SelectInst(cond, tval, fval)
        if opcode == "extractelement":
            vec = self._typed_value(cur)
            cur.expect(",")
            index = self._typed_value(cur)
            return ExtractElementInst(vec, index)
        if opcode == "insertelement":
            vec = self._typed_value(cur)
            cur.expect(",")
            elem = self._typed_value(cur)
            cur.expect(",")
            index = self._typed_value(cur)
            return InsertElementInst(vec, elem, index)
        if opcode == "shufflevector":
            v1 = self._typed_value(cur)
            cur.expect(",")
            v2 = self._typed_value(cur)
            cur.expect(",")
            cur.expect("mask")
            cur.expect("<")
            mask = []
            while not cur.accept(">"):
                if mask:
                    cur.expect(",")
                mask.append(int(cur.next()))
            return ShuffleVectorInst(v1, v2, tuple(mask))
        if opcode == "broadcast":
            scalar = self._typed_value(cur)
            cur.expect(",")
            count = int(cur.next())
            return BroadcastInst(scalar, count)
        raise ParseError(f"unknown opcode {opcode!r} in {cur.line!r}")


def parse_module(text: str) -> Module:
    """Parse textual IR into a :class:`Module`."""
    return Parser(text).parse()
