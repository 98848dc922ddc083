"""The expression server (paper Sec. 3, Fig. 3).

Assignment and expression evaluation use an "expression server" — a
variant of the compiler front end that ldb talks to only in text.  To
evaluate an expression ldb sends it to the server; the server parses and
type-checks it and produces an intermediate-code tree.  When the server
fails to find an identifier ``a``, it sends ``/a ExpressionServer.lookup``
back to ldb; interpreting that procedure makes ldb find ``a``'s
symbol-table dictionary and send type and symbol data (sequences of C
tokens) back, from which the server reconstructs the entry on the fly.

The server's IR tree is not passed to a compiler back end: it is
**rewritten as a PostScript procedure** (:func:`rewrite_to_ps` — the
analog of the paper's 124-line rewriter for lcc's 112-operator IR),
sent to ldb followed by ``ExpressionServer.result``, and interpreted by
the same embedded interpreter that reads symbol tables.  ldb drives the
conversation by applying ``cvx stopped`` to a reader of that text.

Only text lines cross: ldb sends ``EXPR {"text": ...}``, answered by one
PostScript text ending in ``ExpressionServer.result`` or
``ExpressionServer.error``, and ``RESET {"arch": ...}``, which has no
answer; while compiling, the server sends ``/name
ExpressionServer.lookup``, answered by ``SYM {json}`` or ``NOSYM name``.
The conversation is lockstep, so the server runs on the debugger's
thread as plain calls (:meth:`ExpressionServer.answer`).

New symbol entries are discarded after each expression; type
information persists until the debugger switches targets (RESET).
Procedure calls into the target are not yet supported — exactly the
paper's future-work limitation.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Dict, List, Optional

from ..cc import tree as ast
from ..cc.ctypes_ import (
    ArrayType,
    CType,
    FunctionType,
    PointerType,
    StructType,
    TypeSystem,
    UnionType,
)
from ..cc.ir import BINOP, CNST, CVT, INDIR, IRNode
from ..cc.irgen import kind_of
from ..cc.lexer import CError, tokenize
from ..cc.parser import Parser
from ..cc.sema import Sema
from ..cc.symtab import CSymbol
from ..postscript import Location, Name, PSArray, PSDict, PSStop, Reader, String


class EvalError(Exception):
    """An expression failed to parse, type-check, or evaluate."""


# ======================================================================
# pure expression lowering: typed AST -> a single IR tree

_BINOP_NAMES = {"+": "ADD", "-": "SUB", "*": "MUL", "/": "DIV", "%": "MOD",
                "&": "BAND", "|": "BOR", "^": "BXOR", "<<": "LSH", ">>": "RSH"}
_CMP_NAMES = {"==": "EQ", "!=": "NE", "<": "LT", "<=": "LE", ">": "GT", ">=": "GE"}


def WHERE(sym: CSymbol) -> IRNode:
    """A symbol's location, carried as its PostScript where-fragment."""
    node = IRNode("WHERE", "p", symbol=sym)
    node.value = sym.where_ps
    return node


class PureLowering:
    """Lower a typed expression AST to one side-effect-free-ish IR tree
    (assignments allowed; statements and target calls are not)."""

    def lower(self, e: ast.Expr) -> IRNode:
        method = getattr(self, "_lw_" + type(e).__name__, None)
        if method is None:
            raise EvalError("cannot evaluate %s here" % type(e).__name__)
        return method(e)

    def _lw_IntLit(self, e):
        return CNST(kind_of(e.ctype), e.value)

    def _lw_FloatLit(self, e):
        return CNST(kind_of(e.ctype), e.value)

    def _lw_Ident(self, e):
        sym = e.symbol
        if isinstance(sym.ctype, (ArrayType, FunctionType)):
            return self.addr(e)
        return INDIR(kind_of(sym.ctype), WHERE(sym))

    def _lw_Unary(self, e):
        op = e.op
        if op == "&":
            return self.addr(e.operand)
        if op == "*":
            return INDIR(kind_of(e.ctype), self.lower(e.operand))
        if op == "+":
            return self.lower(e.operand)
        if op == "-":
            return IRNode("NEG", kind_of(e.ctype), [self.lower(e.operand)])
        if op == "~":
            return IRNode("BCOM", kind_of(e.ctype), [self.lower(e.operand)])
        if op == "!":
            return IRNode("NOT", "i4", [self.lower(e.operand)])
        if op in ("pre++", "pre--", "post++", "post--"):
            raise EvalError("++/-- in debugger expressions is not supported")
        raise EvalError("cannot evaluate unary %s" % op)

    def _lw_Binary(self, e):
        op = e.op
        if op in _CMP_NAMES:
            kind = kind_of(e.left.ctype)
            return BINOP(_CMP_NAMES[op], kind, self.lower(e.left), self.lower(e.right))
        if op == "&&":
            return IRNode("ANDAND", "i4", [self.lower(e.left), self.lower(e.right)])
        if op == "||":
            return IRNode("OROR", "i4", [self.lower(e.left), self.lower(e.right)])
        kind = kind_of(e.ctype)
        left = self.lower(e.left)
        right = self.lower(e.right)
        if kind == "p":  # pointer arithmetic: scale the integer operand
            elem = e.ctype.ref.size if isinstance(e.ctype, PointerType) else 1
            if self._pointerish(e.left):
                right = BINOP("MUL", "i4", right, CNST("i4", max(elem, 1)))
            else:
                left = BINOP("MUL", "i4", left, CNST("i4", max(elem, 1)))
        return BINOP(_BINOP_NAMES[op], kind, left, right)

    def _pointerish(self, e) -> bool:
        t = e.ctype
        return isinstance(t, (PointerType, ArrayType))

    def _lw_Assign(self, e):
        if e.op != "=":
            raise EvalError("compound assignment is not supported; "
                            "write it out")
        kind = kind_of(e.target.ctype)
        node = IRNode("ASGN", kind, [self.addr_or_where(e.target),
                                     self.lower(e.value)])
        return node

    def _lw_Cond(self, e):
        return IRNode("COND", kind_of(e.ctype),
                      [self.lower(e.cond), self.lower(e.then), self.lower(e.els)])

    def _lw_Cast(self, e):
        inner = self.lower(e.operand)
        from_kind = kind_of(e.operand.ctype)
        to_kind = kind_of(e.target_type)
        if from_kind == to_kind or e.target_type.is_void():
            return inner
        return CVT(to_kind, from_kind, inner)

    def _lw_Index(self, e):
        base = self.lower(e.base)
        elem = max(e.ctype.size, 1)
        index = BINOP("MUL", "i4", self.lower(e.index), CNST("i4", elem))
        addr = BINOP("ADD", "p", base, index)
        if isinstance(e.ctype, ArrayType):
            return addr
        return INDIR(kind_of(e.ctype), addr)

    def _lw_Member(self, e):
        if e.arrow:
            base = self.lower(e.base)
        else:
            base = self.addr(e.base)
        addr = BINOP("ADD", "p", base, CNST("i4", e.field.offset)) \
            if e.field.offset else base
        if isinstance(e.ctype, ArrayType):
            return addr
        if isinstance(e.ctype, (StructType, UnionType)):
            raise EvalError("cannot produce a whole struct value; "
                            "pick a member")
        return INDIR(kind_of(e.ctype), addr)

    def _lw_Comma(self, e):
        raise EvalError("the comma operator is not supported here")

    def _lw_Call(self, e):
        # the paper, Sec. 7.1: "ldb cannot evaluate expressions that
        # include procedure calls into the target process"
        raise EvalError("procedure calls into the target are not yet supported")

    def addr(self, e) -> IRNode:
        if isinstance(e, ast.Ident):
            node = WHERE(e.symbol)
            return IRNode("LOCADDR", "p", [node])
        if isinstance(e, ast.Unary) and e.op == "*":
            return self.lower(e.operand)
        if isinstance(e, ast.Index):
            base = self.lower(e.base)
            elem = max(e.ctype.size, 1)
            index = BINOP("MUL", "i4", self.lower(e.index), CNST("i4", elem))
            return BINOP("ADD", "p", base, index)
        if isinstance(e, ast.Member):
            base = self.lower(e.base) if e.arrow else self.addr(e.base)
            if e.field.offset:
                return BINOP("ADD", "p", base, CNST("i4", e.field.offset))
            return base
        if isinstance(e, ast.Cast) and e.implicit:
            return self.addr(e.operand)
        raise EvalError("expression has no address")

    def addr_or_where(self, e) -> IRNode:
        """Assignment targets: a WHERE (registers allowed) or an address."""
        if isinstance(e, ast.Ident):
            return WHERE(e.symbol)
        return self.addr(e)


# ======================================================================
# IR -> PostScript: the rewriter (the paper's 124 lines for 112 operators)

_FETCH = {"i1": "fetch8", "u1": "fetch8", "i2": "fetch16", "u2": "fetch16",
          "i4": "fetch32", "u4": "fetch32", "p": "fetch32",
          "f4": "fetchf32", "f8": "fetchf64", "f10": "fetchf80"}
_STORE = {"i1": "store8", "u1": "store8", "i2": "store16", "u2": "store16",
          "i4": "store32", "u4": "store32", "p": "store32",
          "f4": "storef32", "f8": "storef64", "f10": "storef80"}
_UNSIGNED_FIX = {"u1": " zx8", "u2": " zx16", "u4": " u32", "p": " u32"}
_ARITH = {"ADD": "add", "SUB": "sub", "MUL": "mul",
          "BAND": "and", "BOR": "or", "BXOR": "xor"}
_CMP = {"EQ": "eq", "NE": "ne", "LT": "lt", "LE": "le", "GT": "gt", "GE": "ge"}


def rewrite_to_ps(node: IRNode) -> str:
    """Rewrite an expression-server IR tree into PostScript."""
    op, kind = node.op, node.kind
    unsigned = kind.startswith("u") or kind == "p"
    floaty = kind.startswith("f")
    if op == "CNST":
        return repr(float(node.value)) if floaty else str(int(node.value))
    if op == "WHERE":
        return node.value  # the symbol's where-fragment: pushes a location
    if op == "LOCADDR":
        return "%s locoffset" % rewrite_to_ps(node.kids[0])
    if op == "INDIR":
        addr = node.kids[0]
        if addr.op == "WHERE":
            return "ExprMem %s %s" % (addr.value, _FETCH[kind])
        return "ExprMem %s (d) Absolute %s" % (rewrite_to_ps(addr), _FETCH[kind])
    if op == "ASGN":
        target, value = node.kids
        loc = target.value if target.op == "WHERE" \
            else "%s (d) Absolute" % rewrite_to_ps(target)
        return "%s dup ExprMem %s 3 -1 roll %s" \
            % (rewrite_to_ps(value), loc, _STORE[kind])
    if op == "CVT":
        return _rewrite_cvt(node)
    if op == "NEG":
        return "%s neg%s" % (rewrite_to_ps(node.kids[0]), "" if floaty else " c32")
    if op == "BCOM":
        return "%s not c32" % rewrite_to_ps(node.kids[0])
    if op == "NOT":
        return "%s 0 eq { 1 } { 0 } ifelse" % rewrite_to_ps(node.kids[0])
    if op in _ARITH:
        a, b = (rewrite_to_ps(k) for k in node.kids)
        if floaty:
            return "%s %s %s" % (a, b, _ARITH[op])
        return "%s %s %s c32" % (a, b, _ARITH[op])
    if op == "DIV":
        a, b = (rewrite_to_ps(k) for k in node.kids)
        if floaty:
            return "%s %s div" % (a, b)
        if unsigned:
            return "%s u32 %s u32 cdiv c32" % (a, b)
        return "%s %s cdiv" % (a, b)
    if op == "MOD":
        a, b = (rewrite_to_ps(k) for k in node.kids)
        if unsigned:
            return "%s u32 %s u32 cmod c32" % (a, b)
        return "%s %s cmod" % (a, b)
    if op == "LSH":
        return "%s %s bitshift c32" % tuple(rewrite_to_ps(k) for k in node.kids)
    if op == "RSH":
        a, b = (rewrite_to_ps(k) for k in node.kids)
        if unsigned:
            return "%s u32 %s neg bitshift" % (a, b)
        return "%s %s asr32" % (a, b)
    if op in _CMP:
        a, b = (rewrite_to_ps(k) for k in node.kids)
        fix = _UNSIGNED_FIX.get(kind, "")
        return "%s%s %s%s %s { 1 } { 0 } ifelse" % (a, fix, b, fix, _CMP[op])
    if op == "COND":
        c, t, f = (rewrite_to_ps(k) for k in node.kids)
        return "%s 0 ne { %s } { %s } ifelse" % (c, t, f)
    if op == "ANDAND":
        a, b = (rewrite_to_ps(k) for k in node.kids)
        return "%s 0 ne { %s 0 ne { 1 } { 0 } ifelse } { 0 } ifelse" % (a, b)
    if op == "OROR":
        a, b = (rewrite_to_ps(k) for k in node.kids)
        return "%s 0 ne { 1 } { %s 0 ne { 1 } { 0 } ifelse } ifelse" % (a, b)
    raise EvalError("the rewriter has no case for %s.%s" % (op, kind))


def _rewrite_cvt(node: IRNode) -> str:
    inner = rewrite_to_ps(node.kids[0])
    to_kind, from_kind = node.kind, node.from_kind
    if to_kind.startswith("f") and from_kind.startswith("f"):
        return inner
    if to_kind.startswith("f"):
        if from_kind in ("u4", "p"):
            return "%s u32 cvr" % inner
        return "%s cvr" % inner
    if from_kind.startswith("f"):
        body = "%s truncate cvi c32" % inner
    else:
        body = inner
    narrowing = {"i1": " sx8", "u1": " zx8", "i2": " sx16", "u2": " zx16"}
    return body + narrowing.get(to_kind, "")


# ======================================================================
# the server

class ServerSema(Sema):
    """The modified front end: a symbol-table miss asks the debugger."""

    def __init__(self, types: TypeSystem, lookup_miss, unit_name="<expr>"):
        super().__init__(types, unit_name)
        self.lookup_miss = lookup_miss

    def _expr_Ident(self, e):
        if self.scope.lookup(e.name) is None:
            sym = self.lookup_miss(e.name)
            if sym is not None:
                self.globals.declare(sym)
        return super()._expr_Ident(e)


class ExpressionServer:
    """The server of Fig. 3: answers the conversation one line at a
    time, and holds no debugger, target or frame."""

    def __init__(self):
        self.types: Optional[TypeSystem] = None
        #: the last RESET's payload, read when the next EXPR needs types
        self._reset = '{"arch": "rmips"}'
        #: persistent type definitions (saved until the target changes):
        #: every one learned, once each, in the order learned
        self.type_defs: List[str] = []
        self._known_defs = set()
        #: tag ("struct S") -> its definition in force, the last one a
        #: lookup delivered: two compilation units may define one tag
        #: differently, and each lookup brings its own unit's
        self._tag_defs: Dict[str, str] = {}
        #: tag -> the definition this expression's lookups delivered
        self._expr_tags: Dict[str, str] = {}
        #: is ``ask`` running?  What it raises is the caller's to handle
        self._asking = False

    def answer(self, line: str, ask: Callable[[str], str]) -> str:
        """The PostScript that answers one line from the debugger: for
        an EXPR exactly one result or error, whatever fails while
        handling it, and ``""`` for RESET or a stray line.  ``ask``
        returns the debugger's reply to each lookup line; what it raises
        reaches the caller as it is, but for an EvalError or a
        RecursionError, which are answered like the server's own."""
        verb, _, payload = line.strip().partition(" ")
        if verb == "RESET":
            # RESET has no answer, so the next EXPR builds the type
            # system and answers a bad payload as its error
            self._reset = payload
            self.types = None
            self.type_defs = []
            self._known_defs = set()
            self._tag_defs = {}
            return ""
        if verb != "EXPR":
            return ""  # a stray SYM/NOSYM outside a lookup
        self._asking = False
        try:
            return self.evaluate_one(json.loads(payload)["text"], ask)
        except (CError, EvalError) as err:
            message = str(err)
        except RecursionError:
            # the recursive-descent parser ran out of stack
            message = "expression nested too deeply"
        except Exception as err:
            if self._asking:
                raise  # a deadline or a lost nub while ldb looked a name up
            message = "%s: %s" % (type(err).__name__, err)
        return "%s ExpressionServer.error\n" % _ps_quote(message)

    # -- one expression ------------------------------------------------------

    def evaluate_one(self, text: str, ask: Callable[[str], str]) -> str:
        if self.types is None:
            self.types = TypeSystem(json.loads(self._reset)["arch"])
        self._expr_tags = {}
        parser = self._primed_parser()
        parser.tokens = tokenize(text, "<expr>")
        parser.pos = 0
        expr = parser.expression()
        if parser.peek().kind != "eof":
            raise EvalError("trailing junk after expression")
        sema = ServerSema(self.types, self._lookup_miss_factory(parser, ask))
        self._declare_type_constants(parser, sema)
        tree_ir = PureLowering().lower(sema.expr(expr))
        return "%s\nExpressionServer.result\n" % rewrite_to_ps(tree_ir)

    def _primed_parser(self) -> Parser:
        # the definitions parse in the order learned, so each binds the
        # tags it names as they were when it was learned; then a tag
        # whose definition in force is not the last of its tag parses
        # that one again
        last = {_tag(cdef): cdef for cdef in self.type_defs}
        again = [cdef for tag, cdef in self._tag_defs.items()
                 if last[tag] != cdef]
        source = "\n".join(cdef + ";" for cdef in self.type_defs + again)
        parser = Parser(source, "<types>", self.types)
        self._pending_decls = parser.parse_translation_unit().decls
        return parser

    def _declare_type_constants(self, parser: Parser, sema: Sema) -> None:
        for decl in self._pending_decls:
            if isinstance(decl, ast.VarDecl) and decl.storage == "enumconst":
                sema.global_decl(decl)

    def _lookup_miss_factory(self, parser: Parser, ask: Callable[[str], str]):
        def lookup_miss(name: str) -> Optional[CSymbol]:
            if not _room_to_ask():
                # the debugger answers on this stack: running out of it
                # part way (mapping the procedures, say) would leave its
                # state half built for later expressions
                raise RecursionError("no stack left to look %s up" % name)
            # ask the debugger: "/name ExpressionServer.lookup"
            self._asking = True
            reply = ask("/%s ExpressionServer.lookup\n" % name)
            self._asking = False
            verb, _, payload = reply.strip().partition(" ")
            if verb == "NOSYM":
                raise EvalError("undeclared identifier %r" % name)
            if verb != "SYM":
                raise EvalError("bad lookup reply %r" % reply)
            info = json.loads(payload)
            for cdef in info.get("cdefs", ()):
                self._learn_type(cdef, parser)
            ctype = self._parse_decl_type(info["decl"], parser)
            sym = CSymbol(info["name"], ctype, "extern")
            sym.where_ps = info["where"]
            return sym

        return lookup_miss

    def _learn_type(self, cdef: str, parser: Parser) -> None:
        tag = _tag(cdef)
        if tag:
            if self._expr_tags.setdefault(tag, cdef) != cdef:
                raise EvalError("%s has two definitions in this "
                                "expression (one per compilation unit)"
                                % tag)
            if self._tag_defs.get(tag) == cdef:
                return
            # a lookup whose definition redefines a learned tag puts
            # its own back in force
            self._tag_defs[tag] = cdef
        elif cdef in self._known_defs:
            return
        if cdef not in self._known_defs:
            self._known_defs.add(cdef)
            self.type_defs.append(cdef)
        # feed it to the current parser so this expression sees it too
        saved_tokens, saved_pos = parser.tokens, parser.pos
        parser.tokens = tokenize(cdef + ";", "<cdef>")
        parser.pos = 0
        self._pending_decls.extend(parser.external_declaration())
        parser.tokens, parser.pos = saved_tokens, saved_pos

    def _parse_decl_type(self, decl: str, parser: Parser) -> CType:
        saved_tokens, saved_pos = parser.tokens, parser.pos
        parser.tokens = tokenize(decl + ";", "<decl>")
        parser.pos = 0
        base, _storage, _out = parser.declaration_specifiers()
        _name, ctype, _token = parser.declarator(base)
        parser.tokens, parser.pos = saved_tokens, saved_pos
        return ctype


def _tag(cdef: str) -> str:
    """The tag a struct or union definition names (``"struct S"``), or
    ``""`` for an untagged one."""
    words = cdef.partition("{")[0].split()
    return " ".join(words) if len(words) == 2 else ""


#: the frames a lookup leaves the debugger below the recursion limit:
#: answering one (resolving the name, mapping the procedures on first
#: use, collecting its types) takes a few dozen
_LOOKUP_FRAMES = 200


def _room_to_ask() -> bool:
    """Is this thread's stack :data:`_LOOKUP_FRAMES` short of the
    recursion limit?"""
    try:
        sys._getframe(sys.getrecursionlimit() - _LOOKUP_FRAMES)
    except ValueError:  # the stack is not that deep
        return True
    return False


def _ps_quote(text: str) -> str:
    out = []
    for ch in text:
        out.append("\\" + ch if ch in "()\\" else ch)
    return "(%s)" % "".join(out)


# ======================================================================
# the debugger side

class ExpressionClient:
    """ldb's end of the conversation (Fig. 3).

    The debugger treats each expression as a string: it hands the
    string to the server, answers the server's lookups by interpreting
    them, and interprets the PostScript that comes back until the
    server tells it to stop (``cvx stopped``).
    """

    def __init__(self, debugger):
        self.debugger = debugger
        self.server = ExpressionServer()
        #: the target the server's types were last reset for
        self._reset_for = None
        self._error: Optional[str] = None
        #: the SYM or NOSYM line the last lookup left for the server
        self._reply = ""

    # -- interpreter operators the server conversation uses ---------------------

    def _install_ops(self, interp, target, frame) -> PSDict:
        d = PSDict()
        client = self

        def op_lookup(ip) -> None:
            name = ip.pop_name_or_string_text()
            entry = frame.resolve(name)
            if entry is None:
                client._reply = "NOSYM %s" % name
                return
            client._reply = "SYM %s" % json.dumps(client._symbol_info(
                name, entry, target, frame))

        def op_result(ip) -> None:
            raise PSStop()

        def op_error(ip) -> None:
            client._error = ip.pop_string().text
            raise PSStop()

        from ..postscript import Operator
        d["ExpressionServer.lookup"] = Operator("ExpressionServer.lookup", op_lookup)
        d["ExpressionServer.result"] = Operator("ExpressionServer.result", op_result)
        d["ExpressionServer.error"] = Operator("ExpressionServer.error", op_error)
        d["ExprMem"] = frame.memory
        return d

    def _symbol_info(self, name: str, entry: PSDict, target, frame) -> Dict:
        """Type and symbol data, as C tokens plus a where-fragment."""
        typedict = entry["type"]
        decl_pattern = typedict["decl"].text
        decl = decl_pattern.replace("%s", name) if "%s" in decl_pattern \
            else "%s %s" % (decl_pattern, name)
        cdefs: List[str] = []
        self._collect_cdefs(typedict, cdefs, set())
        where = entry["where"]
        if isinstance(where, String):
            where_src = where.text
        elif isinstance(where, Location):
            where_src = _location_source(where)
        elif isinstance(where, PSArray):
            where_src = _proc_source(where)
        else:
            raise EvalError("symbol %s has no usable location" % name)
        return {"name": name, "decl": decl, "cdefs": cdefs, "where": where_src}

    def _collect_cdefs(self, typedict: PSDict, out: List[str], seen) -> None:
        if id(typedict) in seen:
            return
        seen.add(id(typedict))
        for key in ("elemtype", "pointee"):
            inner = typedict.get(key)
            if isinstance(inner, PSDict):
                self._collect_cdefs(inner, out, seen)
        fields = typedict.get("fields")
        if fields is not None:
            for field in fields:
                self._collect_cdefs(field["ftype"], out, seen)
        cdef = typedict.get("cdef")
        if cdef is not None and cdef.text not in out:
            out.append(cdef.text)

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self, text: str, target, frame):
        interp = self.debugger.interp
        if self._reset_for is not target:
            # types learned from one target's tables (a struct layout)
            # must not answer for another's, even of the same machine
            self._send("RESET %s" % json.dumps({"arch": target.arch_name}))
            self._reset_for = target
        self._error = None
        ops = self._install_ops(interp, target, frame)
        pushed = 0
        for d in target.eval_dicts():
            interp.push_dict(d)
            pushed += 1
        frame_dict = PSDict()
        frame_dict["FrameBase"] = frame.frame_base
        interp.push_dict(frame_dict)
        interp.push_dict(ops)
        pushed += 2
        depth = len(interp.ostack)
        try:
            program = self._send("EXPR %s" % json.dumps({"text": text}))
            # "cvx stopped" applied to the server's answer
            interp.push(Reader(program, "expression-server"))
            interp.run("cvx stopped pop")
            if self._error is not None:
                raise EvalError(self._error)
            if interp.stop_error is not None:
                # the run stopped on an interpreter error, not on the
                # server's final ``stop`` — a failed fetch/store (bad
                # address, read-only post-mortem target ...) must not
                # pass off whatever is on the stack as the result
                raise EvalError("expression failed: %s" % interp.stop_error)
            if len(interp.ostack) <= depth:
                raise EvalError("expression produced no value")
            return interp.pop()
        finally:
            del interp.ostack[depth:]
            for _ in range(pushed):
                interp.pop_dict_stack()

    def _send(self, line: str) -> str:
        """One line to the server; the PostScript it answers with."""
        return self.server.answer(line, self._ask)

    def _ask(self, line: str) -> str:
        """Answer the server's lookup line by interpreting it:
        ``ExpressionServer.lookup`` leaves the SYM or NOSYM reply."""
        self._reply = ""
        self.debugger.interp.run(line, "expression-server")
        return self._reply


def _location_source(loc: Location) -> str:
    if loc.mode == "immediate":
        return "%d Immediate" % loc.value
    return "%d (%s) Absolute" % (loc.offset, loc.space)


def _proc_source(proc: PSArray) -> str:
    parts = []
    for item in proc.items:
        if isinstance(item, PSArray):
            parts.append("{ %s }" % _proc_source(item))
        elif isinstance(item, String):
            parts.append(_ps_quote(item.text))
        elif isinstance(item, Name):
            parts.append(("/" if item.literal else "") + item.text)
        else:
            parts.append(str(item))
    return " ".join(parts)
