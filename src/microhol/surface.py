"""Concrete syntax: a parser and a precedence-aware printer for types
and terms.  One compiled regular expression splits the source into
token strings; the parser reads them by index and works out a token's
line and column only when it reports an error there.

Types are written `A -> B` (right-associative) with single capital
letters (optionally digits) as type variables and lowercase names as
constructors; constructor application is juxtaposition driven by the
registered arity (`w bool`).

Terms use juxtaposition for application, `\\x:ty. b` for abstraction,
binder sugar `!x:ty. p` / `?x:ty. p` / `@x:ty. p`, infix `=` (printed
`<=>` on booleans), and the connective tokens `/\\`, `\\/`, `==>`, `~`.
Binder annotations are mandatory; free variables are written annotated,
`(x:bool)`.  Partially applied operators use the atom forms `(=:ty)`,
`(/\\)`, and so on.

The parser is where input meets a theory's signature: every constant
is built at an instance of the theory's type for it, a connective token
naming its boolean instance, and every type constructor is a registered
one applied to its arity.  With no theory given, the signature is a
fresh theory's: `bool`, `ind` and `fun`, and the constants `=` and `@`.

Printing is deterministic with canonical spacing and minimal
parentheses, so `print(parse(s))` is a fixed point, and `parse(print(t))`
is `t` itself, with three exceptions.  A free variable with the name of a
constant of the theory does not read back: under the bootstrapped logic
`Var("T", bool)` prints as `(T:bool)`, which reads back as the constant
`T`, and `Var("not", bool)` as `(not:bool)`, which is a `ParseError`.
Nor does a bound variable with a constant's name that is used under an
inner binder of that name and another type, because it prints as a free
one does: in `\\not:bool. ?not:ind -> ind. v`, where `v` is the outer
`not`, `v` prints as `(not:bool)`.  And input nested deeper than the
parser's recursion allows, about 250 applications `f (f (... x))` from a
fresh interpreter, is a `ParseError`.
"""

from __future__ import annotations

import re
from functools import cache

from .kernel import Theory
from .syntax import (
    BOOL,
    Abs,
    Comb,
    Const,
    HolError,
    HolType,
    IllTyped,
    Term,
    TyApp,
    TyVar,
    Var,
    fn,
    mk_abs,
    mk_comb,
    mk_eq,
    type_match,
    type_subst,
    type_vars_of_type,
)

__all__ = [
    "ParseError",
    "UnknownConstant",
    "parse_type",
    "parse_term",
    "parse_sequent",
    "print_type",
    "print_term",
    "print_sequent",
]


class ParseError(HolError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class UnknownConstant(HolError):
    pass


# Surface operator token -> kernel constant name.
_OP_CONSTS = {
    "/\\": "and",
    "\\/": "or",
    "==>": "imp",
    "~": "not",
    "!": "forall",
    "?": "exists",
    "=": "=",
    "<=>": "=",
    "@": "@",
}

_BOOL2 = fn(BOOL, fn(BOOL, BOOL))
# The type each connective token names: the printer writes only these
# instances with the token, and the parser builds them from it.
_MONO_OPS = {"and": _BOOL2, "or": _BOOL2, "imp": _BOOL2, "not": fn(BOOL, BOOL)}
# The signature read when no theory is given; the parser never extends it.
_FRESH_THEORY = Theory()


# ---------------------------------------------------------------------------
# Lexer

_SPACE = " \t\r\n"
# One token after optional whitespace: the multi-character operators
# before the punctuation they start with, then identifiers, then any
# other single character, which _lex rejects.  `\w` is exactly
# `str.isalnum()` or `_`, so `[\w']*` continues an identifier as
# intended, but `[^\W\d]` also starts one at characters such as `²` and
# `½` that are not `str.isalpha()`; _lex checks first characters itself.
# Scans stop before trailing whitespace, where the pattern cannot match:
# a search would retry it at every remaining position.
_TOKEN = re.compile(
    f"[{_SPACE}]*" + r"(==>|<=>|\|-|->|/\\|\\/|[\\().:,=~!?@]|[^\W\d][\w']*|.)", re.DOTALL
)
_PUNCT = frozenset(("==>", "<=>", "|-", "->", "/\\", "\\/", *"\\().:,=~!?@"))
_EOF = ""
_NOT_IDENT = _PUNCT | {_EOF}
# End-of-input entries after the last token: the parser looks at most two
# tokens past its position, so lookahead never needs a bounds check.
_EOF_PAD = 3


def _lex(src: str) -> list[str]:
    """The token texts of `src`, followed by `_EOF_PAD` end-of-input entries."""
    toks = _TOKEN.findall(src, 0, len(src.rstrip(_SPACE)))
    bad = [
        t for t in set(toks).difference(_PUNCT) if not (t[0].isalpha() or t[0] == "_")
    ]
    if bad:
        i = min(map(toks.index, bad))
        raise ParseError(f"unexpected character {toks[i][0]!r}", *_position(src, i))
    toks += [_EOF] * _EOF_PAD
    return toks


def _position(src: str, i: int) -> tuple[int, int]:
    """Line and column, from 1, of token `i` of `src` (past the last: the end)."""
    starts = [m.start(1) for m in _TOKEN.finditer(src, 0, len(src.rstrip(_SPACE)))]
    offset = starts[i] if i < len(starts) else len(src)
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


def _is_tyvar_name(name: str) -> bool:
    """A single capital letter, optionally followed by digits (A, B, A12)."""
    return name[0].isupper() and (len(name) == 1 or name[1:].isdigit())


# Binding strength, loosest first; shared by the parser and the printer.
_BINDER = 0
_IFF = 1
_IMP = 2
_DISJ = 3
_CONJ = 4
_NEG = 5
_EQ = 6
_APP = 7
_ATOM = 8

# Infix connective token -> binding strength; all are right-associative.
_INFIX_LEVEL = {"<=>": _IFF, "==>": _IMP, "\\/": _DISJ, "/\\": _CONJ}


class _Unresolved:
    """A polymorphic constant awaiting type inference from its arguments."""

    __slots__ = ("name", "generic", "at")

    def __init__(self, name: str, generic: HolType, at: int):
        self.name = name
        self.generic = generic
        self.at = at


class _Parser:
    """Recursive descent over the token list; a token is named by its index,
    whose line and column are worked out only when an error is raised."""

    def __init__(self, src: str, theory=None, free_default: HolType | None = None):
        self.src = src
        self.toks = _lex(src)
        self.pos = 0
        self.theory = theory or _FRESH_THEORY
        self.free_default = free_default
        self.binders: list[Var] = []

    # -- token plumbing

    def next(self) -> str:
        text = self.toks[self.pos]
        self.pos += 1
        return text

    def expect(self, text: str):
        if self.next() != text:
            self.fail_expected(repr(text), self.pos - 1)

    def where(self, at: int | None = None) -> tuple[int, int]:
        return _position(self.src, self.pos if at is None else at)

    def fail(self, message: str, at: int | None = None):
        raise ParseError(message, *self.where(at))

    def fail_expected(self, what: str, at: int):
        """Fail at token `at`, which is not `what`, naming the token."""
        self.fail(f"expected {what}, found {self.toks[at] or 'end of input'!r}", at)

    def whole(self, rule, what: str):
        """Run `rule`, which must consume every token."""
        try:
            result = rule()
        except RecursionError:
            raise ParseError("input nested too deeply", *self.where()) from None
        found = self.toks[self.pos]
        if found != _EOF:
            self.fail(f"unexpected {found!r} after {what}")
        return result

    # -- types

    def type_arity(self, name: str, at: int) -> int:
        arity = self.theory.type_constructors.get(name)
        if arity is None:
            self.fail(f"unknown type constructor {name!r}", at)
        return arity

    def parse_type(self) -> HolType:
        at = self.pos
        name = self.toks[at]
        if name not in _NOT_IDENT and self.toks[at + 1] != "->":
            # one token and no arrow: a type variable or a nullary constructor
            if _is_tyvar_name(name):
                self.pos += 1
                return TyVar(name)
            if not self.type_arity(name, at):
                self.pos += 1
                return TyApp(name)
        left = self.parse_tyapp()
        if self.toks[self.pos] == "->":
            self.pos += 1
            return fn(left, self.parse_type())
        return left

    def parse_tyapp(self) -> HolType:
        at = self.pos
        name = self.toks[at]
        if name not in _NOT_IDENT and not _is_tyvar_name(name):
            self.pos += 1
            arity = self.type_arity(name, at)
            args = tuple(self.parse_atomty() for _ in range(arity))
            return TyApp(name, args)
        return self.parse_atomty()

    def parse_atomty(self) -> HolType:
        at = self.pos
        text = self.next()
        if text == "(":
            ty = self.parse_type()
            self.expect(")")
            return ty
        if text not in _NOT_IDENT:
            if _is_tyvar_name(text):
                return TyVar(text)
            arity = self.type_arity(text, at)
            if arity:
                self.fail(f"type constructor {text!r} expects {arity} arguments", at)
            return TyApp(text)
        self.fail_expected("a type", at)

    # -- terms

    def parse_term(self, min_level: int = _BINDER) -> Term:
        """A term whose infix connectives bind at least `min_level` tightly
        (precedence climbing; each level is right-associative).  Only a
        whole term, at `_BINDER`, may be a binder."""
        toks = self.toks
        text = toks[self.pos]
        if min_level == _BINDER and (
            text == "\\" or (text in ("!", "?", "@") and toks[self.pos + 1] not in _NOT_IDENT)
        ):
            if toks[self.pos + 1] not in _NOT_IDENT and toks[self.pos + 2] == ":":
                return self.parse_binder()
            self.fail("binder annotations are mandatory (write \\x:ty. body)")
        left = self.parse_neg() if text == "~" else self.parse_eq()
        while True:
            at = self.pos
            op = toks[at]
            # -1: not an infix connective, so below every level
            level = _INFIX_LEVEL.get(op, -1)
            if level < min_level:
                return left
            self.pos += 1
            right = self.parse_term(level)
            if left.ty != BOOL or right.ty != BOOL:
                self.fail(f"{op} needs boolean operands", at)
            if op == "<=>":
                left = mk_eq(left, right)
            else:
                conn = self.const_at(_OP_CONSTS[op], _BOOL2, at)
                left = mk_comb(mk_comb(conn, left), right)

    def parse_binder(self) -> Term:
        at = self.pos
        binder, name = self.next(), self.next()
        self.expect(":")
        ty = self.parse_type()
        self.expect(".")
        v = Var(name, ty)
        self.binders.append(v)
        try:
            body = self.parse_term()
        finally:
            self.binders.pop()
        if binder == "\\":
            return mk_abs(v, body)
        # `@x:ty. p` is of type ty; `!x:ty. p` and `?x:ty. p` are boolean
        result = ty if binder == "@" else BOOL
        quant = self.const_at(_OP_CONSTS[binder], fn(fn(ty, BOOL), result), at)
        if body.ty != BOOL:
            self.fail(f"{binder} body must be boolean", at)
        return mk_comb(quant, mk_abs(v, body))

    def const_at(
        self, name: str, ty: HolType, at: int, generic: HolType | None = None
    ) -> Const:
        """The constant `name` at `ty`, which must be an instance of
        `generic`, by default the type the theory gives `name`."""
        if generic is None:
            generic = self._generic_of(name, at)
        if type_match(generic, ty) is None:
            self.fail(f"{print_type(ty)} is not an instance of {name!r}'s type", at)
        return Const(name, ty)

    def parse_neg(self) -> Term:
        """`~`, the current token, applied to a negation or an equation."""
        at = self.pos
        self.pos += 1
        operand = self.parse_neg() if self.toks[self.pos] == "~" else self.parse_eq()
        if operand.ty != BOOL:
            self.fail("~ needs a boolean operand", at)
        return mk_comb(self.const_at("not", _MONO_OPS["not"], at), operand)

    def parse_eq(self) -> Term:
        left = self.parse_app()
        at = self.pos
        if self.toks[self.pos] == "=":
            self.pos += 1
            right = self.parse_app()
            left = self._resolve_now(left)
            right = self._resolve_now(right)
            if left.ty != right.ty:
                self.fail("equation sides have different types", at)
            return mk_eq(left, right)
        return self._resolve_now(left)

    def parse_app(self):
        items = [self.parse_atom()]
        text = self.toks[self.pos]
        while text == "(" or text not in _NOT_IDENT:
            items.append(self.parse_atom())
            text = self.toks[self.pos]
        # a lone atom stays as it is: an unresolved constant may be
        # resolved by an enclosing equation
        return items[0] if len(items) == 1 else self._fold_app(items)

    def _fold_app(self, items):
        head = items[0]
        args = items[1:]
        for i, a in enumerate(args):
            if isinstance(a, _Unresolved):
                args[i] = self._resolve_now(a)
        if isinstance(head, _Unresolved):
            env: dict[str, HolType] = {}
            remaining = head.generic
            for a in args:
                if not (isinstance(remaining, TyApp) and remaining.con == "fun"):
                    break
                if type_match(remaining.args[0], a.ty, env) is None:
                    self.fail(
                        f"argument type does not fit constant {head.name!r}", head.at
                    )
                remaining = remaining.args[1]
            inst = type_subst(env, head.generic)
            if type_vars_of_type(inst):
                self.fail(
                    f"cannot infer the type of constant {head.name!r}; annotate it",
                    head.at,
                )
            head = Const(head.name, inst)
        result = head
        for a in args:
            try:
                result = mk_comb(result, a)
            except IllTyped as exc:
                raise ParseError(str(exc), *self.where()) from None
        return result

    def _resolve_now(self, item) -> Term:
        if not isinstance(item, _Unresolved):
            return item
        if not type_vars_of_type(item.generic):
            return Const(item.name, item.generic)
        self.fail(
            f"cannot infer the type of constant {item.name!r}; annotate it", item.at
        )

    def parse_atom(self):
        at = self.pos
        text = self.next()
        if text == "(":
            name = self.toks[self.pos]
            if self.toks[self.pos + 1] == ":" and name not in _NOT_IDENT:
                # `(name:ty)`, as the printer writes free variables and
                # constants; anything else after the type takes the
                # general path from the name again
                self.pos += 2
                ann = self.parse_type()
                if self.toks[self.pos] == ")":
                    self.pos += 1
                    return self._ident(name, at + 1, ann)
                self.pos = at + 1
            op = self.toks[self.pos]
            if op in _OP_CONSTS and self.toks[self.pos + 1] in (")", ":"):
                self.pos += 1
                cname = _OP_CONSTS[op]
                ann = None
                if self.toks[self.pos] == ":":
                    self.pos += 1
                    ann = self.parse_type()
                self.expect(")")
                return self._operator_const(op, at + 1, cname, ann)
            term = self.parse_term()
            self.expect(")")
            return term
        if text not in _NOT_IDENT:
            ann = None
            if self.toks[self.pos] == ":":
                self.pos += 1
                ann = self.parse_type()
            return self._ident(text, at, ann)
        self.fail_expected("a term", at)

    def _operator_const(self, op: str, at: int, cname: str, ann: HolType | None):
        # `<=>` is `=` at bool, which every theory has
        generic = _BOOL2 if op == "<=>" else self._generic_of(cname, at)
        if ann is None:
            # a connective names its boolean instance, as the printer writes it
            ann = _MONO_OPS.get(cname, generic)
            if type_vars_of_type(ann):
                return _Unresolved(cname, generic, at)
        return self.const_at(cname, ann, at, generic)

    def _generic_of(self, name: str, at: int) -> HolType:
        """The theory's type for the constant `name`."""
        generic = self.theory.term_constants.get(name)
        if generic is None:
            line, col = self.where(at)
            raise UnknownConstant(f"{line}:{col}: constant {name!r} is not in the theory")
        return generic

    def _ident(self, name: str, at: int, ann: HolType | None):
        generic = self.theory.term_constants.get(name)
        if ann is None:
            for v in reversed(self.binders):
                if v.name == name:
                    return v
            if generic is not None:
                if type_vars_of_type(generic):
                    return _Unresolved(name, generic, at)
                return Const(name, generic)
            if self.free_default is not None:
                return Var(name, self.free_default)
            self.fail(f"unannotated free name {name!r}", at)
        if generic is not None:
            if type_match(generic, ann) is not None:
                return Const(name, ann)
            self.fail(f"{name!r} is a constant and {print_type(ann)} does not fit it", at)
        return Var(name, ann)

    def parse_sequent(self) -> tuple[tuple[Term, ...], Term]:
        hyps: list[Term] = []
        if self.toks[self.pos] != "|-":
            while True:
                hyps.append(self.parse_term())
                at = self.pos
                text = self.next()
                if text == "|-":
                    break
                if text != ",":
                    self.fail_expected("',' or '|-'", at)
        else:
            self.pos += 1
        return tuple(hyps), self.parse_term()


def parse_type(src: str, theory=None) -> HolType:
    p = _Parser(src, theory)
    return p.whole(p.parse_type, "type")


def parse_term(src: str, theory=None, free_default: HolType | None = None) -> Term:
    p = _Parser(src, theory, free_default)
    return p.whole(p.parse_term, "term")


def parse_sequent(src: str, theory=None) -> tuple[tuple[Term, ...], Term]:
    p = _Parser(src, theory)
    return p.whole(p.parse_sequent, "sequent")


# ---------------------------------------------------------------------------
# Printing


@cache
def print_type(ty: HolType, prec: int = 0) -> str:
    """prec 0: arrows bare; 1: left of an arrow; 2: constructor argument.

    Types are interned and live as long as the process, so each one's
    text at each precedence is worked out once and kept with it."""
    if isinstance(ty, TyVar):
        return ty.name
    if ty.con == "fun":
        s = f"{print_type(ty.args[0], 1)} -> {print_type(ty.args[1], 0)}"
        return f"({s})" if prec >= 1 else s
    if not ty.args:
        return ty.con
    s = ty.con + " " + " ".join(print_type(a, 2) for a in ty.args)
    return f"({s})" if prec >= 2 else s


# Kernel constant name -> the token the printer writes for it; `=` at
# bool -> bool -> bool is written `<=>`.
_TOKENS = {name: tok for tok, name in _OP_CONSTS.items() if tok != "<=>"}
_BINDERS = ("forall", "exists", "@")


def print_term(t: Term) -> str:
    return _pt(t, _BINDER, ())


def print_sequent(hyps, concl) -> str:
    left = ", ".join(map(print_term, hyps))
    return f"{left} |- {print_term(concl)}" if left else f"|- {print_term(concl)}"


def _pt(t: Term, prec: int, binders: tuple[Var, ...]) -> str:
    if isinstance(t, Var):
        for v in reversed(binders):
            if v.name == t.name:
                if v.ty == t.ty:
                    return t.name
                break
        return f"({t.name}:{print_type(t.ty)})"
    if isinstance(t, Const):
        if t.name in ("T", "F") and any(v.name == t.name for v in binders):
            # bare, it would read back as the bound variable
            return f"({t.name}:{print_type(t.ty)})"
        return _pconst(t)
    if isinstance(t, Abs):
        s = _pbinder("\\", t, binders)
        return f"({s})" if prec > _BINDER else s
    # combinations
    if isinstance(t.rator, Const) and t.rator.name in _BINDERS and isinstance(t.rand, Abs):
        s = _pbinder(_TOKENS[t.rator.name], t.rand, binders)
        return f"({s})" if prec > _BINDER else s
    if isinstance(t.rator, Comb) and isinstance(t.rator.rator, Const):
        op = t.rator.rator
        l, r = t.rator.rand, t.rand
        if op.name == "=":
            if l.ty == BOOL:
                s = f"{_pt(l, _IMP, binders)} <=> {_pt(r, _IFF, binders)}"
                return f"({s})" if prec > _IFF else s
            s = f"{_pt(l, _APP, binders)} = {_pt(r, _APP, binders)}"
            return f"({s})" if prec > _EQ else s
        if op.ty == _BOOL2 and _MONO_OPS.get(op.name) == _BOOL2:
            tok = _TOKENS[op.name]
            level = _INFIX_LEVEL[tok]
            s = f"{_pt(l, level + 1, binders)} {tok} {_pt(r, level, binders)}"
            return f"({s})" if prec > level else s
    if isinstance(t.rator, Const) and t.rator.name == "not" and t.rator.ty == fn(
        BOOL, BOOL
    ):
        s = f"~{_pt(t.rand, _NEG, binders)}"
        return f"({s})" if prec > _NEG else s
    s = f"{_pt(t.rator, _APP, binders)} {_pt(t.rand, _ATOM, binders)}"
    return f"({s})" if prec > _APP else s


def _pbinder(token: str, t: Abs, binders: tuple[Var, ...]) -> str:
    v = t.bvar
    inner = _pt(t.body, _BINDER, (*binders, v))
    return f"{token}{v.name}:{print_type(v.ty)}. {inner}"


def _pconst(t: Const) -> str:
    name, ty = t.name, t.ty
    if name == "=" and ty == _BOOL2:
        return "(<=>)"
    if name == "=" or name in _BINDERS:
        return f"({_TOKENS[name]}:{print_type(ty)})"
    if _MONO_OPS.get(name) == ty:
        return f"({_TOKENS[name]})"
    if name in ("T", "F") and ty == BOOL:
        return name
    return f"({name}:{print_type(ty)})"
