"""Independent oracles the tests check the package against.

Nothing in the first part shares code with the package's
alpha-equivalence or substitution paths: the de Bruijn converter below
builds plain tuples with its own traversal, and the substitution oracle
freshens every binder before substituting naively.  Expected values in
the tests were computed with these and then frozen.

The second part keeps the earlier, slower implementations of paths that
were later made to skip work: the rewriting loop that builds a theorem
at every node, the derived rules that unfold the definitions of /\\ and
==> on every call, and the evaluator that compiles a defined constant's
body at every occurrence, and the front end that lexed character by
character and parsed each infix connective at its own level.  The faster
paths must give the same results.
"""

from dataclasses import dataclass

from microhol.bootstrap import (
    Inapplicable,
    ap_thm,
    beta_conv,
    beta_n,
    both_sides,
    dest_conj,
    dest_disj,
    dest_imp,
    mk_conj,
    prove_hyp,
    rhs,
    sym,
    try_beta,
)
from microhol.kernel import (
    abs_rule,
    assume,
    deduct_antisym,
    eq_mp,
    inst_rule,
    mk_comb_rule,
    refl,
    trans,
)
from microhol.semantics import UnassignedVariable, _Compiler
from microhol.surface import (
    _BOOL2,
    _BUILTIN_TYPE_ARITIES,
    _MONO_OPS,
    _OP_CONSTS,
    ParseError,
    UnknownConstant,
    _is_tyvar_name,
)
from microhol._accel import run_program
from microhol.syntax import (
    BOOL,
    Abs,
    Comb,
    Const,
    HolError,
    HolType,
    IllTyped,
    Substitution,
    Term,
    TyApp,
    TyVar,
    Var,
    alpha_equiv,
    fn,
    inst_type,
    mk_abs,
    mk_comb,
    mk_eq,
    type_match,
    type_subst,
    type_vars_of_type,
)


def ty_tuple(ty):
    if isinstance(ty, TyVar):
        return ("tyvar", ty.name)
    return ("tyapp", ty.con, tuple(ty_tuple(a) for a in ty.args))


def debruijn(t, bound=None):
    """Nested-tuple de Bruijn form; 0 is the innermost binder."""
    if bound is None:
        bound = []
    if isinstance(t, Var):
        for i, v in enumerate(reversed(bound)):
            if v == t:
                return ("bv", i)
        return ("fv", t.name, ty_tuple(t.ty))
    if isinstance(t, Const):
        return ("const", t.name, ty_tuple(t.ty))
    if isinstance(t, Comb):
        return ("app", debruijn(t.rator, bound), debruijn(t.rand, bound))
    bound.append(t.bvar)
    body = debruijn(t.body, bound)
    bound.pop()
    return ("lam", ty_tuple(t.bvar.ty), body)


def oracle_alpha(t, u):
    return debruijn(t) == debruijn(u)


def oracle_free_vars(t):
    """Free variables via the de Bruijn converter: whatever stays a name."""
    out = set()

    def walk(t, bound):
        if isinstance(t, Var):
            if all(v != t for v in bound):
                out.add(t)
        elif isinstance(t, Comb):
            walk(t.rator, bound)
            walk(t.rand, bound)
        elif isinstance(t, Abs):
            walk(t.body, bound + [t.bvar])

    walk(t, [])
    return out


class _Counter:
    def __init__(self):
        self.n = 0

    def next(self):
        self.n += 1
        return self.n


def _freshen(t, ren, counter):
    """Rename every binder to a globally unique name."""
    if isinstance(t, Var):
        return ren.get(t, t)
    if isinstance(t, Const):
        return t
    if isinstance(t, Comb):
        return Comb(_freshen(t.rator, ren, counter), _freshen(t.rand, ren, counter))
    fresh = Var(f"_fr{counter.next()}", t.bvar.ty)
    ren2 = dict(ren)
    ren2[t.bvar] = fresh
    return Abs(fresh, _freshen(t.body, ren2, counter))


def _plain_subst(mapping, t):
    if isinstance(t, Var):
        return mapping.get(t, t)
    if isinstance(t, Const):
        return t
    if isinstance(t, Comb):
        return Comb(_plain_subst(mapping, t.rator), _plain_subst(mapping, t.rand))
    inner = {v: im for v, im in mapping.items() if v != t.bvar}
    return Abs(t.bvar, _plain_subst(inner, t.body))


def oracle_vsubst(mapping, t):
    """Capture-avoiding substitution by freshening every binder first.

    After freshening, no binder name can collide with anything in the
    images, so a naive substitution is safe.
    """
    fresh = _freshen(t, {}, _Counter())
    return _plain_subst(dict(mapping), fresh)


def _plain_inst(tyin, t):
    if isinstance(t, Var):
        return Var(t.name, type_subst(tyin, t.ty))
    if isinstance(t, Const):
        return Const(t.name, type_subst(tyin, t.ty))
    if isinstance(t, Comb):
        return Comb(_plain_inst(tyin, t.rator), _plain_inst(tyin, t.rand))
    return Abs(_plain_inst(tyin, t.bvar), _plain_inst(tyin, t.body))


def oracle_inst_type(tyin, t):
    """Type instantiation after renaming binders apart (so instantiation
    can never identify a binder with a free variable)."""
    fresh = _freshen(t, {}, _Counter())
    return _plain_inst(dict(tyin), fresh)


# ---------------------------------------------------------------------------
# Earlier implementations of paths that now skip work


def node_by_node_exhaustive_conv(conv):
    """exhaustive_conv as it was: a refl at every leaf and a congruence
    theorem at every node, whether or not anything below it changed."""
    limit = 100_000

    def onepass(t):
        if isinstance(t, Comb):
            th = mk_comb_rule(onepass(t.rator), onepass(t.rand))
        elif isinstance(t, Abs):
            th = abs_rule(t.bvar, onepass(t.body))
        else:
            th = refl(t)
        for _ in range(limit):
            try:
                th = trans(th, conv(rhs(th)))
            except Inapplicable:
                return th
        raise HolError("rewriting did not terminate at a node")

    def go(t):
        th = refl(t)
        current = t
        for _ in range(limit):
            step = onepass(current)
            new = rhs(step)
            if alpha_equiv(new, current):
                return th
            th = trans(th, step)
            current = new
        raise HolError("rewriting did not terminate")

    return go


class UnfoldingRules:
    """conj, conjunct1/2, mp, disch, spec and disj_cases as they were
    derived on every call, by unfolding the connectives' definitions."""

    def __init__(self, logic):
        self.logic = logic

    def conj(self, th1, th2):
        lg = self.logic
        p = Var("p", BOOL)
        q = Var("q", BOOL)
        f = Var("f", fn(BOOL, fn(BOOL, BOOL)))
        thp = lg.eqt_intro(assume(p))
        thq = lg.eqt_intro(assume(q))
        th_ap = mk_comb_rule(mk_comb_rule(refl(f), thp), thq)
        pth = eq_mp(abs_rule(f, th_ap), sym(lg.conj_eq(p, q)))
        inst = inst_rule(
            Substitution.of_terms({p: th1.conclusion, q: th2.conclusion}), pth
        )
        return prove_hyp(th2, prove_hyp(th1, inst))

    def _conjunct(self, th, first):
        lg = self.logic
        p, q = dest_conj(th.conclusion)
        a = Var("a", BOOL)
        b = Var("b", BOOL)
        sel = mk_abs(a, mk_abs(b, a if first else b))
        expanded = eq_mp(assume(th.conclusion), lg.conj_eq(p, q))
        reduced = both_sides(ap_thm(expanded, sel), beta_n(3))
        return prove_hyp(th, lg.eqt_elim(reduced))

    def conjunct1(self, th):
        return self._conjunct(th, True)

    def conjunct2(self, th):
        return self._conjunct(th, False)

    def mp(self, th_imp, th_ant):
        p, q = dest_imp(th_imp.conclusion)
        th1 = eq_mp(th_imp, self.logic.imp_eq(p, q))
        return self.conjunct2(eq_mp(th_ant, sym(th1)))

    def disch(self, a, th):
        th1 = self.conj(assume(a), th)
        th2 = self.conjunct1(assume(mk_conj(a, th.conclusion)))
        th3 = deduct_antisym(th1, th2)
        return eq_mp(th3, sym(self.logic.imp_eq(a, th.conclusion)))

    def spec(self, t, th):
        lg = self.logic
        pred = th.conclusion.rand
        th1 = eq_mp(th, lg.forall_eq(pred))
        th2 = ap_thm(th1, t)
        th4 = lg.eqt_elim(trans(th2, try_beta(rhs(th2))))
        if isinstance(pred, Abs):
            return eq_mp(th4, beta_conv(th4.conclusion))
        return th4

    def disj_cases(self, th, th1, th2):
        p, q = dest_disj(th.conclusion)
        sp = self.spec(th1.conclusion, eq_mp(th, self.logic.or_eq(p, q)))
        return self.mp(self.mp(sp, self.disch(p, th1)), self.disch(q, th2))


class _UnfoldingCompiler(_Compiler):
    """Compiles a defined constant's body inline at every occurrence."""

    def compile_const(self, t):
        rhs_ = self.theory.definitions.get(t.name)
        if rhs_ is None:
            return super().compile_const(t)
        tyin = type_match(self.theory.term_constants[t.name], t.ty)
        if tyin is None:
            raise IllTyped(f"constant {t.name!r} at bad type {t.ty!r}")
        return self.compile(inst_type(Substitution.of_types(tyin), rhs_), None)


def unfolded_eval_term(t, v, theory):
    """eval_term without folding defined constants to literals."""
    comp = _UnfoldingCompiler(v.model, v.type_sizes, theory)
    prog = comp.compile(t)
    env = [0] * comp.n_slots
    for var, slot in comp.slots.items():
        if var not in v.term_assignment:
            raise UnassignedVariable(f"variable {var.name} is unassigned")
        env[slot] = v.term_assignment[var]
    return run_program(prog, env)


# ---------------------------------------------------------------------------
# The front end before the regex tokenizer: a per-character lexer making
# one token object per token, and one parser method per infix level.
# Kept verbatim, apart from names, so tests can compare tokens, trees and
# error messages with it.

@dataclass(frozen=True)
class LegacyTok:
    kind: str  # 'ident' | 'punct' | 'eof'
    text: str
    line: int
    col: int


_MULTI = ("==>", "<=>", "|-", "->", "/\\", "\\/")
_SINGLE = "\\().:,=~!?@"


def legacy_lex(src: str) -> list[LegacyTok]:
    toks: list[LegacyTok] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        matched = None
        for op in _MULTI:
            if src.startswith(op, i):
                matched = op
                break
        if matched:
            toks.append(LegacyTok("punct", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if c in _SINGLE:
            toks.append(LegacyTok("punct", c, line, col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            toks.append(LegacyTok("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(LegacyTok("eof", "", line, col))
    return toks


class _LegacyUnresolved:
    """A polymorphic constant awaiting type inference from its arguments."""

    __slots__ = ("name", "generic", "tok")

    def __init__(self, name: str, generic: HolType, tok: LegacyTok):
        self.name = name
        self.generic = generic
        self.tok = tok


class LegacyParser:
    def __init__(self, src: str, theory=None, free_default: HolType | None = None):
        self.toks = legacy_lex(src)
        self.pos = 0
        self.theory = theory
        self.free_default = free_default
        self.binders: list[Var] = []

    # -- token plumbing

    def peek(self, ahead: int = 0) -> LegacyTok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> LegacyTok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> LegacyTok:
        tok = self.next()
        if tok.text != text or tok.kind == "eof":
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def fail(self, message: str, tok: LegacyTok | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- types

    def type_arity(self, name: str, tok: LegacyTok) -> int:
        if self.theory is not None:
            arity = self.theory.type_constructors.get(name)
            if arity is None:
                self.fail(f"unknown type constructor {name!r}", tok)
            return arity
        return _BUILTIN_TYPE_ARITIES.get(name, 0)

    def parse_type(self) -> HolType:
        left = self.parse_tyapp()
        if self.peek().text == "->":
            self.next()
            return fn(left, self.parse_type())
        return left

    def parse_tyapp(self) -> HolType:
        tok = self.peek()
        if tok.kind == "ident" and not _is_tyvar_name(tok.text):
            self.next()
            arity = self.type_arity(tok.text, tok)
            args = tuple(self.parse_atomty() for _ in range(arity))
            return TyApp(tok.text, args)
        return self.parse_atomty()

    def parse_atomty(self) -> HolType:
        tok = self.next()
        if tok.text == "(":
            ty = self.parse_type()
            self.expect(")")
            return ty
        if tok.kind == "ident":
            if _is_tyvar_name(tok.text):
                return TyVar(tok.text)
            arity = self.type_arity(tok.text, tok)
            if arity:
                self.fail(
                    f"type constructor {tok.text!r} expects {arity} arguments", tok
                )
            return TyApp(tok.text)
        self.fail(f"expected a type, found {tok.text!r}", tok)

    # -- terms

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.text == "\\" or (
            tok.text in ("!", "?", "@") and self.peek(1).kind == "ident"
        ):
            if self.peek(1).kind == "ident" and self.peek(2).text == ":":
                return self.parse_binder()
            self.fail(
                "binder annotations are mandatory (write \\x:ty. body)", tok
            )
        return self.parse_iff()

    def parse_binder(self) -> Term:
        tok = self.next()
        name = self.next()
        self.expect(":")
        ty = self.parse_type()
        self.expect(".")
        v = Var(name.text, ty)
        self.binders.append(v)
        try:
            body = self.parse_term()
        finally:
            self.binders.pop()
        if tok.text == "\\":
            return mk_abs(v, body)
        if tok.text == "@":
            sel = Const("@", fn(fn(ty, BOOL), ty))
            return mk_comb(sel, mk_abs(v, body))
        cname = "forall" if tok.text == "!" else "exists"
        self.require_constant(cname, tok)
        if body.ty != BOOL:
            self.fail(f"{tok.text} body must be boolean", tok)
        quant = Const(cname, fn(fn(ty, BOOL), BOOL))
        return mk_comb(quant, mk_abs(v, body))

    def require_constant(self, name: str, tok: LegacyTok):
        if self.theory is None or not self.theory.has_constant(name):
            raise UnknownConstant(
                f"{tok.line}:{tok.col}: constant {name!r} is not in the theory"
            )

    def _binop(self, cname: str, l: Term, r: Term, tok: LegacyTok) -> Term:
        if l.ty != BOOL or r.ty != BOOL:
            self.fail(f"{tok.text} needs boolean operands", tok)
        self.require_constant(cname, tok)
        return mk_comb(mk_comb(Const(cname, _BOOL2), l), r)

    def parse_iff(self) -> Term:
        left = self.parse_imp()
        tok = self.peek()
        if tok.text == "<=>":
            self.next()
            right = self.parse_iff()
            if left.ty != BOOL or right.ty != BOOL:
                self.fail("<=> needs boolean operands", tok)
            return mk_eq(left, right)
        return left

    def parse_imp(self) -> Term:
        left = self.parse_disj()
        tok = self.peek()
        if tok.text == "==>":
            self.next()
            return self._binop("imp", left, self.parse_imp(), tok)
        return left

    def parse_disj(self) -> Term:
        left = self.parse_conj()
        tok = self.peek()
        if tok.text == "\\/":
            self.next()
            return self._binop("or", left, self.parse_disj(), tok)
        return left

    def parse_conj(self) -> Term:
        left = self.parse_neg()
        tok = self.peek()
        if tok.text == "/\\":
            self.next()
            return self._binop("and", left, self.parse_conj(), tok)
        return left

    def parse_neg(self) -> Term:
        tok = self.peek()
        if tok.text == "~":
            self.next()
            operand = self.parse_neg()
            if operand.ty != BOOL:
                self.fail("~ needs a boolean operand", tok)
            self.require_constant("not", tok)
            return mk_comb(Const("not", fn(BOOL, BOOL)), operand)
        return self.parse_eq()

    def parse_eq(self) -> Term:
        left = self.parse_app()
        tok = self.peek()
        if tok.text == "=":
            self.next()
            right = self.parse_app()
            left = self._resolve_now(left, tok)
            right = self._resolve_now(right, tok)
            if left.ty != right.ty:
                self.fail(
                    f"equation sides have different types", tok
                )
            return mk_eq(left, right)
        return self._resolve_now(left, tok) if isinstance(left, _LegacyUnresolved) else left

    _ATOM_STARTS = ("(",)

    def parse_app(self):
        items = [self.parse_atom()]
        while True:
            tok = self.peek()
            if tok.text == "(" or tok.kind == "ident":
                items.append(self.parse_atom())
            else:
                break
        return self._fold_app(items)

    def _fold_app(self, items):
        head = items[0]
        args = items[1:]
        for i, a in enumerate(args):
            if isinstance(a, _LegacyUnresolved):
                args[i] = self._resolve_now(a, a.tok)
        if isinstance(head, _LegacyUnresolved):
            if not args:
                return head  # may be resolved by an enclosing equation
            env: dict[str, HolType] = {}
            remaining = head.generic
            for a in args:
                if not (isinstance(remaining, TyApp) and remaining.con == "fun"):
                    break
                if type_match(remaining.args[0], a.ty, env) is None:
                    self.fail(
                        f"argument type does not fit constant {head.name!r}",
                        head.tok,
                    )
                remaining = remaining.args[1]
            inst = type_subst(env, head.generic)
            if type_vars_of_type(inst):
                self.fail(
                    f"cannot infer the type of constant {head.name!r}; annotate it",
                    head.tok,
                )
            head = Const(head.name, inst)
        result = head
        for a in args:
            try:
                result = mk_comb(result, a)
            except IllTyped as exc:
                raise ParseError(str(exc), self.peek().line, self.peek().col) from None
        return result

    def _resolve_now(self, item, tok) -> Term:
        if not isinstance(item, _LegacyUnresolved):
            return item
        if not type_vars_of_type(item.generic):
            return Const(item.name, item.generic)
        self.fail(
            f"cannot infer the type of constant {item.name!r}; annotate it",
            item.tok,
        )

    def parse_atom(self):
        tok = self.next()
        if tok.text == "(":
            nxt = self.peek()
            if nxt.text in _OP_CONSTS and self.peek(1).text in (")", ":"):
                self.next()
                cname = _OP_CONSTS[nxt.text]
                ann = None
                if self.peek().text == ":":
                    self.next()
                    ann = self.parse_type()
                self.expect(")")
                return self._operator_const(nxt, cname, ann)
            term = self.parse_term()
            self.expect(")")
            return term
        if tok.kind == "ident":
            ann = None
            if self.peek().text == ":":
                self.next()
                ann = self.parse_type()
            return self._ident(tok, ann)
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}", tok)

    def _operator_const(self, tok: LegacyTok, cname: str, ann: HolType | None):
        if tok.text == "<=>":
            generic = _BOOL2
        elif cname in _MONO_OPS:
            self.require_constant(cname, tok)
            generic = _MONO_OPS[cname]
        else:
            generic = self._generic_of(cname, tok)
        if ann is None:
            if type_vars_of_type(generic):
                return _LegacyUnresolved(cname, generic, tok)
            if cname in ("forall", "exists"):
                self.require_constant(cname, tok)
            return Const(cname, generic)
        if type_match(generic, ann) is None:
            self.fail(f"{ann!r} is not an instance of {cname!r}'s type", tok)
        if cname in ("forall", "exists"):
            self.require_constant(cname, tok)
        return Const(cname, ann)

    def _generic_of(self, name: str, tok: LegacyTok) -> HolType:
        if name == "=":
            a = TyVar("A")
            return fn(a, fn(a, BOOL))
        if name == "@":
            a = TyVar("A")
            return fn(fn(a, BOOL), a)
        if name in ("forall", "exists"):
            return fn(fn(TyVar("A"), BOOL), BOOL)
        self.require_constant(name, tok)
        return self.theory.constant_type(name)

    def _ident(self, tok: LegacyTok, ann: HolType | None):
        name = tok.text
        if ann is None:
            for v in reversed(self.binders):
                if v.name == name:
                    return v
            if self.theory is not None and self.theory.has_constant(name):
                generic = self.theory.constant_type(name)
                if type_vars_of_type(generic):
                    return _LegacyUnresolved(name, generic, tok)
                return Const(name, generic)
            if self.free_default is not None:
                return Var(name, self.free_default)
            self.fail(f"unannotated free name {name!r}", tok)
        if self.theory is not None and self.theory.has_constant(name):
            generic = self.theory.constant_type(name)
            if type_match(generic, ann) is not None:
                return Const(name, ann)
            self.fail(f"{name!r} is a constant and {ann!r} does not fit it", tok)
        return Var(name, ann)


def legacy_parse_type(src: str, theory=None) -> HolType:
    p = LegacyParser(src, theory)
    ty = p.parse_type()
    tok = p.peek()
    if tok.kind != "eof":
        p.fail(f"unexpected {tok.text!r} after type", tok)
    return ty


def legacy_parse_term(src: str, theory=None, free_default: HolType | None = None) -> Term:
    p = LegacyParser(src, theory, free_default)
    t = p.parse_term()
    if isinstance(t, _LegacyUnresolved):
        p.fail(f"cannot infer the type of constant {t.name!r}; annotate it", t.tok)
    tok = p.peek()
    if tok.kind != "eof":
        p.fail(f"unexpected {tok.text!r} after term", tok)
    return t


def legacy_parse_sequent(
    src: str, theory=None, free_default: HolType | None = None
) -> tuple[tuple[Term, ...], Term]:
    p = LegacyParser(src, theory, free_default)
    hyps: list[Term] = []
    if p.peek().text != "|-":
        while True:
            hyps.append(p.parse_term())
            tok = p.next()
            if tok.text == "|-":
                break
            if tok.text != ",":
                p.fail(f"expected ',' or '|-', found {tok.text!r}", tok)
    else:
        p.next()
    concl = p.parse_term()
    tok = p.peek()
    if tok.kind != "eof":
        p.fail(f"unexpected {tok.text!r} after sequent", tok)
    return tuple(hyps), concl
