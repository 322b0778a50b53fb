"""Derived logic on top of the kernel: the standard constants (T, /\\,
==>, !, ?, \\/, F, ~, ONE_ONE, ONTO), their defining theorems, a small
conversion toolkit, and the usual derived inference rules.

Every function here bottoms out in the ten primitive rules; with kernel
tracing enabled, any derived-rule output replays as a sequence of
primitive calls.  FALSE is defined literally as `!p:bool. p`.

Conversions are functions from a term t to a theorem `|- t = t'`.
``beta_conv`` contracts one redex and ``beta_n`` n along an application
spine; the derived rules apply them only where they hold a redex, and
write congruences out with ``ap_term``/``ap_thm``.  Only ``rewr_conv``
signals ``Inapplicable``: whether an equation fits is decided by matching
inside it (a nonlinear pattern, say), and a search that tries equations
in turn needs that failure.  No package code catches it.
``exhaustive_conv`` normalizes in one bottom-up pass with a function
that settles one node at a time and returns None where nothing changes.
All conversion results are hypothesis-free, which is what lets it
rewrite under a binder past the abstraction rule's side condition.
"""

from __future__ import annotations

from . import kernel
from .kernel import (
    STANDARD_DEFINITIONS,
    Theorem,
    Theory,
    abs_rule,
    assume,
    axiom_choice,
    beta,
    deduct_antisym,
    eq_mp,
    inst_rule,
    inst_type_rule,
    mk_comb_rule,
    new_basic_definition,
    refl,
    trans,
)
from .syntax import (
    BOOL,
    Abs,
    Comb,
    Const,
    HolError,
    HolType,
    IllTyped,
    Term,
    TyVar,
    Var,
    alpha_equiv,
    dest_eq,
    fn,
    free_vars,
    inst_type,
    mk_abs,
    mk_comb,
    mk_eq,
    type_match,
)

__all__ = [
    "Inapplicable",
    "Logic",
    "install_logic",
    "ap_term",
    "ap_thm",
    "sym",
    "beta_conv",
    "prove_hyp",
    "conv_rule",
    "rewr_conv",
    "settle_nodes",
    "exhaustive_conv",
    "beta_n",
    "lhs",
    "rhs",
    "TRUE",
    "FALSE",
    "mk_conj",
    "mk_disj",
    "mk_imp",
    "mk_neg",
    "mk_forall",
    "mk_exists",
    "dest_conj",
    "dest_disj",
    "dest_imp",
    "dest_neg",
    "dest_forall",
    "is_conj",
    "is_disj",
    "is_imp",
    "is_neg",
    "is_forall",
    "is_exists",
]

_B2 = fn(BOOL, fn(BOOL, BOOL))

TRUE = Const("T", BOOL)
FALSE = Const("F", BOOL)


def _binapp(name: str, l: Term, r: Term) -> Term:
    return mk_comb(mk_comb(Const(name, _B2), l), r)


def mk_conj(l: Term, r: Term) -> Term:
    return _binapp("and", l, r)


def mk_disj(l: Term, r: Term) -> Term:
    return _binapp("or", l, r)


def mk_imp(l: Term, r: Term) -> Term:
    return _binapp("imp", l, r)


def mk_neg(t: Term) -> Term:
    return mk_comb(Const("not", fn(BOOL, BOOL)), t)


def mk_forall(v: Var, body: Term) -> Term:
    return mk_comb(Const("forall", fn(fn(v.ty, BOOL), BOOL)), mk_abs(v, body))


def mk_exists(v: Var, body: Term) -> Term:
    return mk_comb(Const("exists", fn(fn(v.ty, BOOL), BOOL)), mk_abs(v, body))


def _is_binapp(name: str, t: Term) -> bool:
    return (
        isinstance(t, Comb)
        and isinstance(t.rator, Comb)
        and isinstance(t.rator.rator, Const)
        and t.rator.rator.name == name
    )


def is_conj(t):
    return _is_binapp("and", t)


def is_disj(t):
    return _is_binapp("or", t)


def is_imp(t):
    return _is_binapp("imp", t)


def is_neg(t):
    return (
        isinstance(t, Comb)
        and isinstance(t.rator, Const)
        and t.rator.name == "not"
    )


def _is_binder(name: str, t: Term) -> bool:
    return (
        isinstance(t, Comb)
        and isinstance(t.rator, Const)
        and t.rator.name == name
        and isinstance(t.rand, Abs)
    )


def is_forall(t):
    return _is_binder("forall", t)


def is_exists(t):
    return _is_binder("exists", t)


def _dest_binapp(name: str, t: Term) -> tuple[Term, Term]:
    if not _is_binapp(name, t):
        raise IllTyped(f"not a {name}-term: {t!r}")
    return t.rator.rand, t.rand


def dest_conj(t):
    return _dest_binapp("and", t)


def dest_disj(t):
    return _dest_binapp("or", t)


def dest_imp(t):
    return _dest_binapp("imp", t)


def dest_neg(t):
    if not is_neg(t):
        raise IllTyped(f"not a negation: {t!r}")
    return t.rand


def dest_forall(t) -> tuple[Var, Term]:
    if not _is_binder("forall", t):
        raise IllTyped(f"not a universal: {t!r}")
    return t.rand.bvar, t.rand.body


def lhs(th: Theorem) -> Term:
    return dest_eq(th.conclusion)[0]


def rhs(th: Theorem) -> Term:
    return dest_eq(th.conclusion)[1]


# ---------------------------------------------------------------------------
# Rules derivable without any defined constant


def ap_term(f: Term, th: Theorem) -> Theorem:
    """From |- a = b conclude |- f a = f b."""
    return mk_comb_rule(refl(f), th)


def ap_thm(th: Theorem, a: Term) -> Theorem:
    """From |- f = g conclude |- f a = g a."""
    return mk_comb_rule(th, refl(a))


def sym(th: Theorem) -> Theorem:
    """From |- l = r conclude |- r = l."""
    l, _ = dest_eq(th.conclusion)
    op = th.conclusion.rator.rator
    lth = refl(l)
    return eq_mp(lth, mk_comb_rule(ap_term(op, th), lth))


def beta_conv(t: Term) -> Theorem:
    """|- (\\x. b) a = b[a/x], derived from the primitive self-application
    beta by instantiation."""
    if not (isinstance(t, Comb) and isinstance(t.rator, Abs)):
        raise kernel.NotABetaRedex(f"not a beta redex: {t!r}")
    x = t.rator.bvar
    if t.rand == x:
        return beta(t)
    prim = beta(mk_comb(t.rator, x))
    return inst_rule({x: t.rand}, prim)


def prove_hyp(ath: Theorem, bth: Theorem) -> Theorem:
    """Cut: discharge ath's conclusion from bth's assumptions."""
    return eq_mp(ath, deduct_antisym(ath, bth))


def conv_rule(conv, th: Theorem) -> Theorem:
    """Rewrite a theorem's conclusion with a conversion."""
    return eq_mp(th, conv(th.conclusion))


# ---------------------------------------------------------------------------
# Conversions


class Inapplicable(HolError):
    """``rewr_conv``'s equation does not match this term."""


def beta_n(n: int, t: Term) -> Theorem:
    """|- t = t' by exactly n contractions of the redex at the head of
    the application spine; a redex in an argument, or one the last
    contraction leaves, is not reduced."""

    def head(u: Term) -> Theorem:
        if isinstance(u, Comb) and not isinstance(u.rator, Abs):
            return ap_thm(head(u.rator), u.rand)
        return beta_conv(u)

    th = head(t)
    for _ in range(n - 1):
        th = trans(th, head(rhs(th)))
    return th


def _match(p: Term, t: Term, tyenv, tenv) -> bool:
    """First-order matching of a rewrite pattern, extending the maps."""
    if isinstance(p, Var):
        prev = tenv.get(p)
        if prev is not None:
            return alpha_equiv(prev, t)
        if type_match(p.ty, t.ty, tyenv) is None:
            return False
        tenv[p] = t
        return True
    if isinstance(p, Const):
        return (
            isinstance(t, Const)
            and t.name == p.name
            and type_match(p.ty, t.ty, tyenv) is not None
        )
    if isinstance(p, Comb):
        return (
            isinstance(t, Comb)
            and _match(p.rator, t.rator, tyenv, tenv)
            and _match(p.rand, t.rand, tyenv, tenv)
        )
    raise HolError("rewrite patterns must not contain abstractions")


def rewr_conv(eq_th: Theorem):
    """Left-to-right rewriting with a closed equation theorem.

    Matching is first-order: pattern variables (the equation's free
    variables) match whole subterms, constants match by name with type
    instantiation.  Patterns never contain abstractions here.  A match
    that binds no type variable makes no type instantiation, and each
    type instance of the equation is made once per conversion.
    """
    if eq_th.assumptions:
        raise HolError("rewrite equations must have no assumptions")
    pat = lhs(eq_th)
    instances: dict[tuple, tuple[Theorem, dict[Var, Var]]] = {}

    def go(t: Term) -> Theorem:
        tyenv: dict[str, HolType] = {}
        tenv: dict[Var, Term] = {}
        if not _match(pat, t, tyenv, tenv):
            raise Inapplicable
        th = eq_th
        if tyenv:
            key = tuple(sorted(tyenv.items()))
            inst = instances.get(key)
            if inst is None:
                inst = instances[key] = (
                    inst_type_rule(tyenv, eq_th),
                    {v: inst_type(tyenv, v) for v in free_vars(eq_th.conclusion)},
                )
            th, renamed = inst
            tenv = {renamed[v]: image for v, image in tenv.items()}
        th = inst_rule(tenv, th)
        if not alpha_equiv(lhs(th), t):
            raise Inapplicable  # a nonlinear pattern mismatch
        return th

    return go


def settle_nodes(shape: Term, t: Term, settle) -> Theorem | None:
    """|- t = t', from ``settle`` at each node of ``t`` where ``shape``
    has a combination or an abstraction, children first, or None when
    nothing changed.

    ``shape`` has the form of ``t`` down to its variables and constants,
    which stand for subterms of ``t`` that are left as they are: ``t``
    itself walks all of ``t``, and the right side of the equation that
    built ``t`` walks only the nodes the equation made.  ``settle`` meets
    each node once, after its children, and returns |- u = u' or None
    for "unchanged".  Congruences are built only above a change, with
    ``refl`` for the unchanged side.
    """
    if isinstance(shape, Comb):
        lth = settle_nodes(shape.rator, t.rator, settle)
        rth = settle_nodes(shape.rand, t.rand, settle)
        if lth is None and rth is None:
            th = None
        else:
            th = mk_comb_rule(lth or refl(t.rator), rth or refl(t.rand))
    elif isinstance(shape, Abs):
        bth = settle_nodes(shape.body, t.body, settle)
        th = None if bth is None else abs_rule(t.bvar, bth)
    else:
        return None
    step = settle(t if th is None else rhs(th))
    if step is None:
        return th
    return step if th is None else trans(th, step)


def exhaustive_conv(settle):
    """Normalize a term in one bottom-up pass: ``settle`` once at each
    node, after its children (see ``settle_nodes``).  The pass makes no
    second visit, so ``settle`` must leave a node normal when its
    children are.  A term that is already normal costs one ``refl``."""

    def go(t: Term) -> Theorem:
        th = settle_nodes(t, t, settle)
        return refl(t) if th is None else th

    return go


# ---------------------------------------------------------------------------
# The Logic object

# The logical constants in the order they are defined, which the theory's
# fingerprint records.
_CONSTANTS = ("T", "and", "imp", "forall", "exists", "or", "F", "not", "ONE_ONE", "ONTO")


def _define_constants(theory: Theory) -> dict[str, Theorem]:
    """Define the logical constants: the bodies the axioms rely on come from
    the kernel, and `or` is defined here."""
    p = Var("p", BOOL)
    q = Var("q", BOOL)
    r = Var("r", BOOL)
    bodies = {
        **STANDARD_DEFINITIONS,
        "or": mk_abs(p, mk_abs(q, mk_forall(r, mk_imp(mk_imp(p, r), mk_imp(mk_imp(q, r), r))))),
    }
    return {name: new_basic_definition(theory, name, bodies[name]) for name in _CONSTANTS}


class Logic:
    """The bootstrapped logic: the defining theorems plus derived rules.

    Construction defines the constants (it must run on a fresh theory)
    and keeps each one's defining theorem |- c = body in ``defs``, keyed
    by the constant's name; the constant itself is ``lhs(defs[name])``.
    It eagerly proves the small lemma base the derived rules lean on:
    |- T, excluded middle, the connective value tables, F-elimination,
    and the schemas of the hot derived rules, proved once over variables
    p, q, r and P : A -> bool:

    * {p, q} |- p /\\ q for ``conj``;
    * {p /\\ q} |- p and {p /\\ q} |- q for ``conjunct1``/``conjunct2``;
    * {p ==> q} |- p = (p /\\ q) for ``mp``;
    * |- ((p /\\ q) = p) = (p ==> q) for ``disch``;
    * {(!) P} |- P x for ``spec`` and |- (P = \\x. T) = (!) P for ``gen``;
    * {P x} |- (?) P for ``exists_intro``;
    * {p} |- p \\/ q and {q} |- p \\/ q for ``disj1``/``disj2``;
    * {p \\/ q} |- (p ==> r) ==> (q ==> r) ==> r for ``disj_cases``;
    * {~p, p} |- F for ``clash``;
    * |- (~p = F) = p for ``ccontr``;
    * {(?) P} |- P ((@) P) for ``select_rule``.

    A call instantiates its schema and cuts the premises in with
    ``prove_hyp`` instead of unfolding the connectives' definitions
    again, so it costs a handful of primitive inferences and returns the
    same sequent the unfolding derivation gave.  ``unfold`` is the one
    way a definition is unfolded: the schemas above and the negation
    rules go through it.
    """

    def __init__(self, theory: Theory):
        self.theory = theory
        self.defs = _define_constants(theory)

        # |- T
        p = Var("p", BOOL)
        self.TRUTH = eq_mp(refl(mk_abs(p, p)), sym(self.defs["T"]))

        # |- p = (p = T), the workhorse behind EQT_INTRO
        th1 = deduct_antisym(assume(p), self.TRUTH)
        th2 = self.eqt_elim(assume(mk_eq(p, TRUE)))
        self._eqt_pth = deduct_antisym(th2, th1)

        # {(!) P} |- P x, for P : A -> bool
        a_ty = TyVar("A")
        cap_p = Var("P", fn(a_ty, BOOL))
        x_a = Var("x", a_ty)
        forall_def = self.unfold("forall", cap_p)  # |- (!) P = (P = \x. T)
        th2 = ap_thm(eq_mp(assume(lhs(forall_def)), forall_def), x_a)
        self._spec_pth = self.eqt_elim(trans(th2, beta_conv(rhs(th2))))
        # |- (P = \x. T) = (!) P
        self._gen_pth = sym(forall_def)

        # {F} |- p
        fth = eq_mp(assume(FALSE), self.defs["F"])
        self._f_elim_pth = self.spec(p, fth)

        q = Var("q", BOOL)
        pq = mk_conj(p, q)
        # {p, q} |- p /\ q
        f = Var("f", _B2)
        thp = self.eqt_intro(assume(p))
        thq = self.eqt_intro(assume(q))
        th_abs = abs_rule(f, mk_comb_rule(ap_term(f, thp), thq))
        self._conj_pth = eq_mp(th_abs, sym(self.unfold("and", p, q)))
        # {p /\ q} |- p and {p /\ q} |- q, by applying both sides of the
        # unfolded conjunction to a selector \a b. a (or b)
        expanded = eq_mp(assume(pq), self.unfold("and", p, q))
        a = Var("a", BOOL)
        b = Var("b", BOOL)
        pths = []
        for sel in (mk_abs(a, mk_abs(b, a)), mk_abs(a, mk_abs(b, b))):
            th = ap_thm(expanded, sel)
            x, y = dest_eq(th.conclusion)
            pths.append(self.eqt_elim(trans(trans(sym(beta_n(3, x)), th), beta_n(3, y))))
        self._conjunct_pths = tuple(pths)
        # {p ==> q} |- p = (p /\ q)
        self._mp_pth = sym(eq_mp(assume(mk_imp(p, q)), self.unfold("imp", p, q)))
        # |- ((p /\ q) = p) = (p ==> q)
        self._disch_pth = sym(self.unfold("imp", p, q))
        # {p \/ q} |- (p ==> r) ==> (q ==> r) ==> r
        r = Var("r", BOOL)
        or_def = self.unfold("or", p, q)
        self._disj_cases_pth = self.spec(r, eq_mp(assume(mk_disj(p, q)), or_def))
        # {p} |- p \/ q and {q} |- p \/ q
        pths = []
        for th in (assume(p), assume(q)):
            th1 = self.mp(assume(mk_imp(th.conclusion, r)), th)
            th2 = self.disch(mk_imp(p, r), self.disch(mk_imp(q, r), th1))
            pths.append(eq_mp(self.gen(r, th2), sym(or_def)))
        self._disj_pths = tuple(pths)

        self.EXCLUDED_MIDDLE = self._prove_excluded_middle()
        self.tables = self._prove_value_tables()

        # {~p, p} |- F
        np = mk_neg(p)
        self._clash_pth = self.mp(self.not_elim(assume(np)), assume(p))
        # |- (~p = F) = p, by cases on p \/ ~p for the right-to-left half
        em = inst_rule({Var("t", BOOL): p}, self.EXCLUDED_MIDDLE)
        refuted = self.contr(p, eq_mp(assume(np), assume(mk_eq(np, FALSE))))
        to_p = self.disj_cases(em, assume(p), refuted)  # {~p = F} |- p
        self._ccontr_pth = deduct_antisym(self.eqf_intro(np, self._clash_pth), to_p)
        # {P x} |- (?) P, through |- (?) P = !q. (!x. P x ==> q) ==> q
        exists_def = self.unfold("exists", cap_p)
        q_var, body = dest_forall(rhs(exists_def))
        ante = dest_imp(body)[0]
        th = self.mp(self.spec(x_a, assume(ante)), assume(mk_comb(cap_p, x_a)))
        self._exists_pth = eq_mp(self.gen(q_var, self.disch(ante, th)), sym(exists_def))
        # {(?) P} |- P ((@) P), from the choice axiom |- P x ==> P ((@) P)
        ax = axiom_choice(theory)
        th1 = eq_mp(assume(lhs(exists_def)), exists_def)
        th2 = self.spec(dest_imp(ax.conclusion)[1], th1)
        self._select_pth = self.mp(th2, self.gen(x_a, ax))

    # -- equality/truth plumbing

    def eqt_elim(self, th: Theorem) -> Theorem:
        """From |- p = T conclude |- p."""
        return eq_mp(self.TRUTH, sym(th))

    def eqt_intro(self, th: Theorem) -> Theorem:
        """From |- p conclude |- p = T."""
        p = Var("p", BOOL)
        pth = inst_rule({p: th.conclusion}, self._eqt_pth)
        return eq_mp(th, pth)

    def contr(self, p: Term, th: Theorem) -> Theorem:
        """From |- F conclude |- p."""
        q = Var("p", BOOL)
        inst = inst_rule({q: p}, self._f_elim_pth)
        return prove_hyp(th, inst)

    def eqf_intro(self, p: Term, th: Theorem) -> Theorem:
        """From G |- F conclude G \\ {p} |- p = F."""
        return deduct_antisym(inst_rule({Var("p", BOOL): p}, self._f_elim_pth), th)

    def clash(self, p: Term) -> Theorem:
        """{~p, p} |- F."""
        return inst_rule({Var("p", BOOL): p}, self._clash_pth)

    # -- definitional unfolding

    def unfold(self, name: str, *args: Term) -> Theorem:
        """|- c a1 ... an = body[a1, ..., an] from the definition
        |- c = \\x1 ... xn. body, at the type instance whose first binder
        fits a1; e.g. ``unfold("and", p, q)`` gives
        |- (p /\\ q) = ((\\f. f p q) = (\\f. f T T))."""
        defn = self.defs[name]
        tyenv = type_match(rhs(defn).bvar.ty, args[0].ty)
        if tyenv is None:
            raise IllTyped(f"{name} does not apply to {args[0]!r}")
        th = inst_type_rule(tyenv, defn) if tyenv else defn
        for a in args:
            th = ap_thm(th, a)
        return trans(th, beta_n(len(args), rhs(th)))

    # -- conjunction

    def _inst_pq(self, pth: Theorem, p: Term, q: Term) -> Theorem:
        return inst_rule({Var("p", BOOL): p, Var("q", BOOL): q}, pth)

    def conj(self, th1: Theorem, th2: Theorem) -> Theorem:
        inst = self._inst_pq(self._conj_pth, th1.conclusion, th2.conclusion)
        return prove_hyp(th2, prove_hyp(th1, inst))

    def _conjunct(self, th: Theorem, which: int) -> Theorem:
        p, q = dest_conj(th.conclusion)
        return prove_hyp(th, self._inst_pq(self._conjunct_pths[which], p, q))

    def conjunct1(self, th: Theorem) -> Theorem:
        return self._conjunct(th, 0)

    def conjunct2(self, th: Theorem) -> Theorem:
        return self._conjunct(th, 1)

    # -- implication

    def mp(self, th_imp: Theorem, th_ant: Theorem) -> Theorem:
        # Cutting th_ant into {p ==> q, p} |- q would drop p from th_imp's
        # assumptions; going through p = (p /\ q) keeps their union.
        p, q = dest_imp(th_imp.conclusion)
        th1 = prove_hyp(th_imp, self._inst_pq(self._mp_pth, p, q))
        return self.conjunct2(eq_mp(th_ant, th1))  # via G u A |- p /\ q

    def disch(self, a: Term, th: Theorem) -> Theorem:
        th1 = self.conj(assume(a), th)
        th2 = self.conjunct1(assume(mk_conj(a, th.conclusion)))
        th3 = deduct_antisym(th1, th2)  # G \ {a} |- (a /\ q) = a
        return eq_mp(th3, self._inst_pq(self._disch_pth, a, th.conclusion))

    # -- quantifiers

    def gen(self, x: Var, th: Theorem) -> Theorem:
        th1 = abs_rule(x, self.eqt_intro(th))  # G |- (\x. p) = (\x. T)
        pth = inst_type_rule({"A": x.ty}, self._gen_pth)
        return eq_mp(th1, inst_rule({Var("P", fn(x.ty, BOOL)): lhs(th1)}, pth))

    def spec(self, t: Term, th: Theorem) -> Theorem:
        c = th.conclusion
        if not (
            isinstance(c, Comb)
            and isinstance(c.rator, Const)
            and c.rator.name == "forall"
        ):
            raise IllTyped(f"spec needs a universal theorem: {th!r}")
        pred = c.rand
        a = dest_pred_ty(pred)
        pth = inst_type_rule({"A": a}, self._spec_pth)
        mapping = {Var("P", pred.ty): pred, Var("x", a): t}
        th4 = prove_hyp(th, inst_rule(mapping, pth))
        if isinstance(pred, Abs):
            return eq_mp(th4, beta_conv(th4.conclusion))
        return th4

    def exists_intro(self, etm: Term, witness: Term, th: Theorem) -> Theorem:
        """From |- p[witness/x] conclude |- ?x. p (etm is the target)."""
        pred = etm.rand
        a = dest_pred_ty(pred)
        pth = inst_type_rule({"A": a}, self._exists_pth)
        inst = inst_rule({Var("P", pred.ty): pred, Var("x", a): witness}, pth)
        redex = mk_comb(pred, witness)
        if isinstance(pred, Abs):  # th proves the contracted redex
            th = eq_mp(th, sym(beta_conv(redex)))
        elif not alpha_equiv(th.conclusion, redex):
            raise kernel.Mismatch("exists_intro: the theorem does not prove the instance")
        return prove_hyp(th, inst)

    def select_rule(self, th: Theorem) -> Theorem:
        """From |- ?x. p conclude |- p[(@x. p)/x] (choice-based witness)."""
        pred = th.conclusion.rand
        a = dest_pred_ty(pred)
        pth = inst_type_rule({"A": a}, self._select_pth)
        th1 = prove_hyp(th, inst_rule({Var("P", fn(a, BOOL)): pred}, pth))
        if isinstance(pred, Abs):
            return conv_rule(beta_conv, th1)
        return th1

    # -- negation

    def not_elim(self, th: Theorem) -> Theorem:
        p = dest_neg(th.conclusion)
        return eq_mp(th, self.unfold("not", p))

    def not_intro(self, th: Theorem) -> Theorem:
        p, f = dest_imp(th.conclusion)
        return eq_mp(th, sym(self.unfold("not", p)))

    # -- disjunction

    def disj1(self, th: Theorem, q: Term) -> Theorem:
        return prove_hyp(th, self._inst_pq(self._disj_pths[0], th.conclusion, q))

    def disj2(self, p: Term, th: Theorem) -> Theorem:
        return prove_hyp(th, self._inst_pq(self._disj_pths[1], p, th.conclusion))

    def disj_cases(self, th: Theorem, th1: Theorem, th2: Theorem) -> Theorem:
        if not alpha_equiv(th1.conclusion, th2.conclusion):
            raise kernel.Mismatch("disjunction branches prove different goals")
        p, q = dest_disj(th.conclusion)
        r = th1.conclusion
        pqr = {Var("p", BOOL): p, Var("q", BOOL): q, Var("r", BOOL): r}
        inst = inst_rule(pqr, self._disj_cases_pth)
        sp = prove_hyp(th, inst)  # G |- (p ==> r) ==> (q ==> r) ==> r
        return self.mp(self.mp(sp, self.disch(p, th1)), self.disch(q, th2))

    def ccontr(self, p: Term, th: Theorem) -> Theorem:
        """Classical contradiction: from G u {~p} |- F conclude G |- p."""
        pth = inst_rule({Var("p", BOOL): p}, self._ccontr_pth)
        return eq_mp(self.eqf_intro(mk_neg(p), th), pth)

    # -- excluded middle via choice

    def _prove_excluded_middle(self) -> Theorem:
        t = Var("t", BOOL)
        x = Var("x", BOOL)
        goal_neg = mk_neg(t)
        p1 = mk_abs(x, mk_disj(mk_eq(x, TRUE), t))
        p2 = mk_abs(x, mk_disj(mk_eq(x, FALSE), t))
        sel = Const("@", fn(fn(BOOL, BOOL), BOOL))
        u = mk_comb(sel, p1)
        v = mk_comb(sel, p2)

        def select_fact(pred: Term, witness: Term, wth: Theorem) -> Theorem:
            """From |- body[witness] conclude |- body[@ pred] (beta-reduced)."""
            ax = axiom_choice(self.theory)
            ax = inst_type_rule({"A": BOOL}, ax)
            p0 = Var("P", fn(BOOL, BOOL))
            x0 = Var("x", BOOL)
            ax = inst_rule({p0: pred, x0: witness}, ax)
            c = ax.conclusion  # pred witness ==> pred (@ pred)
            ax = eq_mp(ax, ap_thm(ap_term(c.rator.rator, beta_conv(c.rator.rand)), c.rand))
            c = ax.conclusion
            ax = eq_mp(ax, ap_term(c.rator, beta_conv(c.rand)))
            return self.mp(ax, wth)

        th_u = select_fact(p1, TRUE, self.disj1(refl(TRUE), t))  # |- (u=T) \/ t
        th_v = select_fact(p2, FALSE, self.disj1(refl(FALSE), t))  # |- (v=F) \/ t

        goal = mk_disj(t, goal_neg)
        branch_t = self.disj1(assume(t), goal_neg)  # {t} |- t \/ ~t

        # Under t, the two predicates coincide, so u = v; with u = T and
        # v = F that gives T = F, hence ~t.
        e1 = self.eqt_intro(self.disj2(mk_eq(x, TRUE), assume(t)))
        e2 = self.eqt_intro(self.disj2(mk_eq(x, FALSE), assume(t)))
        same = trans(e1, sym(e2))  # {t} |- ((x=T) \/ t) = ((x=F) \/ t)
        same_pred = abs_rule(x, same)
        th_uv = ap_term(sel, same_pred)  # {t} |- u = v
        chain = trans(sym(assume(mk_eq(u, TRUE))), th_uv)
        chain = trans(chain, assume(mk_eq(v, FALSE)))  # {t, u=T, v=F} |- T = F
        th_f = eq_mp(self.TRUTH, chain)  # {t, u=T, v=F} |- F
        th_nt = self.not_intro(self.disch(t, th_f))  # {u=T, v=F} |- ~t
        branch_uv = self.disj2(t, th_nt)

        inner = self.disj_cases(th_v, branch_uv, branch_t)  # {u=T} |- goal
        return self.disj_cases(th_u, inner, branch_t)

    # -- the connective value tables

    def _prove_value_tables(self) -> dict[tuple[str, tuple[bool, ...]], Theorem]:
        tables: dict[tuple[str, tuple[bool, ...]], Theorem] = {}
        truth = self.TRUTH
        # and
        tables[("and", (True, True))] = self.eqt_intro(self.conj(truth, truth))
        tables[("and", (True, False))] = self.eqf_intro(
            mk_conj(TRUE, FALSE), self.conjunct2(assume(mk_conj(TRUE, FALSE)))
        )
        tables[("and", (False, True))] = self.eqf_intro(
            mk_conj(FALSE, TRUE), self.conjunct1(assume(mk_conj(FALSE, TRUE)))
        )
        tables[("and", (False, False))] = self.eqf_intro(
            mk_conj(FALSE, FALSE), self.conjunct1(assume(mk_conj(FALSE, FALSE)))
        )
        # or
        tables[("or", (True, True))] = self.eqt_intro(self.disj1(truth, TRUE))
        tables[("or", (True, False))] = self.eqt_intro(self.disj1(truth, FALSE))
        tables[("or", (False, True))] = self.eqt_intro(self.disj2(FALSE, truth))
        ff = mk_disj(FALSE, FALSE)
        tables[("or", (False, False))] = self.eqf_intro(
            ff, self.disj_cases(assume(ff), assume(FALSE), assume(FALSE))
        )
        # imp
        tables[("imp", (True, True))] = self.eqt_intro(self.disch(TRUE, truth))
        tables[("imp", (True, False))] = self.eqf_intro(
            mk_imp(TRUE, FALSE), self.mp(assume(mk_imp(TRUE, FALSE)), truth)
        )
        tables[("imp", (False, True))] = self.eqt_intro(self.disch(FALSE, truth))
        tables[("imp", (False, False))] = self.eqt_intro(
            self.disch(FALSE, assume(FALSE))
        )
        # iff (equality on bool)
        tables[("iff", (True, True))] = self.eqt_intro(refl(TRUE))
        tables[("iff", (True, False))] = self.eqf_intro(
            mk_eq(TRUE, FALSE), eq_mp(truth, assume(mk_eq(TRUE, FALSE)))
        )
        tables[("iff", (False, True))] = self.eqf_intro(
            mk_eq(FALSE, TRUE), eq_mp(truth, sym(assume(mk_eq(FALSE, TRUE))))
        )
        tables[("iff", (False, False))] = self.eqt_intro(refl(FALSE))
        # not
        tables[("not", (True,))] = self.eqf_intro(
            mk_neg(TRUE), self.mp(self.not_elim(assume(mk_neg(TRUE))), truth)
        )
        tables[("not", (False,))] = self.eqt_intro(
            self.not_intro(self.disch(FALSE, assume(FALSE)))
        )
        return tables


def dest_pred_ty(pred: Term) -> HolType:
    ty = pred.ty
    if not (hasattr(ty, "con") and ty.con == "fun" and ty.args[1] == BOOL):
        raise IllTyped(f"not a predicate: {pred!r}")
    return ty.args[0]


def install_logic(theory: Theory) -> Logic:
    """Define the logical constants in a fresh theory and return the
    derived-rule layer (raises DuplicateName if run twice)."""
    return Logic(theory)
