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
body at every occurrence.  The faster paths must give the same results.
"""

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
from microhol._accel import run_program
from microhol.syntax import (
    BOOL,
    Abs,
    Comb,
    Const,
    HolError,
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
    type_match,
    type_subst,
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
