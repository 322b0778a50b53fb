"""Independent oracles the tests check the package against.

Nothing in the first part shares code with the package's
alpha-equivalence or substitution paths: the de Bruijn converter below
builds plain tuples with its own traversal, the substitution oracle
freshens every binder before substituting naively, and the table
decoder unpacks the evaluator's function tables digit by digit.  Expected values in
the tests were computed with these and then frozen.

The second part keeps the earlier, slower implementations of paths that
were later made to skip work: substitution that walks a shared subterm
once per occurrence, type instantiation that renames a binder by
catching a clash raised inside its body and starting over, instance
rules that sort an assumption tuple again when no assumption changed,
the fixed-point rewriting engine the clausifier
normalized with before its one-pass structural conversions, the model
elimination search that tries every complementary literal, the
clausifier that rewrote every stripped clause again,
the derived rules that unfold the definitions of /\\ and
==> on every call, `ccontr` by cases on excluded middle and
`select_rule` through the choice axiom on every call, meson's front
end that checked the fragment in one walk and collected the equality
axioms' symbols in another, the evaluator
that compiled terms to opcode tuples for an interpreter (with a
variant that compiles a defined constant's body at every occurrence)
and the valuation search around it, and the front end that lexed
character by character and parsed each infix connective at its own
level.  The faster paths must give the same results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key

from microhol.auto import (
    OutOfFragment,
    _Clausifier,
    _connective_args,
    _fo_rename,
    _is_individual,
    _list_forall,
    _NormLemmas,
    _Search,
    _strip_app,
    _unify,
)
from microhol.bootstrap import (
    Inapplicable,
    ap_term,
    ap_thm,
    beta_conv,
    beta_n,
    conv_rule,
    dest_conj,
    dest_disj,
    dest_forall,
    dest_imp,
    is_conj,
    is_disj,
    is_exists,
    is_forall,
    is_imp,
    is_neg,
    lhs,
    mk_conj,
    mk_disj,
    mk_exists,
    mk_forall,
    mk_imp,
    mk_neg,
    prove_hyp,
    rewr_conv,
    rhs,
    sym,
)
from microhol.kernel import (
    abs_rule,
    assume,
    axiom_choice,
    deduct_antisym,
    eq_mp,
    inst_rule,
    inst_type_rule,
    mk_comb_rule,
    refl,
    trans,
)
from microhol.semantics import (
    TRUE_ELEM,
    TYVAR_SIZES,
    CarrierOverflow,
    EmptyCarrier,
    UnassignedTypeVar,
    UnassignedVariable,
    UninterpretableConstant,
    encode_table,
)
from microhol.surface import (
    _BOOL2,
    _MONO_OPS,
    _OP_CONSTS,
    ParseError,
    UnknownConstant,
    _is_tyvar_name,
    print_term,
    print_type,
)
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
    dest_eq,
    fn,
    free_vars,
    inst_type,
    is_eq,
    mk_abs,
    mk_comb,
    mk_eq,
    term_compare,
    type_match,
    type_subst,
    type_vars_of_term,
    type_vars_of_type,
    variant,
    vfree_in,
    vsubst,
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


def decode_table(value: int, dom: int, cod: int) -> tuple[int, ...]:
    """Unpack a function-table index into its `dom` entries, least
    significant digit first: the inverse of `semantics.encode_table`."""
    out = []
    for _ in range(dom):
        out.append(value % cod)
        value //= cod
    return tuple(out)


# ---------------------------------------------------------------------------
# Earlier implementations of paths that now skip work


def legacy_vsubst(theta, t):
    """vsubst as it was: the same renaming rule, but no memo, so a subterm
    object that occurs n times is substituted n times and gives n copies."""
    sub = {v: im for v, im in theta.items() if v != im}
    return _legacy_vsubst(sub, t) if sub else t


def _legacy_vsubst(sub, t):
    if isinstance(t, Var):
        return sub.get(t, t)
    if isinstance(t, Const) or free_vars(t).isdisjoint(sub):
        return t
    if isinstance(t, Comb):
        f = _legacy_vsubst(sub, t.rator)
        a = _legacy_vsubst(sub, t.rand)
        return t if f is t.rator and a is t.rand else Comb(f, a)
    v = t.bvar
    sub2 = {x: im for x, im in sub.items() if x != v}
    body = _legacy_vsubst(sub2, t.body)
    if any(vfree_in(v, im) and vfree_in(x, t.body) for x, im in sub2.items()):
        v2 = variant([body], v)
        sub2[v] = v2
        return Abs(v2, _legacy_vsubst(sub2, t.body))
    return Abs(v, body)


class _Clash(Exception):
    def __init__(self, var):
        self.var = var


def legacy_inst_type(tyin, t):
    """inst_type as it was, after HOL Light's kernel: the walk carries the
    (binder, instance) pairs it is under, a variable whose instance is
    some binder's instance without being that binder raises `_Clash`, and
    the abstraction whose binder clashed renames it and tries again."""
    return _legacy_inst([], tyin, t) if tyin else t


def _legacy_inst(env, tyin, t):
    if isinstance(t, Var):
        t2 = Var(t.name, type_subst(tyin, t.ty))
        for old, new in env:
            if new is t2:
                if old is t:
                    return t2
                raise _Clash(t2)
        return t2
    if isinstance(t, Const):
        return Const(t.name, type_subst(tyin, t.ty))
    if isinstance(t, Comb):
        f = _legacy_inst(env, tyin, t.rator)
        a = _legacy_inst(env, tyin, t.rand)
        return t if f is t.rator and a is t.rand else Comb(f, a)
    y = t.bvar
    y2 = Var(y.name, type_subst(tyin, y.ty))
    try:
        body = _legacy_inst([(y, y2)] + env, tyin, t.body)
        return t if body is t.body and y2 is y else Abs(y2, body)
    except _Clash as clash:
        if clash.var is not y2:
            raise
        inst_frees = [_legacy_inst([], tyin, fv) for fv in free_vars(t.body)]
        z = Var(variant(inst_frees, y2).name, y.ty)
        return _legacy_inst(env, tyin, Abs(z, vsubst({y: z}, t.body)))


def legacy_sorted_unique(hyps):
    """The assumptions of an instance as the instance rules built them:
    every tuple sorted again and its adjacent alpha-duplicates dropped,
    even when no assumption changed."""
    out = []
    for h in sorted(hyps, key=cmp_to_key(term_compare)):
        if not out or term_compare(out[-1], h):
            out.append(h)
    return tuple(out)


def try_beta(t):
    """Contract t if it is a beta redex; the fall-back the fixed-point
    engine tries after the equations."""
    if isinstance(t, Comb) and isinstance(t.rator, Abs):
        return beta_conv(t)
    raise Inapplicable


def first_conv(convs):
    def go(t):
        for c in convs:
            try:
                return c(t)
            except Inapplicable:
                continue
        raise Inapplicable

    return go


def _head_key(t):
    """(head constant's name, argument count), or None for another head."""
    n = 0
    while isinstance(t, Comb):
        t = t.rator
        n += 1
    return (t.name, n) if isinstance(t, Const) else None


def indexed_first_conv(rules):
    """``first_conv`` over (pattern, conv) pairs, trying at a term only
    the rules whose pattern has its head constant and argument count; a
    rule whose pattern is None is tried everywhere.  Buckets keep the
    list order."""
    keys = [None if pat is None else _head_key(pat) for pat, _ in rules]

    def bucket(key):
        return first_conv(
            [conv for k, (_, conv) in zip(keys, rules) if k is None or k == key]
        )

    buckets = {key: bucket(key) for key in keys if key is not None}
    rest = bucket(None)

    def go(t):
        return buckets.get(_head_key(t), rest)(t)

    return go


def fixed_point_exhaustive_conv(conv):
    """The rewriting engine the clausifier used before its structural
    passes: apply a conversion anywhere, repeatedly, until a fixed point.

    One pass works bottom-up and then repeats the conversion at each
    node; passes repeat while anything changes.  Congruences are built
    only above a change, and a subterm object a pass found irreducible is
    not visited again within the call.
    """
    limit = 100_000

    def onepass(t, normal):
        if id(t) in normal:
            return None
        if isinstance(t, Comb):
            lth = onepass(t.rator, normal)
            rth = onepass(t.rand, normal)
            if lth is None and rth is None:
                th = None
            else:
                th = mk_comb_rule(lth or refl(t.rator), rth or refl(t.rand))
        elif isinstance(t, Abs):
            bth = onepass(t.body, normal)
            th = None if bth is None else abs_rule(t.bvar, bth)
        else:
            th = None
        current = t if th is None else rhs(th)
        for _ in range(limit):
            try:
                step = conv(current)
            except Inapplicable:
                if th is None:
                    normal[id(t)] = t
                return th
            th = step if th is None else trans(th, step)
            current = rhs(step)
        raise HolError("rewriting did not terminate at a node")

    def go(t):
        th = None
        current = t
        normal = {}
        for _ in range(limit):
            step = onepass(current, normal)
            if step is None:
                break
            new = rhs(step)
            if alpha_equiv(new, current):
                break
            th = step if th is None else trans(th, step)
            current = new
        else:
            raise HolError("rewriting did not terminate")
        return refl(t) if th is None else th

    return go


def reference_rewrite_conv(equations):
    """Rewrite anywhere with the equations, then beta-reduce, to a fixed
    point, trying the equations in list order: the reference normal form
    for the clausifier's structural passes."""
    rules = [(lhs(th), rewr_conv(th)) for th in equations]
    return fixed_point_exhaustive_conv(indexed_first_conv(rules + [(None, try_beta)]))


def reference_nnf(t, positive=True):
    """Negation normal form by polarity on terms, with no kernel:
    Harrison's `nnf` (Handbook of Practical Logic and Automated
    Reasoning, 2009, ch. 2) with the iff taken to
    (~p \\/ q) /\\ (~q \\/ p) and its negation to
    (p \\/ q) /\\ (~p \\/ ~q), and `~(p ==> q)` to `p /\\ ~q`.  The
    normal form of `t` when `positive`, else of `~t`; binders keep their
    names."""
    if is_neg(t):
        return reference_nnf(t.rand, not positive)
    if is_conj(t) or is_disj(t):
        a, b = t.rator.rand, t.rand
        op = mk_conj if is_conj(t) == positive else mk_disj
        return op(reference_nnf(a, positive), reference_nnf(b, positive))
    if is_imp(t):
        a, b = dest_imp(t)
        if positive:
            return mk_disj(reference_nnf(a, False), reference_nnf(b, True))
        return mk_conj(reference_nnf(a, True), reference_nnf(b, False))
    if is_eq(t) and t.rand.ty == BOOL:
        a, b = dest_eq(t)
        if positive:
            return mk_conj(
                mk_disj(reference_nnf(a, False), reference_nnf(b, True)),
                mk_disj(reference_nnf(b, False), reference_nnf(a, True)),
            )
        return mk_conj(
            mk_disj(reference_nnf(a, True), reference_nnf(b, True)),
            mk_disj(reference_nnf(a, False), reference_nnf(b, False)),
        )
    if is_forall(t) or is_exists(t):
        v, body = t.rand.bvar, t.rand.body
        universal = is_forall(t) == positive
        return (mk_forall if universal else mk_exists)(v, reference_nnf(body, positive))
    return t if positive else mk_neg(t)


def top_down_rewrite_conv(equations):
    """Rewrite with the equations outside in, to a fixed point: at each
    node the first equation in list order that matches, with every beta
    redex of its result contracted at once, until none matches; then the
    node's children.  Passes repeat until one changes nothing.  A node
    is rewritten before its operands, so `~(p <=> q)` meets its own
    equation before the iff below it meets the positive one."""
    rewrite = first_conv([rewr_conv(th) for th in equations])
    beta_normal = fixed_point_exhaustive_conv(try_beta)

    def at_node(t):
        th = None
        while True:
            try:
                step = rewrite(t if th is None else rhs(th))
            except Inapplicable:
                return th
            step = trans(step, beta_normal(rhs(step)))
            th = step if th is None else trans(th, step)

    def walk(t):
        th = at_node(t)
        u = t if th is None else rhs(th)
        if isinstance(u, Comb):
            lth, rth = walk(u.rator), walk(u.rand)
            below = None
            if lth is not None or rth is not None:
                below = mk_comb_rule(lth or refl(u.rator), rth or refl(u.rand))
        elif isinstance(u, Abs):
            bth = walk(u.body)
            below = None if bth is None else abs_rule(u.bvar, bth)
        else:
            below = None
        if below is None:
            return th
        return below if th is None else trans(th, below)

    def go(t):
        th = refl(t)
        while True:
            step = walk(rhs(th))
            if step is None:
                return th
            th = trans(th, step)

    return go


def reference_nnf_conv(equations):
    """|- t = reference_nnf(t), with that term exactly as the right side:
    top-down rewriting with the equations proves t equal to a normal
    form, and `trans` with `refl` of the oracle's term goes through only
    if the kernel finds the two alpha-equivalent."""
    rewrite = top_down_rewrite_conv(equations)

    def go(t):
        return trans(rewrite(t), refl(reference_nnf(t)))

    return go


class UnindexedSearch(_Search):
    """Model elimination as it was before extension candidates were
    indexed: every complementary literal of every clause is renamed and
    unified in turn."""

    def prove(self, goal, path, depth, theta):
        pos, atom = goal
        for i, (ppos, patom) in enumerate(path):
            if ppos == pos:
                continue
            theta2 = _unify(atom, patom, theta)
            if theta2 is not None:
                yield theta2, ("red", goal, i)
        if depth <= 0:
            return
        for ci, clause in enumerate(self.clauses):
            for li, (lpos, latom) in enumerate(clause.lits):
                if lpos == pos:
                    continue
                copy = self.copies + 1
                renamed = _fo_rename(latom, copy)
                theta2 = _unify(atom, renamed, theta)
                if theta2 is None:
                    continue
                self.copies = copy
                new_goals = [
                    (p2, _fo_rename(a2, copy))
                    for j, (p2, a2) in enumerate(clause.lits)
                    if j != li
                ]
                new_path = path + [goal]
                for theta3, nodes in self.prove_goals(
                    new_goals, new_path, depth - 1, theta2
                ):
                    yield theta3, ("ext", goal, ci, li, copy, nodes)


class RedecomposingClausifier(_Clausifier):
    """The clausifier as it was, in two passes through the oracles: first
    negation normal form, `reference_nnf`'s term (`reference_nnf_conv`),
    then the pull pass over the whole result, the fixed-point engine
    (`reference_rewrite_conv`); every clause left after stripping went
    through the pull rewriting again, and was decomposed again if that
    exposed a conjunction or a quantifier."""

    def __init__(self, logic, lemmas):
        super().__init__(logic, lemmas)
        self.nnf = reference_nnf_conv(lemmas.nnf.values())
        self.pull_conv = reference_rewrite_conv(lemmas.pull)

    def clause_theorems(self, th):
        th = conv_rule(self.nnf, th)
        th = conv_rule(self.pull_conv, th)
        return self._decompose(th, ())

    def _decompose(self, th, universals):
        concl = th.conclusion
        if is_forall(concl):
            bv = concl.rand.bvar
            v = self.fresh_var(bv, [concl, *th.assumptions])
            return self._decompose(self.logic.spec(v, th), universals + (v,))
        if is_conj(concl):
            return self._decompose(self.logic.conjunct1(th), universals) + self._decompose(
                self.logic.conjunct2(th), universals
            )
        redone = conv_rule(self.pull_conv, th)
        if is_conj(redone.conclusion) or is_forall(redone.conclusion):
            return self._decompose(redone, universals)
        return [(redone, universals)]


def witnesses_in_order(clause_theorems):
    """[(witness, params)] for every @-headed argument the clauses'
    literals hold, outermost first, in the order first met, each with
    the clause's universals free in it: the Skolem registry read off the
    clause theorems alone."""
    found = {}

    def walk(t, universals):
        head, args = t, []
        while isinstance(head, Comb):
            args.append(head.rand)
            head = head.rator
        if isinstance(head, Const) and head.name == "@":
            if t not in found:
                free = oracle_free_vars(t)
                found[t] = tuple(v for v in universals if v in free)
            return
        for a in reversed(args):
            walk(a, universals)

    def literals(t):
        if is_disj(t):
            left, right = dest_disj(t)
            return literals(left) + literals(right)
        return [t]

    for th, universals in clause_theorems:
        for lit in literals(th.conclusion):
            walk(lit.rand if is_neg(lit) else lit, universals)
    return list(found.items())


def redecomposing_clausify(logic, p):
    """(clause theorems with their universals, [(witness, params)]) for
    an assumed formula, by the re-running clausifier and
    `witnesses_in_order`."""
    cl = RedecomposingClausifier(logic, _NormLemmas.get(logic))
    clause_theorems = cl.clause_theorems(assume(p))
    return clause_theorems, witnesses_in_order(clause_theorems)


class UnfoldingRules:
    """conj, conjunct1/2, mp, disch, spec, disj_cases, gen, exists_intro
    and disj1/2 as they were derived on every call, by unfolding the
    connectives' definitions."""

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
        pth = eq_mp(abs_rule(f, th_ap), sym(lg.unfold("and", p, q)))
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
        expanded = eq_mp(assume(th.conclusion), lg.unfold("and", p, q))
        th1 = ap_thm(expanded, sel)
        x, y = dest_eq(th1.conclusion)
        reduced = trans(trans(sym(beta_n(3, x)), th1), beta_n(3, y))
        return prove_hyp(th, lg.eqt_elim(reduced))

    def conjunct1(self, th):
        return self._conjunct(th, True)

    def conjunct2(self, th):
        return self._conjunct(th, False)

    def mp(self, th_imp, th_ant):
        p, q = dest_imp(th_imp.conclusion)
        th1 = eq_mp(th_imp, self.logic.unfold("imp", p, q))
        return self.conjunct2(eq_mp(th_ant, sym(th1)))

    def disch(self, a, th):
        th1 = self.conj(assume(a), th)
        th2 = self.conjunct1(assume(mk_conj(a, th.conclusion)))
        th3 = deduct_antisym(th1, th2)
        return eq_mp(th3, sym(self.logic.unfold("imp", a, th.conclusion)))

    def spec(self, t, th):
        lg = self.logic
        pred = th.conclusion.rand
        th1 = eq_mp(th, lg.unfold("forall", pred))
        th2 = ap_thm(th1, t)
        th4 = lg.eqt_elim(trans(th2, try_beta(rhs(th2))))
        if isinstance(pred, Abs):
            return eq_mp(th4, beta_conv(th4.conclusion))
        return th4

    def disj_cases(self, th, th1, th2):
        p, q = dest_disj(th.conclusion)
        sp = self.spec(th1.conclusion, eq_mp(th, self.logic.unfold("or", p, q)))
        return self.mp(self.mp(sp, self.disch(p, th1)), self.disch(q, th2))

    def gen(self, x, th):
        th1 = abs_rule(x, self.logic.eqt_intro(th))
        return eq_mp(th1, sym(self.logic.unfold("forall", mk_abs(x, th.conclusion))))

    def exists_intro(self, etm, witness, th):
        pred = etm.rand
        eqth = self.logic.unfold("exists", pred)
        qv, body = dest_forall(rhs(eqth))
        q = variant(list(th.assumptions) + [th.conclusion, etm], qv)
        ante = vsubst({qv: q}, dest_imp(body)[0])
        th2 = self.spec(witness, assume(ante))
        if isinstance(pred, Abs):  # contract the antecedent, pred witness
            c = th2.conclusion
            th2 = eq_mp(th2, ap_thm(ap_term(c.rator.rator, beta_conv(c.rator.rand)), c.rand))
        th4 = self.disch(ante, self.mp(th2, th))
        return eq_mp(self.gen(q, th4), sym(eqth))

    def _disj_intro(self, p, q, th):
        r = variant(list(th.assumptions) + [p, q], Var("r", BOOL))
        th1 = self.mp(assume(mk_imp(th.conclusion, r)), th)
        th3 = self.disch(mk_imp(p, r), self.disch(mk_imp(q, r), th1))
        return eq_mp(self.gen(r, th3), sym(self.logic.unfold("or", p, q)))

    def disj1(self, th, q):
        return self._disj_intro(th.conclusion, q, th)

    def disj2(self, p, th):
        return self._disj_intro(p, th.conclusion, th)


def excluded_middle_ccontr(logic, p, th):
    """`Logic.ccontr` as it was derived on every call: discharge ~p, then
    cases on p \\/ ~p."""
    np = mk_neg(p)
    th1 = logic.disch(np, th)
    em = inst_rule({Var("t", BOOL): p}, logic.EXCLUDED_MIDDLE)
    case1 = assume(p)
    case2 = logic.contr(p, logic.mp(th1, assume(np)))
    return logic.disj_cases(em, case1, case2)


def choice_axiom_select_rule(logic, th):
    """`Logic.select_rule` as it was derived on every call: the choice
    axiom at the predicate, generalised, and cut against the unfolded
    existential."""
    pred = th.conclusion.rand
    a = pred.ty.args[0]
    ax = inst_type_rule({"A": a}, axiom_choice(logic.theory))
    p0 = Var("P", fn(a, BOOL))
    x0 = Var("x", a)
    xf = variant([pred], Var("x", a))
    ax = inst_rule({p0: pred, x0: xf}, ax)
    gen_ax = logic.gen(xf, ax)  # |- !x. pred x ==> pred (@ pred)
    target = dest_imp(ax.conclusion)[1]  # pred (@ pred)
    th1 = eq_mp(th, logic.unfold("exists", pred))
    th2 = logic.spec(target, th1)
    th3 = logic.mp(th2, gen_ax)
    if isinstance(pred, Abs):
        return conv_rule(try_beta, th3)
    return th3


# ---------------------------------------------------------------------------
# Meson's front end as it was: the fragment check collects nothing, and a
# second walk over the same grammar collects the symbols the equality
# axioms need.


def _check_formula(t, bound):
    args = _connective_args(t)
    if args is not None:
        for a in args:
            _check_formula(a, bound)
        return
    if is_forall(t) or is_exists(t):
        v = t.rand.bvar
        if not _is_individual(v.ty):
            raise OutOfFragment(f"quantification over {print_term(v)} is not first-order")
        bound.append(v)
        _check_formula(t.rand.body, bound)
        bound.pop()
        return
    _check_atom(t, bound)


def _check_atom(t, bound):
    head, args = _strip_app(t)
    if isinstance(head, Abs):
        raise OutOfFragment(f"lambda in atom: {print_term(t)}")
    if not isinstance(head, (Var, Const)):
        raise OutOfFragment(f"bad atom head: {print_term(t)}")
    if isinstance(head, Var) and head in bound:
        raise OutOfFragment(f"quantified variable used as predicate: {head.name}")
    for a in args:
        _check_fo_term(a, bound)


def _check_fo_term(t, bound):
    if not _is_individual(t.ty):
        raise OutOfFragment(f"higher-order argument: {print_term(t)}")
    head, args = _strip_app(t)
    if not isinstance(head, (Var, Const)):
        raise OutOfFragment(f"bad term head: {print_term(t)}")
    if isinstance(head, Var) and head in bound and args:
        raise OutOfFragment(f"quantified variable applied as function: {head.name}")
    for a in args:
        _check_fo_term(a, bound)


def reference_equality_axioms(axioms, goal):
    """The axioms `add_equality_axioms` appends to the problem (axioms,
    goal), by the two walks: the fragment check, which raises
    OutOfFragment, then the symbol scan; an axiom the problem already has,
    up to bound-variable names, is left out."""
    for t in (*axioms, goal):
        if t.ty != BOOL:
            raise OutOfFragment("problem parts must be boolean")
        _check_formula(t, bound=[])
    eq_types = set()
    fun_syms = {}  # head symbol -> arity
    pred_syms = {}

    def scan_formula(t):
        subformulas = _connective_args(t)
        if subformulas is not None:
            for a in subformulas:
                scan_formula(a)
        elif is_forall(t) or is_exists(t):
            scan_formula(t.rand.body)
        else:
            if is_eq(t):
                eq_types.add(t.rand.ty)
            head, args = _strip_app(t)
            if args and not is_eq(t):
                pred_syms[head] = len(args)
            for a in args:
                scan_term(a)

    def scan_term(t):
        head, args = _strip_app(t)
        if args:
            fun_syms[head] = len(args)
        for a in args:
            scan_term(a)

    for t in (*axioms, goal):
        scan_formula(t)
    if not eq_types:
        return []
    # a congruence states equality at each of its symbol's argument types
    for head, arity in (*fun_syms.items(), *pred_syms.items()):
        cur = head.ty
        for _ in range(arity):
            eq_types.add(cur.args[0])
            cur = cur.args[1]

    extra = []
    probes = sorted((Var("_", ty) for ty in eq_types), key=cmp_to_key(term_compare))
    for ty in (v.ty for v in probes):
        x = Var("eqx", ty)
        y = Var("eqy", ty)
        z = Var("eqz", ty)
        extra.append(_list_forall([x], mk_eq(x, x)))
        extra.append(_list_forall([x, y], mk_imp(mk_eq(x, y), mk_eq(y, x))))
        extra.append(
            _list_forall(
                [x, y, z], mk_imp(mk_conj(mk_eq(x, y), mk_eq(y, z)), mk_eq(x, z))
            )
        )

    def congruence(head, arity, is_pred):
        doms = []
        cur = head.ty
        for _ in range(arity):
            doms.append(cur.args[0])
            cur = cur.args[1]
        if any(not _is_individual(d) for d in doms):
            return None
        xs = [Var(f"cx{i}", d) for i, d in enumerate(doms)]
        ys = [Var(f"cy{i}", d) for i, d in enumerate(doms)]
        eqs = None
        for a, b in zip(xs, ys):
            e = mk_eq(a, b)
            eqs = e if eqs is None else mk_conj(eqs, e)
        appx = head
        appy = head
        for a, b in zip(xs, ys):
            appx = mk_comb(appx, a)
            appy = mk_comb(appy, b)
        concl = mk_imp(appx, appy) if is_pred else mk_eq(appx, appy)
        return _list_forall(xs + ys, mk_imp(eqs, concl))

    for head, arity in fun_syms.items():
        c = congruence(head, arity, is_pred=False)
        if c is not None:
            extra.append(c)
    for head, arity in pred_syms.items():
        c = congruence(head, arity, is_pred=True)
        if c is not None:
            extra.append(c)
    return [ax for ax in extra if not any(alpha_equiv(ax, a) for a in axioms)]


# ---------------------------------------------------------------------------
# The evaluator before closures: terms compiled to nested opcode tuples and
# run by an interpreter, with the valuation search that drove it.  The
# closure compiler in `semantics` must agree with it on every value, every
# enumeration order and every counterexample.

class ReferenceCompiler:
    """Compiles terms for one model and one type-variable assignment.

    Slot numbering is shared across everything compiled by one instance,
    so a batch of sequent parts can be evaluated against one environment
    list.  Carrier sizes, defined-type supports and the programs of
    constants are cached per type.
    """

    def __init__(self, model: Model, type_sizes: Mapping[str, int], theory: Theory):
        self.model = model
        self.type_sizes = type_sizes
        self.theory = theory
        self.slots: dict[Var, int] = {}
        self.n_slots = 0
        self._size_cache: dict[HolType, int] = {}
        self._typedef_cache: dict[HolType, tuple[int, ...]] = {}
        self._const_cache: dict[tuple[str, HolType], tuple] = {}

    def _scratch(self) -> "ReferenceCompiler":
        """A compiler with its own slots and this one's caches."""
        sub = ReferenceCompiler(self.model, self.type_sizes, self.theory)
        sub._size_cache = self._size_cache
        sub._typedef_cache = self._typedef_cache
        sub._const_cache = self._const_cache
        return sub

    # -- carriers

    def size_of(self, ty: HolType) -> int:
        cached = self._size_cache.get(ty)
        if cached is not None:
            return cached
        size = self._size_of(ty)
        self._size_cache[ty] = size
        return size

    def _size_of(self, ty: HolType) -> int:
        if isinstance(ty, TyVar):
            size = self.type_sizes.get(ty.name)
            if size is None:
                raise UnassignedTypeVar(f"type variable {ty.name} is unassigned")
            return size
        if ty.con == "bool":
            return 2
        if ty.con == "ind":
            return self.model.ind_size
        if ty.con == "fun":
            dom = self.size_of(ty.args[0])
            cod = self.size_of(ty.args[1])
            size = 1
            for _ in range(dom):
                size *= cod
                if size > self.model.cap:
                    raise CarrierOverflow(
                        f"function carrier exceeds cap {self.model.cap}"
                    )
            return size
        return len(self.typedef_support(ty))

    def typedef_support(self, ty: TyApp) -> tuple[int, ...]:
        """Indices of the representing carrier satisfying the predicate."""
        cached = self._typedef_cache.get(ty)
        if cached is not None:
            return cached
        ev = self.theory.typedefs.get(ty.con)
        if ev is None:
            raise UninterpretableConstant(f"type constructor {ty.con!r} has no model")
        tyin = dict(zip(sorted(type_vars_of_term(ev.term)), ty.args))
        pred = inst_type(Substitution.of_types(tyin), ev.term)
        rep_size = self.size_of(pred.ty.args[0])
        sub = self._scratch()
        x = Var("r?", pred.ty.args[0])
        prog = sub.compile(Comb(pred, x))
        slot = sub.slots[x]
        env = [0] * sub.n_slots
        support = []
        for r in range(rep_size):
            env[slot] = r
            if run_reference(prog, env) == TRUE_ELEM:
                support.append(r)
        if not support:
            raise EmptyCarrier(
                f"predicate for type {ty.con!r} has empty support in this model"
            )
        out = tuple(support)
        self._typedef_cache[ty] = out
        return out

    # -- slots

    def slot_of(self, v: Var) -> int:
        slot = self.slots.get(v)
        if slot is None:
            slot = self.n_slots
            self.slots[v] = slot
            self.n_slots += 1
        return slot

    def fresh_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    # -- constants with fixed interpretations

    def _equality_value(self, arg_ty: HolType) -> int:
        n = self.size_of(arg_ty)
        self.size_of(fn(arg_ty, fn(arg_ty, BOOL)))
        delta_carrier = self.size_of(fn(arg_ty, BOOL))
        value = 0
        mul = 1
        for a in range(n):
            value += (1 << a) * mul
            mul *= delta_carrier
        return value

    def _choice_value(self, arg_ty: HolType) -> int:
        n = self.size_of(arg_ty)
        self.size_of(fn(fn(arg_ty, BOOL), arg_ty))
        preds = self.size_of(fn(arg_ty, BOOL))
        value = 0
        mul = 1
        for p in range(preds):
            least = (p & -p).bit_length() - 1 if p else 0
            value += least * mul
            mul *= n
        return value

    def _abs_rep_values(self, cty: HolType, name: str) -> int:
        """Table for a type-definition's abs or rep constant."""
        dom_ty, cod_ty = cty.args
        self.size_of(cty)
        cod = self.size_of(cod_ty)
        if isinstance(cod_ty, TyApp) and cod_ty.con in self.theory.typedefs and (
            self.theory.typedefs[cod_ty.con].names[1] == name
        ):
            # abs: representing carrier -> new type
            support = self.typedef_support(cod_ty)
            index = {r: i for i, r in enumerate(support)}
            entries = [index.get(r, 0) for r in range(self.size_of(dom_ty))]
        else:
            # rep: new type -> representing carrier
            support = self.typedef_support(dom_ty)
            entries = list(support)
        return encode_table(entries, cod)

    def _check_fixed(self, c: Const):
        """Reject hand-built `=`/`@` constants at non-instance types, which
        would otherwise compare or choose across distinct carriers."""
        generic = self.theory.term_constants[c.name]
        if type_match(generic, c.ty) is None:
            raise UninterpretableConstant(f"constant {c.name!r} at bad type {c.ty!r}")

    def compile_const(self, t: Const) -> tuple:
        key = (t.name, t.ty)
        prog = self._const_cache.get(key)
        if prog is None:
            prog = self._compile_const(t)
            self._const_cache[key] = prog
        return prog

    def _compile_const(self, t: Const) -> tuple:
        name, ty = t.name, t.ty
        if name == "=":
            shape = type_match(self.theory.term_constants["="], ty)
            if shape is None:
                raise UninterpretableConstant(f"equality at bad type {ty!r}")
            return (1, self._equality_value(shape["A"]))
        if name == "@":
            shape = type_match(self.theory.term_constants["@"], ty)
            if shape is None:
                raise UninterpretableConstant(f"choice at bad type {ty!r}")
            return (1, self._choice_value(shape["A"]))
        for ev in self.theory.typedefs.values():
            if name in ev.names[1:]:
                return (1, self._abs_rep_values(ty, name))
        rhs = self.theory.definitions.get(name)
        if rhs is None:
            raise UninterpretableConstant(f"constant {name!r} has no definition")
        tyin = type_match(self.theory.term_constants[name], ty)
        if tyin is None:
            raise UninterpretableConstant(f"constant {name!r} at bad type {ty!r}")
        # The body is closed, so its value needs no environment of ours.
        sub = self._scratch()
        body = sub.compile(inst_type(Substitution.of_types(tyin), rhs))
        return (1, run_reference(body, [0] * sub.n_slots))

    # -- terms

    def compile(self, t: Term, bound: dict[Var, int] | None = None) -> tuple:
        """Compile a term to an integer program (opcodes at `run_reference`)."""
        if bound is None:
            bound = {}
        if isinstance(t, Var):
            slot = bound.get(t)
            if slot is None:
                slot = self.slot_of(t)
            return (0, slot)
        if isinstance(t, Const):
            return self.compile_const(t)
        if isinstance(t, Comb):
            f, a = t.rator, t.rand
            if (
                isinstance(f, Comb)
                and isinstance(f.rator, Const)
                and f.rator.name == "="
            ):
                self._check_fixed(f.rator)
                return (4, self.compile(f.rand, bound), self.compile(a, bound))
            if isinstance(f, Const) and f.name == "=":
                self._check_fixed(f)
                self.size_of(t.ty)
                return (5, self.compile(a, bound))
            if isinstance(f, Const) and f.name == "@":
                self._check_fixed(f)
                return (6, self.compile(a, bound))
            if isinstance(f, Abs):
                # Beta shortcut: semantically the table entry at the argument.
                slot = self.fresh_slot()
                arg = self.compile(a, bound)
                saved = bound.get(f.bvar)
                bound[f.bvar] = slot
                body = self.compile(f.body, bound)
                _restore_bound(bound, f.bvar, saved)
                return (7, slot, arg, body)
            self.size_of(f.ty)
            cod = self.size_of(t.ty)
            return (2, self.compile(f, bound), self.compile(a, bound), cod)
        # Abstraction: enumerate the domain carrier.
        self.size_of(t.ty)
        dom = self.size_of(t.bvar.ty)
        cod = self.size_of(t.body.ty)
        slot = self.fresh_slot()
        saved = bound.get(t.bvar)
        bound[t.bvar] = slot
        body = self.compile(t.body, bound)
        _restore_bound(bound, t.bvar, saved)
        return (3, slot, dom, cod, body)


def _restore_bound(bound, key, saved):
    if saved is None:
        bound.pop(key, None)
    else:
        bound[key] = saved


# Programs are nested tuples of small ints:
#
#   (0, slot)                      read variable slot
#   (1, value)                     literal element index
#   (2, f, a, cod)                 apply: digit a of f in base cod
#   (3, slot, dom, cod, body)      build a function table by enumeration
#   (4, a, b)                      equality test -> 0/1
#   (5, a)                         partial equality: the table of (= a)
#   (6, p)                         choice: least element of the support
#   (7, slot, arg, body)           beta shortcut: bind slot, eval body


def run_reference(prog, env):
    """Evaluate one compiled term under an environment of element indices."""
    tag = prog[0]
    if tag == 0:
        return env[prog[1]]
    if tag == 1:
        return prog[1]
    if tag == 2:
        f = run_reference(prog[1], env)
        a = run_reference(prog[2], env)
        cod = prog[3]
        return (f // cod**a) % cod
    if tag == 3:
        _, slot, dom, cod, body = prog
        acc = 0
        mul = 1
        for elem in range(dom):
            env[slot] = elem
            acc += run_reference(body, env) * mul
            mul *= cod
        return acc
    if tag == 4:
        return 1 if run_reference(prog[1], env) == run_reference(prog[2], env) else 0
    if tag == 5:
        return 1 << run_reference(prog[1], env)
    if tag == 6:
        p = run_reference(prog[1], env)
        return (p & -p).bit_length() - 1 if p else 0
    if tag == 7:
        env[prog[1]] = run_reference(prog[2], env)
        return run_reference(prog[3], env)
    raise ValueError(f"bad opcode {tag}")


def _run_assigned(comp, prog, v):
    env = [0] * comp.n_slots
    for var, slot in comp.slots.items():
        if var not in v.term_assignment:
            raise UnassignedVariable(f"variable {var.name} is unassigned")
        env[slot] = v.term_assignment[var]
    return run_reference(prog, env)


def reference_eval_term(t, v, theory):
    """eval_term by the opcode compiler and its interpreter."""
    comp = ReferenceCompiler(v.model, v.type_sizes, theory)
    return _run_assigned(comp, comp.compile(t), v)


class _UnfoldingCompiler(ReferenceCompiler):
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
    return _run_assigned(comp, comp.compile(t), v)


class _ReferenceBatch:
    """A group of sequents compiled against one shared environment."""

    def __init__(self, sequents, model, type_sizes, theory):
        comp = ReferenceCompiler(model, type_sizes, theory)
        self.compiled = [
            ([comp.compile(h) for h in hyps], comp.compile(concl))
            for hyps, concl in sequents
        ]
        self.free = sorted(comp.slots.items(), key=lambda kv: (kv[0].name, kv[1]))
        self.sizes = [comp.size_of(v.ty) for v, _ in self.free]
        self.slots = [slot for _, slot in self.free]
        self.env = [0] * comp.n_slots

    def space(self):
        n = 1
        for s in self.sizes:
            n *= s
        return n

    def set_assignment(self, values):
        env = self.env
        for slot, value in zip(self.slots, values):
            env[slot] = value

    def holds(self, i):
        hyps, concl = self.compiled[i]
        env = self.env
        for h in hyps:
            if run_reference(h, env) == 0:
                return True
        return run_reference(concl, env) == 1

    def assignment(self, values):
        return {v: val for (v, _), val in zip(self.free, values)}


def reference_search(sequents, n_prem, model, theory, limit, samples, rng):
    """`semantics._search` as it was with one opcode program per sequent
    part: returns (exhaustive, evaluations, failure), where failure is
    (type assignment, {variable: value}) or None."""
    tyvars = set()
    for hyps, concl in sequents:
        for t in (*hyps, concl):
            tyvars |= type_vars_of_term(t)
    tyvar_list = sorted(tyvars)
    batches = []
    total = 0
    for sizes in itertools.product(TYVAR_SIZES, repeat=len(tyvar_list)):
        tyassign = dict(zip(tyvar_list, sizes))
        batch = _ReferenceBatch(sequents, model, tyassign, theory)
        batches.append((tyassign, batch))
        total += batch.space()

    def fails(batch):
        return not batch.holds(n_prem) and all(batch.holds(i) for i in range(n_prem))

    evaluations = 0
    if total <= limit:
        for tyassign, batch in batches:
            for values in itertools.product(*(range(s) for s in batch.sizes)):
                batch.set_assignment(values)
                evaluations += 1
                if fails(batch):
                    return True, evaluations, (tyassign, batch.assignment(values))
        return True, evaluations, None
    for _ in range(samples):
        tyassign, batch = batches[rng.randrange(len(batches))]
        values = [rng.randrange(size) for size in batch.sizes]
        batch.set_assignment(values)
        evaluations += 1
        if fails(batch):
            return False, evaluations, (tyassign, batch.assignment(values))
    return False, evaluations, None


# ---------------------------------------------------------------------------
# The front end before the regex tokenizer: a per-character lexer making
# one token object per token, and one parser method per infix level.
# Kept verbatim, apart from names and two rules it now shares with the
# parser: `(!)` and `(?)` need the theory's `forall` and `exists`, and the
# body of `@x:ty. p` must be boolean.  Tests compare tokens, trees and
# error messages with it.

@dataclass(frozen=True)
class LegacyTok:
    kind: str  # 'ident' | 'punct' | 'eof'
    text: str
    line: int
    col: int


_MULTI = ("==>", "<=>", "|-", "->", "/\\", "\\/")
# With no theory, the legacy parser reads every type constructor but `fun` as nullary.
_LEGACY_TYPE_ARITIES = {"bool": 0, "ind": 0, "fun": 2}
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
        return _LEGACY_TYPE_ARITIES.get(name, 0)

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
        self.fail(f"expected a type, found {tok.text or 'end of input'!r}", tok)

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
            if body.ty != BOOL:
                self.fail("@ body must be boolean", tok)
            sel = Const("@", fn(fn(ty, BOOL), ty))
            return mk_comb(sel, mk_abs(v, body))
        cname = "forall" if tok.text == "!" else "exists"
        self.require_constant(cname, tok)
        if body.ty != BOOL:
            self.fail(f"{tok.text} body must be boolean", tok)
        quant = Const(cname, fn(fn(ty, BOOL), BOOL))
        return mk_comb(quant, mk_abs(v, body))

    def require_constant(self, name: str, tok: LegacyTok):
        if self.theory is None or name not in self.theory.term_constants:
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
            self.fail(f"{print_type(ann)} is not an instance of {cname!r}'s type", tok)
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
        self.require_constant(name, tok)
        return self.theory.term_constants[name]

    def _ident(self, tok: LegacyTok, ann: HolType | None):
        name = tok.text
        if ann is None:
            for v in reversed(self.binders):
                if v.name == name:
                    return v
            if self.theory is not None and name in self.theory.term_constants:
                generic = self.theory.term_constants[name]
                if type_vars_of_type(generic):
                    return _LegacyUnresolved(name, generic, tok)
                return Const(name, generic)
            if self.free_default is not None:
                return Var(name, self.free_default)
            self.fail(f"unannotated free name {name!r}", tok)
        if self.theory is not None and name in self.theory.term_constants:
            generic = self.theory.term_constants[name]
            if type_match(generic, ann) is not None:
                return Const(name, ann)
            self.fail(f"{name!r} is a constant and {print_type(ann)} does not fit it", tok)
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
                p.fail(f"expected ',' or '|-', found {tok.text or 'end of input'!r}", tok)
    else:
        p.next()
    concl = p.parse_term()
    tok = p.peek()
    if tok.kind != "eof":
        p.fail(f"unexpected {tok.text!r} after sequent", tok)
    return tuple(hyps), concl
