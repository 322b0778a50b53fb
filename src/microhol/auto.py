"""Proof search that returns kernel theorems.

``taut`` decides propositional formulas with `semantics.is_valid`, the
exhaustive valuation search the fuzzer also uses; when the formula is a
tautology it reconstructs a kernel proof by case-splitting each
variable with excluded middle and evaluating the formula with the
proved connective tables.

``meson`` is bounded model elimination for the first-order fragment
(quantifiers only over individual types, predicates and functions as
constants or free variables).  The problem is clausified through
proof-producing normalization in one walk (`_ClauseForm`): negation
normal form by polarity, in which each distinct subformula gets
|- t = t+ and |- ~t = t- at most once, each connective and each negated
connective or quantifier through one lemma instance, so `~(p <=> q)`
goes straight to (p+ \\/ q+) /\\ (p- \\/ q-).  Each node the walk builds
is settled at once by the one equation its heads select: an existential
`?x. M`, once `M` is normal, is Skolemized by |- (?) P = P ((@) P), so
each Skolem witness `@x. M` holds its own subformula and only the
universals whose scope contains it (inner Skolemization); universals
are pulled out of \\/ and /\\; \\/ is distributed over /\\.  Then the
universal prefix is stripped by specialization.  The quantifier lemmas
behind these rewrites use each existential premise through its chosen
witness (`select_rule`), not by eliminating it at a fresh variable.  Of
the four universal-pull equations, the two with the quantifier on the
left are proved and the other two are their mirror images, derived by
commuting the connective.  Before the search, each clause is condensed
(`_condensed`), then a clause whose literal set holds a
literal and its negation, or is an earlier clause's literal set, is
dropped from the search's list; its theorem is never cited.  T and F
are atoms to the search, which is given |- T or |- ~F as a unit clause
where either occurs.  The search runs on a lightweight clause
representation; a successful refutation is
replayed through the kernel as equations to F: a literal L of a clause
instance, refuted by {L} u G |- F, gives G |- L = F, once for
alpha-equal ones; the literals'
equations are joined through |- (F \\/ F) = F into G |- d = F for the
whole instance d, which cuts d from the refutation; and the negated
goal's equation |- ~goal = F yields the goal.  So every result is an
ordinary theorem `axioms |- goal`.  Search and reconstruction are two
routes to the same answer: the kernel accepts no step on the search's
authority.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cmp_to_key, reduce
from typing import Optional

from . import kernel
from .bootstrap import (
    FALSE,
    Logic,
    TRUE,
    ap_term,
    beta_conv,
    conv_rule,
    exhaustive_conv,
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
    settle_nodes,
)
from .kernel import Theorem, assume, eq_mp, inst_rule, inst_type_rule
from .semantics import Model, is_valid
from .surface import print_term
from .syntax import (
    BOOL,
    Abs,
    Comb,
    Const,
    HolError,
    HolType,
    Term,
    TyApp,
    TyVar,
    Var,
    alpha_equiv,
    fn,
    free_vars,
    is_eq,
    mk_comb,
    mk_eq,
    term_compare,
    variant,
    vsubst,
)

__all__ = [
    "NotPropositional",
    "NotATautology",
    "OutOfFragment",
    "DepthExhausted",
    "FirstOrderProblem",
    "MesonTrace",
    "taut",
    "clausify",
    "meson",
    "add_equality_axioms",
    # bound for the benchmark's tracer alone (`perfbench/layers.py`), which
    # wraps it by name; no module calls it (ROADMAP item 1)
    "exhaustive_conv",
]


class NotPropositional(HolError):
    pass


class NotATautology(HolError):
    def __init__(self, assignment: dict[str, bool]):
        names = ", ".join(f"{k}={str(v).lower()}" for k, v in sorted(assignment.items()))
        super().__init__(f"falsified by {names}")
        self.assignment = assignment


class OutOfFragment(HolError):
    pass


class DepthExhausted(HolError):
    def __init__(self, depth: int, trace: "MesonTrace"):
        super().__init__(f"no proof within depth {depth}")
        self.depth = depth
        self.trace = trace


MAX_TAUT_VARS = 16


# ---------------------------------------------------------------------------
# Propositional tautologies


def _connective_args(t: Term) -> Optional[tuple[Term, ...]]:
    """The operands of a negation or a binary connective (= on bool
    included), or None when `t` is neither."""
    if is_neg(t):
        return (t.rand,)
    if is_conj(t) or is_disj(t) or is_imp(t) or (is_eq(t) and t.rand.ty == BOOL):
        return (t.rator.rand, t.rand)
    return None


def _prop_vars(t: Term, out: dict[Var, None]):
    if isinstance(t, Var):
        if t.ty != BOOL:
            raise NotPropositional(f"non-boolean variable {t.name}")
        out[t] = None
        return
    if isinstance(t, Const):
        if t.ty == BOOL and t.name in ("T", "F"):
            return
        raise NotPropositional(f"constant {print_term(t)} is not propositional")
    args = _connective_args(t)
    if args is None:
        raise NotPropositional(f"not a propositional formula: {print_term(t)}")
    for a in args:
        _prop_vars(a, out)


def taut(logic: Logic, p: Term) -> Theorem:
    """|- p for a propositional tautology, by kernel case-splitting.

    The decision itself is `is_valid`'s exhaustive valuation search; the
    kernel reconstruction only runs once the truth table is known full of
    trues.  Raises NotATautology with the first falsifying assignment,
    variables taken in name order and false before true.
    """
    if p.ty != BOOL:
        raise NotPropositional("goal must be boolean")
    vars_: dict[Var, None] = {}
    _prop_vars(p, vars_)
    if len(vars_) > MAX_TAUT_VARS:
        raise NotPropositional(f"more than {MAX_TAUT_VARS} variables")

    verdict = is_valid(
        ((), p), Model(ind_size=1), budget=2**MAX_TAUT_VARS, theory=logic.theory
    )
    if not verdict.valid:
        assignment = verdict.counterexample.assignment
        raise NotATautology({var.name: bool(e) for var, e in assignment.items()})

    return _taut_reconstruct(logic, p, sorted(vars_, key=lambda v: v.name), {})


def _assign_true(logic: Logic, v: Var) -> tuple[bool, Theorem]:
    return True, logic.eqt_intro(assume(v))


def _assign_false(logic: Logic, v: Var) -> tuple[bool, Theorem]:
    return False, logic.eqf_intro(v, logic.clash(v))  # {~v} |- v = F


def _taut_reconstruct(logic, p, order, asg) -> Theorem:
    # `asg` maps id() of each variable assigned so far to its value and
    # G |- v = T/F; variables are interned, so each has one id
    if order:
        v, rest = order[0], order[1:]
        th_t = _taut_reconstruct(logic, p, rest, {**asg, id(v): _assign_true(logic, v)})
        th_f = _taut_reconstruct(logic, p, rest, {**asg, id(v): _assign_false(logic, v)})
        em = inst_rule({Var("t", BOOL): v}, logic.EXCLUDED_MIDDLE)
        return logic.disj_cases(em, th_t, th_f)
    value, th = _eval_formula(logic, p, asg)
    if not value:
        raise AssertionError("truth table said tautology but evaluation derived F")
    return logic.eqt_elim(th)


def _eval_formula(logic, t, leaves) -> tuple[bool, Theorem]:
    """Evaluate a propositional formula, returning (value, G |- t = T/F).
    `leaves` maps id() of a subterm object to its (value, G |- leaf = T/F)
    and is looked up before the connectives; each connective's value is
    read off the connective table.  (A module function, not a closure: a
    closure calling itself is a reference cycle, which would keep every
    theorem it reaches alive until a full collection.)"""
    got = leaves.get(id(t))
    if got is not None:
        return got
    if isinstance(t, Const):
        if t.name == "T":
            return True, logic.eqt_intro(logic.TRUTH)
        return False, logic.eqf_intro(FALSE, assume(FALSE))
    if is_neg(t):
        val, th = _eval_formula(logic, t.rand, leaves)
        th = kernel.trans(ap_term(t.rator, th), logic.tables[("not", (val,))])
    else:
        op = t.rator.rator
        lval, lth = _eval_formula(logic, t.rator.rand, leaves)
        rval, rth = _eval_formula(logic, t.rand, leaves)
        combined = kernel.mk_comb_rule(ap_term(op, lth), rth)
        th = kernel.trans(combined, logic.tables[(op.name, (lval, rval))])
    return rhs(th) == TRUE, th


# ---------------------------------------------------------------------------
# The first-order fragment


@dataclass(frozen=True)
class FirstOrderProblem:
    """Axioms and a goal in the first-order fragment.  Free variables act
    as uninterpreted predicate/function symbols; quantifiers range only
    over individual (non-boolean, non-function) types."""

    axioms: tuple[Term, ...]
    goal: Term

    def __post_init__(self):
        _Symbols((*self.axioms, self.goal))


def _is_individual(ty: HolType) -> bool:
    return not (
        ty == BOOL or (isinstance(ty, TyApp) and ty.con == "fun")
    )


class _Symbols:
    """One walk over boolean formulas that decides the first-order
    fragment, raising OutOfFragment at the first part outside it, and
    records in the order met what the equality axioms need: the types
    equality is used at, and each function and predicate symbol with its
    arity.  A quantified variable is an individual, so none can head an
    atom or be applied; the walk keeps no scope."""

    def __init__(self, formulas):
        self.eq_types: dict[HolType, None] = {}
        self.functions: dict[Term, int] = {}
        self.predicates: dict[Term, int] = {}
        for t in formulas:
            if t.ty != BOOL:
                raise OutOfFragment("problem parts must be boolean")
            self._formula(t)

    def _formula(self, t: Term):
        args = _connective_args(t)
        if args is not None:
            for a in args:
                self._formula(a)
        elif is_forall(t) or is_exists(t):
            v = t.rand.bvar
            if not _is_individual(v.ty):
                raise OutOfFragment(f"quantification over {print_term(v)} is not first-order")
            self._formula(t.rand.body)
        else:
            head, args = _strip_app(t)
            if isinstance(head, Abs):
                raise OutOfFragment(f"lambda in atom: {print_term(t)}")
            if is_eq(t):
                self.eq_types[t.rand.ty] = None
            elif args:
                self.predicates[head] = len(args)
            for a in args:
                self._term(a)

    def _term(self, t: Term):
        if not _is_individual(t.ty):
            raise OutOfFragment(f"higher-order argument: {print_term(t)}")
        head, args = _strip_app(t)
        if isinstance(head, Abs):
            raise OutOfFragment(f"bad term head: {print_term(t)}")
        if args:
            self.functions[head] = len(args)
        for a in args:
            self._term(a)


def _strip_app(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while isinstance(t, Comb):
        args.append(t.rand)
        t = t.rator
    args.reverse()
    return t, args


# ---------------------------------------------------------------------------
# Proof-producing clausification

_NOT = Const("not", fn(BOOL, BOOL))
_P = Var("p", BOOL)
_Q = Var("q", BOOL)


@dataclass
class _NormLemmas:
    """The equations behind clausification, proved once per Logic.

    `nnf` holds the negation-normal-form lemmas, each keyed by the head
    and polarity of its left side (`_left_key`), and `pull` the
    Skolemization, universal-pull and distribution equations in the order
    `_ClauseForm` takes them."""

    nnf: dict[tuple[str, bool], Theorem]
    pull: list

    @classmethod
    def get(cls, logic: Logic) -> "_NormLemmas":
        cached = getattr(logic, "_clausifier_lemmas", None)
        if cached is None:
            cached = cls.build(logic)
            logic._clausifier_lemmas = cached
        return cached

    @classmethod
    def build(cls, logic: Logic) -> "_NormLemmas":
        p = Var("p", BOOL)
        q = Var("q", BOOL)
        r = Var("r", BOOL)
        props = [
            mk_eq(mk_neg(mk_neg(p)), p),
            mk_eq(mk_neg(mk_conj(p, q)), mk_disj(mk_neg(p), mk_neg(q))),
            mk_eq(mk_neg(mk_disj(p, q)), mk_conj(mk_neg(p), mk_neg(q))),
            mk_eq(mk_neg(mk_imp(p, q)), mk_conj(p, mk_neg(q))),
            mk_eq(mk_neg(mk_eq(p, q)), mk_conj(mk_disj(p, q), mk_disj(mk_neg(p), mk_neg(q)))),
            mk_eq(mk_imp(p, q), mk_disj(mk_neg(p), q)),
            mk_eq(mk_eq(p, q), mk_conj(mk_disj(mk_neg(p), q), mk_disj(mk_neg(q), p))),
        ]
        nnf = [taut(logic, t) for t in props] + [
            _not_forall_thm(logic),
            _not_exists_thm(logic),
        ]
        pulls = _pull_theorems(logic) + [_skolem_thm(logic)]
        dists = [
            taut(logic, mk_eq(mk_disj(p, mk_conj(q, r)), mk_conj(mk_disj(p, q), mk_disj(p, r)))),
            taut(logic, mk_eq(mk_disj(mk_conj(q, r), p), mk_conj(mk_disj(q, p), mk_disj(r, p)))),
        ]
        return cls(nnf={_left_key(th): th for th in nnf}, pull=pulls + dists)


def _left_key(th: Theorem) -> tuple[str, bool]:
    """(name of the head constant, polarity) of an equation's left side:
    `~(p /\\ q)` gives ("and", False), `p ==> q` ("imp", True)."""
    left = lhs(th)
    positive = not is_neg(left)
    return _strip_app(left if positive else left.rand)[0].name, positive


def _forall_var(pred: Var, th: Theorem) -> Theorem:
    """Repackage G |- !x. P x (an explicit abstraction over an application)
    as G |- (!) P for a predicate variable P, through the eta axiom
    |- (\\x. t x) = t."""
    a, b = pred.ty.args
    eta = inst_type_rule({"A": a, "B": b}, kernel.axiom_extensionality())
    eta = inst_rule({Var("t", pred.ty): pred}, eta)
    return eq_mp(th, ap_term(th.conclusion.rator, eta))


def _not_intro(logic: Logic, p: Term, th: Theorem) -> Theorem:
    """From G u {p} |- F conclude G |- ~p, through p = F and |- ~F = T."""
    neg = ap_term(_NOT, logic.eqf_intro(p, th))  # ~p = ~F
    return logic.eqt_elim(kernel.trans(neg, logic.tables[("not", (False,))]))


def _not_forall_thm(logic: Logic) -> Theorem:
    """|- ~((!) P) = ?x. ~(P x)."""
    alpha = TyVar("A")
    P = Var("P", fn(alpha, BOOL))
    x = Var("x", alpha)
    px = mk_comb(P, x)
    forall_p = mk_comb(Const("forall", fn(fn(alpha, BOOL), BOOL)), P)
    goal = mk_exists(x, mk_neg(px))

    # {~(!)P} |- ?x. ~(P x)
    some = logic.exists_intro(goal, x, assume(mk_neg(px)))  # {~P x} |- goal
    px_th = logic.ccontr(px, prove_hyp(some, logic.clash(goal)))  # {~goal} |- P x
    allp = _forall_var(P, logic.gen(x, px_th))  # {~goal} |- (!) P
    fwd = logic.ccontr(goal, prove_hyp(allp, logic.clash(forall_p)))

    # {?x. ~(P x)} |- ~((!) P), at the witness @x. ~(P x)
    npw = logic.select_rule(assume(goal))
    pw = logic.spec(npw.conclusion.rand.rand, assume(forall_p))
    refuted = prove_hyp(pw, prove_hyp(npw, logic.clash(pw.conclusion)))
    bwd = _not_intro(logic, forall_p, refuted)

    return kernel.deduct_antisym(bwd, fwd)


def _not_exists_thm(logic: Logic) -> Theorem:
    """|- ~((?) P) = !x. ~(P x)."""
    alpha = TyVar("A")
    P = Var("P", fn(alpha, BOOL))
    x = Var("x", alpha)
    px = mk_comb(P, x)
    exists_p = mk_comb(Const("exists", fn(fn(alpha, BOOL), BOOL)), P)
    goal = mk_forall(x, mk_neg(px))

    # {~(?)P} |- !x. ~(P x)
    some = logic.exists_intro(exists_p, x, assume(px))  # {P x} |- (?) P
    refuted = prove_hyp(some, logic.clash(exists_p))  # {~(?)P, P x} |- F
    fwd = logic.gen(x, _not_intro(logic, px, refuted))

    # {!x. ~(P x)} |- ~((?) P), at the witness (@) P
    pw = logic.select_rule(assume(exists_p))
    npw = logic.spec(pw.conclusion.rand, assume(goal))
    refuted = prove_hyp(pw, prove_hyp(npw, logic.clash(pw.conclusion)))
    bwd = _not_intro(logic, exists_p, refuted)

    return kernel.deduct_antisym(bwd, fwd)


def _skolem_thm(logic: Logic) -> Theorem:
    """|- (?) P = P ((@) P): an existential holds at its chosen witness.
    The clause-form walk rewrites each `?x. M` with it once `M` is
    normal, so the witness `@x. M` holds only its own subformula, and its
    free universals are those whose scope contains it."""
    alpha = TyVar("A")
    P = Var("P", fn(alpha, BOOL))
    exists_p = mk_comb(Const("exists", fn(fn(alpha, BOOL), BOOL)), P)
    pw = logic.select_rule(assume(exists_p))  # {(?) P} |- P ((@) P)
    back = logic.exists_intro(exists_p, pw.conclusion.rand, assume(pw.conclusion))
    return kernel.deduct_antisym(back, pw)


def _pull_theorems(logic: Logic) -> list[Theorem]:
    """The four universal-pull equations, e.g.
    |- ((!) P \\/ q) = !x. P x \\/ q.  The two with the quantifier on
    the left are proved; each is followed by its mirror image
    |- (q \\/ (!) P) = !x. q \\/ P x, derived from it by commuting the
    connective outside and under the binder.  No existential is pulled:
    the clause-form walk Skolemizes each one where it stands
    (`_skolem_thm`) before its parent is rewritten."""
    alpha = TyVar("A")
    P = Var("P", fn(alpha, BOOL))
    p = Var("p", BOOL)
    q = Var("q", BOOL)
    x = Var("x", alpha)
    forall_p = mk_comb(Const("forall", fn(fn(alpha, BOOL), BOOL)), P)
    px = mk_comb(P, x)
    or_comm = taut(logic, mk_eq(mk_disj(p, q), mk_disj(q, p)))
    and_comm = taut(logic, mk_eq(mk_conj(p, q), mk_conj(q, p)))

    def mirrored(prime: Theorem, swap: Theorem) -> list[Theorem]:
        """[|- (!) P op q = !x. P x op q, |- q op (!) P = !x. q op P x],
        given swap: |- (p op q) = (q op p)."""
        left, right = lhs(prime), prime.conclusion.rand
        swap_left = inst_rule({p: left.rand, q: left.rator.rand}, swap)
        body = right.rand.body
        swap_body = inst_rule({p: body.rator.rand, q: body.rand}, swap)
        mirror = kernel.trans(
            kernel.trans(swap_left, prime),
            ap_term(right.rator, kernel.abs_rule(x, swap_body)),
        )
        return [prime, mirror]

    # (!) P \/ q  =  !x. P x \/ q
    lhs_t = mk_disj(forall_p, q)
    rhs_t = mk_forall(x, mk_disj(px, q))
    b1 = logic.disj1(logic.spec(x, assume(forall_p)), q)
    b2 = logic.disj2(px, assume(q))
    fwd = logic.gen(x, logic.disj_cases(assume(lhs_t), b1, b2))
    inner = logic.disj_cases(
        logic.spec(x, assume(rhs_t)), assume(px), logic.contr(px, logic.clash(q))
    )  # {rhs, ~q} |- P x
    nq_case = logic.disj1(_forall_var(P, logic.gen(x, inner)), q)
    em = inst_rule({Var("t", BOOL): q}, logic.EXCLUDED_MIDDLE)
    bwd = logic.disj_cases(em, logic.disj2(forall_p, assume(q)), nq_case)
    out = mirrored(kernel.deduct_antisym(bwd, fwd), or_comm)

    # (!) P /\ q  =  !x. P x /\ q
    lhs_t = mk_conj(forall_p, q)
    rhs_t = mk_forall(x, mk_conj(px, q))
    fwd = logic.gen(
        x,
        logic.conj(
            logic.spec(x, logic.conjunct1(assume(lhs_t))),
            logic.conjunct2(assume(lhs_t)),
        ),
    )
    allp = _forall_var(P, logic.gen(x, logic.conjunct1(logic.spec(x, assume(rhs_t)))))
    bwd = logic.conj(allp, logic.conjunct2(logic.spec(x, assume(rhs_t))))
    out += mirrored(kernel.deduct_antisym(bwd, fwd), and_comm)
    return out


# ---------------------------------------------------------------------------
# Clause extraction


@dataclass(frozen=True)
class SkolemEntry:
    """A Skolem function: the witness `@x. M` of one existential `?x. M`,
    registered when a literal first holds it."""

    index: int
    witness: Term  # the epsilon-term, with the clause's universals free
    params: tuple[Var, ...]  # the clause's universals free in the witness


@dataclass
class Clause:
    thm: Theorem  # G |- L1 \/ ... \/ Lk, free universals
    universals: tuple[Var, ...]
    lits: tuple[tuple[bool, tuple], ...]  # search literals: (positive, fo-atom)
    source: str
    # condensing (`_condensed`): the renaming of universals that merges
    # literals, and each disjunct's search-literal index; None is one each
    merge: dict[Var, Var] = field(default_factory=dict)
    positions: Optional[tuple[int, ...]] = None


@dataclass
class ClauseSet:
    clauses: list[Clause]
    skolems: list[SkolemEntry]


@dataclass
class MesonTrace:
    """Clausified problem plus the extension/reduction steps of a search.
    `clauses` are the clauses searched, with their search literals,
    numbered as the steps cite them; `condensed` counts the clauses that
    lost literals and the literals merged; `dropped` counts the
    tautologies and the repeated clauses left out."""

    clauses: list[str]
    skolems: list[str]
    steps: list[str]
    depth_bound: int
    condensed: tuple[int, int]
    dropped: tuple[int, int]
    depth_used: Optional[int] = None

    def render(self) -> str:
        lines = ["clauses:"]
        lines += [f"  {i}: {c}" for i, c in enumerate(self.clauses)]
        shrunk, merged = self.condensed
        if shrunk:
            lines.append(f"condensed {shrunk} clauses ({merged} literals merged)")
        tautologies, repeats = self.dropped
        if tautologies or repeats:
            lines.append(
                f"dropped {tautologies + repeats} clauses: {tautologies} tautologies"
                f" (a literal and its negation), {repeats} repeats (an earlier"
                " clause's literal set)"
            )
        if self.skolems:
            lines.append("skolem terms:")
            lines += [f"  {s}" for s in self.skolems]
        lines.append(
            f"depth bound {self.depth_bound}"
            + (f", proof at depth {self.depth_used}" if self.depth_used else "")
        )
        lines.append("steps:")
        lines += [f"  {i}: {s}" for i, s in enumerate(self.steps)]
        return "\n".join(lines)


def _then(th: Optional[Theorem], rest: Optional[Theorem]) -> Optional[Theorem]:
    """|- a = c from th: |- a = b and rest: |- b = c, each None for
    "unchanged"; None when both are."""
    if th is None:
        return rest
    return th if rest is None else kernel.trans(th, rest)


class _ClauseForm:
    """Clause normal form in one walk, proof-producing: negation normal
    form by polarity (Harrison's `nnf`), with each node settled
    (`settle`) as it is built.  `norm(t, True)` is |- t = t+ and
    `norm(t, False)` is |- ~t = t-, each None when that side is already
    normal (`t` itself, or `~t` over an atom); `norm` takes `~a` at
    positive polarity as `a` at negative polarity.

    /\\, \\/ and the quantifiers are rebuilt by congruence (`_node`) from
    their operands' theorems.  Every other connective, and a negation over
    any connective, takes one lemma step (`_lemma`): the lemma keyed by
    its head and polarity, instantiated at its operands, then its right
    side normalized positively.  So `p <=> q` gives (p- \\/ q+) /\\
    (q- \\/ p+), and `~(p <=> q)` goes straight to (p+ \\/ q+) /\\
    (p- \\/ q-), with no negation to push through the positive form.  A
    negated quantifier's lemma leaves the redex `(\\y. b) x` under its new
    binder; the body is reduced by the primitive `beta` at the
    quantifier's own binder `y`, and `trans` meets the two by
    alpha-equivalence, so the result keeps `y`.

    `memo` maps each (subformula, polarity) pair met to its result, so
    each is normalized at most once, however often it occurs: an iff's
    operands are met at both polarities, and a chain of iffs shares
    them.  The memo, the quantifier lemmas' type instances and the
    rewriting conversions live as long as the instance: one meson or
    clausify call."""

    def __init__(self, lemmas: _NormLemmas):
        self.lemmas = lemmas.nnf
        or_left, or_right, and_left, and_right, self.skolem, over_right, over_left = (
            (rewr_conv(th), rhs(th)) for th in lemmas.pull
        )
        # per connective: pull a universal left operand, a right one, then
        # distribute over a conjunction on the right, on the left
        self.rules = {
            "or": (or_left, or_right, over_right, over_left),
            "and": (and_left, and_right, None, None),
        }
        self.typed: dict[tuple[str, HolType], Theorem] = {}
        self.memo: dict[tuple[Term, bool], Optional[Theorem]] = {}

    def __call__(self, t: Term) -> Theorem:
        """|- t = t+, by `refl` when `t` is normal."""
        th = self.norm(t, True)
        return kernel.refl(t) if th is None else th

    def norm(self, t: Term, positive: bool) -> Optional[Theorem]:
        if positive and is_neg(t):
            t, positive = t.rand, False
        key = (t, positive)
        got = self.memo.get(key, self)  # `self`: not met yet
        if got is self:
            got = self.memo[key] = self._positive(t) if positive else self._negative(t)
        return got

    def settle(self, t: Term) -> Optional[Theorem]:
        """|- t = t' for a node whose operands are normal, by the equation
        its heads select (`_rule`), then on the nodes of that equation's
        right side, children first; None when no equation fits.  A beta
        redex, which a quantifier equation leaves as `(\\y. b) x`, is
        contracted; `b` is normal, and `x` is a variable or the witness
        `@y. b`, which no equation's pattern matches, so the result is.
        The formulas are first-order (`_Symbols`): no other redex occurs."""
        if isinstance(t, Comb) and isinstance(t.rator, Abs):
            return beta_conv(t)
        rule = self._rule(t)
        if rule is None:
            return None
        conv, shape = rule
        th = conv(t)
        return _then(th, settle_nodes(shape, rhs(th), self.settle))

    def _rule(self, t: Term):
        """(conversion, right side) of the equation for the node `t`, or
        None: |- (?) P = P ((@) P) at an existential; at \\/ or /\\ the
        pull of a universal operand, the left one first; at \\/
        distribution over a conjunct, the right one first."""
        if is_exists(t):
            return self.skolem
        if not (is_conj(t) or is_disj(t)):
            return None
        left, right = t.rator.rand, t.rand
        pull_left, pull_right, over_right, over_left = self.rules[t.rator.rator.name]
        if is_forall(left):
            return pull_left
        if is_forall(right):
            return pull_right
        if is_conj(right):
            return over_right
        return over_left if is_conj(left) else None

    def _node(self, s: Term, lth: Optional[Theorem], rth: Optional[Theorem]):
        """|- op l r = u for s = op l r: the congruence from lth: |- l = l'
        and rth: |- r = r', each None for "unchanged", then op l' r'
        settled; None when nothing changed."""
        if lth is None:
            th = None if rth is None else kernel.mk_comb_rule(kernel.refl(s.rator), rth)
        else:
            th = kernel.mk_comb_rule(ap_term(s.rator.rator, lth), rth or kernel.refl(s.rand))
        return self._settled(th, s)

    def _settled(self, th: Optional[Theorem], t: Term) -> Optional[Theorem]:
        """th: |- a = u, or None when u is `t`, then the node u settled."""
        return _then(th, self.settle(t if th is None else rhs(th)))

    def _positive(self, t: Term) -> Optional[Theorem]:
        if is_conj(t) or is_disj(t):
            return self._node(t, self.norm(t.rator.rand, True), self.norm(t.rand, True))
        if is_forall(t) or is_exists(t):
            body = self.norm(t.rand.body, True)
            th = None if body is None else ap_term(t.rator, kernel.abs_rule(t.rand.bvar, body))
            return self._settled(th, t)
        return self._lemma(t, True)

    def _negative(self, t: Term) -> Optional[Theorem]:
        if is_forall(t) or is_exists(t):
            return self._quantifier(t)
        return self._lemma(t, False)

    def _lemma(self, t: Term, positive: bool) -> Optional[Theorem]:
        """|- t = t+ or |- ~t = t- for a connective `t`: the lemma for its
        head at that polarity, at p, q := its operands, then the lemma's
        right side normalized positively; None for an atom."""
        args = _connective_args(t)
        if args is None:
            return None
        head = t.rator if len(args) == 1 else t.rator.rator
        th = inst_rule(dict(zip((_P, _Q), args)), self.lemmas[head.name, positive])
        return _then(th, self.norm(rhs(th), True))

    def _quantifier(self, t: Term) -> Theorem:
        """|- ~(Q y. b) = Q' y. b-, through |- ~(Q P) = Q' x. ~(P x) at
        P := \\y. b, where Q' is the other quantifier; then settled."""
        lam = t.rand
        y = lam.bvar
        key = (t.rator.name, y.ty)
        lemma = self.typed.get(key)
        if lemma is None:
            lemma = self.typed[key] = inst_type_rule({"A": y.ty}, self.lemmas[key[0], False])
        th = inst_rule({Var("P", fn(y.ty, BOOL)): lam}, lemma)  # ... x. ~((\y. b) x)
        body = _then(ap_term(_NOT, kernel.beta(mk_comb(lam, y))), self.norm(lam.body, False))
        th = kernel.trans(th, ap_term(rhs(th).rator, kernel.abs_rule(y, body)))
        return _then(th, self.settle(rhs(th)))


class _Clausifier:
    """Turns an assumed formula into clause theorems: clause normal form
    in one walk (`_ClauseForm`), then strip the universal prefix.

    Each leaf clause is already normal, so it is returned as it is.  The
    walk leaves every subterm of the formula normal, witness bodies
    included.  Every equation's left side is linear and every application
    in it has a constant head (\\/, /\\, ! or ?).  Stripping only ever
    takes subterms (`conjunct1/2`) or substitutes a fresh variable
    (`spec`), which no equation's head matches and which makes no beta
    redex.

    One `_ClauseForm`, and so one memo, serves every formula of the
    clausifier: one meson or clausify call.  `skolems` maps each witness
    to its entry, in the order literals first held them.  `_Symbols`
    refuses `@` in a problem, so every @-term in a clause is a witness.
    """

    def __init__(self, logic: Logic, lemmas: _NormLemmas):
        self.logic = logic
        self.form = _ClauseForm(lemmas)
        self.skolems: dict[Term, SkolemEntry] = {}
        self._fresh = 0

    def fresh_var(self, base: Var, avoid: list[Term]) -> Var:
        self._fresh += 1
        return variant(avoid, Var(f"{base.name}_{self._fresh}", base.ty))

    def clauses(self, t: Term, source: str) -> list[Clause]:
        """The clauses of the formula `t`, assumed; their literals register
        the witnesses they hold."""
        out = []
        for th, universals in self.clause_theorems(assume(t)):
            lits = tuple(
                _lit_of(x, universals, self.skolems) for x in _flatten_disj(th.conclusion)
            )
            out.append(Clause(th, universals, lits, source))
        return out

    def clause_theorems(self, th: Theorem) -> list[tuple[Theorem, tuple[Var, ...]]]:
        """Normalize one assumed formula into clause theorems."""
        return self._decompose(conv_rule(self.form, th), ())

    def _decompose(self, th: Theorem, universals: tuple[Var, ...]):
        concl = th.conclusion
        if is_forall(concl):
            bv = concl.rand.bvar
            v = self.fresh_var(bv, [concl, *th.assumptions])
            return self._decompose(self.logic.spec(v, th), universals + (v,))
        if is_conj(concl):
            return self._decompose(self.logic.conjunct1(th), universals) + self._decompose(
                self.logic.conjunct2(th), universals
            )
        return [(th, universals)]


def _flatten_disj(t: Term) -> list[Term]:
    if is_disj(t):
        return _flatten_disj(t.rator.rand) + _flatten_disj(t.rand)
    return [t]


# FO representation: ("v", var_key) | ("f", symbol, args-tuple), a symbol
# being the head atom itself or ("sk", i) for the i-th Skolem function.


def _term_to_fo(t: Term, universals: tuple[Var, ...], skolems: dict[Term, SkolemEntry]):
    """`t` as an FO term over the clause's `universals`.  A witness is
    looked up in `skolems`, and registered there when first met, as a
    function of the universals free in it."""
    if isinstance(t, Var) and t in universals:
        return ("v", (t, 0))
    head, args = _strip_app(t)
    if isinstance(head, Const) and head.name == "@":
        sk = skolems.get(t)
        if sk is None:
            fvs = free_vars(t)
            params = tuple(v for v in universals if v in fvs)
            sk = skolems[t] = SkolemEntry(len(skolems), t, params)
        return ("f", ("sk", sk.index), tuple(("v", (v, 0)) for v in sk.params))
    return ("f", head, tuple(_term_to_fo(a, universals, skolems) for a in args))


def _lit_of(t: Term, universals, skolems):
    if is_neg(t):
        return (False, _term_to_fo(t.rand, universals, skolems))
    return (True, _term_to_fo(t, universals, skolems))


def _fo_rename(fo, copy):
    tag = fo[0]
    if tag == "v":
        var, _ = fo[1]
        return ("v", (var, copy))
    return ("f", fo[1], tuple(_fo_rename(a, copy) for a in fo[2]))


def _walk(fo, theta):
    while fo[0] == "v":
        nxt = theta.get(fo[1])
        if nxt is None:
            return fo
        fo = nxt
    return fo


def _occurs(key, fo, theta):
    fo = _walk(fo, theta)
    if fo[0] == "v":
        return fo[1] == key
    return any(_occurs(key, a, theta) for a in fo[2])


def _unify(a, b, theta):
    """Returns an extended substitution dict or None."""
    a = _walk(a, theta)
    b = _walk(b, theta)
    if a == b:
        return theta
    if a[0] == "v":
        if _occurs(a[1], b, theta):
            return None
        out = dict(theta)
        out[a[1]] = b
        return out
    if b[0] == "v":
        if _occurs(b[1], a, theta):
            return None
        out = dict(theta)
        out[b[1]] = a
        return out
    if a[1] != b[1] or len(a[2]) != len(b[2]):
        return None
    for x, y in zip(a[2], b[2]):
        theta = _unify(x, y, theta)
        if theta is None:
            return None
    return theta


def clausify(logic: Logic, p: Term) -> ClauseSet:
    """Clausify an assumed formula: NNF by polarity, Skolemization via
    choice where each existential stands, universal pulls, and
    distribution, all proof-producing.  The clause theorems carry `p` as
    their only assumption."""
    _Symbols((p,))
    cl = _Clausifier(logic, _NormLemmas.get(logic))
    clauses = cl.clauses(p, "formula")
    return ClauseSet(clauses=clauses, skolems=list(cl.skolems.values()))


# ---------------------------------------------------------------------------
# Model elimination


class _Search:
    """Model elimination over one clause list: goals are refuted by
    reduction against a complementary ancestor on the path, or by
    extension with a fresh copy of a clause that has a complementary
    literal.

    Extension tries a goal only against the clause literals that can
    unify with it.  Those are indexed once, by polarity, predicate
    symbol and arity, keeping clause and literal order in each bucket.
    A quantified variable is an individual, so no atom is a variable.
    Literals left out would fail `_unify` without consuming a copy
    number, so the copies, the solutions and their order are those of
    trying every literal.
    """

    def __init__(self, clauses: list[Clause]):
        self.clauses = clauses
        self.copies = 0
        # (polarity, predicate symbol, arity) -> (clause index, literal
        # index, atom, the clause's other literals), in clause and literal order
        self.buckets: dict[tuple, list] = {}
        for ci, clause in enumerate(clauses):
            for li, (lpos, latom) in enumerate(clause.lits):
                self.buckets.setdefault((lpos, latom[1], len(latom[2])), []).append(
                    (ci, li, latom, clause.lits[:li] + clause.lits[li + 1 :])
                )

    def start(self, clause: Clause) -> list:
        """The goals of a fresh search from `clause`, as copy 1."""
        self.copies = 1
        return [(p, _fo_rename(a, 1)) for p, a in clause.lits]

    def prove_goals(self, goals, path, depth, theta):
        """Refute every goal literal; yields extended substitutions."""
        if not goals:
            yield theta, []
            return
        first, rest = goals[0], goals[1:]
        for theta2, node in self.prove(first, path, depth, theta):
            for theta3, nodes in self.prove_goals(rest, path, depth, theta2):
                yield theta3, [node] + nodes

    def prove(self, goal, path, depth, theta):
        pos, atom = goal
        # reduction: the complement of an ancestor; one with another
        # predicate symbol or arity would fail `_unify` and use no copy
        for i, (ppos, patom) in enumerate(path):
            if ppos == pos or patom[1] != atom[1] or len(patom[2]) != len(atom[2]):
                continue
            theta2 = _unify(atom, patom, theta)
            if theta2 is not None:
                yield theta2, ("red", goal, i)
        if depth <= 0:
            return
        # extension against every complementary clause literal that can unify
        key = (not pos, atom[1], len(atom[2]))
        for ci, li, latom, others in self.buckets.get(key, ()):
            copy = self.copies + 1
            renamed = _fo_rename(latom, copy)
            theta2 = _unify(atom, renamed, theta)
            if theta2 is None:
                continue
            self.copies = copy
            new_goals = [(p2, _fo_rename(a2, copy)) for p2, a2 in others]
            new_path = path + [goal]
            for theta3, nodes in self.prove_goals(
                new_goals, new_path, depth - 1, theta2
            ):
                yield theta3, ("ext", goal, ci, li, copy, nodes)


# -- reconstruction


class _Rebuild:
    def __init__(self, logic: Logic, clauses: list[Clause], skolems, theta):
        self.logic = logic
        self.clauses = clauses
        self.skolems = skolems
        self.theta = theta
        self.residuals: dict = {}
        # (skolem index, *argument terms) -> the instantiated witness, so
        # each Skolem instance is built once and shared by every literal
        # that holds it
        self.skolem_terms: dict = {}

    def hol_of(self, fo) -> Term:
        fo = _walk(fo, self.theta)
        if fo[0] == "v":
            key = fo[1]
            got = self.residuals.get(key)
            if got is None:
                base = key[0]
                got = Var(f"{base.name}_r{len(self.residuals)}", base.ty)
                self.residuals[key] = got
            return got
        sym_ = fo[1]
        args = [self.hol_of(a) for a in fo[2]]
        if isinstance(sym_, tuple):  # ("sk", i)
            key = (sym_[1], *args)
            got = self.skolem_terms.get(key)
            if got is None:
                entry = self.skolems[sym_[1]]
                got = vsubst(dict(zip(entry.params, args)), entry.witness)
                self.skolem_terms[key] = got
            return got
        out: Term = sym_
        for a in args:
            out = mk_comb(out, a)
        return out

    def lit_term(self, lit) -> Term:
        pos, atom = lit
        t = self.hol_of(atom)
        return t if pos else mk_neg(t)

    def _clash(self, a: Term, b: Term) -> Theorem:
        """{a, b} |- F for complementary literals, in either order."""
        return self.logic.clash(b if is_neg(a) else a)

    def refute(self, node, path_terms) -> Theorem:
        """{goal literal, ancestors, clause instances} |- F for one node."""
        if node[0] == "red":
            _, goal, i = node
            return self._clash(self.lit_term(goal), path_terms[i])
        _, goal, ci, li, copy, children = node
        return self.close(self.clauses[ci], copy, children, path_terms, goal, li)

    def close(self, clause, copy, children, path_terms, goal=None, li=None) -> Theorem:
        """{clause's assumptions, goal, path} |- F for `copy` of the clause:
        search literal `li` clashes with `goal`, and `children` refute the
        others in order, below `path_terms` plus the goal.  Meson's start
        clause has no goal."""
        merge = clause.merge
        mapping = {v: self.hol_of(("v", (merge.get(v, v), copy))) for v in clause.universals}
        inst = inst_rule(mapping, clause.thm)
        if goal is not None:
            goal_term = self.lit_term(goal)
            path_terms = path_terms + [goal_term]
        disjuncts = _flatten_disj(inst.conclusion)
        positions = clause.positions or range(len(disjuncts))
        terms = [None] * len(clause.lits)  # each search literal's instance
        for d, i in zip(disjuncts, positions):
            terms[i] = d
        nodes = list(children)
        if li is not None:
            nodes.insert(li, None)
        # Alpha-equal literals of the instance all take the refuter of the
        # last of them, which alone is built.
        last = [
            next(k for k in reversed(range(i, len(terms))) if alpha_equiv(t, terms[k]))
            for i, t in enumerate(terms)
        ]
        refuters = {
            k: self._clash(terms[k], goal_term) if k == li else self.refute(nodes[k], path_terms)
            for k in sorted(set(last))
        }
        if len(disjuncts) == 1:
            return prove_hyp(inst, refuters[0])
        # Each literal L, refuted by {L} u G_L |- F, gives G_L \ {L} |- L = F.
        # Cut d in with prove_hyp rather than rewrite inst with d = F: a
        # refuter's assumption alpha-equal to d is then discharged by inst.
        eqs = {k: (False, self.logic.eqf_intro(terms[k], th)) for k, th in refuters.items()}
        leaves = {id(d): eqs[last[i]] for d, i in zip(disjuncts, positions)}
        d = inst.conclusion
        _, d_false = _eval_formula(self.logic, d, leaves)  # G |- d = F
        return prove_hyp(inst, eq_mp(assume(d), d_false))


def _search_literal_terms(clause: Clause) -> list[Term]:
    """One disjunct of the clause theorem for each search literal, merged."""
    disjuncts = _flatten_disj(clause.thm.conclusion)
    if clause.positions is None:
        return disjuncts
    first: dict[int, Term] = {}
    for d, i in zip(disjuncts, clause.positions):
        first.setdefault(i, d)
    return [vsubst(clause.merge, first[i]) for i in range(len(clause.lits))]


def _describe_steps(node, out: list[str], rebuild: _Rebuild, indent=0):
    pad = "  " * indent
    if node[0] == "red":
        _, goal, i = node
        out.append(f"{pad}reduce  {print_term(rebuild.lit_term(goal))} with ancestor {i}")
        return
    _, goal, ci, li, copy, children = node
    out.append(
        f"{pad}extend  {print_term(rebuild.lit_term(goal))} by clause {ci} literal {li}"
    )
    for ch in children:
        _describe_steps(ch, out, rebuild, indent + 1)


def _match_vars(pat, target, sigma):
    """`sigma`, a map from variable keys to FO variables, extended so that
    it renames `pat` to `target`; None when no such renaming exists."""
    if pat[0] == "v":
        got = sigma.get(pat[1])
        if got is not None:
            return sigma if got == target else None
        return {**sigma, pat[1]: target} if target[0] == "v" else None
    if target[0] != "f" or pat[1] != target[1] or len(pat[2]) != len(target[2]):
        return None
    for a, b in zip(pat[2], target[2]):
        sigma = _match_vars(a, b, sigma)
        if sigma is None:
            return None
    return sigma


def _fit(lits, targets, sigma):
    """`sigma` extended so that it renames each of `lits` to one of
    `targets`, by backtracking; None when none does."""
    if not lits:
        return sigma
    (pos, atom), rest = lits[0], lits[1:]
    for tpos, tatom in targets:
        if tpos == pos:
            got = _match_vars(atom, tatom, sigma)
            if got is not None and (got := _fit(rest, targets, got)) is not None:
                return got
    return None


def _shrinking_renaming(lits):
    """A renaming of variables onto variables that maps the distinct
    literals `lits` into themselves and onto fewer, or None.  A power of
    such a renaming fixes its image, so it sends some literal to another
    that it fixes: trying each such pair, and fitting the other literals,
    finds one whenever one exists, and never a swap that only permutes
    the set."""
    for i, (pos, atom) in enumerate(lits):
        for j, (pos2, atom2) in enumerate(lits):
            if i == j or pos != pos2:
                continue
            # atom2 stays put and atom goes to it
            sigma = _match_vars(atom, atom2, _match_vars(atom2, atom2, {}))
            if sigma is not None:
                sigma = _fit([l for k, l in enumerate(lits) if k not in (i, j)], lits, sigma)
                if sigma is not None:
                    return sigma
    return None


def _fo_subst(fo, sigma):
    if fo[0] == "v":
        return sigma.get(fo[1], fo)
    return ("f", fo[1], tuple(_fo_subst(a, sigma) for a in fo[2]))


def _condensed(clause: Clause) -> Clause:
    """The clause searching its condensation: renamings of universals onto
    universals that shrink its literal set are applied until none does,
    and exact repeats dropped (Joyner 1976).  The condensation is an
    instance of the clause and a subset of it, so the two are equivalent.
    The theorem stays as it is; `close` applies the merge."""
    lits = list(dict.fromkeys(clause.lits))
    sigma: dict = {}
    while (step := _shrinking_renaming(lits)) is not None:
        sigma = {**step, **{k: _fo_subst(v, step) for k, v in sigma.items()}}
        lits = list(dict.fromkeys((pos, _fo_subst(atom, step)) for pos, atom in lits))
    if len(lits) == len(clause.lits):
        return clause
    index = {lit: i for i, lit in enumerate(lits)}
    return replace(
        clause,
        lits=tuple(lits),
        merge={k[0]: v[1][0] for k, v in sigma.items() if k != v[1]},
        positions=tuple(index[pos, _fo_subst(atom, sigma)] for pos, atom in clause.lits),
    )


def _drop_redundant(clauses: list[Clause], first_goal: int):
    """(kept clauses, indices of the start clauses among them, (tautologies,
    repeats) dropped): each clause whose literal set holds a literal and
    its negation, or is an earlier clause's literal set, is left out, and
    the clauses from `first_goal` on, those of the negated goal, are the
    start clauses.  A goal clause that repeats an axiom clause makes that
    clause a start clause, so every search the dropped one began is still
    made.

    The clause theorems stay as they are; the filter touches only the
    search's list, and reconstruction cites only clauses the search used.
    A tautology holds in every model and a repeat adds nothing, so an
    unsatisfiable set stays unsatisfiable."""
    kept: list[Clause] = []
    starts: list[int] = []
    first_seen: dict[frozenset, int] = {}
    tautologies = repeats = 0
    for i, clause in enumerate(clauses):
        lits = frozenset(clause.lits)
        if any((not pos, atom) in lits for pos, atom in lits):
            tautologies += 1
            continue
        at = first_seen.get(lits)
        if at is None:
            at = first_seen[lits] = len(kept)
            kept.append(clause)
        else:
            repeats += 1
        if i >= first_goal and at not in starts:
            starts.append(at)
    return kept, starts, (tautologies, repeats)


def meson(
    logic: Logic,
    problem: FirstOrderProblem,
    depth_bound: int = 20,
    want_trace: bool = False,
):
    """Prove `axioms |- goal` by refuting axioms + ~goal with bounded,
    iteratively deepened model elimination, then replaying the closed
    tableau through the kernel.  Raises DepthExhausted on failure."""
    cl = _Clausifier(logic, _NormLemmas.get(logic))
    clauses: list[Clause] = []
    for i, ax in enumerate(problem.axioms):
        clauses += cl.clauses(ax, f"axiom {i}")
    n_axiom_clauses = len(clauses)
    clauses += cl.clauses(mk_neg(problem.goal), "negated goal")
    clauses = [_condensed(c) for c in clauses]
    clauses, goal_clauses, dropped = _drop_redundant(clauses, n_axiom_clauses)
    skolems = list(cl.skolems.values())
    # The search takes T and F for opaque atoms: where one occurs, |- T or
    # |- ~F joins as a unit clause, after the others so none is renumbered.
    atoms = {atom for c in clauses for _, atom in c.lits}
    for const in (TRUE, FALSE):
        if _term_to_fo(const, (), {}) in atoms:
            th = logic.TRUTH if const == TRUE else logic.eqt_elim(
                logic.tables[("not", (False,))]
            )
            clauses.append(Clause(th, (), (_lit_of(th.conclusion, (), {}),), "truth"))

    def make_trace(depth_used: Optional[int] = None) -> MesonTrace:
        shrunk = [c for c in clauses if c.positions is not None]
        return MesonTrace(
            clauses=[
                f"{c.source}: " + " \\/ ".join(map(print_term, _search_literal_terms(c)))
                for c in clauses
            ],
            skolems=[print_term(s.witness) for s in skolems],
            steps=[],
            depth_bound=depth_bound,
            condensed=(len(shrunk), sum(len(c.positions) - len(c.lits) for c in shrunk)),
            dropped=dropped,
            depth_used=depth_used,
        )

    search = _Search(clauses)
    for depth in range(1, depth_bound + 1):
        for start_idx in goal_clauses:
            start = clauses[start_idx]
            goals = search.start(start)
            for theta, nodes in search.prove_goals(goals, [], depth, {}):
                rebuild = _Rebuild(logic, clauses, skolems, theta)
                contradiction = rebuild.close(start, 1, nodes, [])
                result = logic.ccontr(problem.goal, contradiction)
                if not want_trace:
                    return result
                trace = make_trace(depth)
                for node in nodes:
                    _describe_steps(node, trace.steps, rebuild)
                return result, trace
    raise DepthExhausted(depth_bound, make_trace())


# ---------------------------------------------------------------------------
# Equality axioms (congruence closure is out of scope; callers add these)


def add_equality_axioms(problem: FirstOrderProblem) -> FirstOrderProblem:
    """Append reflexivity/symmetry/transitivity for every type equality is
    used at, then a congruence scheme for every function and predicate
    symbol, when the problem uses equality at all.  A congruence states
    equality at each argument type, so those types count as used.  An
    axiom the problem already has, up to bound-variable names, is not
    appended again."""
    symbols = _Symbols((*problem.axioms, problem.goal))
    if not symbols.eq_types:
        return problem

    congruences: list[Term] = []
    eq_types = set(symbols.eq_types)
    for table, conclude in ((symbols.functions, mk_eq), (symbols.predicates, mk_imp)):
        for head, arity in table.items():
            doms, ty = [], head.ty
            for _ in range(arity):
                doms.append(ty.args[0])
                ty = ty.args[1]
            eq_types.update(doms)
            xs = [Var(f"cx{i}", d) for i, d in enumerate(doms)]
            ys = [Var(f"cy{i}", d) for i, d in enumerate(doms)]
            eqs = reduce(mk_conj, map(mk_eq, xs, ys))
            concl = conclude(reduce(mk_comb, xs, head), reduce(mk_comb, ys, head))
            congruences.append(_list_forall(xs + ys, mk_imp(eqs, concl)))

    extra: list[Term] = []
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
    extra += congruences
    new = (ax for ax in extra if not any(alpha_equiv(ax, a) for a in problem.axioms))
    return FirstOrderProblem(problem.axioms + tuple(new), problem.goal)


def _list_forall(vs: list[Var], body: Term) -> Term:
    """!v1 ... vn. body"""
    for v in reversed(vs):
        body = mk_forall(v, body)
    return body
