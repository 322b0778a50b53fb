import gc
import hashlib
import itertools
import random
import time

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microhol import auto, bootstrap, kernel, syntax
from microhol.auto import (
    Clause,
    DepthExhausted,
    FirstOrderProblem,
    NotATautology,
    NotPropositional,
    OutOfFragment,
    SkolemEntry,
    _ClauseForm,
    _Clausifier,
    _NormLemmas,
    _Rebuild,
    _Search,
    _condensed,
    _drop_redundant,
    _flatten_disj,
    _strip_app,
    add_equality_axioms,
    clausify,
    meson,
    taut,
)
from microhol.bootstrap import (
    FALSE,
    TRUE,
    is_conj,
    is_disj,
    is_exists,
    is_forall,
    is_imp,
    is_neg,
    lhs,
    rhs,
    mk_conj,
    mk_disj,
    mk_exists,
    mk_forall,
    mk_imp,
    mk_neg,
)
from microhol.kernel import Theorem
from microhol.semantics import (
    TRUE_ELEM,
    Model,
    Valuation,
    eval_term,
    is_valid,
    theorem_sequent,
)
from microhol.syntax import (
    BOOL,
    IND,
    Abs,
    Comb,
    Const,
    TyVar,
    Var,
    alpha_equiv,
    fn,
    is_eq,
    mk_abs,
    mk_comb,
    mk_eq,
)
from microhol.surface import parse_term, print_sequent, print_term

from .oracles import (
    UnindexedSearch,
    redecomposing_clausify,
    reference_equality_axioms,
    reference_nnf,
    reference_rewrite_conv,
)
from .problems import PROBLEMS

p = Var("p", BOOL)
q = Var("q", BOOL)
r = Var("r", BOOL)
x = Var("x", IND)
y = Var("y", IND)

# kernel inferences meson makes on paper-displayed-formula once the
# clausifier lemmas exist; 2,734 when refutations were
# replayed by disj_cases and ccontr went through excluded middle, 1,183
# when the clausifier rewrote to a fixed point, 876 when existentials
# were pulled to the front before they were Skolemized, 679 when
# negation normal form was one bottom-up rewriting pass, 584 when a
# second bottom-up pass over the whole normal form Skolemized, pulled
# and distributed, and 571 when the search took its start clause
# ~P x1 \/ Q x2 \/ ~P x3 \/ Q x4 uncondensed and so refuted each literal
# twice (28 steps, not 8)
PAPER_FORMULA_INFERENCES = 385

# sha256 of `_suite_transcript`; it was
# 82afe54d458fbcd534cb2f77897b0fc967691ae016b7d02dd76122e04c6fc321 when
# existentials were pulled to the front before they were Skolemized, and
# 12779859e18655c3068ac174d4002725c39b7b0bc22944fc1389748836712070 when
# negation normal form was one bottom-up rewriting pass and no clause was
# dropped before the search: the clause text differs, propositional-
# contrapose drops one repeated clause, and paper-displayed-formula proves
# at its recorded depth 3 again, not 2, with every conclusion and
# assumption the same; and
# 6bdef7088824ec608489c7422e98f44919330b09d47514453ed795cf40e62f29 before
# clauses were condensed: the clause lines list the search literals, a
# `condensed` line follows them in seven problems, and the steps that
# refuted a repeated literal again are gone, with every conclusion,
# assumption and depth the same
SUITE_TRANSCRIPT_SHA256 = (
    "0e31eb9118d9eed48ca95af610a7da43eba23379a34e350090b08e63198b6821"
)


class TestTaut:
    def test_excluded_middle(self, logic):
        th = taut(logic, mk_disj(p, mk_neg(p)))
        assert isinstance(th, Theorem)
        assert th.assumptions == ()

    def test_peirce(self, logic):
        peirce = mk_imp(mk_imp(mk_imp(p, q), p), p)
        th = taut(logic, peirce)
        assert th.conclusion == peirce

    def test_rejects_with_falsifying_assignment(self, logic):
        goal = mk_conj(p, q)
        with pytest.raises(NotATautology) as err:
            taut(logic, goal)
        asg = err.value.assignment
        # the assignment genuinely falsifies p /\ q
        assert not (asg["p"] and asg["q"])

    def test_not_propositional(self, logic):
        with pytest.raises(NotPropositional):
            taut(logic, mk_eq(x, x))
        with pytest.raises(NotPropositional):
            taut(logic, mk_forall(p, p))

    def test_constants(self, logic):
        th = taut(logic, mk_imp(FALSE, p))
        assert th.assumptions == ()

    def _assignments(self, names):
        for bits in itertools.product((False, True), repeat=len(names)):
            yield dict(zip(names, bits))

    def _random_prop(self, rng, vars_, depth):
        if depth == 0 or rng.random() < 0.25:
            roll = rng.random()
            if roll < 0.8:
                return rng.choice(vars_)
            return TRUE if roll < 0.9 else FALSE
        op = rng.randrange(5)
        if op == 0:
            return mk_neg(self._random_prop(rng, vars_, depth - 1))
        l = self._random_prop(rng, vars_, depth - 1)
        rr = self._random_prop(rng, vars_, depth - 1)
        return (mk_conj, mk_disj, mk_imp, mk_eq)[op - 1](l, rr)

    def test_cross_check_against_semantics_exhaustive_small(self, logic):
        # every formula over two variables at depth <= 2: taut succeeds iff
        # exhaustive evaluation is all-true
        vars_ = [p, q]
        atoms = vars_ + [TRUE, FALSE]
        depth1 = list(atoms)
        depth1 += [mk_neg(a) for a in atoms]
        for mk in (mk_conj, mk_disj, mk_imp, mk_eq):
            depth1 += [mk(a, b) for a in atoms for b in atoms]
        sample = depth1
        for formula in sample:
            expected = all(
                eval_term(
                    formula,
                    Valuation(Model(ind_size=1), {}, {v: int(asg[v.name]) for v in vars_}),
                    logic.theory,
                )
                == TRUE_ELEM
                for asg in self._assignments(["p", "q"])
            )
            if expected:
                th = taut(logic, formula)
                assert alpha_equiv(th.conclusion, formula)
            else:
                with pytest.raises(NotATautology):
                    taut(logic, formula)

    def test_cross_check_random_depth5(self, logic):
        rng = random.Random(20)
        vars_ = [p, q, r]
        for _ in range(40):
            formula = self._random_prop(rng, vars_, 5)
            expected = all(
                eval_term(
                    formula,
                    Valuation(
                        Model(ind_size=1),
                        {},
                        {v: int(asg[v.name]) for v in vars_},
                    ),
                    logic.theory,
                )
                == TRUE_ELEM
                for asg in self._assignments(["p", "q", "r"])
            )
            if expected:
                taut(logic, formula)
            else:
                with pytest.raises(NotATautology):
                    taut(logic, formula)


def _check_equisatisfiable(logic, formula, tables):
    """Brute force over a 2-element domain: for every interpretation of
    the symbols (each with its number of tables), `formula` holds iff
    every skolemized clause holds for all values of its universals."""
    cs = clausify(logic, formula)
    model = Model(ind_size=2)
    for choice in itertools.product(*map(range, tables.values())):
        symbols = dict(zip(tables, choice))
        orig = eval_term(formula, Valuation(model, {}, symbols), logic.theory)
        clauses_all = all(
            eval_term(
                clause.thm.conclusion,
                Valuation(model, {}, {**symbols, **dict(zip(clause.universals, elems))}),
                logic.theory,
            )
            == TRUE_ELEM
            for clause in cs.clauses
            for elems in itertools.product(range(2), repeat=len(clause.universals))
        )
        assert (orig == TRUE_ELEM) == clauses_all, symbols
    return cs


class TestClausify:
    def test_negated_disjunction(self, logic):
        cs = clausify(logic, mk_neg(mk_disj(p, q)))
        concls = sorted(
            tuple(str(c.thm.conclusion) for c in cs.clauses)
        )
        assert len(cs.clauses) == 2
        got = {c.thm.conclusion for c in cs.clauses}
        assert got == {mk_neg(p), mk_neg(q)}

    def test_exists_skolemizes(self, logic):
        P = Var("P", fn(IND, BOOL))
        cs = clausify(logic, mk_exists(x, mk_comb(P, x)))
        assert len(cs.clauses) == 1
        assert len(cs.skolems) == 1
        # the clause applies P to the epsilon witness
        concl = cs.clauses[0].thm.conclusion
        assert concl.rator == P
        assert concl.rand == cs.skolems[0].witness

    def test_skolem_function_parameters(self, logic):
        R = Var("R", fn(IND, fn(IND, BOOL)))
        cs = clausify(logic, mk_forall(x, mk_exists(y, mk_comb(mk_comb(R, x), y))))
        assert len(cs.skolems) == 1
        sk = cs.skolems[0]
        assert len(sk.params) == 1  # the universal x
        assert len(cs.clauses[0].universals) == 1

    def test_witness_holds_its_own_subformula(self, logic):
        # each existential is Skolemized where it stands: its witness is
        # over its own body, with only the universals whose scope holds it
        P = Var("P", fn(IND, BOOL))
        Q = Var("Q", fn(IND, BOOL))
        R = Var("R", fn(IND, fn(IND, BOOL)))
        z = Var("z", IND)
        sel = Const("@", fn(fn(IND, BOOL), IND))
        cs = clausify(logic, mk_disj(mk_forall(x, mk_comb(P, x)), mk_exists(y, mk_comb(Q, y))))
        assert [(sk.witness, sk.params) for sk in cs.skolems] == [
            (mk_comb(sel, mk_abs(y, mk_comb(Q, y))), ())
        ]
        formula = mk_forall(
            x,
            mk_conj(mk_exists(y, mk_comb(mk_comb(R, x), y)), mk_exists(z, mk_comb(Q, z))),
        )
        cs = clausify(logic, formula)
        (xk,) = cs.clauses[0].universals
        assert [(sk.witness, sk.params) for sk in cs.skolems] == [
            (mk_comb(sel, mk_abs(y, mk_comb(mk_comb(R, xk), y))), (xk,)),
            (mk_comb(sel, mk_abs(z, mk_comb(Q, z))), ()),
        ]

    def test_skolem_equisatisfiable_on_two_elements(self, logic):
        R = Var("R", fn(IND, fn(IND, BOOL)))
        formula = mk_forall(x, mk_exists(y, mk_comb(mk_comb(R, x), y)))
        _check_equisatisfiable(logic, formula, {R: 16})  # (2^2)^2 tables for R

    def test_skolem_equisatisfiable_at_two_scopes(self, logic):
        # one existential outside every universal, one under a universal
        R = Var("R", fn(IND, fn(IND, BOOL)))
        P = Var("P", fn(IND, BOOL))
        z = Var("z", IND)
        formula = mk_disj(
            mk_exists(z, mk_conj(mk_comb(P, z), mk_neg(mk_comb(mk_comb(R, z), z)))),
            mk_forall(x, mk_exists(y, mk_comb(mk_comb(R, x), y))),
        )
        cs = _check_equisatisfiable(logic, formula, {R: 16, P: 4})
        assert [sk.params for sk in cs.skolems] == [(), cs.clauses[0].universals]

    def test_clause_theorems_assume_original(self, logic):
        formula = mk_neg(mk_disj(p, q))
        cs = clausify(logic, formula)
        for c in cs.clauses:
            assert c.thm.assumptions == (formula,)

    def test_out_of_fragment(self, logic):
        g = Var("g", fn(IND, IND))
        with pytest.raises(OutOfFragment):
            clausify(logic, mk_forall(g, mk_eq(g, g)))
        with pytest.raises(OutOfFragment):
            clausify(logic, mk_forall(p, p))
        with pytest.raises(OutOfFragment, match="problem parts must be boolean"):
            clausify(logic, x)


class TestMeson:
    def test_syllogism_sequent_exact(self, logic):
        P = Var("P", fn(IND, BOOL))
        Q = Var("Q", fn(IND, BOOL))
        a = Var("a", IND)
        axioms = (
            mk_forall(x, mk_imp(mk_comb(P, x), mk_comb(Q, x))),
            mk_comb(P, a),
        )
        goal = mk_comb(Q, a)
        th, trace = meson(
            logic, FirstOrderProblem(axioms, goal), depth_bound=5, want_trace=True
        )
        assert isinstance(th, Theorem)
        assert alpha_equiv(th.conclusion, goal)
        assert {str(h) for h in th.assumptions} == {str(t) for t in axioms}
        assert trace.depth_used <= 2
        assert trace.steps

    def test_paper_formula(self, logic):
        P = Var("P", fn(IND, BOOL))
        Q = Var("Q", fn(IND, BOOL))
        formula = mk_eq(
            mk_imp(mk_exists(x, mk_comb(P, x)), mk_forall(y, mk_comb(Q, y))),
            mk_forall(x, mk_forall(y, mk_imp(mk_comb(P, x), mk_comb(Q, y)))),
        )
        th = meson(logic, FirstOrderProblem((), formula), depth_bound=20)
        assert th.assumptions == ()
        assert alpha_equiv(th.conclusion, formula)

    def test_unprovable_exhausts(self, logic):
        P = Var("P", fn(IND, BOOL))
        with pytest.raises(DepthExhausted) as err:
            meson(logic, FirstOrderProblem((), mk_comb(P, Var("a", IND))), depth_bound=3)
        assert err.value.depth == 3
        assert err.value.trace.clauses

    def test_results_model_valid(self, logic):
        # a meson result is finite-model valid (domain sizes 1..3)
        name, prob, depth = PROBLEMS[0]
        th = meson(logic, prob, depth_bound=depth)
        for n in (1, 2, 3):
            verdict = is_valid(
                theorem_sequent(th), Model(ind_size=n), theory=logic.theory
            )
            assert verdict.valid

    @pytest.mark.parametrize("name,prob,depth", PROBLEMS[:8],
                             ids=[n for n, _, _ in PROBLEMS[:8]])
    def test_suite_subset_fast(self, logic, name, prob, depth):
        th = meson(logic, prob, depth_bound=depth)
        assert isinstance(th, Theorem)

    def test_minimal_depth_is_minimal(self, logic):
        # each recorded depth above 1 is minimal: it proves, and one less
        # exhausts
        deep = [(name, prob, depth) for name, prob, depth in PROBLEMS if depth > 1]
        for name, prob, depth in deep:
            with pytest.raises(DepthExhausted):
                meson(logic, prob, depth_bound=depth - 1)
            _, trace = meson(logic, prob, depth_bound=depth, want_trace=True)
            assert trace.depth_used == depth, name
        assert len(deep) == 12

    def test_pelletier_12_within_a_second(self, logic):
        # ((p <=> q) <=> r) <=> (p <=> (q <=> r)), each letter an atom: 441
        # clauses when negation normal form was one bottom-up pass, and
        # depth 1 alone took 3.5 s
        a = Var("a", IND)
        pa, qa, ra = (mk_comb(Var(n, fn(IND, BOOL)), a) for n in "PQR")
        goal = mk_eq(mk_eq(mk_eq(pa, qa), ra), mk_eq(pa, mk_eq(qa, ra)))
        start = time.perf_counter()
        th, trace = meson(logic, FirstOrderProblem((), goal), want_trace=True)
        assert time.perf_counter() - start < 1.0
        assert th.assumptions == () and alpha_equiv(th.conclusion, goal)
        assert trace.depth_used == 3
        assert (len(trace.clauses), trace.dropped) == (8, (24, 0))
        assert "dropped 24 clauses: 24 tautologies" in trace.render()
        # distribution wrote each literal of a searched clause twice
        for line in trace.clauses:
            lits = line.split(": ", 1)[1].split(" \\/ ")
            assert len(set(lits)) == len(lits), line

    def test_trace_steps_reference_clauses(self, logic):
        name, prob, depth = PROBLEMS[0]
        th, trace = meson(logic, prob, depth_bound=depth, want_trace=True)
        assert trace.depth_used == depth
        assert all("extend" in s or "reduce" in s for s in trace.steps)

    def test_equality_axioms_helper(self, logic):
        a = Var("a", IND)
        b = Var("b", IND)
        P = Var("P", fn(IND, BOOL))
        prob = FirstOrderProblem((mk_eq(a, b), mk_comb(P, a)), mk_comb(P, b))
        with_eq = add_equality_axioms(prob)
        assert len(with_eq.axioms) > 2
        th = meson(logic, with_eq, depth_bound=6)
        assert alpha_equiv(th.conclusion, mk_comb(P, b))

    def test_equality_axioms_idempotent(self):
        # the suite's equality problems already carry their axioms, and a
        # hand-written axiom with other bound names counts as present
        for name, prob, _ in PROBLEMS:
            assert add_equality_axioms(prob) == prob, name
        a, b, u = Var("a", IND), Var("b", IND), Var("u", IND)
        P = Var("P", fn(IND, BOOL))
        refl = mk_forall(u, mk_eq(u, u))
        prob = FirstOrderProblem((refl, mk_eq(a, b), mk_comb(P, a)), mk_comb(P, b))
        once = add_equality_axioms(prob)
        assert add_equality_axioms(once) == once
        extra = once.axioms[len(prob.axioms) :]
        assert len(extra) == 3 and not any(alpha_equiv(ax, refl) for ax in extra)
        # a congruence for g : ind -> A -> ind states equality at A, which
        # then gets its reflexivity, symmetry and transitivity at once
        rng = random.Random(27)
        checked = 0
        for _ in range(400):
            axioms, goal = _random_problem(rng)
            try:
                once = add_equality_axioms(FirstOrderProblem(axioms, goal))
            except OutOfFragment:
                continue
            assert add_equality_axioms(once) == once, [print_term(t) for t in (*axioms, goal)]
            checked += 1
        assert checked > 300, checked

    def test_equality_axioms_in_type_order(self):
        # The reflexivity axioms follow the order of `Var("_", ty)`
        # encodings: type variables before constructors, shorter names
        # first (so B before AA, unlike a plain string sort).
        types = (IND, TyVar("B"), TyVar("AA"))
        eqs = tuple(mk_eq(Var("a", ty), Var("b", ty)) for ty in types)
        prob = FirstOrderProblem(eqs[1:], eqs[0])
        extra = add_equality_axioms(prob).axioms[len(prob.axioms) :]
        refl_types = [
            ax.rand.bvar.ty
            for ax in extra
            if is_forall(ax) and ax.rand.body == mk_eq(ax.rand.bvar, ax.rand.bvar)
        ]
        want = sorted(types, key=lambda ty: syntax.term_order_key(Var("_", ty)))
        assert refl_types == want == [TyVar("B"), TyVar("AA"), IND]

    def test_fragment_rejected(self, logic):
        g = Var("g", fn(IND, IND))
        with pytest.raises(OutOfFragment):
            FirstOrderProblem((), mk_forall(g, mk_eq(g, g)))

    @pytest.mark.parametrize(
        "goal",
        [
            TRUE,
            mk_neg(FALSE),
            mk_imp(p, TRUE),
            mk_forall(x, mk_disj(mk_comb(Var("P", fn(IND, BOOL)), x), TRUE)),
        ],
        ids=["T", "not-F", "p-imp-T", "forall-or-T"],
    )
    def test_truth_constants(self, logic, goal):
        # the search takes T and F for atoms; |- T or |- ~F joins as a
        # unit clause after the problem's own
        th, trace = meson(logic, FirstOrderProblem((), goal), want_trace=True)
        assert th.assumptions == ()
        assert alpha_equiv(th.conclusion, goal)
        assert trace.clauses[-1] in ("truth: T", "truth: ~F")
        assert trace.depth_used == 1

    def test_suite_theorems_model_valid(self, logic):
        # the whole reconstruction chain lands on finite-model-valid
        # sequents for every suite problem
        for name, prob, depth in PROBLEMS:
            th = meson(logic, prob, depth_bound=depth)
            verdict = is_valid(
                theorem_sequent(th), Model(ind_size=2), budget=200_000,
                theory=logic.theory,
            )
            assert verdict.valid, name


def _random_problem(rng):
    """(axioms, goal): random formulas over two individual types, with
    function and predicate symbols and equality at both types; now and
    then a part leaves the fragment (a symbol with a function or boolean
    domain, equality or a quantifier at a function type, a lambda at the
    head of an atom or a term, an individual where a formula belongs)."""
    A = TyVar("A")
    f = Var("f", fn(IND, IND))
    g = Var("g", fn(IND, fn(A, IND)))
    h = Var("h", fn(A, A))
    P = Var("P", fn(IND, BOOL))
    R = Var("R", fn(IND, fn(A, BOOL)))
    S = Var("S", fn(BOOL, BOOL))  # with H below, a higher-order domain

    def odd():
        return rng.random() < 0.005

    fresh = itertools.count()

    def term(ty, scope, depth):
        if odd():
            y = Var("y", ty)
            higher = Var("H", fn(fn(IND, IND), ty))
            return rng.choice([mk_comb(higher, f), mk_comb(mk_abs(y, y), y)])
        if depth <= 0 or rng.random() < 0.4:
            own = [v for v in scope if v.ty == ty]
            if own and rng.random() < 0.7:
                return rng.choice(own)
            return Var("a" if ty == IND else "b", ty)
        if ty == A:
            return mk_comb(h, term(A, scope, depth - 1))
        if rng.random() < 0.5:
            return mk_comb(f, term(IND, scope, depth - 1))
        return mk_comb(mk_comb(g, term(IND, scope, depth - 1)), term(A, scope, depth - 1))

    def atom(scope):
        if odd():
            return rng.choice([
                mk_comb(S, mk_comb(P, term(IND, scope, 1))),
                mk_eq(f, f),
                mk_comb(mk_abs(x, mk_comb(P, x)), term(IND, scope, 1)),
            ])
        roll = rng.randrange(4)
        if roll == 0:
            return mk_comb(P, term(IND, scope, 2))
        if roll == 1:
            return mk_comb(mk_comb(R, term(IND, scope, 2)), term(A, scope, 2))
        ty = rng.choice([IND, A])
        return mk_eq(term(ty, scope, 2), term(ty, scope, 2))

    def formula(scope, depth):
        if depth <= 0 or rng.random() < 0.3:
            return atom(scope)
        op = rng.randrange(7)
        if op == 0:
            return mk_neg(formula(scope, depth - 1))
        if op in (1, 2):
            ty = fn(IND, IND) if odd() else rng.choice([IND, A])
            v = Var(f"v{next(fresh)}", ty)
            body = formula(scope + [v], depth - 1)
            return (mk_forall if op == 1 else mk_exists)(v, body)
        l, r = formula(scope, depth - 1), formula(scope, depth - 1)
        return (mk_conj, mk_disj, mk_imp, mk_eq)[op - 3](l, r)

    axioms = tuple(formula([], 3) for _ in range(rng.randrange(3)))
    goal = Var("a", IND) if rng.random() < 0.02 else formula([], 3)
    return axioms, goal


def _equality_axioms(build):
    """The axioms `build` returns, or the OutOfFragment it raises."""
    try:
        return tuple(build())
    except OutOfFragment as exc:
        return str(exc)


class TestEqualityAxiomsOracle:
    """`add_equality_axioms` reads the symbols the fragment check
    collects; the two-walk front end it replaced must give the same
    axioms in the same order, and reject the same problems."""

    @staticmethod
    def _both(axioms, goal):
        new = _equality_axioms(
            lambda: add_equality_axioms(FirstOrderProblem(axioms, goal)).axioms[len(axioms):]
        )
        return new, _equality_axioms(lambda: reference_equality_axioms(axioms, goal))

    def test_suite_problems(self):
        for name, prob, depth in PROBLEMS:
            new, old = self._both(prob.axioms, prob.goal)
            assert new == old, name

    def test_random_problems(self):
        rng = random.Random(27)
        reasons = {
            "problem parts must be boolean", "quantification over", "lambda in atom",
            "higher-order argument", "bad term head",
        }
        seen = set()
        congruences = 0
        for _ in range(400):
            axioms, goal = _random_problem(rng)
            new, old = self._both(axioms, goal)
            assert new == old, [print_term(t) for t in (*axioms, goal)]
            if isinstance(new, str):
                seen |= {r for r in reasons if new.startswith(r)}
                continue
            types = sum(is_eq(ax.rand.body) for ax in new)  # one reflexivity each
            congruences += types > 1 and len(new) > 3 * types + 2
        assert seen == reasons and congruences >= 100, (seen, congruences)


def _random_formula(rng, depth, scope, fresh):
    """A random closed-except-symbols first-order formula."""
    P = Var("P", fn(IND, BOOL))
    Q = Var("Q", fn(IND, BOOL))
    R = Var("R", fn(IND, fn(IND, BOOL)))

    def term():
        if scope and rng.random() < 0.8:
            return rng.choice(scope)
        return Var("k", IND)  # a free constant symbol

    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.35:
            return mk_comb(P, term())
        if roll < 0.6:
            return mk_comb(Q, term())
        if roll < 0.85:
            return mk_comb(mk_comb(R, term()), term())
        return mk_eq(term(), term())
    op = rng.randrange(7)
    if op == 0:
        return mk_neg(_random_formula(rng, depth - 1, scope, fresh))
    if op in (1, 2):
        v = Var(f"q{fresh[0]}", IND)
        fresh[0] += 1
        inner = _random_formula(rng, depth - 1, scope + [v], fresh)
        return (mk_forall if op == 1 else mk_exists)(v, inner)
    l = _random_formula(rng, depth - 1, scope, fresh)
    r = _random_formula(rng, depth - 1, scope, fresh)
    return (mk_conj, mk_disj, mk_imp, mk_eq)[op - 3](l, r)


class TestClausifyStress:
    def test_clause_theorems_always_valid(self, logic):
        # clausification is kernel-derived, so every clause sequent must
        # hold in finite models; this drives NNF, prenexing, choice-based
        # skolemization, and distribution across random shapes
        import random as _random

        rng = _random.Random(81)
        checked = 0
        for i in range(14):
            formula = _random_formula(rng, 2 if i % 2 else 3, [], [0])
            cs = clausify(logic, formula)
            for clause in cs.clauses:
                verdict = is_valid(
                    theorem_sequent(clause.thm),
                    Model(ind_size=2),
                    budget=4_000,
                    samples=200,
                    theory=logic.theory,
                )
                assert verdict.valid, print_term_safe(formula)
                checked += 1
        assert checked >= 20


def print_term_safe(t):
    from microhol.surface import print_term

    return print_term(t)


class TestMesonStress:
    def test_random_goals_never_break_reconstruction(self, logic):
        # random goals: provable ones must reconstruct to the exact
        # sequent; unprovable ones exhaust cleanly
        import random as _random

        rng = _random.Random(7)
        proved = 0
        for _ in range(25):
            goal = _random_formula(rng, 2, [], [0])
            try:
                th = meson(logic, FirstOrderProblem((), goal), depth_bound=4)
            except DepthExhausted:
                continue
            proved += 1
            assert th.assumptions == ()
            assert alpha_equiv(th.conclusion, goal)
            verdict = is_valid(
                theorem_sequent(th), Model(ind_size=2), budget=50_000,
                samples=300, theory=logic.theory,
            )
            assert verdict.valid
        assert proved >= 1


def _random_proposition(rng, depth):
    """A random propositional formula over p, q, r, T and F: the
    `_random_formula` connectives without quantifiers or atoms."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice((p, q, r, TRUE, FALSE))
    op = rng.randrange(5)
    if op == 0:
        return mk_neg(_random_proposition(rng, depth - 1))
    l = _random_proposition(rng, depth - 1)
    r_ = _random_proposition(rng, depth - 1)
    return (mk_conj, mk_disj, mk_imp, mk_eq)[op - 1](l, r_)


class TestMesonCompleteness:
    def test_every_tautology_proves(self, logic):
        # meson is complete for propositional logic: every goal `taut`
        # proves must also prove within a fixed depth, to the same
        # theorem.  Before T and F were atoms to the search, `T` and `~F`
        # ended in `depth exhausted`.
        rng = random.Random(11)
        proved = []
        for _ in range(400):
            goal = _random_proposition(rng, 3)
            try:
                taut(logic, goal)
            except NotATautology:
                continue
            th = meson(logic, FirstOrderProblem((), goal), depth_bound=4)
            assert th.assumptions == ()
            assert alpha_equiv(th.conclusion, goal), print_term(goal)
            proved.append(goal)
        constants = {c.name for g in proved for c in (TRUE, FALSE) if _occurs_in(c, g)}
        assert len(proved) >= 50 and constants == {"T", "F"}


def _occurs_in(a, t):
    return a == t or (isinstance(t, Comb) and (_occurs_in(a, t.rator) or _occurs_in(a, t.rand)))


def _formulas(seed, n):
    rng = random.Random(seed)
    return [_random_formula(rng, 2 if i % 2 else 3, [], [0]) for i in range(n)]


def _suite_formulas():
    return [f for _, prob, _ in PROBLEMS for f in (*prob.axioms, mk_neg(prob.goal))]


def _same_sequent(th, ref):
    return alpha_equiv(th.conclusion, ref.conclusion) and len(th.assumptions) == len(
        ref.assumptions
    ) and all(alpha_equiv(a, b) for a, b in zip(th.assumptions, ref.assumptions))


class TestRewritingSkipsUnchanged:
    """The clausifier's walk against the oracles: `reference_nnf`, then
    the fixed-point rewriting engine it replaced over the whole result."""

    def test_same_normal_forms(self, logic):
        lemmas = _NormLemmas.get(logic)
        pull_ref = reference_rewrite_conv(lemmas.pull)
        for formula in _formulas(81, 12) + _formulas(23, 12) + _suite_formulas():
            th = _ClauseForm(lemmas)(formula)
            assert th.assumptions == () and lhs(th) == formula
            expected = pull_ref(reference_nnf(formula))
            assert alpha_equiv(rhs(th), rhs(expected)), print_term(formula)
            cs = clausify(logic, formula)
            ref_clauses, ref_skolems = redecomposing_clausify(logic, formula)
            assert [c.universals for c in cs.clauses] == [u for _, u in ref_clauses]
            for c, (ref, _) in zip(cs.clauses, ref_clauses, strict=True):
                assert _same_sequent(c.thm, ref), print_term(formula)
            assert len(cs.skolems) == len(ref_skolems)
            for sk, (witness, params) in zip(cs.skolems, ref_skolems):
                assert alpha_equiv(sk.witness, witness)
                assert sk.params == params

    def test_normal_term_costs_one_inference(self, logic):
        lemmas = _NormLemmas.get(logic)
        for formula in _formulas(5, 6):
            normal = rhs(_ClauseForm(lemmas)(formula))
            with kernel.tracing() as log:
                th = _ClauseForm(lemmas)(normal)
            assert [name for name, _, _ in log] == ["refl"]
            assert th.conclusion == mk_eq(normal, normal)

    def test_paper_formula_inference_count(self, logic):
        # rewriting node by node and unfolding the connectives on every
        # derived-rule call took 61,508 inferences here.  The rewriting
        # conversions, and so their type instances, are built per call, so
        # earlier calls on the Logic do not change the count; when they
        # were built with the lemmas, a second call took 580, not 584.
        name, prob, depth = next(p for p in PROBLEMS if p[0] == "paper-displayed-formula")
        _NormLemmas.get(logic)
        with kernel.tracing() as log:
            meson(logic, prob, depth_bound=depth)
        assert len(log) == PAPER_FORMULA_INFERENCES

    def test_paper_formula_order_walk(self, logic, monkeypatch):
        # meson's replay compares literals that hold Skolem witnesses; when
        # each witness held the rest of the prenex formula, walked as trees
        # they took 74,540 visits of the order walk here, walked once per
        # pair of shared subterms 11,276 (pinned at 20,000); with each
        # witness over its own subformula, 1,978
        name, prob, depth = next(p for p in PROBLEMS if p[0] == "paper-displayed-formula")
        _NormLemmas.get(logic)
        calls = [0]
        real = syntax._order

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(syntax, "_order", counting)
        meson(logic, prob, depth_bound=depth)
        assert calls[0] <= 3_000

    def test_suite_settle_calls(self, monkeypatch):
        # `settle_nodes` walks only the nodes an equation made; a second
        # bottom-up pass over the whole normal form would add one call per
        # node of every formula
        calls = [0]
        real = bootstrap.settle_nodes

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(bootstrap, "settle_nodes", counting)
        monkeypatch.setattr(auto, "settle_nodes", counting)
        logic = bootstrap.install_logic(kernel.Theory())
        _NormLemmas.get(logic)
        calls[0] = 0
        for name, prob, depth in PROBLEMS:
            meson(logic, prob, depth_bound=depth)
        assert calls[0] == SUITE_SETTLE_CALLS

    def test_suite_rewrite_attempts(self, monkeypatch):
        # each node is rewritten only by the equation its heads select, so
        # every attempt matches: the fixed-point engine made 3,507 attempts
        # for 350 rewrites per suite pass
        attempts = [0, 0]
        real = auto.rewr_conv

        def counting(eq_th):
            go = real(eq_th)

            def attempt(t):
                attempts[0] += 1
                th = go(t)
                attempts[1] += 1
                return th

            return attempt

        monkeypatch.setattr(auto, "rewr_conv", counting)
        logic = bootstrap.install_logic(kernel.Theory())
        _NormLemmas.get(logic)
        attempts[:] = [0, 0]
        for name, prob, depth in PROBLEMS:
            meson(logic, prob, depth_bound=depth)
        assert attempts[0] == attempts[1] > 0


def _negative_iff(t, positive=True) -> bool:
    """Whether an iff occurs negatively in `t`: below an odd number of
    negations and antecedents, or as an operand of an iff, which holds
    its operands at both polarities."""
    if is_neg(t):
        return _negative_iff(t.rand, not positive)
    if is_imp(t):
        return _negative_iff(t.rator.rand, not positive) or _negative_iff(t.rand, positive)
    if is_conj(t) or is_disj(t):
        return any(_negative_iff(a, positive) for a in (t.rator.rand, t.rand))
    if is_eq(t) and t.rand.ty == BOOL:
        return not positive or any(
            _negative_iff(a, s) for a in (t.rator.rand, t.rand) for s in (True, False)
        )
    if is_forall(t) or is_exists(t):
        return _negative_iff(t.rand.body, positive)
    return False


def _bottom_up_nnf_clauses(logic, formula):
    """The clause theorems, with their universals, by the route the
    polarity NNF replaced: the NNF lemmas rewritten bottom-up to a fixed
    point, then the pull equations the same way, and stripping.  The
    negated implication's and the negated iff's lemmas never fire there,
    since an operand is normal before the negation above it is met."""
    lemmas = _NormLemmas.get(logic)
    th = bootstrap.conv_rule(reference_rewrite_conv(lemmas.nnf.values()), kernel.assume(formula))
    th = bootstrap.conv_rule(reference_rewrite_conv(lemmas.pull), th)
    return _Clausifier(logic, lemmas)._decompose(th, ())


def _named_apart(th, universals):
    """th's conclusion with its universals renamed u0, u1, ... in order."""
    return syntax.vsubst({u: Var(f"u{i}", u.ty) for i, u in enumerate(universals)}, th.conclusion)


class TestPolarityNNF:
    """Each subformula is normalized once per polarity, so only a
    negatively occurring iff changes the clauses."""

    def test_negated_iff_goes_straight_to_clause_form(self, logic):
        cs = clausify(logic, mk_neg(mk_eq(p, q)))
        assert [c.thm.conclusion for c in cs.clauses] == [
            mk_disj(p, q),
            mk_disj(mk_neg(p), mk_neg(q)),
        ]

    @given(st.integers(0, 10**9), st.sampled_from((2, 3)))
    @settings(max_examples=60, deadline=None)
    def test_positive_iffs_keep_the_bottom_up_clauses(self, logic, seed, depth):
        # up to the names of bound variables and universals: a negated
        # quantifier keeps its own binder here, and took the lemma's
        formula = _random_formula(random.Random(seed), depth, [], [0])
        hypothesis.assume(not _negative_iff(formula))
        cs = clausify(logic, formula)
        before = _bottom_up_nnf_clauses(logic, formula)
        assert len(cs.clauses) == len(before), print_term(formula)
        for c, (th, universals) in zip(cs.clauses, before):
            assert c.thm.assumptions == th.assumptions
            assert len(c.universals) == len(universals)
            assert alpha_equiv(_named_apart(c.thm, c.universals), _named_apart(th, universals))

    def test_found_tautology_clause_count(self, logic):
        # 820 clauses when negation normal form was one bottom-up pass
        goal = parse_term(
            r"~~(q <=> q) <=> ((T <=> p) <=> F <=> r) \/ ~F \/ (p ==> T)",
            logic.theory,
            free_default=BOOL,
        )
        assert len(clausify(logic, mk_neg(goal)).clauses) <= 40


def _meson_clauses(logic, prob):
    """The clauses meson searches for `prob`, and its start clauses."""
    cl = _Clausifier(logic, _NormLemmas.get(logic))
    clauses = []
    for i, ax in enumerate(prob.axioms):
        clauses += cl.clauses(ax, f"axiom {i}")
    n_axiom_clauses = len(clauses)
    clauses += cl.clauses(mk_neg(prob.goal), "negated goal")
    return clauses, range(n_axiom_clauses, len(clauses))


def _solutions(search, start, depth, n):
    """The first n (theta, nodes, copies) of a search from `start`."""
    goals = search.start(start)
    return [
        (theta, nodes, search.copies)
        for theta, nodes in itertools.islice(search.prove_goals(goals, [], depth, {}), n)
    ]


_PX = ("w", "P", fn(IND, BOOL))
_Q = ("w", "Q", fn(IND, fn(IND, BOOL)))
_R = ("w", "r", BOOL)
_F = ("w", "f", fn(IND, IND))
_A = ("w", "a", IND)
_B = ("w", "b", IND)


def _random_clauses(rng):
    """3-6 clauses over P at two arities, Q and a proposition r; the
    first clause has a literal r."""
    xs = [Var(n, IND) for n in "xyz"]

    def term(d):
        roll = rng.random()
        if roll < 0.45:
            return ("v", (rng.choice(xs), 0))
        if roll < 0.7 or d == 0:
            return ("f", rng.choice((_A, _B)), ())
        return ("f", _F, (term(d - 1),))

    def atom():
        roll = rng.random()
        if roll < 0.3:
            return ("f", _PX, (term(1),))
        if roll < 0.4:
            return ("f", _PX, (term(1), term(1)))
        if roll < 0.6:
            return ("f", _Q, (term(1), term(1)))
        return ("f", _R, ())

    clauses = []
    for i in range(rng.randint(3, 6)):
        lits = [(rng.random() < 0.5, atom()) for _ in range(rng.randint(1, 3))]
        if i == 0:
            lits[0] = (rng.random() < 0.5, ("f", _R, ()))
        clauses.append(Clause(None, (), tuple(lits), f"clause {i}"))
    return clauses


class TestSearchIndex:
    """Extension through the literal index, against trying every
    complementary literal."""

    def test_suite_start_clauses(self, logic):
        for name, prob, depth in PROBLEMS:
            clauses, starts = _meson_clauses(logic, prob)
            new, old = _Search(clauses), UnindexedSearch(clauses)
            for d in range(1, depth + 1):
                found = False
                for ci in starts:
                    got = _solutions(new, clauses[ci], d, 3)
                    assert got == _solutions(old, clauses[ci], d, 3), (name, d, ci)
                    found = found or bool(got)
                if found:
                    break
            assert found, name

    def test_suite_unify_calls(self, logic, monkeypatch):
        # reduction tries only the ancestors with the goal's predicate
        # symbol and arity: one suite pass made 815 top-level `_unify`
        # calls when it tried every complementary ancestor, 169 of them
        # against another symbol or arity, and 5,938 (1,557) when
        # existentials were pulled to the front before they were Skolemized
        real = auto._unify
        calls, nested = [0], [False]

        def counting(a, b, theta):
            if nested[0]:
                return real(a, b, theta)
            calls[0] += 1
            nested[0] = True
            try:
                return real(a, b, theta)
            finally:
                nested[0] = False

        monkeypatch.setattr(auto, "_unify", counting)
        for name, prob, depth in PROBLEMS:
            meson(logic, prob, depth_bound=depth)
        assert calls[0] == SUITE_UNIFY_CALLS

    def test_random_clause_sets(self):
        rng = random.Random(5)
        solved = 0
        for _ in range(100):
            clauses = _random_clauses(rng)
            new, old = _Search(clauses), UnindexedSearch(clauses)
            for start in clauses:
                for depth in (1, 2):
                    got = _solutions(new, start, depth, 4)
                    assert got == _solutions(old, start, depth, 4)
                    solved += bool(got)
        assert solved > 100


def _provable(clauses, starts, depth) -> bool:
    """Whether a search from one of the start clauses closes within `depth`."""
    search = _Search(clauses)
    return any(
        next(search.prove_goals(search.start(clauses[i]), [], depth, {}), None) is not None
        for i in starts
    )


class TestClauseFilter:
    """Meson searches no tautology and no repeated literal set."""

    def test_drops_tautologies_and_repeats(self):
        atom = ("f", r, ())
        lits = [(True, atom), (False, atom)]
        clauses = [
            Clause(None, (), (lits[0],), "axiom 0"),
            Clause(None, (), (lits[1], lits[0]), "axiom 1"),  # tautology
            Clause(None, (), (lits[1],), "negated goal"),
            Clause(None, (), (lits[0], lits[0]), "negated goal"),  # repeats axiom 0
        ]
        kept, starts, dropped = _drop_redundant(clauses, 2)
        assert [c.lits for c in kept] == [(lits[0],), (lits[1],)]
        # the repeated goal clause's search starts from the axiom it repeats
        assert (starts, dropped) == ([1, 0], (1, 1))

    def test_random_problems_keep_provability(self, logic):
        # filtered and unfiltered search agree at every depth bound up to
        # 3.  Problems of more than 30 clauses are left out for time: the
        # unfiltered search exhausts depth 3 on one of 42 clauses in 40 s.
        rng = random.Random(1)
        checked = filtered = proved = 0
        for _ in range(200):
            axioms, goal = _random_problem(rng)
            try:
                prob = FirstOrderProblem(axioms, goal)
            except OutOfFragment:
                continue
            clauses, starts = _meson_clauses(logic, prob)
            if len(clauses) > 30:
                continue
            kept, kept_starts, _ = _drop_redundant(clauses, starts.start)
            for depth in (1, 2, 3):
                found = _provable(clauses, starts, depth)
                assert _provable(kept, kept_starts, depth) == found, (
                    [print_term(t) for t in (*axioms, goal)], depth
                )
            checked += 1
            filtered += len(kept) < len(clauses)
            proved += found
        assert checked > 150 and filtered > 5 and proved > 1, (checked, filtered, proved)


def _clauses_of(logic, formula):
    return _Clausifier(logic, _NormLemmas.get(logic)).clauses(formula, "axiom 0")


class TestCondensing:
    """Meson searches each clause's condensation: the literal set left when
    renamings of its universals onto one another shrink it no further."""

    def test_unit_cases(self, logic):
        P = Var("P", fn(IND, BOOL))
        R = Var("R", fn(IND, fn(IND, BOOL)))
        f = Var("f", fn(IND, IND))
        (both,) = _clauses_of(
            logic, mk_forall(x, mk_forall(y, mk_disj(mk_comb(P, x), mk_comb(P, y))))
        )
        one = _condensed(both)
        assert len(one.lits) == 1 and one.positions == (0, 0)
        assert one.thm is both.thm and len(one.merge) == 1
        # swapping x and y maps the set onto itself without shrinking it
        swap = mk_forall(
            x, mk_forall(y, mk_disj(mk_comb(mk_comb(R, x), y), mk_comb(mk_comb(R, y), x)))
        )
        # x := f x is no renaming, so P x \/ P (f x) stays
        nested = mk_forall(x, mk_disj(mk_comb(P, x), mk_comb(P, mk_comb(f, x))))
        for formula in (swap, nested):
            (clause,) = _clauses_of(logic, formula)
            assert _condensed(clause) is clause, print_term(formula)
        a = Var("a", IND)
        th = meson(logic, FirstOrderProblem((swap,), mk_comb(mk_comb(R, a), a)))
        assert th.assumptions == (swap,)

    def test_paper_formula_start_clause(self, logic):
        # ~P x1 \/ Q x2 \/ ~P x3 \/ Q x4: the two negated P literals merge,
        # and so do the two Q literals
        name, prob, depth = next(p for p in PROBLEMS if p[0] == "paper-displayed-formula")
        clauses, starts = _meson_clauses(logic, prob)
        (wide,) = [clauses[i] for i in starts if len(clauses[i].lits) == 4]
        narrow = _condensed(wide)
        assert len(narrow.lits) == 2 and narrow.positions == (0, 1, 0, 1)
        assert sorted(pos for pos, _ in narrow.lits) == [False, True]

    def test_random_problems_prove_no_deeper(self, logic):
        # wherever the uncondensed clauses prove within depth 3, meson on
        # the condensed ones proves the goal from the axioms at the same or
        # a smaller depth
        rng = random.Random(1)
        checked = condensed = proved = 0
        for _ in range(200):
            axioms, goal = _random_problem(rng)
            try:
                prob = FirstOrderProblem(axioms, goal)
            except OutOfFragment:
                continue
            clauses, starts = _meson_clauses(logic, prob)
            if len(clauses) > 30:
                continue
            checked += 1
            condensed += any(_condensed(c) is not c for c in clauses)
            kept, kept_starts, _ = _drop_redundant(clauses, starts.start)
            depth = next((d for d in (1, 2, 3) if _provable(kept, kept_starts, d)), None)
            if depth is None:
                continue
            th, trace = meson(logic, prob, depth_bound=depth, want_trace=True)
            shown = [print_term(t) for t in (*axioms, goal)]
            assert trace.depth_used <= depth, shown
            assert alpha_equiv(th.conclusion, goal), shown
            assert all(any(alpha_equiv(h, ax) for ax in axioms) for h in th.assumptions), shown
            proved += 1
        assert checked > 150 and condensed > 5 and proved > 1, (checked, condensed, proved)


def _suite_transcript(logic) -> str:
    """Every suite problem's proved conclusion, assumptions and trace."""
    lines = []
    for name, prob, depth in PROBLEMS:
        th, trace = meson(logic, prob, depth_bound=depth, want_trace=True)
        lines.append(f"== {name}")
        lines.append(print_term(th.conclusion))
        lines += [f"assume {print_term(a)}" for a in th.assumptions]
        lines.append(trace.render())
    return "\n".join(lines)


NORM_LEMMAS = [
    # nnf
    r"~~(p:bool) <=> (p:bool)",
    r"~((p:bool) /\ (q:bool)) <=> ~(p:bool) \/ ~(q:bool)",
    r"~((p:bool) \/ (q:bool)) <=> ~(p:bool) /\ ~(q:bool)",
    r"~((p:bool) ==> (q:bool)) <=> (p:bool) /\ ~(q:bool)",
    r"~((p:bool) <=> (q:bool)) <=> ((p:bool) \/ (q:bool)) /\ (~(p:bool) \/ ~(q:bool))",
    r"(p:bool) ==> (q:bool) <=> ~(p:bool) \/ (q:bool)",
    r"((p:bool) <=> (q:bool)) <=> (~(p:bool) \/ (q:bool)) /\ (~(q:bool) \/ (p:bool))",
    r"~(!:(A -> bool) -> bool) (P:A -> bool) <=> (?x:A. ~(P:A -> bool) x)",
    r"~(?:(A -> bool) -> bool) (P:A -> bool) <=> (!x:A. ~(P:A -> bool) x)",
    # pull: each universal-left equation, then its mirror image
    r"(!:(A -> bool) -> bool) (P:A -> bool) \/ (q:bool) <=> (!x:A. (P:A -> bool) x \/ (q:bool))",
    r"(q:bool) \/ (!:(A -> bool) -> bool) (P:A -> bool) <=> (!x:A. (q:bool) \/ (P:A -> bool) x)",
    r"(!:(A -> bool) -> bool) (P:A -> bool) /\ (q:bool) <=> (!x:A. (P:A -> bool) x /\ (q:bool))",
    r"(q:bool) /\ (!:(A -> bool) -> bool) (P:A -> bool) <=> (!x:A. (q:bool) /\ (P:A -> bool) x)",
    # pull: Skolemization where the existential stands
    r"(?:(A -> bool) -> bool) (P:A -> bool) <=> (P:A -> bool) ((@:(A -> bool) -> A) (P:A -> bool))",
    # pull: distribution
    r"(p:bool) \/ (q:bool) /\ (r:bool) <=> ((p:bool) \/ (q:bool)) /\ ((p:bool) \/ (r:bool))",
    r"(q:bool) /\ (r:bool) \/ (p:bool) <=> ((q:bool) \/ (p:bool)) /\ ((r:bool) \/ (p:bool))",
]


class TestLemmaBasePinned:
    def test_equations_in_order(self, logic):
        # `_ClauseForm` looks each nnf lemma up by its left side's head and
        # polarity (`TestLemmaTable`), and takes the pull list as the
        # equations its per-node step picks by the operands' heads; the pull
        # list had 10 when existentials were pulled by four equations, and
        # the nnf list 7 before the negated implication and iff had their own
        lemmas = _NormLemmas.build(logic)
        assert (len(lemmas.nnf), len(lemmas.pull)) == (9, 7)
        for th, expected in zip(
            [*lemmas.nnf.values(), *lemmas.pull], NORM_LEMMAS, strict=True
        ):
            assert th.assumptions == ()
            assert print_term(th.conclusion) == expected

    def test_inference_count(self):
        logic = bootstrap.install_logic(kernel.Theory())
        with kernel.tracing() as log:
            _NormLemmas.build(logic)
        assert len(log) == NORM_LEMMA_INFERENCES


class TestLemmaTable:
    """The nnf lemmas keyed by the head constant and polarity of their
    left sides, the key `_ClauseForm._lemma` looks them up by."""

    KEYS = [
        (name, False) for name in ("not", "and", "or", "imp", "=", "forall", "exists")
    ] + [("imp", True), ("=", True)]

    def test_keys(self, logic):
        assert sorted(_NormLemmas.get(logic).nnf) == sorted(self.KEYS)

    def test_each_key_heads_its_lemma(self, logic):
        for (name, positive), th in _NormLemmas.get(logic).nnf.items():
            left = lhs(th)
            if not positive:
                assert is_neg(left)
                left = left.rand
            assert _strip_app(left)[0].name == name


class TestMesonOutputPinned:
    def test_suite_transcript_unchanged(self, logic):
        digest = hashlib.sha256(_suite_transcript(logic).encode()).hexdigest()
        assert digest == SUITE_TRANSCRIPT_SHA256


# kernel inferences of one pass of the suite once the clausifier lemmas
# exist, on a fresh Logic; 12,617 when refuted literals were eliminated by
# disj_cases chains rather than turned into L = F equations, 6,055 when
# the clausifier rewrote to a fixed point, 4,788 when existentials were
# pulled to the front before they were Skolemized, 4,430 when negation
# normal form was one bottom-up rewriting pass, 3,294 when a second
# bottom-up pass over the whole normal form Skolemized, pulled and
# distributed, and 3,189 when the search took clauses uncondensed and
# reconstruction refuted every literal of a clause instance, a unit
# instance included, through its own L = F equation
SUITE_INFERENCES = 2_699

# `bootstrap.settle_nodes` calls of one suite pass (see
# TestRewritingSkipsUnchanged); 1,780 when a second bottom-up pass walked
# the whole normal form, atoms included
SUITE_SETTLE_CALLS = 739

# kernel inferences of `_NormLemmas.build` on a fresh Logic; 4,713 when
# existential premises were eliminated by unfolding `?` at a fresh
# variable and contradictions reached F through `not_elim` and `mp`,
# 4,266 when negations were introduced through `disch` and `not_intro`,
# 4,227 when `gen`, `exists_intro`, `disj1` and `disj2` unfolded their
# definitions on every call, 3,321 when four equations pulled
# existentials out, 3,121 before the negated implication and iff had
# their own lemmas, and 3,420 when the negated implication's lemma was
# derived by hand from three others rather than proved by `taut`
NORM_LEMMA_INFERENCES = 3_657

# top-level `_unify` calls of one suite pass (see TestSearchIndex); 646
# when negation normal form was one bottom-up rewriting pass and no clause
# was dropped before the search, and 392 before clauses were condensed
SUITE_UNIFY_CALLS = 229


def _rebuild_with_duplicate_literal(logic):
    """Close a tableau by hand over the clause  P (@y. Q y) \\/ P (@z. Q z),
    whose two literals are alpha-equal with different binder names.  The
    goal clashes with the second literal; the first is extended by a
    clause that assumes  ~P (@y. Q y) /\\ r."""
    P = Var("P", fn(IND, BOOL))
    Q = Var("Q", fn(IND, BOOL))
    z = Var("z", IND)
    sel = Const("@", fn(fn(IND, BOOL), IND))
    wy = mk_comb(sel, mk_abs(y, mk_comb(Q, y)))
    wz = mk_comb(sel, mk_abs(z, mk_comb(Q, z)))
    py, pz = mk_comb(P, wy), mk_comb(P, wz)
    atom = ("f", P, (("f", ("sk", 0), ()),))
    clauses = [
        Clause(kernel.assume(mk_disj(py, pz)), (), ((True, atom), (True, atom)), "axiom 0"),
        Clause(
            logic.conjunct1(kernel.assume(mk_conj(mk_neg(py), r))),
            (),
            ((False, atom),),
            "axiom 1",
        ),
        Clause(kernel.assume(mk_neg(py)), (), ((False, atom),), "negated goal"),
    ]
    rebuild = _Rebuild(logic, clauses, [SkolemEntry(0, wy, ())], {})
    nodes = [("ext", (False, atom), 0, 1, 2, [("ext", (True, atom), 1, 0, 3, [])])]
    return rebuild.close(clauses[2], 1, nodes, [])


class TestReconstructionPinned:
    """Meson reconstruction makes no term encoding; its inferences and its
    choice among alpha-equal literals are those recorded before."""

    def test_suite_makes_no_encoding(self, monkeypatch):
        logic = bootstrap.install_logic(kernel.Theory())
        _NormLemmas.get(logic)
        encodings = []
        real = syntax._enc_term
        monkeypatch.setattr(
            syntax, "_enc_term", lambda t, *rest: encodings.append(t) or real(t, *rest)
        )
        with kernel.tracing() as log:
            for name, prob, depth in PROBLEMS:
                meson(logic, prob, depth_bound=depth)
        assert encodings == []
        assert len(log) == SUITE_INFERENCES

    def test_repeated_literal_sequent(self, logic):
        P = Var("P", fn(IND, BOOL))
        a = Var("a", IND)
        axiom = mk_forall(x, mk_disj(mk_comb(P, x), mk_comb(P, x)))
        th = meson(logic, FirstOrderProblem((axiom,), mk_comb(P, a)))
        assert print_sequent(th.assumptions, th.conclusion) == (
            "!x:ind. (P:ind -> bool) x \\/ (P:ind -> bool) x |- (P:ind -> bool) (a:ind)"
        )

    def test_alpha_equal_literals_take_the_last_refuter(self, logic):
        # both literals are refuted by the goal clash, so the extension
        # clause's assumption does not reach the result
        th = _rebuild_with_duplicate_literal(logic)
        assert print_sequent(th.assumptions, th.conclusion) == (
            "~(P:ind -> bool) (@y:ind. (Q:ind -> bool) y), "
            "(P:ind -> bool) (@y:ind. (Q:ind -> bool) y) \\/ "
            "(P:ind -> bool) (@z:ind. (Q:ind -> bool) z) |- F"
        )


def _is_literal(t):
    atom = t.rand if is_neg(t) else t
    return not (
        is_neg(atom)
        or is_conj(atom)
        or is_disj(atom)
        or is_imp(atom)
        or is_forall(atom)
        or is_exists(atom)
        or (is_eq(atom) and atom.rand.ty == BOOL)
    )


def _check_clause_form(logic, formula):
    """Each clause theorem is normal and a disjunction of literals, and
    equals what the two-pass clausifier that re-normalised every clause
    gave."""
    cs = clausify(logic, formula)
    ref_clauses, ref_skolems = redecomposing_clausify(logic, formula)
    assert [
        (c.thm.conclusion, c.thm.assumptions, c.universals) for c in cs.clauses
    ] == [(th.conclusion, th.assumptions, u) for th, u in ref_clauses]
    assert [(sk.witness, sk.params) for sk in cs.skolems] == ref_skolems
    walk = _ClauseForm(_NormLemmas.get(logic))
    for c in cs.clauses:
        concl = c.thm.conclusion
        with kernel.tracing() as log:
            th = walk(concl)
        assert [name for name, _, _ in log] == ["refl"]
        assert th.conclusion == mk_eq(concl, concl)
        assert all(_is_literal(t) for t in _flatten_disj(concl)), print_term(concl)


class TestClauseForm:
    """The one walk gives the clauses of the two passes it replaced
    (`RedecomposingClausifier`), and leaves each one normal: walking a
    clause again costs one `refl`."""

    @given(st.integers(0, 10**9), st.sampled_from((2, 3)))
    @settings(max_examples=60, deadline=None)
    def test_random_formulas(self, logic, seed, depth):
        _check_clause_form(logic, _random_formula(random.Random(seed), depth, [], [0]))

    @pytest.mark.parametrize("name,prob,depth", PROBLEMS, ids=[n for n, _, _ in PROBLEMS])
    def test_suite_problems(self, logic, name, prob, depth):
        for formula in (*prob.axioms, mk_neg(prob.goal)):
            _check_clause_form(logic, formula)


class TestNoReferenceCycles:
    def test_meson_and_clausify_leave_no_cycle(self, logic):
        # The walk and its rewriting conversions are built per call and hold
        # no self-calling closure; the pull pass held one, and built per
        # call it left ~119 objects to the collector on every meson or
        # clausify.
        name, prob, depth = next(p for p in PROBLEMS if p[0] == "paper-displayed-formula")
        _NormLemmas.get(logic)
        gc.collect()
        gc.disable()
        try:
            meson(logic, prob, depth_bound=depth, want_trace=True)
            clausify(logic, mk_neg(prob.goal))
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0
