import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microhol import fuzz, kernel
from microhol.bootstrap import (
    FALSE,
    TRUE,
    beta_conv,
    install_logic,
    mk_conj,
    mk_disj,
    mk_exists,
    mk_forall,
    mk_imp,
    mk_neg,
    sym,
)
from microhol.fuzz import (
    RULE_IDS,
    TermGen,
    alpha_variant,
    make_generator,
    random_kernel_walk,
    weakened_abs_generator,
)
from microhol.kernel import Theory, assume, new_basic_definition, refl
from microhol.semantics import (
    FALSE_ELEM,
    TRUE_ELEM,
    CarrierOverflow,
    EmptyCarrier,
    Model,
    UnassignedTypeVar,
    UnassignedVariable,
    RuleInstance,
    UninterpretableConstant,
    Valuation,
    carrier_size,
    encode_table,
    eval_term,
    fuzz_rule_soundness,
    is_valid,
    theorem_sequent,
)
from microhol.semantics import _search
from microhol.syntax import (
    BOOL,
    IND,
    Const,
    Substitution,
    TyApp,
    TyVar,
    Var,
    alpha_equiv,
    eq_const,
    fn,
    free_vars,
    mk_abs,
    mk_comb,
    mk_eq,
    vsubst,
)

from .oracles import (
    ReferenceCompiler,
    decode_table,
    reference_eval_term,
    reference_search,
    run_reference,
    unfolded_eval_term,
)
from .strategies import typed_terms

x = Var("x", BOOL)
xi = Var("i", IND)


class TestCarriers:
    def test_bool_carrier(self):
        assert carrier_size(BOOL, Model()) == 2

    def test_bool_to_bool(self):
        assert carrier_size(fn(BOOL, BOOL), Model()) == 4

    def test_second_order_within_cap(self):
        # 2^(2^2) = 16 tables, the derived count for (bool->bool)->bool
        assert 2 ** (2**2) == 16
        assert carrier_size(fn(fn(BOOL, BOOL), BOOL), Model(cap=16)) == 16

    def test_cap_overflow(self):
        with pytest.raises(CarrierOverflow):
            carrier_size(fn(fn(BOOL, BOOL), BOOL), Model(cap=15))

    def test_ind_size(self):
        assert carrier_size(IND, Model(ind_size=5)) == 5

    def test_unassigned_tyvar(self):
        with pytest.raises(UnassignedTypeVar):
            carrier_size(TyVar("A"), Model())

    def test_table_roundtrip(self):
        for value in range(27):
            entries = decode_table(value, 3, 3)
            assert encode_table(entries, 3) == value


class TestEvalTerm:
    def test_equality_is_delta(self, theory):
        v = Valuation(Model())
        value = eval_term(eq_const(BOOL), v, theory)
        # the table sends a to the delta function supported at a
        outer = decode_table(value, 2, 4)
        for a in range(2):
            delta = decode_table(outer[a], 2, 2)
            assert delta == tuple(1 if b == a else 0 for b in range(2))

    def test_false_is_false_everywhere(self, theory):
        for n in (1, 2, 3):
            v = Valuation(Model(ind_size=n))
            assert eval_term(FALSE, v, theory) == FALSE_ELEM

    def test_true(self, theory):
        assert eval_term(TRUE, Valuation(Model()), theory) == TRUE_ELEM

    def test_choice_empty_support(self, theory):
        # @ applied to an empty predicate on ind of size 3 gives element 0
        pred = mk_abs(xi, FALSE)
        sel = Const("@", fn(fn(IND, BOOL), IND))
        v = Valuation(Model(ind_size=3))
        assert eval_term(mk_comb(sel, pred), v, theory) == 0

    def test_choice_minimal_support_brute_force(self, theory):
        # over all 2^3 predicates on a 3-element carrier, choice picks the
        # least element of the support (or 0 when empty)
        model = Model(ind_size=3)
        p = Var("p", fn(IND, BOOL))
        sel = Const("@", fn(fn(IND, BOOL), IND))
        term = mk_comb(sel, p)
        for table in range(2**3):
            expected = 0
            support = [a for a in range(3) if (table >> a) & 1]
            if support:
                expected = min(support)
            v = Valuation(model, {}, {p: table})
            assert eval_term(term, v, theory) == expected

    def test_unassigned_variable(self, theory):
        with pytest.raises(UnassignedVariable):
            eval_term(x, Valuation(Model()), theory)

    def test_assignment_out_of_carrier(self, theory):
        with pytest.raises(Exception):
            eval_term(x, Valuation(Model(), {}, {x: 5}), theory)

    def test_uninterpretable_constant(self):
        with pytest.raises(UninterpretableConstant):
            eval_term(Const("mystery", BOOL), Valuation(Model()), Theory())

    def test_malformed_equality_constant_rejected(self):
        # a hand-built `=` whose two argument types differ must not be
        # interpreted as a cross-carrier comparison
        bad = Const("=", fn(BOOL, fn(IND, BOOL)))
        t = mk_comb(mk_comb(bad, Var("b", BOOL)), Var("i", IND))
        v = Valuation(Model(), {}, {Var("b", BOOL): 0, Var("i", IND): 0})
        with pytest.raises(UninterpretableConstant):
            eval_term(t, v, Theory())

    def test_malformed_choice_constant_rejected(self):
        bad = Const("@", fn(fn(IND, BOOL), BOOL))
        pred = mk_abs(Var("i", IND), Const("T", BOOL))
        with pytest.raises(UninterpretableConstant):
            eval_term(mk_comb(bad, pred), Valuation(Model()), Theory())

    @pytest.mark.parametrize(
        "t",
        [
            Const("=", TyVar("A")),
            Const("@", TyVar("A")),
            Const("=", fn(IND, fn(IND, IND))),
            Const("@", fn(fn(IND, BOOL), BOOL)),
            mk_comb(Const("=", fn(IND, TyVar("B"))), xi),
            mk_comb(Const("@", fn(TyVar("B"), IND)), Var("p", TyVar("B"))),
            mk_comb(mk_comb(Const("=", fn(BOOL, fn(BOOL, IND))), x), x),
            mk_comb(mk_comb(Const("=", fn(BOOL, fn(TyVar("A"), BOOL))), x), Var("a", TyVar("A"))),
        ],
    )
    def test_fixed_constant_at_bad_type_rejected(self, t):
        v = Valuation(Model(), {"A": 2, "B": 2}, {u: 0 for u in free_vars(t)})
        with pytest.raises(UninterpretableConstant):
            eval_term(t, v, Theory())
        with pytest.raises(UninterpretableConstant):
            reference_eval_term(t, v, Theory())

    def test_defined_constants_unfold(self, theory):
        # ~F evaluates true by unfolding not and F
        v = Valuation(Model())
        assert eval_term(mk_neg(FALSE), v, theory) == TRUE_ELEM


class TestDefinedConstantsFolded:
    """eval_term folds each defined constant to its value; the reference
    compiles the definition's body at every occurrence instead."""

    @staticmethod
    def formula(rng, depth, scope):
        a = TyVar("A")
        if depth == 0 or rng.random() < 0.2:
            roll = rng.randrange(6)
            if roll == 0:
                return rng.choice((TRUE, FALSE, Var("b", BOOL)))
            if roll == 1 or not scope:
                return mk_eq(Var("u", a), Var("v", a))
            v = rng.choice(scope)
            if v.ty == a:
                return mk_eq(v, Var("u", a))
            return mk_comb(Var("P", fn(IND, BOOL)), v)
        op = rng.randrange(7)
        if op < 2:
            v = Var(f"x{depth}", rng.choice((IND, a)))
            body = TestDefinedConstantsFolded.formula(rng, depth - 1, scope + [v])
            return (mk_forall, mk_exists)[op](v, body)
        if op == 2:
            return mk_neg(TestDefinedConstantsFolded.formula(rng, depth - 1, scope))
        l = TestDefinedConstantsFolded.formula(rng, depth - 1, scope)
        r = TestDefinedConstantsFolded.formula(rng, depth - 1, scope)
        return (mk_conj, mk_disj, mk_imp, mk_eq)[op - 3](l, r)

    def test_matches_unfolded_reference_under_every_valuation(self, theory):
        from microhol.syntax import free_vars

        rng = random.Random(11)
        model = Model(ind_size=2)
        checked = 0
        for _ in range(12):
            t = self.formula(rng, 3, [])
            for size in (1, 2):
                tysizes = {"A": size}
                fvs = sorted(free_vars(t), key=lambda v: v.name)
                sizes = [carrier_size(v.ty, model, tysizes, theory) for v in fvs]
                for values in itertools.product(*(range(n) for n in sizes)):
                    v = Valuation(model, tysizes, dict(zip(fvs, values)))
                    assert eval_term(t, v, theory) == unfolded_eval_term(t, v, theory)
                    checked += 1
        assert checked > 100


class TestFoldingAddsNoSlots:
    """Defined constants and a defined type's predicate are closed terms
    compiled in the term's own compiler: their bound variables take
    fresh slots and none of them enters `slots`."""

    def test_slots_are_the_free_variables(self, typedef_theory):
        from microhol.semantics import _Compiler
        from microhol.syntax import free_vars

        a = TyVar("A")
        f, u, v = Var("f", fn(a, a)), Var("u", a), Var("v", a)
        b = Var("b", BOOL)
        ident = TyApp("ident", (a,))
        w = Var("w", ident)
        mk_id = Const("mk_id", fn(fn(a, a), ident))
        dest_id = Const("dest_id", fn(ident, fn(a, a)))
        t = mk_disj(
            mk_conj(
                mk_forall(v, mk_eq(mk_comb(mk_comb(dest_id, mk_comb(mk_id, f)), v), v)),
                mk_eq(mk_comb(mk_id, mk_comb(dest_id, w)), w),
            ),
            mk_imp(b, mk_exists(v, mk_eq(mk_comb(f, u), v))),
        )
        fvs = sorted(free_vars(t), key=lambda x: x.name)
        model = Model(ind_size=2)
        checked = 0
        for size in (1, 2):
            tysizes = {"A": size}
            comp = _Compiler(model, tysizes, typedef_theory)
            prog = comp.compile(t)
            assert set(comp.slots) == set(fvs)
            for values in itertools.product(*(range(comp.size_of(x.ty)) for x in fvs)):
                env = [0] * comp.n_slots
                for x, value in zip(fvs, values):
                    env[comp.slots[x]] = value
                val = Valuation(model, tysizes, dict(zip(fvs, values)))
                assert prog(env) == unfolded_eval_term(t, val, typedef_theory)
                checked += 1
        assert checked == 2 + 16  # f, u, w, b: 1 * 1 * 1 * 2, then 4 * 2 * 1 * 2


class TestSequents:
    def test_p_entails_p(self, theory):
        verdict = is_valid(((x,), x), Model(), theory=theory)
        assert verdict.valid
        assert verdict.exhaustive

    def test_false_sequent_invalid(self, theory):
        verdict = is_valid(((), FALSE), Model(), theory=theory)
        assert not verdict.valid
        assert verdict.exhaustive
        assert verdict.counterexample is not None

    def test_excluded_middle_by_enumeration(self, theory):
        from microhol.bootstrap import mk_disj

        seq = ((), mk_disj(x, mk_neg(x)))
        verdict = is_valid(seq, Model(), theory=theory)
        assert verdict.valid and verdict.exhaustive and verdict.checked == 2

    def test_sampled_verdict_reports_count(self, theory):
        vs = [Var(f"v{i}", fn(IND, IND)) for i in range(4)]
        concl = mk_eq(vs[0], vs[0])
        seq = (tuple(mk_eq(a, b) for a, b in zip(vs, vs[1:])), concl)
        verdict = is_valid(seq, Model(ind_size=3), budget=10, samples=50, theory=theory)
        assert not verdict.exhaustive
        assert verdict.checked <= 50


class TestAxiomsNeedStandardDefinitions:
    def test_choice_over_hostile_imp_would_be_false(self):
        # What axiom_choice would state after imp := \p q. q is refuted in
        # a finite model, so the kernel must refuse to state it.
        thy = Theory()
        p, q = Var("p", BOOL), Var("q", BOOL)
        new_basic_definition(thy, "imp", mk_abs(p, mk_abs(q, q)))
        a = TyVar("A")
        cap_p, xa = Var("P", fn(a, BOOL)), Var("x", a)
        select = mk_comb(Const("@", fn(fn(a, BOOL), a)), cap_p)
        imp = Const("imp", fn(BOOL, fn(BOOL, BOOL)))
        stmt = mk_comb(mk_comb(imp, mk_comb(cap_p, xa)), mk_comb(cap_p, select))
        verdict = is_valid(((), stmt), Model(), theory=thy)
        assert not verdict.valid
        assert verdict.counterexample.render() == "[A:=1] {P:=0, x:=0}"
        with pytest.raises(kernel.MissingDefinitions):
            kernel.axiom_choice(thy)


class TestSemanticInvariants:
    @given(typed_terms(depth=4), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_compositionality(self, t, seed):
        # eval(f a) = apply(eval f, eval a) on random applications
        from microhol.semantics import _Compiler

        theory = Theory()
        rng = random.Random(seed)
        g = TermGen(rng, max_free=3)
        f = g.term(fn(BOOL, IND), 2)
        a = g.term(BOOL, 2)
        app = mk_comb(f, a)
        model = Model(ind_size=3)
        tyenv = {"A": 2, "B": 2}
        comp = _Compiler(model, tyenv, theory)
        prog = comp.compile(app)
        prog_f = comp.compile(f)
        prog_a = comp.compile(a)
        env_vals = {v: rng.randrange(comp.size_of(v.ty)) for v in comp.slots}
        env = [0] * comp.n_slots
        for v, slot in comp.slots.items():
            env[slot] = env_vals[v]
        fv = prog_f(env)
        av = prog_a(env)
        cod = comp.size_of(IND)
        assert prog(env) == (fv // cod**av) % cod

    @given(typed_terms(ty=BOOL, depth=4), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_alpha_invariance(self, t, seed):
        from hypothesis import assume as hyp_assume

        theory = Theory()
        rng = random.Random(seed)
        u = alpha_variant(rng, t)
        assert alpha_equiv(t, u)
        model = Model(ind_size=2)
        from microhol.syntax import type_vars_of_term

        tyenv = {name: 2 for name in type_vars_of_term(t)}
        try:
            assignment = {}
            for v in free_vars(t):
                assignment[v] = rng.randrange(
                    carrier_size(v.ty, model, tyenv, theory)
                )
            val = Valuation(model, tyenv, assignment)
            left = eval_term(t, val, theory)
        except CarrierOverflow:
            hyp_assume(False)
            return
        assert left == eval_term(u, val, theory)

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_substitution_lemma(self, seed):
        # eval(t[u/x], v) = eval(t, v[x := eval(u, v)])
        theory = Theory()
        rng = random.Random(seed)
        g = TermGen(rng, max_free=3)
        t = g.term(BOOL, 3)
        u = g.term(BOOL, 2)
        target = Var("x", BOOL)
        substituted = vsubst(Substitution.of_terms({target: u}), t)
        model = Model(ind_size=2)
        from microhol.syntax import type_vars_of_term

        tyenv = {
            name: 2
            for name in type_vars_of_term(t) | type_vars_of_term(u)
        }
        assignment = {}
        for v in free_vars(t) | free_vars(u) | {target}:
            assignment[v] = rng.randrange(carrier_size(v.ty, model, tyenv, theory))
        val = Valuation(model, tyenv, assignment)
        u_val = eval_term(u, val, theory)
        val2 = Valuation(model, tyenv, {**assignment, target: u_val})
        assert eval_term(substituted, val, theory) == eval_term(t, val2, theory)

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_equality_is_identity_relation(self, seed):
        theory = Theory()
        rng = random.Random(seed)
        g = TermGen(rng, max_free=3)
        a = g.term(IND, 2)
        b = g.term(IND, 2)
        model = Model(ind_size=3)
        from microhol.syntax import type_vars_of_term

        tyenv = {n: 2 for n in type_vars_of_term(a) | type_vars_of_term(b)}
        assignment = {}
        for v in free_vars(a) | free_vars(b):
            assignment[v] = rng.randrange(carrier_size(v.ty, model, tyenv, theory))
        val = Valuation(model, tyenv, assignment)
        eq_val = eval_term(mk_eq(a, b), val, theory)
        same = eval_term(a, val, theory) == eval_term(b, val, theory)
        assert (eq_val == TRUE_ELEM) == same


class TestTypedefSemantics:
    def test_one_element_type(self):
        thy = Theory()
        logic = install_logic(thy)
        b = Var("b", BOOL)
        pred = mk_abs(b, mk_eq(b, TRUE))
        from .test_kernel import _pred_holds

        inhab = _pred_holds(logic, pred, TRUE)
        th1, th2 = kernel.new_basic_type_definition(thy, "unit", "mk_u", "dest_u", inhab)
        newty = th1.conclusion.rand.ty
        assert carrier_size(newty, Model(), {}, thy) == 1
        # both bijection theorems hold in the finite model
        for th in (th1, th2):
            verdict = is_valid(theorem_sequent(th), Model(), theory=thy)
            assert verdict.valid, verdict

    def test_type_carved_by_the_infinity_axiom(self):
        # the injective, non-surjective functions on ind: none in a model
        # of one or two individuals, and at three the predicate's
        # `ONE_ONE` ranges over more functions than the cap allows
        thy = Theory()
        logic = install_logic(thy)
        ax = kernel.axiom_infinity(thy)  # |- ?f. ONE_ONE f /\ ~ONTO f
        selected = logic.select_rule(ax)  # |- ONE_ONE w /\ ~ONTO w
        pred, witness = ax.conclusion.rand, selected.conclusion.rand.rand.rand
        inhab = kernel.eq_mp(selected, sym(beta_conv(mk_comb(pred, witness))))
        th1, th2 = kernel.new_basic_type_definition(thy, "inf", "mk_inf", "dest_inf", inhab)
        assert th1.uses_infinity and th2.uses_infinity
        newty = th1.conclusion.rand.ty
        for size in (1, 2):
            with pytest.raises(EmptyCarrier):
                carrier_size(newty, Model(ind_size=size), {}, thy)
            with pytest.raises(EmptyCarrier):
                is_valid(theorem_sequent(th1), Model(ind_size=size), theory=thy)
        with pytest.raises(CarrierOverflow):
            carrier_size(newty, Model(ind_size=3), {}, thy)


class TestFuzzer:
    def test_refl_clean(self):
        rep = fuzz_rule_soundness("refl", make_generator("refl"), 200, seed=5)
        assert rep.ok and rep.trials == 200

    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_all_rules_small(self, rule):
        rep = fuzz_rule_soundness(rule, make_generator(rule), 120, seed=9)
        assert rep.ok, rep.counterexamples[:1]

    def test_weakened_abs_finds_counterexample(self):
        rep = fuzz_rule_soundness(
            "weakened-abs", weakened_abs_generator, 50, seed=3
        )
        assert not rep.ok
        cex = rep.counterexamples[0]
        assert "\\" in cex.conclusion  # an abstraction equation
        assert cex.valuation

    def test_spec_example_counterexample(self, theory):
        # {x = y} |- (\x. x) = (\x. y) fails where x = y holds but the
        # identity and constant tables differ
        xv = Var("x", IND)
        yv = Var("y", IND)
        concl = mk_eq(mk_abs(xv, xv), mk_abs(xv, yv))
        seq = ((mk_eq(xv, yv),), concl)
        verdict = is_valid(seq, Model(ind_size=2), theory=theory)
        assert not verdict.valid

    def test_deterministic_given_seed(self):
        a = fuzz_rule_soundness("trans", make_generator("trans"), 60, seed=42)
        b = fuzz_rule_soundness("trans", make_generator("trans"), 60, seed=42)
        assert a == b

    def test_deduct_with_extra_assumption_valid(self, theory):
        # {r, q} |- p and {p} |- q combine to {r} |- p = q; spot-check model
        p = Var("p", BOOL)
        q = Var("q", BOOL)
        r = Var("r", BOOL)
        th1 = kernel.eq_mp(assume(q), assume(mk_eq(q, p)))  # {q, q=p} |- p
        th2 = kernel.eq_mp(assume(p), assume(mk_eq(p, q)))  # {p, p=q} |- q
        th = kernel.deduct_antisym(th1, th2)
        verdict = is_valid(theorem_sequent(th), Model(), theory=theory)
        assert verdict.valid


class TestRandomKernelWalk:
    """The walk's |- F detector, fed a forged theorem through its `refl`."""

    @staticmethod
    def _walk(monkeypatch, theory, forged, steps):
        monkeypatch.setattr(fuzz, "refl", lambda t: forged)
        return random_kernel_walk(theory, steps=steps, seed=3)

    @pytest.mark.parametrize("which", ["F", "forall"])
    def test_false_theorem_reported_at_its_first_step(self, monkeypatch, theory, which):
        q = Var("q", BOOL)
        forall = Const("forall", fn(fn(BOOL, BOOL), BOOL))
        # The walk knows |- !p. p; a renamed binder must still be caught.
        false = {"F": FALSE, "forall": mk_comb(forall, mk_abs(q, q))}[which]
        forged = kernel._mk((), false, False)
        report = self._walk(monkeypatch, theory, forged, 40)
        assert report.false_derived
        first = report.first_false_step
        # A walk's steps do not depend on its length: cut before `first`,
        # it sees no |- F; cut just after, it sees it at `first`.
        assert not self._walk(monkeypatch, theory, forged, first).false_derived
        again = self._walk(monkeypatch, theory, forged, first + 1)
        assert again.false_derived and again.first_false_step == first

    @pytest.mark.parametrize("which", ["assumed F", "T"])
    def test_other_theorems_are_not_false(self, monkeypatch, theory, which):
        forged = {
            "assumed F": kernel._mk((FALSE,), FALSE, False),
            "T": kernel._mk((), TRUE, False),
        }[which]
        report = self._walk(monkeypatch, theory, forged, 40)
        assert not report.false_derived and report.first_false_step is None
        assert report.successes > 0


class TestValuationSearchGolden:
    """`is_valid` and `fuzz_rule_soundness` share one valuation search.

    Fixed-seed values recorded when each had its own copy of the search:
    the shared one must make the same RNG draws in the same order (the
    fuzzer's `rng` also drives its instance generator), count the same
    evaluations and find the same counterexamples.
    """

    # the weakened abstraction instance's premise and conclusion, by type
    WEAKENED = {
        "ind": (
            "(x:ind) = (y:ind) |- (x:ind) = (y:ind)",
            "(x:ind) = (y:ind) |- (\\x:ind. x) = (\\x:ind. (y:ind))",
        ),
        "bool": (
            "(x:bool) <=> (y:bool) |- (x:bool) <=> (y:bool)",
            "(x:bool) <=> (y:bool) |- (\\x:bool. x) = (\\x:bool. (y:bool))",
        ),
    }

    @pytest.mark.parametrize(
        "limit, evaluations, expected",
        [
            (
                100_000,
                12,
                [(1, "ind", 0), (2, "ind", 0), (4, "ind", 0), (5, "ind", 0),
                 (7, "bool", 0), (8, "ind", 0), (10, "bool", 0), (11, "ind", 0)],
            ),
            (
                1,
                32,
                [(1, "ind", 1), (2, "ind", 2), (3, "bool", 1), (4, "bool", 0),
                 (5, "ind", 2), (7, "ind", 0), (8, "ind", 1), (9, "bool", 0),
                 (10, "ind", 0), (11, "bool", 1)],
            ),
        ],
    )
    def test_weakened_abs(self, limit, evaluations, expected):
        rep = fuzz_rule_soundness(
            "weakened-abs", weakened_abs_generator, 12, seed=3,
            exhaustive_limit=limit, sample_count=20,
        )
        assert (rep.evaluations, rep.skipped_overflow) == (evaluations, 0)
        got = [
            (c.trial, c.label, c.premises, c.conclusion, c.valuation)
            for c in rep.counterexamples
        ]
        assert got == [
            (
                trial,
                "abs-without-side-condition",
                (self.WEAKENED[ty][0],),
                self.WEAKENED[ty][1],
                f"{{x:={v}, y:={v}}}",
            )
            for trial, ty, v in expected
        ]

    @pytest.mark.parametrize(
        "rule, small_cap, limit, evaluations, skipped",
        [
            ("trans", False, 100_000, 10275, 0),
            ("trans", True, 100_000, 24192, 8),
            ("inst_type", False, 100_000, 595, 0),
            ("inst_type", True, 100_000, 7032, 3),
            ("trans", False, 1, 800, 0),
            ("trans", True, 1, 700, 5),
            ("inst_type", False, 1, 705, 0),
            ("inst_type", True, 1, 720, 4),
        ],
    )
    def test_sound_rules(self, rule, small_cap, limit, evaluations, skipped):
        model = Model(ind_size=3, cap=16) if small_cap else None
        rep = fuzz_rule_soundness(
            rule, make_generator(rule), 40, model=model, seed=11,
            exhaustive_limit=limit, sample_count=20,
        )
        assert (rep.evaluations, rep.skipped_overflow) == (evaluations, skipped)
        assert rep.counterexamples == ()

    @pytest.mark.parametrize("limit, evaluations", [(100_000, 28), (1, 82)])
    def test_failing_premise_is_no_counterexample(self, limit, evaluations):
        # the generated premises are theorems, so only an instance like this
        # one shows that the premises are checked at all
        eq = ((), mk_eq(xi, Var("j", IND)))
        rep = fuzz_rule_soundness(
            "premise-is-conclusion", lambda rng: RuleInstance((eq,), eq), 6, seed=3,
            exhaustive_limit=limit, sample_count=20,
        )
        assert (rep.evaluations, rep.skipped_overflow, rep.counterexamples) == (
            evaluations, 0, ()
        )

    @pytest.mark.parametrize(
        "weakened, budget, exhaustive, checked, counterexample",
        [
            (True, 100_000, True, 2, "[A:=2] {x:=0, y:=0}"),
            (True, 1, False, 2, "[A:=3] {x:=1, y:=1}"),
            (False, 100_000, True, 6, None),
            (False, 1, False, 50, None),
        ],
    )
    def test_is_valid(self, weakened, budget, exhaustive, checked, counterexample):
        xa, ya = Var("x", TyVar("A")), Var("y", TyVar("A"))
        if weakened:  # {x = y} |- (\x. x) = (\x. y)
            seq = ((mk_eq(xa, ya),), mk_eq(mk_abs(xa, xa), mk_abs(xa, ya)))
        else:
            seq = ((), mk_eq(mk_abs(xa, ya), mk_abs(xa, ya)))
        v = is_valid(seq, Model(), budget=budget, samples=50, seed=4, theory=Theory())
        assert (v.valid, v.exhaustive, v.checked) == (not weakened, exhaustive, checked)
        assert (v.counterexample and v.counterexample.render()) == counterexample

    def test_is_valid_overflow_propagates(self):
        f = Var("f", fn(fn(IND, IND), BOOL))
        with pytest.raises(CarrierOverflow):
            is_valid(((), mk_eq(f, f)), Model(ind_size=3, cap=16), theory=Theory())


@pytest.fixture(scope="module")
def typedef_theory():
    # ident A: the functions A -> A equal to the identity, carved by
    # the closed predicate (=) (\p. p); one element at every size.
    thy = Theory()
    install_logic(thy)
    p = Var("p", TyVar("A"))
    kernel.new_basic_type_definition(
        thy, "ident", "mk_id", "dest_id", refl(mk_abs(p, p))
    )
    return thy


class TestClosuresMatchReference:
    """The closure compiler against the opcode compiler and its interpreter
    it replaced (`oracles.ReferenceCompiler`, `oracles.run_reference`)."""

    SIZES = (1, 2, 3)

    def agree(self, t, theory, model=Model(ind_size=2)):
        """Compare both evaluators on `t` under every valuation, at every
        assignment of SIZES to its type variables; returns the count."""
        from microhol.semantics import _Compiler
        from microhol.syntax import type_vars_of_term

        tyvars = sorted(type_vars_of_term(t))
        fvs = sorted(free_vars(t), key=lambda v: v.name)
        checked = 0
        for sizes in itertools.product(self.SIZES, repeat=len(tyvars)):
            tysizes = dict(zip(tyvars, sizes))
            comps = []
            for make in (_Compiler, ReferenceCompiler):
                comp = make(model, tysizes, theory)
                try:
                    prog = comp.compile(t)
                    carriers = [range(comp.size_of(v.ty)) for v in fvs]
                except CarrierOverflow:
                    prog = carriers = None
                comps.append((comp, prog, carriers))
            (comp, prog, carriers), (ref, ref_prog, ref_carriers) = comps
            assert carriers == ref_carriers
            if prog is None:
                continue
            env = [0] * comp.n_slots
            ref_env = [0] * ref.n_slots
            for values in itertools.product(*carriers):
                for v, value in zip(fvs, values):
                    env[comp.slots[v]] = value
                    ref_env[ref.slots[v]] = value
                assert prog(env) == run_reference(ref_prog, ref_env), (t, tysizes)
                checked += 1
        return checked

    @pytest.mark.parametrize("seed", range(8))
    def test_termgen_terms(self, seed):
        rng = random.Random(seed)
        checked = 0
        for _ in range(6):
            g = TermGen(rng, max_free=3)
            ty = rng.choice((BOOL, IND, TyVar("A"), fn(IND, BOOL), fn(TyVar("A"), IND)))
            checked += self.agree(g.term(ty, 4), Theory())
        assert checked > 0

    def test_fixed_constants_redexes_and_definitions(self, typedef_theory):
        a = TyVar("A")
        u, v = Var("u", a), Var("v", a)
        f = Var("f", fn(a, a))
        p = Var("P", fn(a, BOOL))
        b = Var("b", BOOL)
        terms = [
            mk_eq(u, v),
            mk_comb(Const("=", fn(a, fn(a, BOOL))), u),  # (=) u
            mk_comb(Const("@", fn(fn(a, BOOL), a)), p),
            mk_comb(Const("@", fn(fn(a, BOOL), a)), mk_abs(u, mk_eq(u, v))),
            mk_comb(mk_abs(u, mk_comb(f, u)), mk_comb(f, v)),  # beta redex
            mk_comb(mk_abs(b, mk_abs(u, mk_eq(u, v))), mk_eq(u, v)),
            mk_forall(u, mk_imp(mk_comb(p, u), mk_exists(v, mk_eq(u, v)))),
            mk_neg(mk_conj(b, mk_disj(mk_comb(p, v), FALSE))),
        ]
        ident = TyApp("ident", (a,))
        mk_id = Const("mk_id", fn(fn(a, a), ident))
        dest_id = Const("dest_id", fn(ident, fn(a, a)))
        w = Var("w", ident)
        terms += [
            mk_comb(dest_id, mk_comb(mk_id, f)),  # abs off the support
            mk_eq(mk_comb(mk_id, mk_comb(dest_id, w)), w),
            mk_comb(mk_comb(dest_id, w), u),
        ]
        for t in terms:
            assert self.agree(t, typedef_theory) > 0, t

    def test_constant_named_like_a_defined_type(self):
        # a type `t` and a constant `t` share a name: the constant is
        # evaluated by its definition, and only `mk_t`/`dest_t` as abs/rep
        thy = Theory()
        install_logic(thy)
        p = Var("p", TyVar("A"))
        kernel.new_basic_type_definition(thy, "t", "mk_t", "dest_t", refl(mk_abs(p, p)))
        new_basic_definition(thy, "t", mk_neg(FALSE))
        t_const = Const("t", BOOL)
        assert eval_term(t_const, Valuation(Model()), thy) == TRUE_ELEM
        a = TyVar("A")
        f = Var("f", fn(a, a))
        ty = TyApp("t", (a,))
        mk_t = Const("mk_t", fn(fn(a, a), ty))
        dest_t = Const("dest_t", fn(ty, fn(a, a)))
        for t in (t_const, mk_conj(t_const, mk_eq(mk_comb(dest_t, mk_comb(mk_t, f)), f))):
            assert self.agree(t, thy) > 0, t


class TestSearchMatchesReference:
    """`_search` enumerates, samples and reports exactly as the search
    around the opcode evaluator did (`oracles.reference_search`)."""

    @staticmethod
    def compare(sequents, n_prem, model, theory, limit, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        try:
            exhaustive, count, failure = _search(
                sequents, n_prem, model, theory, limit, 20, rng
            )
        except CarrierOverflow:
            with pytest.raises(CarrierOverflow):
                reference_search(sequents, n_prem, model, theory, limit, 20, ref_rng)
            return None
        want = reference_search(sequents, n_prem, model, theory, limit, 20, ref_rng)
        assert (exhaustive, count, failure) == want
        assert rng.random() == ref_rng.random()
        return count

    @pytest.mark.parametrize("rule", RULE_IDS)
    @pytest.mark.parametrize("limit", [100_000, 1])
    def test_rule_instances(self, rule, limit):
        gen = make_generator(rule)
        total = 0
        for seed in range(12):
            inst = gen(random.Random(seed))
            sequents = [*inst.premises, inst.conclusion]
            model = Model(ind_size=seed % 3 + 1)
            count = self.compare(
                sequents, len(inst.premises), model, Theory(), limit, seed
            )
            total += count or 0
        assert total > 0

    def test_weakened_abs_counterexamples(self):
        for seed in range(12):
            inst = weakened_abs_generator(random.Random(seed))
            for limit in (100_000, 1):
                self.compare(
                    [*inst.premises, inst.conclusion], 1, Model(), Theory(), limit, seed
                )


class TestShadowingBinders:
    """A binder whose variable is also free outside it, or bound by an
    enclosing binder, reads its own slot: `eval_term` agrees with the
    reference compiler (`oracles.reference_eval_term`), and `is_valid`
    finds each term equal to what it means, as the reference search
    (`oracles.reference_search`) does."""

    y, a, b = Var("y", BOOL), Var("a", BOOL), Var("b", BOOL)
    # name -> (term, what it means)
    CASES = {
        # x = (\x. x) y: the redex's binder shadows the free x
        "free-redex": (mk_eq(x, mk_comb(mk_abs(x, x), y)), mk_eq(x, y)),
        # x = ((\x. x) = (\y. y)): the abstraction's binder shadows the free x
        "free-abstraction": (mk_eq(x, mk_eq(mk_abs(x, x), mk_abs(y, y))), x),
        # (\x. \x. x) a b: the inner binder shadows the outer one
        "nested": (mk_comb(mk_comb(mk_abs(x, mk_abs(x, x)), a), b), b),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_eval_term(self, name):
        t, _ = self.CASES[name]
        fvs = sorted(free_vars(t), key=lambda v: v.name)
        for values in itertools.product((0, 1), repeat=len(fvs)):
            v = Valuation(Model(), term_assignment=dict(zip(fvs, values)))
            assert eval_term(t, v) == reference_eval_term(t, v, Theory()), values

    @pytest.mark.parametrize("name", CASES)
    def test_is_valid(self, name):
        sequent = ((), mk_eq(*self.CASES[name]))
        verdict = is_valid(sequent, Model())
        assert verdict.valid
        want = reference_search([sequent], 0, Model(), Theory(), 100_000, 1_000, None)
        assert (verdict.exhaustive, verdict.checked, None) == want


class TestSharedNameOrder:
    """Two free variables named x, one bool and one ind: valuations list
    them by name, then by the order in which compilation first reaches
    them, which decides the enumeration order, the number of evaluations
    and the counterexample.  Expected values are those of the opcode
    evaluator's search."""

    xb, xi, i, y = Var("x", BOOL), Var("x", IND), Var("i", IND), Var("y", BOOL)
    differ = mk_neg(mk_eq(xi, i))
    SEQUENTS = {
        "bool-first": ((), mk_imp(xb, differ)),
        "ind-first": ((), mk_disj(differ, mk_neg(xb))),
        # a beta redex is compiled argument first
        "redex-argument-first": ((), mk_comb(mk_abs(y, mk_imp(xb, y)), differ)),
        "hypothesis-first": ((xb,), differ),
    }

    @pytest.mark.parametrize(
        "name, budget, exhaustive, checked, counterexample",
        [
            ("bool-first", 100_000, True, 4, "{i:=0, x:=1, x:=0}"),
            ("bool-first", 1, False, 1, "{i:=2, x:=1, x:=2}"),
            ("ind-first", 100_000, True, 2, "{i:=0, x:=0, x:=1}"),
            ("ind-first", 1, False, 7, "{i:=0, x:=0, x:=1}"),
            ("redex-argument-first", 100_000, True, 2, "{i:=0, x:=0, x:=1}"),
            ("redex-argument-first", 1, False, 7, "{i:=0, x:=0, x:=1}"),
            ("hypothesis-first", 100_000, True, 4, "{i:=0, x:=1, x:=0}"),
            ("hypothesis-first", 1, False, 1, "{i:=2, x:=1, x:=2}"),
        ],
    )
    def test_is_valid(self, theory, name, budget, exhaustive, checked, counterexample):
        seq = self.SEQUENTS[name]
        v = is_valid(seq, Model(ind_size=3), budget=budget, samples=40, seed=5, theory=theory)
        assert (v.valid, v.exhaustive, v.checked) == (False, exhaustive, checked)
        assert v.counterexample.render() == counterexample
        TestSearchMatchesReference.compare([seq], 0, Model(ind_size=3), theory, budget, 5)


class TestNoReferenceCycles:
    def test_one_trial_of_every_rule_leaves_no_cycle(self):
        # Closures that refer to themselves (a self-recursive nested
        # helper, say) would leave garbage for the cycle collector on
        # every compile.
        gc.collect()
        gc.disable()
        try:
            for rule in RULE_IDS:
                fuzz_rule_soundness(rule, make_generator(rule), 1, model=Model(2), seed=5)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0
