import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from microhol import kernel
from microhol.bootstrap import (
    FALSE,
    TRUE,
    Inapplicable,
    beta_conv,
    beta_n,
    install_logic,
    lhs,
    mk_conj,
    mk_disj,
    mk_exists,
    mk_forall,
    mk_imp,
    mk_neg,
    rewr_conv,
    sym,
)
from microhol.audit import replay_trace
from microhol.fuzz import alpha_variant
from microhol.kernel import DuplicateName, Theory, VarFreeInHyps, assume, refl, tracing
from microhol.semantics import (
    FALSE_ELEM,
    TRUE_ELEM,
    CarrierOverflow,
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
    HolError,
    IllTyped,
    Substitution,
    TyVar,
    Var,
    alpha_equiv,
    fn,
    mk_abs,
    mk_comb,
    mk_eq,
    term_order_key,
    vfree_in,
)
from microhol.surface import print_sequent

from .oracles import UnfoldingRules, choice_axiom_select_rule, excluded_middle_ccontr
from .strategies import base_types, bool_terms, typed_terms

p = Var("p", BOOL)
q = Var("q", BOOL)
x = Var("x", IND)
y = Var("y", IND)


# primitive inferences of `install_logic` on a fresh theory; 1,284 when
# `gen`, `exists_intro`, `disj1` and `disj2` unfolded their definitions on
# every call
LOGIC_BUILD_INFERENCES = 838


class TestInstallation:
    def test_build_inference_count(self):
        with tracing() as log:
            install_logic(Theory())
        assert len(log) == LOGIC_BUILD_INFERENCES

    def test_false_is_literally_forall_p_p(self, theory):
        rhs = theory.definitions["F"]
        want = mk_forall(p, p)
        assert rhs == want

    def test_all_constants_present(self, theory):
        for name in ("T", "and", "imp", "forall", "exists", "or", "F", "not",
                     "ONE_ONE", "ONTO"):
            assert name in theory.term_constants

    def test_reinstall_rejected(self, theory):
        with pytest.raises(DuplicateName):
            install_logic(theory)

    def test_signature_handles(self, logic):
        assert list(logic.defs) == [
            "T", "and", "imp", "forall", "exists", "or", "F", "not", "ONE_ONE", "ONTO",
        ]
        for name, th in logic.defs.items():
            assert th.assumptions == ()
            assert lhs(th) == Const(name, logic.theory.term_constants[name])

    def test_t_true_under_every_valuation(self, theory):
        for n in (1, 2, 3):
            assert eval_term(TRUE, Valuation(Model(ind_size=n)), theory) == TRUE_ELEM

    def test_definitional_theorems_valid(self, logic):
        for name in ("T", "and", "imp", "or", "F", "not"):
            verdict = is_valid(theorem_sequent(logic.defs[name]), Model(ind_size=2),
                               theory=logic.theory)
            assert verdict.valid, name


class TestTruthTables:
    def test_connectives_exhaustively(self, theory):
        cases = {
            "and": lambda a, b: a and b,
            "or": lambda a, b: a or b,
            "imp": lambda a, b: (not a) or b,
        }
        for name, fnc in cases.items():
            c = Const(name, fn(BOOL, fn(BOOL, BOOL)))
            for a, b in itertools.product((False, True), repeat=2):
                v = Valuation(Model(), {}, {p: int(a), q: int(b)})
                got = eval_term(mk_comb(mk_comb(c, p), q), v, theory)
                assert got == int(fnc(a, b)), (name, a, b)
        for a in (False, True):
            v = Valuation(Model(), {}, {p: int(a)})
            got = eval_term(mk_neg(p), v, theory)
            assert got == int(not a)
            got = eval_term(mk_eq(p, q), Valuation(Model(), {}, {p: int(a), q: 1}), theory)
            assert got == int(a == True)

    def test_quantifiers_over_bool(self, theory):
        # forall/exists at A = bool against all 4 predicate tables
        pv = Var("P", fn(BOOL, BOOL))
        fa = mk_comb(Const("forall", fn(fn(BOOL, BOOL), BOOL)), pv)
        ex = mk_comb(Const("exists", fn(fn(BOOL, BOOL), BOOL)), pv)
        for table in range(4):
            entries = [(table >> i) & 1 for i in range(2)]
            v = Valuation(Model(), {}, {pv: table})
            assert eval_term(fa, v, theory) == int(all(entries))
            assert eval_term(ex, v, theory) == int(any(entries))

    def test_proved_tables_match_semantics(self, logic):
        # each proved value lemma |- op args = V evaluates to true
        for (name, args), th in logic.tables.items():
            verdict = is_valid(theorem_sequent(th), Model(ind_size=1),
                               theory=logic.theory)
            assert verdict.valid, (name, args)

    def test_table_keys_name_their_constants(self, logic):
        # each value lemma |- op args = V is keyed by the name of its own
        # connective, a constant of the bootstrapped theory
        for (name, args), th in logic.tables.items():
            left = lhs(th)
            op = left.rator if len(args) == 1 else left.rator.rator
            assert op.name == name
            assert name in logic.theory.term_constants, name


class TestDerivedRules:
    def test_mp_from_self_implication(self, logic):
        imp_self = logic.disch(p, assume(p))  # |- p ==> p
        th = logic.mp(imp_self, assume(p))
        assert th.assumptions == (p,)
        assert th.conclusion == p

    def test_spec_example(self, logic):
        allx = logic.gen(x, refl(x))  # |- !x. x = x
        th = logic.spec(y, allx)
        assert th.conclusion == mk_eq(y, y)

    def test_beta_conv_replays_inst_of_primitive_beta(self):
        # beta_conv((\x. x) y) must equal inst_rule([y/x], beta((\x. x) x))
        idx = mk_abs(x, x)
        via_conv = beta_conv(mk_comb(idx, y))
        prim = kernel.beta(mk_comb(idx, x))
        via_inst = kernel.inst_rule(Substitution.of_terms({x: y}), prim)
        assert alpha_equiv(via_conv.conclusion, via_inst.conclusion)
        assert via_conv.assumptions == via_inst.assumptions == ()

    def test_beta_n_contracts_exactly_n_head_redexes(self):
        # t = (\u v. v u) r g, with a redex r in an argument and a
        # function g that leaves a redex g r after two contractions
        z, w = Var("z", IND), Var("w", IND)
        u, v = Var("u", IND), Var("v", fn(IND, IND))
        r = mk_comb(mk_abs(z, z), x)
        g = mk_abs(w, w)
        t = mk_comb(mk_comb(mk_abs(u, mk_abs(v, mk_comb(v, u))), r), g)
        residuals = [mk_comb(mk_abs(v, mk_comb(v, r)), g), mk_comb(g, r), r, x]
        for n, residual in enumerate(residuals, start=1):
            with tracing() as log:
                th = beta_n(n, t)
            assert th.conclusion == mk_eq(t, residual) and th.assumptions == ()
            assert [name for name, _, _ in log].count("beta") == n
        with pytest.raises(kernel.NotABetaRedex):
            beta_n(len(residuals) + 1, t)

    def test_gen_side_condition(self, logic):
        with pytest.raises(VarFreeInHyps):
            logic.gen(x, assume(mk_eq(x, y)))

    def test_sym(self, logic):
        th = sym(assume(mk_eq(p, q)))
        assert th.conclusion == mk_eq(q, p)

    def test_conj_and_projections(self, logic):
        th = logic.conj(assume(p), assume(q))
        assert th.conclusion == mk_conj(p, q)
        back1 = logic.conjunct1(th)
        back2 = logic.conjunct2(th)
        assert back1.conclusion == p
        assert back2.conclusion == q

    def test_disch_undisch_roundtrip(self, logic):
        th = logic.disch(p, assume(p))
        again = logic.mp(th, assume(p))
        assert again.conclusion == p
        assert again.assumptions == (p,)

    def test_disj_cases(self, logic):
        em = kernel.inst_rule(
            Substitution.of_terms({Var("t", BOOL): p}), logic.EXCLUDED_MIDDLE
        )
        case2 = logic.contr(p, logic.mp(logic.not_elim(assume(mk_neg(p))), assume(p)))
        out = logic.disj_cases(em, assume(p), case2)
        assert out.conclusion == p
        assert out.assumptions == (p,)

    def test_exists_intro(self, logic):
        pv = Var("P", fn(IND, BOOL))
        goal = mk_exists(x, mk_comb(pv, x))
        intro = logic.exists_intro(goal, y, assume(mk_comb(pv, y)))
        assert alpha_equiv(intro.conclusion, goal)

    def test_exists_intro_refuses_another_instance(self, logic):
        # the schema would return {P y} u G |- ?x. P x; the rule refuses
        # (`\x. P x` is contracted before the check, a bare `P` is not)
        pv = Var("P", fn(IND, BOOL))
        bare = mk_comb(Const("exists", fn(fn(IND, BOOL), BOOL)), pv)
        for etm in (mk_exists(x, mk_comb(pv, x)), bare):
            with pytest.raises(kernel.Mismatch):
                logic.exists_intro(etm, y, assume(mk_comb(pv, x)))

    def test_select_rule(self, logic):
        pv = Var("P", fn(IND, BOOL))
        goal = mk_exists(x, mk_comb(pv, x))
        intro = logic.exists_intro(goal, y, assume(mk_comb(pv, y)))
        sel = logic.select_rule(intro)
        # concludes P (@x. P x)
        assert isinstance(sel.conclusion, Comb)
        assert sel.conclusion.rator == pv

    def test_ccontr(self, logic):
        to_f = logic.mp(logic.not_elim(assume(mk_neg(p))), assume(p))
        th = logic.ccontr(p, to_f)
        assert th.conclusion == p
        assert th.assumptions == (p,)


class TestRewrConv:
    def test_nonlinear_pattern(self, logic):
        a = Var("a", TyVar("A"))
        conv = rewr_conv(logic.eqt_intro(refl(a)))  # |- (a = a) = T
        assert conv(mk_eq(x, x)).conclusion == mk_eq(mk_eq(x, x), TRUE)
        with pytest.raises(Inapplicable):
            conv(mk_eq(x, y))

    def test_type_instance_that_merges_pattern_variables(self, logic):
        # a:A and a:B are one variable once A and B are both ind, so the
        # match of each against its own subterm must agree
        a_a, a_b = Var("a", TyVar("A")), Var("a", TyVar("B"))
        conv = rewr_conv(refl(mk_conj(mk_eq(a_a, a_a), mk_eq(a_b, a_b))))
        same = mk_conj(mk_eq(x, x), mk_eq(x, x))
        assert conv(same).conclusion == mk_eq(same, same)
        with pytest.raises(Inapplicable):
            conv(mk_conj(mk_eq(x, x), mk_eq(y, y)))

    def test_pattern_of_another_type(self):
        with pytest.raises(Inapplicable):
            rewr_conv(refl(p))(x)


class TestSoundnessOfDerived:
    def test_excluded_middle_valid(self, logic):
        verdict = is_valid(
            theorem_sequent(logic.EXCLUDED_MIDDLE), Model(ind_size=2),
            theory=logic.theory,
        )
        assert verdict.valid

    def test_derived_rules_trace_to_primitives(self, logic):
        with tracing() as log:
            th = logic.conj(assume(p), assume(q))
        assert replay_trace(log)
        names = {name for name, _, _ in log}
        assert names <= set(kernel.PRIMITIVE_RULES)

    def test_choice_axiom_valid_in_model(self, logic):
        th = kernel.axiom_choice(logic.theory)
        verdict = is_valid(theorem_sequent(th), Model(ind_size=3), theory=logic.theory)
        assert verdict.valid

    def test_extensionality_valid_in_model(self, logic):
        th = kernel.axiom_extensionality()
        verdict = is_valid(theorem_sequent(th), Model(ind_size=2), theory=logic.theory)
        assert verdict.valid


r = Var("r", BOOL)


class TestSchemaRules:
    """The rules that instantiate pre-proved schemas give the sequents the
    per-call unfolding derivations gave, assumption for assumption."""

    FORMULAS = (p, q, r, mk_conj(p, q), mk_imp(p, q), mk_neg(p), mk_disj(q, r))

    @staticmethod
    def same(a, b):
        assert alpha_equiv(a.conclusion, b.conclusion)
        assert [term_order_key(h) for h in a.assumptions] == [
            term_order_key(h) for h in b.assumptions
        ]

    def pool(self, old, concl):
        """Theorems concluding `concl` under assorted assumption sets,
        including ones that hold `concl` itself or other formulas."""
        base = [assume(concl), old.conjunct1(assume(mk_conj(concl, r)))]
        out = []
        for th in base:
            out.append(th)
            for h in self.FORMULAS[:5]:
                if h != concl:
                    out.append(old.conjunct2(old.conj(assume(h), th)))
        return out

    def test_conj_and_conjuncts(self, logic):
        old = UnfoldingRules(logic)
        rng = random.Random(3)
        for _ in range(40):
            th1 = rng.choice(self.pool(old, rng.choice(self.FORMULAS)))
            th2 = rng.choice(self.pool(old, rng.choice(self.FORMULAS)))
            both = logic.conj(th1, th2)
            self.same(both, old.conj(th1, th2))
            self.same(logic.conjunct1(both), old.conjunct1(both))
            self.same(logic.conjunct2(both), old.conjunct2(both))

    def test_mp_keeps_every_assumption(self, logic):
        old = UnfoldingRules(logic)
        for ante, cons in ((p, q), (mk_conj(p, q), r), (q, p), (p, p)):
            for th_imp in self.pool(old, mk_imp(ante, cons)):
                for th_ant in self.pool(old, ante):
                    self.same(logic.mp(th_imp, th_ant), old.mp(th_imp, th_ant))

    def test_disch(self, logic):
        old = UnfoldingRules(logic)
        for a in self.FORMULAS:
            for th in self.pool(old, q) + self.pool(old, a):
                self.same(logic.disch(a, th), old.disch(a, th))

    def test_spec(self, logic):
        old = UnfoldingRules(logic)
        P = Var("P", fn(IND, BOOL))
        R = Var("R", fn(IND, fn(IND, BOOL)))
        A = TyVar("A")
        universals = (
            mk_forall(x, mk_comb(P, x)),
            mk_forall(x, mk_forall(y, mk_comb(mk_comb(R, x), y))),
            mk_comb(Const("forall", fn(fn(IND, BOOL), BOOL)), P),
        )
        for u in universals:
            for th in self.pool(old, u):
                for t in (x, y, Var("k", IND)):
                    self.same(logic.spec(t, th), old.spec(t, th))
        poly = assume(mk_forall(Var("a", A), mk_eq(Var("a", A), Var("a", A))))
        self.same(logic.spec(Var("b", A), poly), old.spec(Var("b", A), poly))

    def test_disj_cases(self, logic):
        old = UnfoldingRules(logic)
        for th in self.pool(old, mk_disj(p, q)):
            for concl in (r, p, mk_imp(p, q)):
                th1 = old.mp(assume(mk_imp(p, concl)), assume(p))
                th2 = old.mp(assume(mk_imp(q, concl)), assume(q))
                th2 = old.conjunct2(old.conj(assume(mk_imp(p, q)), th2))
                for a, b in ((th1, th2), (th2, th1)):
                    self.same(logic.disj_cases(th, a, b), old.disj_cases(th, a, b))

    def test_gen(self, logic):
        old = UnfoldingRules(logic)
        P = Var("P", fn(IND, BOOL))
        for concl in (mk_comb(P, x), mk_eq(x, y), mk_imp(p, mk_comb(P, x))):
            for th in self.pool(old, concl) + [refl(concl)]:
                for v in (x, Var("k", IND), q):
                    if any(vfree_in(v, h) for h in th.assumptions):
                        for gen in (logic.gen, old.gen):
                            with pytest.raises(VarFreeInHyps):
                                gen(v, th)
                    else:
                        self.same(logic.gen(v, th), old.gen(v, th))

    def test_exists_intro(self, logic):
        old = UnfoldingRules(logic)
        P = Var("P", fn(IND, BOOL))
        R = Var("R", fn(IND, fn(IND, BOOL)))
        cases = (
            (mk_exists(x, mk_comb(P, x)), y, mk_comb(P, y)),
            (mk_comb(Const("exists", fn(fn(IND, BOOL), BOOL)), P), x, mk_comb(P, x)),
            # the witness is named like the bound variable and like the
            # definition's own binders q and x
            (mk_exists(y, mk_comb(mk_comb(R, x), y)), x, mk_comb(mk_comb(R, x), x)),
            (mk_exists(x, mk_conj(q, mk_comb(P, x))), x, mk_conj(q, mk_comb(P, x))),
        )
        for etm, witness, concl in cases:
            for th in self.pool(old, concl):
                self.same(logic.exists_intro(etm, witness, th), old.exists_intro(etm, witness, th))

    def test_disj_intro(self, logic):
        old = UnfoldingRules(logic)
        for a in self.FORMULAS:
            for th in self.pool(old, a):
                for other in (p, r, mk_imp(q, r)):
                    self.same(logic.disj1(th, other), old.disj1(th, other))
                    self.same(logic.disj2(other, th), old.disj2(other, th))

    def test_spec_type_mismatch_rejected(self, logic):
        for spec in (logic.spec, UnfoldingRules(logic).spec):
            with pytest.raises(HolError):
                spec(p, assume(mk_forall(x, mk_eq(x, x))))


def _printed(th):
    return print_sequent(th.assumptions, th.conclusion)


class TestSchemas:
    """The lemma base the schema rules instantiate, sequent for sequent."""

    def test_printed_sequents(self, logic):
        schemas = [
            logic._f_elim_pth,
            logic._conj_pth,
            *logic._conjunct_pths,
            logic._mp_pth,
            logic._disch_pth,
            logic._spec_pth,
            logic._gen_pth,
            *logic._disj_pths,
            logic._disj_cases_pth,
            logic._clash_pth,
            logic._ccontr_pth,
            logic._exists_pth,
            logic._select_pth,
        ]
        assert [_printed(th) for th in schemas] == [
            "F |- (p:bool)",
            "(p:bool), (q:bool) |- (p:bool) /\\ (q:bool)",
            "(p:bool) /\\ (q:bool) |- (p:bool)",
            "(p:bool) /\\ (q:bool) |- (q:bool)",
            "(p:bool) ==> (q:bool) |- (p:bool) <=> (p:bool) /\\ (q:bool)",
            "|- ((p:bool) /\\ (q:bool) <=> (p:bool)) <=> (p:bool) ==> (q:bool)",
            "(!:(A -> bool) -> bool) (P:A -> bool) |- (P:A -> bool) (x:A)",
            "|- (P:A -> bool) = (\\x:A. T) <=> (!:(A -> bool) -> bool) (P:A -> bool)",
            "(p:bool) |- (p:bool) \\/ (q:bool)",
            "(q:bool) |- (p:bool) \\/ (q:bool)",
            "(p:bool) \\/ (q:bool) |- ((p:bool) ==> (r:bool)) ==> "
            "((q:bool) ==> (r:bool)) ==> (r:bool)",
            "(p:bool), ~(p:bool) |- F",
            "|- (~(p:bool) <=> F) <=> (p:bool)",
            "(P:A -> bool) (x:A) |- (?:(A -> bool) -> bool) (P:A -> bool)",
            "(?:(A -> bool) -> bool) (P:A -> bool) |- "
            "(P:A -> bool) ((@:(A -> bool) -> A) (P:A -> bool))",
        ]

    def test_unfold(self, logic):
        # every definition unfolds one way: the constant at the instance
        # that fits the first argument, applied, then one beta per argument
        P = Var("P", fn(IND, BOOL))
        Q = Var("Q", fn(TyVar("A"), BOOL))
        unfolded = [
            logic.unfold("and", p, q),
            logic.unfold("imp", p, q),
            logic.unfold("or", p, q),
            logic.unfold("not", p),
            logic.unfold("forall", P),
            logic.unfold("exists", Q),
        ]
        assert [_printed(th) for th in unfolded] == [
            "|- (p:bool) /\\ (q:bool) <=> (\\f:bool -> bool -> bool. f (p:bool) (q:bool)) = "
            "(\\f:bool -> bool -> bool. f T T)",
            "|- (p:bool) ==> (q:bool) <=> (p:bool) /\\ (q:bool) <=> (p:bool)",
            "|- (p:bool) \\/ (q:bool) <=> "
            "(!r:bool. ((p:bool) ==> r) ==> ((q:bool) ==> r) ==> r)",
            "|- ~(p:bool) <=> (p:bool) ==> F",
            "|- (!:(ind -> bool) -> bool) (P:ind -> bool) <=> (P:ind -> bool) = (\\x:ind. T)",
            "|- (?:(A -> bool) -> bool) (Q:A -> bool) <=> "
            "(!q:bool. (!x:A. (Q:A -> bool) x ==> q) ==> q)",
        ]
        for name, args in (
            ("forall", (x,)),
            ("exists", (Var("f", fn(IND, IND)),)),
            ("and", (x, q)),
            ("not", (x,)),
        ):
            with pytest.raises(IllTyped):
                logic.unfold(name, *args)

    def test_clash_and_eqf_intro(self, logic):
        assert _printed(logic.clash(mk_conj(q, p))) == (
            "~((q:bool) /\\ (p:bool)), (q:bool) /\\ (p:bool) |- F"
        )
        assert _printed(logic.eqf_intro(p, logic.clash(p))) == "~(p:bool) |- (p:bool) <=> F"


def _valid(logic, th) -> bool:
    """th's sequent holds in a two-element model (True when a carrier is
    too large to enumerate: the printed-sequent check still applies)."""
    try:
        verdict = is_valid(
            theorem_sequent(th), Model(ind_size=2), budget=4096, samples=200,
            theory=logic.theory,
        )
    except CarrierOverflow:
        return True
    return verdict.valid


# Goals over the random terms' variable names and over the schemas' own
# (p, P, x), so instantiating a schema meets name clashes.
_goals = st.one_of(bool_terms, bool_terms.map(lambda t: mk_disj(p, t)))


@st.composite
def _predicates(draw):
    ty = draw(base_types)
    pred = draw(typed_terms(ty=fn(ty, BOOL), depth=3))
    if draw(st.booleans()):
        v = Var("x", ty)
        own = Var("P", fn(ty, BOOL))
        pred = mk_abs(v, mk_disj(mk_comb(own, v), mk_comb(pred, v)))
    return pred


class TestContradictionAndChoice:
    """`ccontr` and `select_rule` instantiate one schema each; they give
    the sequents the derivations through excluded middle and through the
    choice axiom gave, and sound ones."""

    @staticmethod
    def under(logic, th, hyps):
        for h in hyps:
            th = logic.conjunct2(logic.conj(assume(h), th))
        return th

    @given(_goals, st.lists(bool_terms, max_size=2), st.integers(0, 3), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_ccontr(self, logic, goal, hyps, shape, seed):
        rng = random.Random(seed)
        np = mk_neg(goal)
        if shape == 0:  # no ~p to discharge
            th = assume(FALSE)
        else:
            ant = assume(goal)
            if shape == 2:
                ant = logic.conjunct1(assume(mk_conj(goal, q)))
            th = logic.mp(logic.not_elim(assume(np)), ant)
            if shape == 3:  # ~p also held as an alpha-variant
                hyps = [*hyps, mk_neg(alpha_variant(rng, goal))]
        th = self.under(logic, th, hyps)
        new = logic.ccontr(goal, th)
        assert _printed(new) == _printed(excluded_middle_ccontr(logic, goal, th))
        assert _valid(logic, new)

    @given(_predicates(), st.lists(bool_terms, max_size=2), st.booleans(), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_select_rule(self, logic, pred, hyps, variant_hyp, seed):
        ex = mk_comb(Const("exists", fn(pred.ty, BOOL)), pred)
        if variant_hyp:
            hyps = [*hyps, alpha_variant(random.Random(seed), ex)]
        th = self.under(logic, assume(ex), hyps)
        new = logic.select_rule(th)
        assert _printed(new) == _printed(choice_axiom_select_rule(logic, th))
        assert _valid(logic, new)
