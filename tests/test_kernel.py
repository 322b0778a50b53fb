import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from microhol import kernel
from microhol.audit import check_theorem, replay_trace
from microhol.kernel import (
    DuplicateName,
    KernelViolation,
    MalformedInhabitation,
    MiddleMismatch,
    Mismatch,
    MissingDefinitions,
    NotABetaRedex,
    NotAnEquation,
    NotBoolean,
    NotClosed,
    Theorem,
    Theory,
    TheoryMismatch,
    TypeVarEscape,
    VarFreeInHyps,
    abs_rule,
    assume,
    axiom_choice,
    axiom_extensionality,
    axiom_infinity,
    beta,
    deduct_antisym,
    eq_mp,
    inst_rule,
    inst_type_rule,
    mk_comb_rule,
    new_basic_definition,
    new_basic_type_definition,
    refl,
    tracing,
    trans,
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
    TyApp,
    TyVar,
    Var,
    alpha_equiv,
    fn,
    mk_abs,
    mk_comb,
    mk_eq,
    inst_type,
    term_order_key,
    vsubst,
)

from .oracles import legacy_sorted_unique
from .strategies import typed_terms

x = Var("x", BOOL)
y = Var("y", BOOL)
z = Var("z", BOOL)
xi = Var("x", IND)


def eq(a, b):
    return mk_eq(a, b)


# `=` at bool -> (bool -> bool) -> bool: `bad_eq` is boolean but relates
# terms of two types, so it is no equation.
ident = mk_abs(x, x)
bad_eq = mk_comb(
    mk_comb(Const("=", fn(BOOL, fn(fn(BOOL, BOOL), BOOL))), eq(ident, ident)), ident
)


class TestRefl:
    def test_simple(self):
        th = refl(x)
        assert th.assumptions == ()
        assert th.conclusion == eq(x, x)

    def test_abstraction(self):
        idf = mk_abs(xi, xi)
        th = refl(idf)
        assert th.conclusion == eq(idf, idf)

    def test_non_term(self):
        with pytest.raises(Exception):
            refl("not a term")


class TestTrans:
    def test_chain(self):
        a, b, c = x, y, z
        th = trans(assume(eq(a, b)), assume(eq(b, c)))
        assert th.conclusion == eq(a, c)
        assert len(th.assumptions) == 2

    def test_alpha_middle(self):
        idx = mk_abs(x, x)
        idy = mk_abs(y, y)
        # |- (\x. x) = (\y. y): the middle terms only match modulo alpha
        th = trans(refl(idx), refl(idy))
        assert alpha_equiv(th.conclusion, eq(idx, idy))

    def test_middle_mismatch(self):
        with pytest.raises(MiddleMismatch):
            trans(assume(eq(x, y)), assume(eq(z, x)))

    def test_not_equation(self):
        with pytest.raises(NotAnEquation):
            trans(assume(x), assume(eq(x, y)))

    def test_equality_constant_at_a_mixed_type(self):
        with pytest.raises(NotAnEquation):
            trans(assume(bad_eq), refl(ident))


class TestMkCombRule:
    def test_congruence(self):
        f = Var("f", fn(BOOL, BOOL))
        g = Var("g", fn(BOOL, BOOL))
        th = mk_comb_rule(assume(eq(f, g)), assume(eq(x, y)))
        assert th.conclusion == eq(mk_comb(f, x), mk_comb(g, y))

    def test_with_refl_functional(self):
        f = Var("f", fn(BOOL, BOOL))
        th = mk_comb_rule(refl(f), assume(eq(x, y)))
        assert th.conclusion == eq(mk_comb(f, x), mk_comb(f, y))

    def test_ill_typed(self):
        f = Var("f", fn(IND, BOOL))
        g = Var("g", fn(IND, BOOL))
        from microhol.syntax import IllTyped

        with pytest.raises(IllTyped):
            mk_comb_rule(assume(eq(f, g)), assume(eq(x, y)))


class TestAbsRule:
    def test_basic(self):
        th = abs_rule(x, refl(x))
        assert th.conclusion == eq(mk_abs(x, x), mk_abs(x, x))

    def test_side_condition(self):
        premise = assume(mk_eq(x, y))
        with pytest.raises(VarFreeInHyps):
            abs_rule(x, premise)

    def test_not_equation(self):
        with pytest.raises(NotAnEquation):
            abs_rule(x, assume(x))

    def test_binder_must_be_a_variable(self):
        with pytest.raises(IllTyped, match="binder must be a variable"):
            abs_rule(Const("c", BOOL), refl(x))


class TestBeta:
    def test_self_application(self):
        f = Var("f", fn(BOOL, BOOL))
        t = mk_comb(mk_abs(x, mk_comb(f, x)), x)
        th = beta(t)
        assert th.conclusion == eq(t, mk_comb(f, x))

    def test_identity(self):
        t = mk_comb(mk_abs(x, x), x)
        assert beta(t).conclusion == eq(t, x)

    def test_rejects_general_redex(self):
        t = mk_comb(mk_abs(x, x), y)
        with pytest.raises(NotABetaRedex):
            beta(t)

    def test_rejects_non_redex(self):
        with pytest.raises(NotABetaRedex):
            beta(x)


class TestAssume:
    def test_basic(self):
        th = assume(x)
        assert th.assumptions == (x,)
        assert th.conclusion == x

    def test_non_boolean(self):
        with pytest.raises(NotBoolean):
            assume(xi)

    def test_non_term(self):
        with pytest.raises(IllTyped, match="expects a term"):
            assume("p")

    def test_assume_deduct_matches_refl(self):
        # assume then deduct_antisym with itself replays to |- p = p
        th = deduct_antisym(assume(x), assume(x))
        assert th.assumptions == ()
        assert alpha_equiv(th.conclusion, refl(x).conclusion)


class TestEqMp:
    def test_basic(self):
        th = eq_mp(assume(x), assume(eq(x, y)))
        assert th.conclusion == y

    def test_alpha_premise(self):
        idx = mk_abs(x, x)
        idy = mk_abs(y, y)
        premise = refl(idx)  # |- (\x. x) = (\x. x)
        equation = assume(eq(eq(idy, idy), z))
        th = eq_mp(premise, equation)
        assert th.conclusion == z

    def test_mismatch(self):
        with pytest.raises(Mismatch):
            eq_mp(assume(x), assume(eq(y, z)))

    def test_equality_constant_at_a_mixed_type(self):
        # without the type check this returns {bad_eq} |- \x:bool. x,
        # a sequent whose conclusion has type bool -> bool
        with pytest.raises(NotAnEquation):
            eq_mp(refl(ident), assume(bad_eq))


class TestDeductAntisym:
    def test_both_removals(self):
        th1 = assume(x)
        th2 = assume(y)
        th = deduct_antisym(th1, th2)
        assert th.conclusion == eq(x, y)
        assert set(th.assumptions) == {x, y}

    def test_discharges(self):
        # {q} |- p and {p} |- q give |- p = q
        p_from_q = eq_mp(assume(y), assume(eq(y, x)))  # {y, y=x} |- x
        q_from_p = eq_mp(assume(x), assume(eq(x, y)))  # {x, x=y} |- y
        th = deduct_antisym(p_from_q, q_from_p)
        # x and y both discharged; the equation hypotheses remain
        assert all(not alpha_equiv(h, x) and not alpha_equiv(h, y) for h in th.assumptions)
        assert th.conclusion == eq(x, y)


class TestInstRules:
    def test_inst_type(self):
        a = TyVar("A")
        v = Var("x", a)
        th = inst_type_rule(Substitution.of_types({"A": BOOL}), refl(v))
        assert th.conclusion == eq(x, x)

    def test_inst_type_identity(self):
        th = refl(Var("x", TyVar("A")))
        th2 = inst_type_rule(Substitution.of_types({}), th)
        assert alpha_equiv(th2.conclusion, th.conclusion)

    def test_inst_term(self):
        th = inst_rule(Substitution.of_terms({x: y}), refl(x))
        assert th.conclusion == eq(y, y)

    def test_inst_substitutes_assumptions(self):
        p = Var("P", fn(BOOL, BOOL))
        th = assume(mk_comb(p, x))
        t = mk_eq(y, z)
        out = inst_rule(Substitution.of_terms({x: t}), th)
        assert out.assumptions == (mk_comb(p, t),)
        assert out.conclusion == mk_comb(p, t)

    def test_inst_collapses_alpha_duplicate_assumptions(self):
        th1 = assume(x)
        th2 = assume(y)
        both = deduct_antisym(th1, th2)
        # substituting y := x makes the two assumptions equal
        merged = inst_rule(Substitution.of_terms({y: x}), both)
        assert len(merged.assumptions) == 1

    def test_untouched_assumptions_are_the_premises(self):
        # the premise's tuple is already sorted and alpha-unique
        th = deduct_antisym(assume(eq(x, y)), assume(z))
        assert inst_rule({Var("u", BOOL): x}, th).assumptions is th.assumptions
        assert inst_type_rule({"A": BOOL}, th).assumptions is th.assumptions
        assert inst_rule({z: x}, th).assumptions == (x, eq(x, y))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_instance_assumptions_as_sorted_afresh(self, data):
        atom = typed_terms(ty=BOOL, depth=3)
        th = assume(data.draw(atom))
        for _ in range(data.draw(st.integers(0, 3))):
            th = deduct_antisym(th, assume(data.draw(atom)))
        v = Var(data.draw(st.sampled_from(("x", "y", "z", "u"))), BOOL)
        theta = {v: data.draw(atom)}
        tyin = {"A": data.draw(st.sampled_from((BOOL, IND, TyVar("B"))))}
        assert inst_rule(theta, th).assumptions == legacy_sorted_unique(
            vsubst(theta, h) for h in th.assumptions
        )
        assert inst_type_rule(tyin, th).assumptions == legacy_sorted_unique(
            inst_type(tyin, h) for h in th.assumptions
        )

    # An ill-typed map would make {x:bool} |- x into {} |- y:ind, a
    # "theorem" that is not boolean; every entry is checked, used or not.
    @pytest.mark.parametrize(
        "th",
        [assume(x), assume(y), refl(y)],
        ids=["variable-occurs", "variable-absent", "no-assumptions"],
    )
    def test_ill_typed_map_rejected(self, th):
        from microhol.syntax import IllTyped

        with pytest.raises(IllTyped):
            inst_rule({x: Var("y", IND)}, th)


class TestNoForgery:
    def test_direct_construction_rejected(self):
        with pytest.raises(KernelViolation):
            Theorem((), x)

    def test_keyword_token_guess_rejected(self):
        with pytest.raises(KernelViolation):
            Theorem((), x, False, _token=object())

    def test_subclassing_rejected(self):
        with pytest.raises(TypeError):

            class Fake(Theorem):
                pass

    def test_rules_reject_non_theorems(self):
        class Look:
            assumptions = ()
            conclusion = eq(x, x)
            uses_infinity = False
            theory = None

        with pytest.raises(KernelViolation):
            trans(Look(), Look())

    def test_theorem_immutable(self):
        th = refl(x)
        with pytest.raises(AttributeError):
            th.conclusion = y
        with pytest.raises(AttributeError):
            del th.conclusion
        assert th.conclusion == eq(x, x)


class TestAxioms:
    def test_extensionality_shape(self):
        th = axiom_extensionality()
        lhs, rhs = th.conclusion.rator.rand, th.conclusion.rand
        assert isinstance(lhs, Abs)
        assert rhs == Var("t", fn(TyVar("A"), TyVar("B")))
        assert not th.uses_infinity

    def test_choice_requires_bootstrap(self):
        with pytest.raises(MissingDefinitions):
            axiom_choice(Theory())

    def test_choice_refuses_imp_with_another_body(self):
        # With imp := \p q. q the axiom would read |- P x ==> P (@P), which
        # the model [A:=1] {P:=0, x:=0} refutes.
        thy = Theory()
        p, q = Var("p", BOOL), Var("q", BOOL)
        new_basic_definition(thy, "imp", mk_abs(p, mk_abs(q, q)))
        with pytest.raises(MissingDefinitions, match="'imp'"):
            axiom_choice(thy)

    @staticmethod
    def standard_theory(**hostile):
        """The standard definitions in bootstrap order, some replaced."""
        thy = Theory()
        for name, body in kernel.STANDARD_DEFINITIONS.items():
            new_basic_definition(thy, name, hostile.get(name, body))
        return thy

    def test_standard_bodies_without_bootstrap(self, theory):
        thy = self.standard_theory()
        assert axiom_choice(thy).conclusion == axiom_choice(theory).conclusion
        assert axiom_infinity(thy).conclusion == axiom_infinity(theory).conclusion
        assert axiom_infinity(thy).uses_infinity

    @pytest.mark.parametrize(
        "name, axiom",
        [("T", axiom_choice), ("and", axiom_choice), ("F", axiom_infinity),
         ("forall", axiom_infinity), ("ONTO", axiom_infinity)],
    )
    def test_constants_used_by_standard_bodies_are_checked(self, name, axiom):
        # Choice names neither T nor and, and infinity names neither F nor
        # forall, but the bodies they name use them.
        p, q = Var("p", BOOL), Var("q", BOOL)
        ty = kernel.STANDARD_DEFINITIONS[name].ty
        if ty == BOOL:
            other = mk_eq(mk_abs(p, p), mk_abs(p, mk_eq(p, p)))
        elif name == "and":
            other = mk_abs(p, mk_abs(q, q))
        else:
            f = Var("f", ty.args[0])
            other = mk_abs(f, mk_eq(f, f))
        thy = self.standard_theory(**{name: other})
        with pytest.raises(MissingDefinitions, match=repr(name)):
            axiom(thy)

    def test_infinity_flagged(self, theory):
        th = axiom_infinity(theory)
        assert th.uses_infinity

    def test_flag_is_monotone(self, theory):
        inf = axiom_infinity(theory)
        chained = deduct_antisym(inf, assume(x))
        assert chained.uses_infinity
        further = inst_rule(Substitution.of_terms({}), chained)
        assert further.uses_infinity


class TestDefinitions:
    def test_basic_definition(self):
        thy = Theory()
        rhs = mk_abs(x, x)
        th = new_basic_definition(thy, "myid", rhs)
        assert th.conclusion == eq(Const("myid", rhs.ty), rhs)
        assert "myid" in thy.term_constants
        assert len(thy.definition_log) == 1
        assert thy.mk_const("myid") == Const("myid", rhs.ty)
        with pytest.raises(HolError, match="unknown constant 'nope'"):
            thy.mk_const("nope")

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            new_basic_definition(Theory(), "bad", x)

    def test_type_var_escape(self):
        a = TyVar("A")
        v = Var("v", a)
        # \v. T has type A -> bool... use an equation to erase A from the type
        rhs = mk_abs(v, mk_eq(v, v))  # A -> bool: A occurs, fine
        thy = Theory()
        new_basic_definition(thy, "ok", rhs)
        # (\v:A. v = v) applied nowhere... build a body whose type hides A:
        bad = mk_eq(mk_abs(v, v), mk_abs(v, v))  # bool, but A occurs inside
        with pytest.raises(TypeVarEscape):
            new_basic_definition(thy, "bad", bad)

    def test_duplicate_name(self):
        thy = Theory()
        rhs = mk_abs(x, x)
        new_basic_definition(thy, "c", rhs)
        with pytest.raises(DuplicateName):
            new_basic_definition(thy, "c", rhs)
        with pytest.raises(DuplicateName):
            new_basic_definition(thy, "=", rhs)

    def test_fingerprint_changes_and_replays(self):
        thy = Theory()
        fp0 = thy.fingerprint()
        new_basic_definition(thy, "c", mk_abs(x, x))
        fp1 = thy.fingerprint()
        assert fp0 != fp1
        rebuilt = _rebuild(thy.definition_log)
        assert rebuilt.fingerprint() == fp1
        assert rebuilt.term_constants["c"] == fn(BOOL, BOOL)


def _rebuild(log, thy=None):
    """A theory rebuilt from a log of constant definitions by running
    `new_basic_definition` on each event in order."""
    thy = Theory() if thy is None else thy
    for ev in log:
        assert ev.kind == "constant-definition"
        (name,) = ev.names
        new_basic_definition(thy, name, ev.term)
    return thy


def _signature(thy):
    return (
        dict(thy.term_constants), dict(thy.type_constructors),
        dict(thy.definitions), dict(thy.typedefs), list(thy.definition_log),
    )


class TestReplayChecks:
    """A hostile definition, replayed from a log through the definitional
    rules or proved, is refused by the rule's checks and leaves the
    signature as it was."""

    def test_constant_body_with_free_variable(self):
        thy = Theory()
        before = _signature(thy)
        event = kernel.DefinitionEvent("constant-definition", ("c",), x)
        with pytest.raises(NotClosed):
            _rebuild([event], thy)
        assert _signature(thy) == before

    def test_constant_body_with_escaping_type_variable(self):
        v = Var("v", TyVar("A"))
        body = mk_eq(mk_abs(v, v), mk_abs(v, v))  # bool, with A inside
        thy = Theory()
        before = _signature(thy)
        event = kernel.DefinitionEvent("constant-definition", ("c",), body)
        with pytest.raises(TypeVarEscape):
            _rebuild([event], thy)
        assert _signature(thy) == before

    def test_duplicate_constant(self):
        event = kernel.DefinitionEvent("constant-definition", ("c",), mk_abs(x, x))
        thy = _rebuild([event])
        before = _signature(thy)
        with pytest.raises(DuplicateName):
            _rebuild([event], thy)
        assert _signature(thy) == before

    def test_type_predicate_with_free_variable(self):
        from microhol.bootstrap import install_logic

        # |- (\b. b = y) y has no assumptions, but its predicate is open
        thy = Theory()
        lg = install_logic(thy)
        b = Var("b", BOOL)
        inhab = _pred_holds(lg, mk_abs(b, mk_eq(b, y)), y)
        assert not inhab.assumptions
        before = _signature(thy)
        with pytest.raises(MalformedInhabitation, match="closed"):
            new_basic_type_definition(thy, "t", "mk_t", "dest_t", inhab)
        assert _signature(thy) == before


class TestTypeDefinition:
    def _one_point_pred(self, logic):
        # P = \b:bool. b = T carves a one-element type out of bool
        b = Var("b", BOOL)
        return mk_abs(b, mk_eq(b, Const("T", BOOL)))

    def test_bijections(self, logic):
        thy = Theory()
        from microhol.bootstrap import install_logic

        lg = install_logic(thy)
        pred = self._one_point_pred(lg)
        witness = Const("T", BOOL)
        inhab = _pred_holds(lg, pred, witness)
        th1, th2 = new_basic_type_definition(thy, "unit", "mk_unit", "dest_unit", inhab)
        newty = th1.conclusion.rand.ty
        assert newty.con == "unit"
        # |- mk (dest a) = a
        a = Var("a", newty)
        assert alpha_equiv(
            th1.conclusion,
            mk_eq(
                mk_comb(
                    Const("mk_unit", fn(BOOL, newty)),
                    mk_comb(Const("dest_unit", fn(newty, BOOL)), a),
                ),
                a,
            ),
        )
        # |- P r = (dest (mk r) = r)
        r = Var("r", BOOL)
        want = mk_eq(
            mk_comb(pred, r),
            mk_eq(
                mk_comb(
                    Const("dest_unit", fn(newty, BOOL)),
                    mk_comb(Const("mk_unit", fn(BOOL, newty)), r),
                ),
                r,
            ),
        )
        assert alpha_equiv(th2.conclusion, want)

    def test_open_predicate_rejected(self, logic):
        thy = Theory()
        from microhol.bootstrap import install_logic

        lg = install_logic(thy)
        b = Var("b", BOOL)
        free_pred = Var("Q", fn(BOOL, BOOL))
        th = assume(mk_comb(free_pred, Const("T", BOOL)))
        with pytest.raises(MalformedInhabitation):
            new_basic_type_definition(thy, "t2", "mk2", "dest2", th)

    def test_abs_and_rep_must_differ(self, logic):
        # one name for both would leave the signature with only the rep
        # type while the theorems used the constant at the abs type too
        thy = Theory()
        from microhol.bootstrap import install_logic

        lg = install_logic(thy)
        pred = self._one_point_pred(lg)
        inhab = _pred_holds(lg, pred, Const("T", BOOL))
        with pytest.raises(DuplicateName):
            new_basic_type_definition(thy, "t", "f", "f", inhab)
        assert "f" not in thy.term_constants
        assert "t" not in thy.type_constructors

    def test_reusing_builtin_name(self, logic):
        thy = Theory()
        from microhol.bootstrap import install_logic

        lg = install_logic(thy)
        pred = self._one_point_pred(lg)
        inhab = _pred_holds(lg, pred, Const("T", BOOL))
        with pytest.raises(DuplicateName):
            new_basic_type_definition(thy, "bool", "mkb", "destb", inhab)

    @pytest.mark.parametrize("abs_name,rep_name", [("T", "dest_t"), ("mk_t", "T")])
    def test_abs_or_rep_named_as_a_constant(self, abs_name, rep_name):
        # a type definition may not give `T` a second meaning
        from microhol.bootstrap import install_logic

        thy = Theory()
        lg = install_logic(thy)
        inhab = _pred_holds(lg, self._one_point_pred(lg), Const("T", BOOL))
        before = _signature(thy)
        with pytest.raises(DuplicateName, match="constant 'T' already defined"):
            new_basic_type_definition(thy, "t", abs_name, rep_name, inhab)
        assert _signature(thy) == before

    def test_inhabitation_must_be_an_application(self):
        from microhol.bootstrap import install_logic

        thy = Theory()
        lg = install_logic(thy)
        before = _signature(thy)
        with pytest.raises(MalformedInhabitation, match="must be P w"):
            new_basic_type_definition(thy, "t", "mk_t", "dest_t", lg.TRUTH)  # |- T
        assert _signature(thy) == before


def predicate_type_theory(value: str) -> Theory:
    """A bootstrapped theory with one parameterised type, `t A`, carved
    from all of A -> bool by  \\f. f = f  at the witness  \\a:A. value."""
    from microhol.bootstrap import install_logic

    thy = Theory()
    lg = install_logic(thy)
    A = TyVar("A")
    f = Var("f", fn(A, BOOL))
    witness = mk_abs(Var("a", A), Const(value, BOOL))
    inhab = _pred_holds(lg, mk_abs(f, mk_eq(f, f)), witness)
    new_basic_type_definition(thy, "t", "mk_t", "dest_t", inhab)
    return thy


class TestParameterisedTypeDefinition:
    def test_signature(self):
        thy = predicate_type_theory("T")
        assert thy.type_constructors["t"] == 1
        t_a = TyApp("t", (TyVar("A"),))
        assert thy.term_constants["mk_t"] is fn(fn(TyVar("A"), BOOL), t_a)

    def test_fingerprint_is_pinned_and_hashes_the_witness(self):
        # frozen when first computed: the witness is part of what an
        # article's `theory` line pins
        fp = predicate_type_theory("T").fingerprint()
        assert fp == "79703f66647790355db13665ab33c7c50c660e28e4970b6846f13b97ec508890"
        assert predicate_type_theory("F").fingerprint() != fp


def _pred_holds(lg, pred, witness):
    """|- pred witness, for a pred whose beta-reduct at the witness is
    witness = witness."""
    from microhol.bootstrap import beta_conv, sym

    applied = mk_comb(pred, witness)
    reduced = beta_conv(applied)  # |- (\b. b = w) w = (w = w)
    truth_eq = lg.eqt_intro(kernel.refl(witness))  # |- (w = w) = T
    chained = kernel.trans(reduced, truth_eq)  # |- pred w = T
    return lg.eqt_elim(chained)


class TestTheories:
    """A theorem depends on no theory or on one, and no rule mixes two."""

    @staticmethod
    def two_definitions():
        # c is `I = I` in A and `I = (\\x. I = I)` in B, I being \\x:bool. x
        a, b = Theory(), Theory()
        def_a = new_basic_definition(a, "c", eq(ident, ident))
        def_b = new_basic_definition(b, "c", eq(ident, mk_abs(x, eq(ident, ident))))
        return a, b, def_a, def_b

    def test_two_theories_give_no_false_theorem(self):
        from microhol.bootstrap import sym

        a, _, def_a, def_b = self.two_definitions()
        flipped = sym(def_a)
        assert flipped.theory is a
        # without the tag: |- (\\x. x) = (\\x. (\\x. x) = (\\x. x))
        with pytest.raises(TheoryMismatch):
            eq_mp(refl(ident), trans(flipped, def_b))

    @pytest.mark.parametrize("rule", ["trans", "mk_comb_rule", "eq_mp", "deduct_antisym"])
    def test_two_premise_rules_refuse_two_theories(self, rule):
        # premises from A and from B that pass every other check of the rule
        from microhol.bootstrap import sym

        _, _, def_a, def_b = self.two_definitions()
        eq_bool = Const("=", fn(BOOL, fn(BOOL, BOOL)))
        premises = {
            "trans": (sym(def_a), def_b),
            "mk_comb_rule": (abs_rule(y, def_a), def_b),
            "eq_mp": (
                def_a,
                mk_comb_rule(mk_comb_rule(refl(eq_bool), def_b), refl(eq(ident, ident))),
            ),
            "deduct_antisym": (def_a, def_b),
        }[rule]
        with pytest.raises(TheoryMismatch):
            getattr(kernel, rule)(*premises)

    def test_tags(self):
        a, _, def_a, _ = self.two_definitions()
        for th in (refl(x), beta(mk_comb(ident, x)), assume(x), axiom_extensionality()):
            assert th.theory is None
        assert def_a.theory is a
        assert deduct_antisym(assume(x), def_a).theory is a
        assert deduct_antisym(def_a, def_a).theory is a
        c = def_a.conclusion.rator.rand
        assert inst_rule({}, def_a).theory is a
        assert inst_type_rule({}, def_a).theory is a
        assert abs_rule(y, mk_comb_rule(refl(ident), refl(c))).theory is None
        assert abs_rule(y, mk_comb_rule(refl(mk_abs(y, y)), def_a)).theory is a

    def test_axioms_and_type_definitions_belong_to_their_theory(self):
        from microhol.bootstrap import install_logic

        thy = Theory()
        lg = install_logic(thy)
        assert axiom_choice(thy).theory is thy
        assert axiom_infinity(thy).theory is thy
        pred = mk_abs(Var("b", BOOL), mk_eq(Var("b", BOOL), Const("T", BOOL)))
        inhab = _pred_holds(lg, pred, Const("T", BOOL))
        assert inhab.theory is thy
        with pytest.raises(TheoryMismatch):
            new_basic_type_definition(Theory(), "unit", "mk_unit", "dest_unit", inhab)
        th1, th2 = new_basic_type_definition(thy, "unit", "mk_unit", "dest_unit", inhab)
        assert th1.theory is thy and th2.theory is thy

    def test_theory_is_read_only(self):
        _, b, _, def_b = self.two_definitions()
        with pytest.raises(AttributeError):
            def_b.theory = None
        assert def_b.theory is b


class TestHygiene:
    @given(typed_terms(ty=BOOL, depth=4), typed_terms(ty=BOOL, depth=4))
    @settings(max_examples=100, deadline=None)
    def test_no_alpha_duplicate_assumptions(self, p, q):
        th = deduct_antisym(assume(p), assume(q))
        keys = [term_order_key(h) for h in th.assumptions]
        assert keys == sorted(set(keys))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_assumptions_stay_in_encoding_order(self, data):
        """Random chains of the rules that build assumption tuples keep
        them strictly increasing in the encoding's order."""
        atom = typed_terms(ty=BOOL, depth=3)
        pool = [assume(data.draw(atom)) for _ in range(3)]
        for _ in range(data.draw(st.integers(1, 8))):
            op = data.draw(st.sampled_from(("deduct", "inst", "inst_type", "trans")))
            th = data.draw(st.sampled_from(pool))
            if op == "deduct":
                th = deduct_antisym(th, data.draw(st.sampled_from(pool)))
            elif op == "inst":
                v = Var(data.draw(st.sampled_from(("x", "y", "z", "u"))), BOOL)
                th = inst_rule({v: data.draw(atom)}, th)
            elif op == "inst_type":
                th = inst_type_rule({"A": data.draw(st.sampled_from((BOOL, IND, TyVar("B"))))}, th)
            else:
                th = deduct_antisym(th, assume(data.draw(atom)))
                right = th.conclusion.rand
                th = trans(th, deduct_antisym(assume(right), data.draw(st.sampled_from(pool))))
            keys = [term_order_key(h) for h in th.assumptions]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            pool.append(th)

    def test_full_audit(self, theory):
        th = trans(assume(eq(x, y)), assume(eq(y, z)))
        check_theorem(theory, th)


class TestConcurrency:
    def test_definitions_serialize(self):
        import threading

        thy = Theory()
        errors = []

        def define(i):
            try:
                new_basic_definition(thy, f"c{i}", mk_abs(x, x))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=define, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(thy.definition_log) == 8
        assert _rebuild(thy.definition_log).fingerprint() == thy.fingerprint()

    def test_rules_pure_across_threads(self):
        import threading

        results = []

        def work():
            th = trans(assume(eq(x, y)), assume(eq(y, z)))
            results.append(th.conclusion)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c == eq(x, z) for c in results)


class TestTracing:
    def test_replay(self):
        with tracing() as log:
            th = trans(assume(eq(x, y)), assume(eq(y, z)))
        assert [name for name, _, _ in log] == ["assume", "assume", "trans"]
        assert replay_trace(log)

    def test_derived_rules_replay_through_primitives(self, logic):
        with tracing() as log:
            logic.disch(x, assume(x))
        assert len(log) > 3
        assert replay_trace(log)
        assert all(name in kernel.PRIMITIVE_RULES for name, _, _ in log)
