import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microhol
from microhol import syntax
from microhol.syntax import (
    BOOL,
    IND,
    Abs,
    Comb,
    Const,
    IllTyped,
    Substitution,
    TyApp,
    TyVar,
    Var,
    alpha_equiv,
    dest_eq,
    eq_const,
    fn,
    free_vars,
    inst_type,
    mk_abs,
    mk_comb,
    mk_eq,
    term_compare,
    term_order_key,
    type_of,
    type_match,
    vfree_in,
    variant,
    vsubst,
)
from microhol.surface import print_term

from .oracles import (
    debruijn,
    legacy_inst_type,
    legacy_vsubst,
    oracle_alpha,
    oracle_free_vars,
    oracle_inst_type,
    oracle_vsubst,
)
from .strategies import (
    copied_dags,
    dag_substitutions,
    hol_types,
    shared_pairs,
    type_shapes,
    typed_terms,
)

x_bool = Var("x", BOOL)
y_bool = Var("y", BOOL)
x_ind = Var("x", IND)


class TestTypeOf:
    def test_var(self):
        assert type_of(x_bool) == BOOL

    def test_equality_instance(self):
        # the equality constant at bool, applied once
        eq_b = eq_const(BOOL)
        assert type_of(mk_comb(eq_b, x_bool)) == fn(BOOL, BOOL)

    def test_identity_abstraction(self):
        assert type_of(mk_abs(x_ind, x_ind)) == fn(IND, IND)

    def test_comb_domain_mismatch(self):
        f = Var("f", fn(IND, BOOL))
        with pytest.raises(IllTyped):
            mk_comb(f, x_bool)

    def test_non_function_rator(self):
        with pytest.raises(IllTyped):
            mk_comb(x_bool, y_bool)


class TestFreeVars:
    def test_var(self):
        assert free_vars(x_bool) == {x_bool}

    def test_bound(self):
        assert free_vars(mk_abs(x_bool, x_bool)) == set()

    def test_mixed_against_oracle(self):
        # f applied to an abstraction whose body is a different free var
        f = Var("f", fn(fn(BOOL, BOOL), BOOL))
        t = mk_comb(f, mk_abs(x_bool, y_bool))
        expected = oracle_free_vars(t)
        assert expected == {f, y_bool}
        assert free_vars(t) == expected

    @given(typed_terms(depth=5))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, t):
        assert free_vars(t) == oracle_free_vars(t)


class TestAlphaEquiv:
    def test_identity_abstractions(self):
        assert alpha_equiv(mk_abs(x_bool, x_bool), mk_abs(y_bool, y_bool))

    def test_two_binders_same_debruijn(self):
        # \x. \y. x and \y. \x. y share the de Bruijn form \\. 1
        t = mk_abs(x_bool, mk_abs(y_bool, x_bool))
        u = mk_abs(y_bool, mk_abs(x_bool, y_bool))
        form = ("lam", ("tyapp", "bool", ()), ("lam", ("tyapp", "bool", ()), ("bv", 1)))
        assert debruijn(t) == form
        assert debruijn(u) == form
        assert alpha_equiv(t, u)

    def test_distinct_debruijn(self):
        t = mk_abs(x_bool, mk_abs(y_bool, x_bool))
        u = mk_abs(x_bool, mk_abs(y_bool, y_bool))
        assert debruijn(t) != debruijn(u)
        assert not alpha_equiv(t, u)

    def test_types_matter(self):
        assert not alpha_equiv(mk_abs(x_bool, x_bool), mk_abs(x_ind, x_ind))

    @given(typed_terms(depth=6), typed_terms(depth=6))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_oracle(self, t, u):
        assert alpha_equiv(t, u) == oracle_alpha(t, u)

    @given(typed_terms(depth=6), typed_terms(depth=6), typed_terms(depth=6))
    @settings(max_examples=100, deadline=None)
    def test_equivalence_relation(self, a, b, c):
        assert alpha_equiv(a, a)
        assert alpha_equiv(a, b) == alpha_equiv(b, a)
        if alpha_equiv(a, b) and alpha_equiv(b, c):
            assert alpha_equiv(a, c)

    def test_implies_equal_types(self):
        # alpha-equivalent terms always have the same type
        t = mk_abs(x_bool, x_bool)
        u = mk_abs(y_bool, y_bool)
        assert alpha_equiv(t, u) and t.ty == u.ty


class TestVsubst:
    def test_simple(self):
        s = Substitution.of_terms({x_bool: y_bool})
        assert vsubst(s, x_bool) == y_bool

    def test_capture_renames(self):
        # [y/x] on \y. x must rename the binder: the oracle shows the raw
        # result would capture
        t = mk_abs(y_bool, x_bool)
        s = {x_bool: y_bool}
        got = vsubst(Substitution.of_terms(s), t)
        want = oracle_vsubst(s, t)
        assert alpha_equiv(got, want)
        assert isinstance(got, Abs)
        assert got.bvar != y_bool  # a primed variant
        assert got.body == y_bool

    def test_no_occurrence_identity(self):
        t = mk_abs(x_bool, x_bool)
        s = Substitution.of_terms({y_bool: x_bool})
        assert vsubst(s, t) is t

    def test_ill_typed_map_rejected(self):
        # refused by vsubst and by the kernel rule, even where x is not free
        from microhol.kernel import assume, inst_rule

        s = Substitution.of_terms({x_bool: x_ind})
        for t in (x_bool, y_bool, mk_abs(x_bool, x_bool)):
            with pytest.raises(IllTyped):
                vsubst(s, t)
        with pytest.raises(IllTyped):
            inst_rule(s, assume(x_bool))
        with pytest.raises(IllTyped):
            vsubst({mk_comb(Var("f", fn(BOOL, BOOL)), x_bool): y_bool}, x_bool)

    @given(typed_terms(depth=5), typed_terms(ty=BOOL, depth=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_and_preserves_type(self, t, image):
        s = {x_bool: image}
        got = vsubst(Substitution.of_terms(s), t)
        assert type_of(got) == type_of(t)
        assert alpha_equiv(got, oracle_vsubst(s, t))

    @given(typed_terms(depth=4))
    @settings(max_examples=100, deadline=None)
    def test_untouched_subterms_keep_alpha_class(self, t):
        fresh = Var("unused_variable", BOOL)
        s = Substitution.of_terms({fresh: x_bool})
        assert alpha_equiv(vsubst(s, t), t)


# Type instantiations that merge types (so binders clash with free
# variables) and ones that keep them apart.
_A, _B = TyVar("A"), TyVar("B")
_TYINS = (
    {"A": BOOL},
    {"A": BOOL, "B": BOOL},
    {"B": _A},
    {"A": _B, "B": _A},
    {"A": fn(BOOL, BOOL)},
)
# Two names, so that renaming must step past a taken one, at three types
# that the instantiations above identify in several ways.
_CLASH_VARS = tuple(Var(n, ty) for n in ("x", "x'") for ty in (_A, _B, BOOL))


@st.composite
def _clash_bodies(draw, depth):
    """A boolean term over `_CLASH_VARS`: `f v` leaves, equations between
    two bodies, and `P (\v. body)`, so binders nest and shadow."""
    choice = draw(st.integers(0, 3)) if depth > 0 else 0
    if choice == 0:
        v = draw(st.sampled_from(_CLASH_VARS))
        return mk_comb(Var("f", fn(v.ty, BOOL)), v)
    if choice == 1:
        return mk_eq(draw(_clash_bodies(depth - 1)), draw(_clash_bodies(depth - 1)))
    v = draw(st.sampled_from(_CLASH_VARS))
    lam = mk_abs(v, draw(_clash_bodies(depth - 1)))
    return mk_comb(Var("P", fn(lam.ty, BOOL)), lam)


clash_cases = st.tuples(st.sampled_from(_TYINS), _clash_bodies(5))


class TestInstType:
    def test_var(self):
        s = Substitution.of_types({"A": BOOL})
        assert inst_type(s, Var("x", TyVar("A"))) == Var("x", BOOL)

    def test_equality_constant(self):
        a = TyVar("A")
        generic = Const("=", fn(a, fn(a, BOOL)))
        s = Substitution.of_types({"A": BOOL})
        assert inst_type(s, generic) == Const("=", fn(BOOL, fn(BOOL, BOOL)))

    def test_collision_renames_binder(self):
        # {A |-> bool} on \x:bool. (x:A): the free x:A must stay free
        a = TyVar("A")
        t = mk_abs(x_bool, Var("x", a))
        s = {"A": BOOL}
        got = inst_type(Substitution.of_types(s), t)
        want = oracle_inst_type(s, t)
        assert alpha_equiv(got, want)
        assert isinstance(got, Abs)
        assert got.bvar.name != "x"
        assert got.body == Var("x", BOOL)  # still free

    @given(typed_terms(depth=5))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, t):
        s = {"A": BOOL, "B": fn(IND, BOOL)}
        got = inst_type(Substitution.of_types(s), t)
        assert alpha_equiv(got, oracle_inst_type(s, t))

    @given(st.one_of(clash_cases, st.tuples(st.sampled_from(_TYINS), typed_terms(depth=5))))
    @settings(max_examples=400, deadline=None)
    def test_matches_legacy_exactly(self, case):
        # `==` compares binders by identity, so the chosen names must agree
        tyin, t = case
        got = inst_type(tyin, t)
        assert got == legacy_inst_type(tyin, t)
        assert alpha_equiv(got, oracle_inst_type(tyin, t))

    @pytest.mark.parametrize(
        "binders, free, want",
        [
            # a binder and a free variable made equal
            (["x:bool"], ["x:A"], ["x'"]),
            # the free variable is bound further out: \x:A. \x:bool. x:A
            (["x:A", "x:bool"], ["x:A"], ["x", "x'"]),
            # both binders clash with the free x:bool
            (["x:A", "x:B"], ["x:bool"], ["x'", "x'"]),
            # x' is taken, so the binder steps past it
            (["x:A"], ["x:bool", "x':bool"], ["x''"]),
        ],
    )
    def test_clash_examples(self, binders, free, want):
        def var(spec):
            name, ty = spec.split(":")
            return Var(name, {"A": _A, "B": _B, "bool": BOOL}[ty])

        leaves = [mk_comb(Var("f", fn(v.ty, BOOL)), v) for v in map(var, free)]
        body = leaves[0] if len(leaves) == 1 else mk_eq(*leaves)
        t = body
        for v in reversed([var(b) for b in binders]):
            t = mk_abs(v, t)
        tyin = {"A": BOOL, "B": BOOL}
        got = inst_type(tyin, t)
        assert got == legacy_inst_type(tyin, t)
        names = []
        while isinstance(got, Abs):
            names.append(got.bvar.name)
            got = got.body
        assert names == want
        assert got == inst_type(tyin, body)  # the free variables stay free

    @given(typed_terms(depth=5))
    @settings(max_examples=100, deadline=None)
    def test_identity(self, t):
        assert alpha_equiv(inst_type(Substitution.of_types({}), t), t)

    @given(typed_terms(depth=4))
    @settings(max_examples=100, deadline=None)
    def test_composition(self, t):
        s1 = {"A": TyVar("B")}
        s2 = {"B": BOOL}
        one_then_two = inst_type(
            Substitution.of_types(s2), inst_type(Substitution.of_types(s1), t)
        )
        from microhol.syntax import type_subst

        composed = {"A": type_subst(s2, TyVar("B")), "B": BOOL}
        at_once = inst_type(Substitution.of_types(composed), t)
        assert alpha_equiv(one_then_two, at_once)


class TestSmartConstructors:
    def test_mk_comb(self):
        f = Var("f", fn(BOOL, BOOL))
        t = mk_comb(f, x_bool)
        assert type_of(t) == BOOL

    def test_mk_eq(self):
        t = mk_eq(x_ind, Var("y", IND))
        assert type_of(t) == BOOL
        assert dest_eq(t) == (x_ind, Var("y", IND))

    def test_mk_eq_type_mismatch(self):
        with pytest.raises(IllTyped):
            mk_eq(x_bool, x_ind)

    def test_abs_binder_must_be_var(self):
        with pytest.raises(IllTyped):
            mk_abs(mk_comb(Var("f", fn(BOOL, BOOL)), x_bool), x_bool)


class TestTermCompare:
    def test_alpha_equal_terms_compare_equal(self):
        assert term_compare(mk_abs(x_bool, x_bool), mk_abs(y_bool, y_bool)) == 0

    def test_antisymmetric(self):
        a, b = term_compare(x_bool, y_bool), term_compare(y_bool, x_bool)
        assert a != 0 and b != 0 and a == -b

    @given(st.lists(typed_terms(depth=4), min_size=0, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_sort_dedup_matches_pairwise_alpha(self, terms):
        keyed = sorted(terms, key=term_order_key)
        deduped = []
        for t in keyed:
            if not deduped or term_order_key(deduped[-1]) != term_order_key(t):
                deduped.append(t)
        # one representative per alpha-class, checked pairwise
        for i, t in enumerate(deduped):
            for u in deduped[i + 1 :]:
                assert not alpha_equiv(t, u)
        for t in terms:
            assert any(alpha_equiv(t, u) for u in deduped)

    @given(typed_terms(depth=5), typed_terms(depth=5))
    @settings(max_examples=150, deadline=None)
    def test_compare_zero_iff_alpha(self, t, u):
        assert (term_compare(t, u) == 0) == alpha_equiv(t, u)


class TestSharedStructure:
    """Free-variable caching and the shared-subterm alpha walk, on pairs
    of terms sharing one subterm object under equal, renamed and
    shadowing binders.  The oracles walk every node and read no cache."""

    @given(shared_pairs())
    @settings(max_examples=300, deadline=None)
    def test_alpha_equiv_agrees_with_order_key(self, pair):
        t, u = pair
        want = oracle_alpha(t, u)
        assert alpha_equiv(t, u) == want
        assert (term_order_key(t) == term_order_key(u)) == want

    @given(shared_pairs())
    @settings(max_examples=200, deadline=None)
    def test_free_vars_match_uncached_walk(self, pair):
        for t in pair:
            assert free_vars(t) == oracle_free_vars(t)
            for v in oracle_free_vars(t) | {x_bool, y_bool}:
                assert vfree_in(v, t) == (v in oracle_free_vars(t))

    @given(shared_pairs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_vsubst_matches_uncached_reference(self, pair, data):
        t, u = pair
        frees = sorted(oracle_free_vars(t), key=debruijn)
        if not frees:
            return
        v = data.draw(st.sampled_from(frees))
        # images mentioning the pair's binders force capture and renaming
        image = data.draw(typed_terms(ty=v.ty, depth=2))
        s = {v: image}
        for w in (t, u):
            got = vsubst(Substitution.of_terms(s), w)
            assert alpha_equiv(got, oracle_vsubst(s, w))
            assert free_vars(got) == oracle_free_vars(got)

    @given(typed_terms(depth=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_cache_filled_under_binder_serves_bare_use(self, body, data):
        frees = sorted(oracle_free_vars(body), key=debruijn)
        x = data.draw(st.sampled_from(frees)) if frees else x_bool
        lam = mk_abs(x, body)
        # fill body's cache through the abstraction, then use body bare
        assert free_vars(lam) == oracle_free_vars(lam)
        assert free_vars(body) == oracle_free_vars(body)
        image = data.draw(typed_terms(ty=x.ty, depth=2))
        s = {x: image}
        sub = Substitution.of_terms(s)
        for t in (lam, body, mk_comb(mk_comb(eq_const(lam.ty), lam), lam)):
            got = vsubst(sub, t)
            want = oracle_vsubst(s, t)
            assert alpha_equiv(got, want) and oracle_alpha(got, want)
        assert vsubst(sub, lam) is lam
        # the bare body is compared correctly against its renamed copy
        y = Var("fresh", x.ty)
        renamed = vsubst(Substitution.of_terms({x: y}), body)
        assert alpha_equiv(mk_abs(x, body), mk_abs(y, renamed))
        assert alpha_equiv(body, renamed) == (x not in oracle_free_vars(body))


def _assert_siblings_shared(t, out):
    """Walk t and its substitution result in step: wherever t applies a
    function to one object twice (`g s s`), the result's two arguments are
    one object too."""
    stack = [(t, out)]
    seen = set()
    while stack:
        a, b = stack.pop()
        if (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        if isinstance(a, Comb):
            if isinstance(a.rator, Comb) and a.rator.rand is a.rand:
                assert b.rator.rand is b.rand
            stack += [(a.rator, b.rator), (a.rand, b.rand)]
        elif isinstance(a, Abs):
            stack.append((a.body, b.body))


class TestVsubstOnDags:
    """`vsubst` substitutes each distinct subterm object once per call:
    the result equals the memo-free walk's, bound names included, and
    keeps the input's sharing."""

    @given(dag_substitutions())
    @settings(max_examples=300, deadline=None)
    def test_matches_legacy_and_keeps_sharing(self, case):
        sub, t = case
        got = vsubst(sub, t)
        assert got == legacy_vsubst(sub, t)
        assert alpha_equiv(got, oracle_vsubst(sub, t))
        _assert_siblings_shared(t, got)

    @given(shared_pairs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_shared_pairs_match_legacy(self, pair, data):
        t, u = pair
        g = Var("g", fn(t.ty, fn(t.ty, BOOL)))
        both = mk_comb(mk_comb(g, t), u)
        frees = sorted(oracle_free_vars(both), key=debruijn)
        names = ["x", "y", "z", "u"]
        sub = {}
        for v in frees:
            if data.draw(st.booleans()):
                # a bare variable named like the pair's binders forces capture
                sub[v] = data.draw(
                    st.one_of(
                        typed_terms(ty=v.ty, depth=2),
                        st.sampled_from(names).map(lambda n, ty=v.ty: Var(n, ty)),
                    )
                )
        for w in (t, u, both, mk_comb(mk_comb(g, t), t)):
            got = vsubst(sub, w)
            assert got == legacy_vsubst(sub, w)
            _assert_siblings_shared(w, got)

    @given(dag_substitutions(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_free_key_returns_input(self, case, data):
        _, t = case
        frees = oracle_free_vars(t)
        keys = data.draw(
            st.lists(st.builds(Var, st.sampled_from(["x", "y", "z", "u", "g"]), hol_types))
        )
        sub = {v: data.draw(typed_terms(ty=v.ty, depth=2)) for v in keys if v not in frees}
        assert vsubst(sub, t) is t

    def test_shadowing_and_renaming_binders(self):
        # [y/x, y/z] on  g (\x. s) (\y. s) s  with s = h x z: the first copy
        # substitutes z only (x is shadowed), the second renames y
        h = Var("h", fn(BOOL, fn(BOOL, BOOL)))
        z_bool = Var("z", BOOL)
        s = mk_comb(mk_comb(h, x_bool), z_bool)
        g = Var("g", fn(fn(BOOL, BOOL), fn(fn(BOOL, BOOL), fn(BOOL, BOOL))))
        t = mk_comb(mk_comb(mk_comb(g, mk_abs(x_bool, s)), mk_abs(y_bool, s)), s)
        sub = {x_bool: y_bool, z_bool: y_bool}
        got = vsubst(sub, t)
        assert got == legacy_vsubst(sub, t)
        shadowed, renamed, bare = got.rator.rator.rand, got.rator.rand, got.rand
        hyy = mk_comb(mk_comb(h, y_bool), y_bool)
        assert shadowed == mk_abs(x_bool, mk_comb(mk_comb(h, x_bool), y_bool))
        assert renamed == mk_abs(Var("y'", BOOL), hyy)
        assert bare == hyy


class TestMisc:
    def test_variant_primes(self):
        v = variant([x_bool], x_bool)
        assert v == Var("x'", BOOL)
        v2 = variant([x_bool, Var("x'", BOOL)], x_bool)
        assert v2 == Var("x''", BOOL)

    def test_vfree_in(self):
        assert vfree_in(x_bool, mk_eq(x_bool, y_bool))
        assert not vfree_in(x_bool, mk_abs(x_bool, x_bool))

    def test_type_match(self):
        a = TyVar("A")
        assert type_match(fn(a, a), fn(BOOL, BOOL)) == {"A": BOOL}
        assert type_match(fn(a, a), fn(BOOL, IND)) is None

    def test_tyapp_arity_shapes(self):
        assert TyApp("bool") == TyApp("bool", ())
        assert fn(BOOL, IND).args == (BOOL, IND)

    def test_repr_wraps_print_term(self):
        f = Var("f", fn(IND, BOOL))
        terms = (x_ind, Const("T", BOOL), mk_comb(f, x_ind), mk_abs(x_ind, mk_comb(f, x_ind)))
        assert [type(t) for t in terms] == [Var, Const, Comb, Abs]
        for t in terms:
            assert repr(t) == f"<term {print_term(t)}>"


def _build_type(shape):
    """The type a shape from `type_shapes` describes, built afresh."""
    if isinstance(shape, str):
        return TyVar(shape)
    con, args = shape
    return TyApp(con, [_build_type(a) for a in args])


class TestInternedTypes:
    def test_constructors_return_one_object(self):
        assert TyVar("A") is TyVar("A")
        assert TyApp("fun", [BOOL, BOOL]) is fn(BOOL, BOOL)
        assert TyApp("bool") is BOOL is TyApp("bool", ())
        assert TyVar("A") is not TyVar("B")
        assert TyVar("bool") is not BOOL

    def test_parser_and_substitutions_reuse_types(self):
        from microhol.surface import parse_term, parse_type
        from microhol.syntax import type_subst

        assert parse_type("bool -> ind") is fn(BOOL, IND)
        assert parse_type("A") is TyVar("A")
        a = TyVar("A")
        assert type_subst({"A": BOOL}, fn(a, a)) is fn(BOOL, BOOL)
        t = parse_term("\\x:A. (f:A -> B) x")
        u = inst_type({"A": BOOL, "B": IND}, t)
        assert u.ty is fn(BOOL, IND)
        assert u.bvar.ty is BOOL and u.body.rator.ty is fn(BOOL, IND)
        eq = parse_term("(x:bool) = (x:bool)").rator.rator
        assert eq.ty is fn(BOOL, fn(BOOL, BOOL))

    @pytest.mark.parametrize("ty", [TyVar("A"), BOOL, fn(BOOL, IND)])
    @pytest.mark.parametrize("attr", ["name", "con", "args", "_enc", "other"])
    def test_immutable(self, ty, attr):
        before = [getattr(ty, s) for s in type(ty).__slots__]
        with pytest.raises(AttributeError):
            setattr(ty, attr, None)
        with pytest.raises(AttributeError):
            delattr(ty, attr)
        assert [getattr(ty, s) for s in type(ty).__slots__] == before

    def test_copies_are_the_interned_object(self):
        import copy
        import pickle

        v = Var("x", fn(TyVar("A"), BOOL))
        f = Var("f", fn(v.ty, IND))
        comb = mk_comb(f, v)
        lam = mk_abs(v, comb)
        round_trip = lambda o: pickle.loads(pickle.dumps(o))  # noqa: E731
        for clone in (copy.copy, copy.deepcopy, round_trip):
            assert clone(v.ty) is v.ty
            assert clone(v).ty is v.ty
            for t in (comb, lam):
                u = clone(t)
                assert type(u) is type(t) and u == t and u.ty is t.ty
                assert free_vars(u) == free_vars(t)

    def test_unpickling_goes_through_the_checked_constructor(self):
        f = Var("f", fn(IND, BOOL))
        for t, forged in (
            (mk_comb(f, x_ind), (f, x_bool)),
            (mk_abs(x_ind, x_ind), (Const("T", BOOL), x_bool)),
        ):
            rebuild, args = t.__reduce__()
            assert rebuild(*args) == t
            with pytest.raises(IllTyped):
                rebuild(*forged)

    def test_equality_and_hashing_are_identity(self):
        assert {fn(BOOL, IND): 1}[TyApp("fun", (BOOL, IND))] == 1
        types = {TyVar("A"), TyVar("A"), fn(IND, IND), TyApp("fun", [IND, IND])}
        assert len(types) == 2

    @given(type_shapes, type_shapes)
    @settings(max_examples=200, deadline=None)
    def test_same_structure_same_object(self, s1, s2):
        assert _build_type(s1) is _build_type(s1)
        assert (_build_type(s1) is _build_type(s2)) == (s1 == s2)


def _slot_values(t):
    return [getattr(t, s) for cls in type(t).__mro__ for s in getattr(cls, "__slots__", ())]


@pytest.mark.parametrize("kind", ["Var", "Const", "Comb", "Abs"])
@pytest.mark.parametrize(
    "slot", ["name", "rator", "rand", "bvar", "body", "ty", "_h", "_fvs", "other"]
)
def test_term_nodes_are_immutable(kind, slot):
    x = Var("x", IND)
    t = {
        "Var": x,
        "Const": Const("c", fn(IND, BOOL)),
        "Comb": mk_comb(Var("f", fn(IND, BOOL)), x),
        "Abs": mk_abs(x, x),
    }[kind]
    hash(t), free_vars(t)
    before = _slot_values(t)
    with pytest.raises(AttributeError):
        setattr(t, slot, Var("y", IND))
    with pytest.raises(AttributeError):
        delattr(t, slot)
    assert _slot_values(t) == before


def test_atoms_are_interned():
    from microhol import syntax

    assert Var("x", BOOL) is Var("x", BOOL)
    assert Const("c", BOOL) is Const("c", BOOL)
    assert Var("x", BOOL) is not Const("x", BOOL)
    assert Var("x", BOOL) is not Var("x", IND)
    assert syntax._Atom.__slots__ == ("name", "ty")


def test_atoms_are_copied_through_their_constructor():
    import copy
    import pickle

    round_trip = lambda o: pickle.loads(pickle.dumps(o))  # noqa: E731
    for cls in (Var, Const):
        a = cls("a", fn(IND, BOOL))
        for clone in (copy.copy, copy.deepcopy, round_trip):
            assert clone(a) is a


# The term order, alpha-equivalence and the canonical encoding: encoding
# shape, the order walk against the encoding, and the shared-subterm alpha
# walk under shadowing binders.


def test_backend_is_pure():
    assert microhol.BACKEND == "pure"


def test_alpha_equal_shadowing_examples():
    x, y, z = Var("x", BOOL), Var("y", BOOL), Var("z", BOOL)
    # each body object is shared by both sides of its case
    xz, xy = mk_eq(x, z), mk_eq(x, y)
    cases = [
        (mk_abs(x, mk_abs(x, xz)), mk_abs(y, mk_abs(x, xz)), True),
        (mk_abs(x, mk_abs(x, xy)), mk_abs(y, mk_abs(x, xy)), False),
        (mk_abs(x, mk_abs(y, xy)), mk_abs(y, mk_abs(x, xy)), False),
        (mk_abs(x, mk_abs(y, xy)), mk_abs(x, mk_abs(y, xy)), True),
    ]
    for t, u, want in cases:
        assert alpha_equiv(t, u) == want


class TestEncodingShape:
    def test_bound_variable_indexing(self):
        x = Var("x", BOOL)
        y = Var("y", BOOL)
        two = mk_abs(x, mk_abs(y, x))
        enc = term_order_key(two)
        # outer binder referenced from under one intervening binder: index 1
        assert enc[0] == 0x14
        assert enc.endswith((1).to_bytes(4, "big"))

    def test_free_vs_bound_distinct(self):
        x = Var("x", BOOL)
        assert term_order_key(mk_abs(x, x)) != term_order_key(
            mk_abs(Var("y", BOOL), x)
        )

    # an abstraction over bool or ind: tag, then the binder's type
    LAM_BOOL = b"\x14\x02\x00\x00\x00\x04bool\x00\x00\x00\x00"
    LAM_IND = b"\x14\x02\x00\x00\x00\x03ind\x00\x00\x00\x00"

    @pytest.mark.parametrize(
        "t, key",
        [
            # \x. \x. x: the inner binder, index 0
            (mk_abs(x_bool, mk_abs(x_bool, x_bool)), LAM_BOOL + LAM_BOOL + b"\x10\0\0\0\0"),
            # \x. \y. x: the outer binder, index 1
            (mk_abs(x_bool, mk_abs(y_bool, x_bool)), LAM_BOOL + LAM_BOOL + b"\x10\0\0\0\1"),
            # \x:bool. \x:ind. x, body x:bool: a binder of another type
            # does not shadow it, index 1
            (mk_abs(x_bool, mk_abs(x_ind, x_bool)), LAM_BOOL + LAM_IND + b"\x10\0\0\0\1"),
            # \x:bool. \x:ind. x, body x:ind: index 0
            (mk_abs(x_bool, mk_abs(x_ind, x_ind)), LAM_BOOL + LAM_IND + b"\x10\0\0\0\0"),
        ],
        ids=["shadowed", "outer", "other-type-outer", "other-type-inner"],
    )
    def test_shadowing_binders(self, t, key):
        assert term_order_key(t) == key


def _encoding_order(t, u):
    a, b = term_order_key(t), term_order_key(u)
    return (a > b) - (a < b)


class TestAlphaOrder:
    @given(
        st.one_of(st.tuples(typed_terms(), typed_terms()), shared_pairs(), copied_dags())
    )
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_encoding(self, pair):
        t, u = pair
        assert term_compare(t, u) == _encoding_order(t, u)
        assert term_compare(u, t) == -term_compare(t, u)
        assert alpha_equiv(t, u) == (term_order_key(t) == term_order_key(u))

    # Cases a walk that compares names as strings, binders by name, or
    # types by name would get wrong; the first term is the lesser.
    A, B = TyVar("A"), TyVar("B")
    x, y = Var("x", BOOL), Var("y", BOOL)
    xa, xb = Var("x", A), Var("x", B)

    @pytest.mark.parametrize(
        "t, u",
        [
            (Var("b", BOOL), Var("aa", BOOL)),
            (Var("ab", BOOL), Var("\u00e9", BOOL)),
            (mk_abs(x, x), mk_abs(x, y)),
            (mk_abs(x, mk_abs(x, x)), mk_abs(y, mk_abs(x, y))),
            (mk_abs(xa, mk_eq(xa, xa)), mk_abs(xb, mk_eq(xb, xb))),
        ],
        ids=["length-before-bytes", "utf8-length", "bound-before-free", "shadowed", "binder-type"],
    )
    def test_fixed_cases(self, t, u):
        assert _encoding_order(t, u) == -1
        assert term_compare(t, u) == -1
        assert term_compare(u, t) == 1
        assert term_compare(t, t) == 0

    def test_shared_copies_are_walked_once(self, monkeypatch):
        # \x. f a a nested 60 deep, built twice: 2^60 nodes as trees, 60
        # abstractions as DAGs.  Visiting each pair of shared subterms once,
        # each comparison below takes about five visits a level; walking
        # the trees would never finish, so the count stops it.
        calls = [0]
        real = syntax._order

        def counting(*args):
            calls[0] += 1
            assert calls[0] <= 3 * 6 * 60, "the order walk re-walks shared subterms"
            return real(*args)

        monkeypatch.setattr(syntax, "_order", counting)
        pred = fn(IND, BOOL)
        f = Var("f", fn(pred, fn(pred, BOOL)))

        def nested(leaf):
            a = Abs(x_ind, leaf)
            for _ in range(60):
                a = Abs(x_ind, Comb(Comb(f, a), a))
            return a

        p, q = Var("p", BOOL), Var("q", BOOL)
        assert alpha_equiv(nested(p), nested(p))
        sign = term_compare(p, q)
        assert sign != 0
        assert term_compare(nested(p), nested(q)) == sign
        assert term_compare(nested(q), nested(p)) == -sign
