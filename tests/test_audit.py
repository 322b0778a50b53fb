import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from microhol.audit import check_term, check_type
from microhol.kernel import Theory
from microhol.syntax import BOOL, Abs, Comb, Const, HolError, IllTyped, TyApp, Var, fn

from .strategies import typed_terms


@st.composite
def audited_terms(draw):
    """A well-typed term in which some free or bound variable occurrences
    are replaced by the constant `=` or `@` at the variable's type, which
    is mostly no instance of the constant's generic type."""

    def walk(t):
        if isinstance(t, Var):
            if draw(st.integers(0, 3)) == 0:
                return Const(draw(st.sampled_from(("=", "@"))), t.ty)
            return t
        if isinstance(t, Comb):
            return Comb(walk(t.rator), walk(t.rand))
        if isinstance(t, Abs):
            return Abs(t.bvar, walk(t.body))
        return t

    return walk(draw(typed_terms(depth=3)))


def _verdict(theory, t, audited=None):
    try:
        check_term(theory, t, audited)
    except HolError as exc:
        return type(exc), str(exc)
    return None


@given(st.lists(audited_terms(), max_size=4), audited_terms())
@settings(max_examples=150, deadline=None)
def test_a_filled_leaf_set_changes_no_verdict(earlier, t):
    # the set is filled by audits that pass or fail part-way, of other
    # terms and of `t` itself
    thy = Theory()
    plain = _verdict(thy, t)
    audited: set = set()
    for u in (*earlier, t):
        _verdict(thy, u, audited)
    assert _verdict(thy, t, audited) == plain


def test_a_leaf_that_fails_is_not_remembered():
    thy = Theory()
    p = Var("p", BOOL)
    bad_eq = Const("=", fn(BOOL, BOOL))
    audited = {p}
    check_term(thy, Abs(p, p), audited)
    assert audited == {p}
    with pytest.raises(IllTyped, match="not an instance"):
        check_term(thy, Comb(bad_eq, p), audited)
    assert bad_eq not in audited
    with pytest.raises(HolError, match="unregistered constant 'c'"):
        check_term(thy, Comb(Const("c", fn(BOOL, BOOL)), p), audited)
    with pytest.raises(HolError, match="unregistered type constructor 'prod'"):
        check_type(thy, TyApp("prod", (BOOL, BOOL)))
