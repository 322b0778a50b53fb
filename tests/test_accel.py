"""The term order, alpha-equivalence and the canonical encoding of
``microhol.syntax``: encoding shape, the order walk against the encoding,
and the shared-subterm alpha walk under shadowing binders."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import microhol
from microhol.syntax import (
    BOOL,
    TyVar,
    Var,
    alpha_equiv,
    mk_abs,
    mk_eq,
    term_compare,
    term_order_key,
)

from .strategies import shared_pairs, typed_terms


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


def _encoding_order(t, u):
    a, b = term_order_key(t), term_order_key(u)
    return (a > b) - (a < b)


class TestAlphaOrder:
    @given(st.one_of(st.tuples(typed_terms(), typed_terms()), shared_pairs()))
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
