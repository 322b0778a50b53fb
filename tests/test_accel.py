"""The hot kernels in ``microhol._accel``: encoding shape and the
shared-subterm alpha walk under shadowing binders."""

import microhol
from microhol import _accel
from microhol.syntax import BOOL, Var, mk_abs, mk_eq


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
        assert _accel.alpha_equal(t, u) == want


class TestEncodingShape:
    def test_bound_variable_indexing(self):
        x = Var("x", BOOL)
        y = Var("y", BOOL)
        two = mk_abs(x, mk_abs(y, x))
        enc = _accel.alpha_canon(two)
        # outer binder referenced from under one intervening binder: index 1
        assert enc[0] == 0x14
        assert enc.endswith((1).to_bytes(4, "big"))

    def test_free_vs_bound_distinct(self):
        x = Var("x", BOOL)
        assert _accel.alpha_canon(mk_abs(x, x)) != _accel.alpha_canon(
            mk_abs(Var("y", BOOL), x)
        )
