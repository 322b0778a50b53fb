"""Agreement between the pure and compiled accelerator backends.

The pure module is the reference; when the compiled extension is
available every observable result must be bit-identical.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microhol import _accel_py
from microhol.fuzz import TermGen
from microhol.kernel import Theory
from microhol.semantics import Model, _Compiler
from microhol.syntax import BOOL, IND, Abs, Comb, Var, fn, mk_abs, mk_comb, mk_eq

from .strategies import shared_pairs

try:
    from microhol import _accel_c
except ImportError:
    _accel_c = None

needs_compiled = pytest.mark.skipif(
    _accel_c is None, reason="compiled backend not built"
)


def _strip_caches(t):
    """Drop cached subtree encodings so each backend encodes from scratch."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Comb):
            object.__setattr__(u, "_canon", None)
            stack.append(u.rator)
            stack.append(u.rand)
        elif isinstance(u, Abs):
            object.__setattr__(u, "_canon", None)
            stack.append(u.body)


@needs_compiled
class TestAgreement:
    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_alpha_canon_identical(self, seed):
        rng = random.Random(seed)
        g = TermGen(rng, max_free=4)
        t = g.term(g.small_type(), rng.randrange(0, 7))
        _strip_caches(t)
        pure = _accel_py.alpha_canon(t)
        _strip_caches(t)
        fast = _accel_c.alpha_canon(t)
        assert pure == fast

    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_alpha_equal_identical(self, seed):
        rng = random.Random(seed)
        g = TermGen(rng, max_free=3)
        t = g.term(g.small_type(), rng.randrange(0, 5))
        from microhol.fuzz import alpha_variant

        u = alpha_variant(rng, t)
        w = g.term(t.ty, rng.randrange(0, 5))
        for a, b in ((t, u), (t, w), (u, w)):
            assert _accel_py.alpha_equal(a, b) == _accel_c.alpha_equal(a, b)

    @given(shared_pairs())
    @settings(max_examples=200, deadline=None)
    def test_alpha_equal_shadowed_binders_identical(self, pair):
        t, u = pair
        assert _accel_py.alpha_equal(t, u) == _accel_c.alpha_equal(t, u)

    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_run_program_identical(self, seed):
        rng = random.Random(seed)
        g = TermGen(rng, max_free=3)
        t = mk_eq(g.term(BOOL, 3), g.term(BOOL, 3))
        theory = Theory()
        comp = _Compiler(Model(ind_size=3), {"A": 2, "B": 3}, theory)
        try:
            prog = comp.compile(t)
        except Exception:
            return
        sizes = {v: comp.size_of(v.ty) for v in comp.slots}
        for _ in range(10):
            env = [0] * comp.n_slots
            for v, slot in comp.slots.items():
                env[slot] = rng.randrange(sizes[v])
            env2 = list(env)
            assert _accel_py.run_program(prog, env) == _accel_c.run_program(
                prog, env2
            )

    def test_backend_name(self):
        assert _accel_py.BACKEND == "pure"
        assert _accel_c.BACKEND == "compiled"

    def test_selector_honors_env(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c", "from microhol._accel import BACKEND; print(BACKEND)"],
            capture_output=True,
            text=True,
            env={"MICROHOL_PURE": "1", "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == "pure"


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
    backends = [_accel_py] + ([_accel_c] if _accel_c is not None else [])
    for t, u, want in cases:
        for backend in backends:
            assert backend.alpha_equal(t, u) == want


class TestEncodingShape:
    def test_bound_variable_indexing(self):
        x = Var("x", BOOL)
        y = Var("y", BOOL)
        two = mk_abs(x, mk_abs(y, x))
        enc = _accel_py.alpha_canon(two)
        # outer binder referenced from under one intervening binder: index 1
        assert enc[0] == 0x14
        assert enc.endswith((1).to_bytes(4, "big"))

    def test_free_vs_bound_distinct(self):
        x = Var("x", BOOL)
        assert _accel_py.alpha_canon(mk_abs(x, x)) != _accel_py.alpha_canon(
            mk_abs(Var("y", BOOL), x)
        )
