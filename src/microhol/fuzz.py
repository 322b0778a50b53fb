"""Seeded random generation of types, terms, and rule instances.

The soundness fuzzer mechanizes the consistency argument: every premise
fed to a primitive rule is itself kernel-derived (hence valid), so the
produced sequent must hold under every valuation; `fuzz_rule_soundness`
checks exactly that.  Generators keep carriers small so the valuation
spaces stay enumerable.

Everything is driven by an explicit ``random.Random`` so identical seeds
reproduce identical instances bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cmp_to_key

from . import kernel
from .audit import check_theorem
from .kernel import Theorem, Theory, assume, refl
from .semantics import RuleInstance, theorem_sequent
from .syntax import (
    BOOL,
    IND,
    Abs,
    Comb,
    Const,
    HolError,
    HolType,
    Term,
    TyVar,
    Var,
    alpha_equiv,
    fn,
    free_vars,
    mk_abs,
    mk_comb,
    mk_eq,
    term_compare,
    type_vars_of_term,
    variant,
    vfree_in,
    vsubst,
)

__all__ = [
    "TermGen",
    "alpha_variant",
    "RULE_IDS",
    "make_generator",
    "weakened_abs_generator",
    "WalkReport",
    "random_kernel_walk",
]

_TYVARS = (TyVar("A"), TyVar("B"))
_VAR_NAMES = ("x", "y", "z", "u", "v", "w")


class TermGen:
    """Random well-typed terms over small types, with a shared variable
    pool so generated instances contain repeated variables.

    Types are kept small on purpose: the fuzzer enumerates valuations
    over the free variables, so a handful of variables over carriers of
    a few elements keeps instances exhaustively checkable."""

    def __init__(self, rng: random.Random, max_free: int = 3):
        self.rng = rng
        self.max_free = max_free
        self.pool: dict[HolType, list[Var]] = {}
        self._minted = 0

    def small_type(self, fun_ok: bool = True) -> HolType:
        r = self.rng.random()
        if r < 0.42:
            return BOOL
        if r < 0.70:
            return IND
        if r < 0.85:
            return _TYVARS[0] if self.rng.random() < 0.8 else _TYVARS[1]
        if fun_ok:
            return fn(self.rng.choice((BOOL, IND)), self.rng.choice((BOOL, IND)))
        return BOOL

    def var(self, ty: HolType) -> Var:
        pool = self.pool.setdefault(ty, [])
        if pool and (self.rng.random() < 0.7 or self._minted >= self.max_free):
            return self.rng.choice(pool)
        name = _VAR_NAMES[self._minted % len(_VAR_NAMES)]
        if self._minted >= len(_VAR_NAMES):
            name += str(self._minted // len(_VAR_NAMES))
        self._minted += 1
        v = Var(name, ty)
        pool.append(v)
        return v

    def term(self, ty: HolType, depth: int) -> Term:
        rng = self.rng
        if depth <= 0:
            return self.var(ty)
        r = rng.random()
        if r < 0.30:
            return self.var(ty)
        if r < 0.45 and ty == BOOL:
            ety = self.small_type(False)
            return mk_eq(self.term(ety, depth - 1), self.term(ety, depth - 1))
        if r < 0.60 and isinstance(ty, TyVar) or (
            r < 0.50 and ty in (BOOL, IND)
        ):
            pred = self.term(fn(ty, BOOL), depth - 1)
            return mk_comb(Const("@", fn(fn(ty, BOOL), ty)), pred)
        if is_fun(ty):
            dom, cod = ty.args
            bv = Var(rng.choice(_VAR_NAMES[:3]), dom)
            return mk_abs(bv, self.term_with(bv, cod, depth - 1))
        if r < 0.8:
            arg_ty = self.small_type(False)
            f = self.term(fn(arg_ty, ty), depth - 1)
            return mk_comb(f, self.term(arg_ty, depth - 1))
        # beta-redex shape
        bv = Var(rng.choice(_VAR_NAMES[:3]), self.small_type(False))
        body = self.term_with(bv, ty, depth - 1)
        return mk_comb(mk_abs(bv, body), bv)

    def term_with(self, v: Var, ty: HolType, depth: int) -> Term:
        """A term in which v is available for use (possibly bound outside)."""
        pool = self.pool.setdefault(v.ty, [])
        added = v not in pool
        if added:
            pool.append(v)
        try:
            return self.term(ty, depth)
        finally:
            if added:
                pool.remove(v)

    def bool_term(self, depth: int) -> Term:
        return self.term(BOOL, depth)


def is_fun(ty: HolType) -> bool:
    return getattr(ty, "con", None) == "fun"


def alpha_variant(rng: random.Random, t: Term) -> Term:
    """Rename some bound variables; the result is alpha-equivalent to t."""
    if isinstance(t, Comb):
        return Comb(alpha_variant(rng, t.rator), alpha_variant(rng, t.rand))
    if isinstance(t, Abs):
        body = alpha_variant(rng, t.body)
        v = t.bvar
        if rng.random() < 0.6:
            v2 = variant([body], Var(v.name + "_" + str(rng.randrange(3)), v.ty))
            return Abs(v2, vsubst({v: v2}, body))
        return Abs(v, body)
    return t


# ---------------------------------------------------------------------------
# Per-rule instance generators.  Premise theorems are produced through the
# kernel (assume/refl/beta and small combinations), so they are valid; the
# fuzzer then demands the produced sequent holds wherever the premises do.


def _instance(premises: tuple[Theorem, ...], result: Theorem, label: str):
    return RuleInstance(
        tuple(theorem_sequent(t) for t in premises),
        theorem_sequent(result),
        label,
    )


def _gen_refl(rng):
    g = TermGen(rng)
    t = g.term(g.small_type(), rng.randrange(1, 4))
    return _instance((), refl(t), "refl")


def _gen_trans(rng):
    g = TermGen(rng)
    ty = g.small_type()
    a, b, c = (g.term(ty, rng.randrange(1, 4)) for _ in range(3))
    th1 = assume(mk_eq(a, b))
    th2 = assume(mk_eq(alpha_variant(rng, b), c))
    return _instance((th1, th2), kernel.trans(th1, th2), "trans")


def _gen_mk_comb(rng):
    g = TermGen(rng)
    a_ty = g.small_type(False)
    b_ty = g.small_type(False)
    fty = fn(a_ty, b_ty)
    th1 = assume(mk_eq(g.term(fty, 2), g.term(fty, 2)))
    th2 = assume(mk_eq(g.term(a_ty, 2), g.term(a_ty, 2)))
    return _instance((th1, th2), kernel.mk_comb_rule(th1, th2), "mk_comb")


def _hypfree_equation(g: TermGen, rng, x: Var) -> Theorem:
    """A kernel equation theorem with no assumptions, with x in scope."""
    kind = rng.randrange(3)
    if kind == 0:
        return refl(g.term_with(x, g.small_type(), rng.randrange(1, 4)))
    if kind == 1:
        bv = Var("q", g.small_type(False))
        body = g.term_with(bv, g.small_type(), rng.randrange(1, 3))
        return kernel.beta(mk_comb(mk_abs(bv, body), bv))
    th1 = refl(g.term_with(x, fn(IND, BOOL), 1))
    th2 = refl(g.term_with(x, IND, rng.randrange(1, 3)))
    return kernel.mk_comb_rule(th1, th2)


def _gen_abs(rng):
    g = TermGen(rng)
    x = Var("abs_x", g.small_type(False))
    th = None
    if rng.random() >= 0.7:
        # assume-premise path: the equation must not mention x freely
        for _ in range(20):
            eq = mk_eq(g.term(BOOL, 2), g.term(BOOL, 2))
            if not vfree_in(x, eq):
                th = assume(eq)
                break
    if th is None:
        th = _hypfree_equation(g, rng, x)
    return _instance((th,), kernel.abs_rule(x, th), "abs")


def _gen_beta(rng):
    g = TermGen(rng)
    x = Var("x", g.small_type(False))
    body = g.term_with(x, g.small_type(), rng.randrange(1, 4))
    t = mk_comb(mk_abs(x, body), x)
    return _instance((), kernel.beta(t), "beta")


def _gen_assume(rng):
    g = TermGen(rng)
    p = g.bool_term(rng.randrange(1, 4))
    return _instance((), assume(p), "assume")


def _gen_eq_mp(rng):
    g = TermGen(rng)
    p = g.bool_term(rng.randrange(1, 4))
    q = g.bool_term(rng.randrange(1, 4))
    th1 = assume(p)
    th2 = assume(mk_eq(alpha_variant(rng, p), q))
    return _instance((th1, th2), kernel.eq_mp(th1, th2), "eq_mp")


def _pool_theorem(g: TermGen, rng) -> Theorem:
    kind = rng.randrange(3)
    if kind == 0:
        return assume(g.bool_term(rng.randrange(1, 4)))
    if kind == 1:
        return refl(g.term(g.small_type(), rng.randrange(1, 3)))
    th1 = assume(g.bool_term(2))
    th2 = assume(mk_eq(th1.conclusion, g.bool_term(2)))
    return kernel.eq_mp(th1, th2)


def _gen_deduct(rng):
    g = TermGen(rng)
    th1 = _pool_theorem(g, rng)
    th2 = _pool_theorem(g, rng)
    return _instance((th1, th2), kernel.deduct_antisym(th1, th2), "deduct_antisym")


def _gen_inst_type(rng):
    g = TermGen(rng)
    th = _pool_theorem(g, rng)
    mapping: dict[str, HolType] = {}
    for name in sorted(type_vars_of_term(th.conclusion) | {"A"}):
        if rng.random() < 0.8:
            mapping[name] = g.small_type()
    return _instance((th,), kernel.inst_type_rule(mapping, th), "inst_type")


def _sorted_frees(th: Theorem) -> list[Var]:
    """The variables free in a theorem's assumptions or conclusion, in the
    term order."""
    return sorted(
        set().union(*(free_vars(t) for t in (*th.assumptions, th.conclusion))),
        key=cmp_to_key(term_compare),
    )


def _gen_inst(rng):
    g = TermGen(rng)
    th = _pool_theorem(g, rng)
    mapping: dict[Var, Term] = {}
    for v in _sorted_frees(th):
        if rng.random() < 0.6:
            mapping[v] = g.term(v.ty, rng.randrange(0, 3))
    return _instance((th,), kernel.inst_rule(mapping, th), "inst")


_GENERATORS = {
    "refl": _gen_refl,
    "trans": _gen_trans,
    "mk_comb": _gen_mk_comb,
    "abs": _gen_abs,
    "beta": _gen_beta,
    "assume": _gen_assume,
    "eq_mp": _gen_eq_mp,
    "deduct_antisym": _gen_deduct,
    "inst_type": _gen_inst_type,
    "inst": _gen_inst,
}
RULE_IDS = tuple(_GENERATORS)


def make_generator(rule_id: str):
    """Instance generator for one of the ten primitive rules."""
    try:
        return _GENERATORS[rule_id]
    except KeyError:
        raise ValueError(f"unknown rule {rule_id!r}") from None


def weakened_abs_generator(rng) -> RuleInstance:
    """The abstraction rule with its side condition removed (test-only).

    Builds {x = y} |- x = y, then abstracts x even though x is free in
    the assumptions; the resulting sequent is not valid, and the fuzzer
    must find a concrete counterexample.
    """
    ty = IND if rng.random() < 0.7 else BOOL
    x = Var("x", ty)
    y = Var("y", ty)
    eq = mk_eq(x, y)
    th = assume(eq)
    concl = mk_eq(mk_abs(x, x), mk_abs(x, y))
    return RuleInstance(
        (theorem_sequent(th),),
        (th.assumptions, concl),
        "abs-without-side-condition",
    )


# ---------------------------------------------------------------------------
# Random kernel walk


@dataclass
class WalkReport:
    steps: int
    successes: int = 0
    rejections: int = 0
    audited: int = 0
    false_derived: bool = False
    first_false_step: int | None = None


def random_kernel_walk(
    theory: Theory,
    steps: int,
    seed: int = 0,
    extra_theorems: tuple[Theorem, ...] = (),
    audit_every: int = 0,
) -> WalkReport:
    """Apply random primitive rules for `steps` attempts, watching for a
    theorem alpha-equal to |- F (by constant or by its unfolding).

    Rule applications that raise kernel errors count as rejections.  When
    ``audit_every`` is positive, every n-th success is fully re-checked
    for well-typedness.
    """
    rng = random.Random(seed)
    g = TermGen(rng, max_free=6)
    report = WalkReport(steps=steps)

    false_terms = ()
    if "F" in theory.term_constants:
        p = Var("p", BOOL)
        forall = Const("forall", fn(fn(BOOL, BOOL), BOOL))
        false_terms = (Const("F", BOOL), mk_comb(forall, mk_abs(p, p)))

    pool: list[Theorem] = list(extra_theorems)
    pool.append(kernel.axiom_extensionality())
    for _ in range(12):
        pool.append(assume(g.bool_term(rng.randrange(1, 4))))
        pool.append(refl(g.term(g.small_type(), rng.randrange(1, 3))))

    def pick() -> Theorem:
        return rng.choice(pool)

    for step in range(steps):
        action = rng.randrange(10)
        try:
            if action == 0:
                th = refl(g.term(g.small_type(), rng.randrange(1, 4)))
            elif action == 1:
                th = assume(g.bool_term(rng.randrange(1, 4)))
            elif action == 2:
                th = kernel.trans(pick(), pick())
            elif action == 3:
                th = kernel.mk_comb_rule(pick(), pick())
            elif action == 4:
                th = kernel.abs_rule(Var("x", g.small_type(False)), pick())
            elif action == 5:
                x = Var("x", g.small_type(False))
                th = kernel.beta(mk_comb(mk_abs(x, g.term_with(x, g.small_type(), 2)), x))
            elif action == 6:
                th = kernel.eq_mp(pick(), pick())
            elif action == 7:
                th = kernel.deduct_antisym(pick(), pick())
            elif action == 8:
                mapping = {"A": g.small_type(), "B": g.small_type()}
                th = kernel.inst_type_rule(mapping, pick())
            else:
                base = pick()
                mapping = {
                    v: g.term(v.ty, rng.randrange(0, 3))
                    for v in _sorted_frees(base)
                    if rng.random() < 0.5
                }
                th = kernel.inst_rule(mapping, base)
        except HolError:
            report.rejections += 1
            continue

        report.successes += 1
        if not th.assumptions and any(alpha_equiv(th.conclusion, f) for f in false_terms):
            report.false_derived = True
            if report.first_false_step is None:
                report.first_false_step = step
        if audit_every and report.successes % audit_every == 0:
            check_theorem(theory, th)
            report.audited += 1
        if len(pool) < 400:
            pool.append(th)
        else:
            pool[rng.randrange(len(pool))] = th

    return report
