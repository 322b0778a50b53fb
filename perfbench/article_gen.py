"""Seeded proof articles of many small, fresh terms.

Each derivation draws its terms from a new ``fuzz.TermGen``, prints them
with ``surface.print_term`` and applies one primitive rule command to
them, cycling through all ten: REFL, TRANS, MKCOMB, ABS, BETA, ASSUME,
EQMP, DEDUCT, INST and INSTTYPE.  The derivation ends with a THM line
whose sequent is printed from the kernel theorem computed here, while
generating, so replay is checked against an independent computation.
"""

from __future__ import annotations

import random

from microhol import kernel
from microhol.fuzz import TermGen, alpha_variant
from microhol.kernel import Theory
from microhol.surface import print_sequent, print_term, print_type
from microhol.syntax import (
    Substitution,
    TyVar,
    Var,
    fn,
    free_vars,
    mk_abs,
    mk_comb,
    mk_eq,
    term_order_key,
)

HEADER = "microhol-article 1"


class _Article:
    def __init__(self):
        self.lines: list[str] = []

    def add(self, cmd: str, rest: str) -> int:
        no = len(self.lines) + 1
        self.lines.append(f"{no}. {cmd} {rest}".rstrip())
        return no

    def term(self, t) -> int:
        return self.add("TERM", print_term(t))

    def assume(self, p) -> tuple[int, kernel.Theorem]:
        return self.add("ASSUME", str(self.term(p))), kernel.assume(p)

    def refl(self, t) -> tuple[int, kernel.Theorem]:
        return self.add("REFL", str(self.term(t))), kernel.refl(t)


def _depth(rng) -> int:
    return rng.randrange(1, 4)


def _refl(a, g, rng):
    return a.refl(g.term(g.small_type(), _depth(rng)))


def _assume(a, g, rng):
    return a.assume(g.bool_term(_depth(rng)))


def _beta(a, g, rng):
    x = Var("x", g.small_type(False))
    t = mk_comb(mk_abs(x, g.term_with(x, g.small_type(), _depth(rng))), x)
    return a.add("BETA", str(a.term(t))), kernel.beta(t)


def _trans(a, g, rng):
    ty = g.small_type()
    x, y, z = (g.term(ty, _depth(rng)) for _ in range(3))
    n1, th1 = a.assume(mk_eq(x, y))
    n2, th2 = a.assume(mk_eq(alpha_variant(rng, y), z))
    return a.add("TRANS", f"{n1} {n2}"), kernel.trans(th1, th2)


def _mk_comb(a, g, rng):
    dom, cod = g.small_type(False), g.small_type(False)
    n1, th1 = a.assume(mk_eq(g.term(fn(dom, cod), 2), g.term(fn(dom, cod), 2)))
    n2, th2 = a.assume(mk_eq(g.term(dom, 2), g.term(dom, 2)))
    return a.add("MKCOMB", f"{n1} {n2}"), kernel.mk_comb_rule(th1, th2)


def _abs(a, g, rng):
    x = Var("ax", g.small_type(False))
    nx = a.term(x)
    n, th = a.refl(g.term_with(x, g.small_type(), _depth(rng)))
    return a.add("ABS", f"{nx} {n}"), kernel.abs_rule(x, th)


def _eq_mp(a, g, rng):
    p, q = g.bool_term(_depth(rng)), g.bool_term(_depth(rng))
    n1, th1 = a.assume(p)
    n2, th2 = a.assume(mk_eq(alpha_variant(rng, p), q))
    return a.add("EQMP", f"{n1} {n2}"), kernel.eq_mp(th1, th2)


def _deduct(a, g, rng):
    n1, th1 = a.assume(g.bool_term(_depth(rng)))
    n2, th2 = a.assume(g.bool_term(_depth(rng)))
    return a.add("DEDUCT", f"{n1} {n2}"), kernel.deduct_antisym(th1, th2)


def _inst(a, g, rng):
    n, th = a.assume(g.bool_term(_depth(rng)))
    pairs = []
    mapping = {}
    for v in sorted(free_vars(th.conclusion), key=term_order_key):
        if rng.random() < 0.6:
            image = g.term(v.ty, rng.randrange(0, 3))
            mapping[v] = image
            pairs.append(f"{a.term(v)}={a.term(image)}")
    s = Substitution.of_terms(mapping)
    return a.add("INST", " ".join([str(n), *pairs])), kernel.inst_rule(s, th)


def _inst_type(a, g, rng):
    n, th = a.refl(g.term(TyVar("A"), _depth(rng)))
    ty = g.small_type()
    nty = a.add("TYPE", print_type(ty))
    s = Substitution.of_types({"A": ty})
    return a.add("INSTTYPE", f"{n} A={nty}"), kernel.inst_type_rule(s, th)


DERIVATIONS = (
    _refl,
    _trans,
    _mk_comb,
    _abs,
    _beta,
    _assume,
    _eq_mp,
    _deduct,
    _inst,
    _inst_type,
)


def generate(seed: int, derivations: int) -> str:
    """An article of `derivations` derivations against the fresh theory."""
    rng = random.Random(seed)
    a = _Article()
    for i in range(derivations):
        g = TermGen(rng)
        n, th = DERIVATIONS[i % len(DERIVATIONS)](a, g, rng)
        a.add("THM", f"{n} {print_sequent(th.assumptions, th.conclusion)}")
    head = [HEADER, f"theory {Theory().fingerprint()}"]
    return "\n".join(head + a.lines) + "\n"

