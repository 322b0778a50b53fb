"""Audits of kernel output: types, terms and theorems checked against a
theory's signature, and the replay of a recorded inference trace.

An audit makes no theorem, so it lies outside the trusted base.  The
kernel builds only well-typed terms, and the parser checks what it reads
against the signature; an audit checks that a fuzzer's or the kernel's
theorem uses only the constructors and constants one theory has
registered, or that a trace of rule calls reproduces its results.
"""

from __future__ import annotations

from .kernel import PRIMITIVE_RULES, KernelViolation, NotBoolean, Theorem, Theory
from .surface import print_type
from .syntax import (
    BOOL,
    Abs,
    Comb,
    Const,
    HolError,
    HolType,
    IllTyped,
    Term,
    TyVar,
    alpha_equiv,
    type_match,
)

__all__ = ["check_type", "check_term", "check_theorem", "replay_trace"]


def check_type(theory: Theory, ty: HolType):
    """Raise unless every constructor is registered with matching arity."""
    if isinstance(ty, TyVar):
        return
    arity = theory.type_constructors.get(ty.con)
    if arity is None:
        raise HolError(f"unregistered type constructor {ty.con!r}")
    if arity != len(ty.args):
        raise IllTyped(
            f"type constructor {ty.con!r} expects {arity} arguments, "
            f"got {len(ty.args)}"
        )
    for a in ty.args:
        check_type(theory, a)


def check_term(theory: Theory, t: Term):
    """Raise unless every variable and constant has registered types and
    every constant is registered at an instance of its generic type.  A
    combination needs no check of its own: `Comb` refuses a rand outside
    its rator's domain when it is built."""
    if isinstance(t, Comb):
        check_term(theory, t.rator)
        check_term(theory, t.rand)
    elif isinstance(t, Abs):
        check_term(theory, t.bvar)
        check_term(theory, t.body)
    else:
        check_type(theory, t.ty)
        if isinstance(t, Const):
            generic = theory.term_constants.get(t.name)
            if generic is None:
                raise HolError(f"unregistered constant {t.name!r}")
            if type_match(generic, t.ty) is None:
                raise IllTyped(
                    f"constant {t.name!r} at {print_type(t.ty)} is not an instance "
                    "of its generic type"
                )


def check_theorem(theory: Theory, th: Theorem):
    """Audit a theorem: all parts well-typed, boolean where required."""
    if not isinstance(th, Theorem):
        raise KernelViolation(f"argument is not a kernel Theorem: {th!r}")
    for part in (*th.assumptions, th.conclusion):
        check_term(theory, part)
        if part.ty != BOOL:
            raise NotBoolean("sequent part is not boolean")


def replay_trace(log) -> bool:
    """Re-run a recorded trace; True iff every step reproduces its result."""
    for name, args, result in log:
        again = PRIMITIVE_RULES[name](*args)
        if not alpha_equiv(again.conclusion, result.conclusion):
            return False
        # Both tuples are in term_compare order, so they match pairwise.
        ha, hb = again.assumptions, result.assumptions
        if len(ha) != len(hb) or not all(map(alpha_equiv, ha, hb)):
            return False
    return True
