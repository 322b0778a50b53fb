"""Well-formedness audits: types, terms and theorems checked against a
theory's signature.

An audit makes no theorem, so it lies outside the trusted base.  The
kernel builds only well-typed terms; an audit checks what arrives from
elsewhere, a parsed article line or a fuzzer's theorem, against the
constructors and constants one theory has registered.
"""

from __future__ import annotations

from .kernel import KernelViolation, NotBoolean, Theorem, Theory
from .syntax import (
    BOOL,
    Abs,
    Comb,
    Const,
    HolError,
    HolType,
    IllTyped,
    Term,
    TyApp,
    TyVar,
    type_match,
)

__all__ = ["check_type", "check_term", "check_theorem"]


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


def check_term(theory: Theory, t: Term, audited: set[Term] | None = None):
    """Full-tree audit: registered types, constant instances, local typing.

    `audited` holds `Var` and `Const` leaves that have passed this audit
    against the theory's signature as it stands: they are not audited
    again, and each leaf that passes is added.  Every `Comb` and `Abs`
    node is checked."""
    if audited is None:
        audited = set()
    if isinstance(t, Comb):
        check_term(theory, t.rator, audited)
        check_term(theory, t.rand, audited)
        if not (
            isinstance(t.rator.ty, TyApp)
            and t.rator.ty.con == "fun"
            and t.rator.ty.args[0] == t.rand.ty
        ):
            raise IllTyped("combination violates the domain-match invariant")
    elif isinstance(t, Abs):
        check_term(theory, t.bvar, audited)
        check_term(theory, t.body, audited)
    elif t not in audited:
        check_type(theory, t.ty)
        if isinstance(t, Const):
            if not theory.has_constant(t.name):
                raise HolError(f"unregistered constant {t.name!r}")
            if type_match(theory.constant_type(t.name), t.ty) is None:
                raise IllTyped(
                    f"constant {t.name!r} at {t.ty!r} is not an instance of its "
                    "generic type"
                )
        audited.add(t)


def check_theorem(theory: Theory, th: Theorem):
    """Audit a theorem: all parts well-typed, boolean where required."""
    if not isinstance(th, Theorem):
        raise KernelViolation(f"argument is not a kernel Theorem: {th!r}")
    for part in (*th.assumptions, th.conclusion):
        check_term(theory, part)
        if part.ty != BOOL:
            raise NotBoolean("sequent part is not boolean")
