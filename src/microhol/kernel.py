"""The trusted core: theorems, the ten primitive inference rules, three
axioms, and the two definitional mechanisms.

Nothing outside this module can fabricate a ``Theorem``: the constructor
demands a module-private token, and the class cannot be subclassed.  In
Python this guard is conventional rather than absolute, but it makes any
accidental forgery impossible and any deliberate one loud and greppable.

Assumption lists are kept sorted by ``term_compare`` and deduplicated, so
alpha-equivalent assumptions are considered equal when sequents are
combined (union) or discharged (removal).  ``term_compare`` agrees with
the canonical alpha-encoding (``term_order_key``), so the stored order is
the encoding's order and no encoding is built.  The encoding itself is
built only by ``Theory.fingerprint``, which hashes its bytes.

A theorem's four parts are its immutable slots: ``assumptions``,
``conclusion``, ``uses_infinity`` and ``theory``.  The theory is the one
whose definitions or axioms the theorem depends on: ``None`` for `refl`,
`beta`, `assume` and extensionality, which hold in every theory, and the
theory for a definition, a type definition and the choice and infinity
axioms.  The rules that take premises all state their result's
provenance in one helper, `_derive`: flagged if a premise is, and of the
premises' one theory.  A rule that combines theorems, or a type
definition from an inhabitation theorem, refuses theorems from two
different theories: a constant may mean one thing in one theory and
another in the next.

This module and ``syntax`` are the trusted base: it imports only
``syntax`` from the package, and ``surface`` inside a ``__repr__``.
The well-formedness audits and the replay of a recorded trace live
outside it, in ``audit``.

The ``Theory`` is the only mutable object here.  Inference rules never
touch it.  Its signature grows only through the two definitional rules,
`new_basic_definition` and `new_basic_type_definition`, which serialize
on an internal lock.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cmp_to_key
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .syntax import (
    BOOL,
    IND,
    Abs,
    Comb,
    Const,
    HolError,
    HolType,
    IllTyped,
    Term,
    TyApp,
    TyVar,
    Var,
    _Frozen,
    alpha_equiv,
    dest_eq,
    fn,
    free_vars,
    inst_type,
    is_eq,
    mk_abs,
    mk_comb,
    mk_eq,
    term_compare,
    term_order_key,
    type_subst,
    type_vars_of_term,
    type_vars_of_type,
    vfree_in,
    vsubst,
)

__all__ = [
    "KernelViolation",
    "NotAnEquation",
    "MiddleMismatch",
    "VarFreeInHyps",
    "NotABetaRedex",
    "NotBoolean",
    "Mismatch",
    "NotClosed",
    "TypeVarEscape",
    "DuplicateName",
    "MissingDefinitions",
    "MalformedInhabitation",
    "TheoryMismatch",
    "Theorem",
    "DefinitionEvent",
    "Theory",
    "refl",
    "trans",
    "mk_comb_rule",
    "abs_rule",
    "beta",
    "assume",
    "eq_mp",
    "deduct_antisym",
    "inst_type_rule",
    "inst_rule",
    "axiom_extensionality",
    "axiom_choice",
    "axiom_infinity",
    "new_basic_definition",
    "new_basic_type_definition",
    "tracing",
    "PRIMITIVE_RULES",
    "STANDARD_DEFINITIONS",
]


class KernelViolation(HolError):
    """Attempted to construct a ``Theorem`` outside the kernel."""


class NotAnEquation(HolError):
    pass


class MiddleMismatch(HolError):
    pass


class VarFreeInHyps(HolError):
    pass


class NotABetaRedex(HolError):
    pass


class NotBoolean(HolError):
    pass


class Mismatch(HolError):
    pass


class NotClosed(HolError):
    pass


class TypeVarEscape(HolError):
    pass


class DuplicateName(HolError):
    pass


class MissingDefinitions(HolError):
    """An axiom was requested in a theory that does not define its
    constants as bootstrap does."""


class MalformedInhabitation(HolError):
    pass


class TheoryMismatch(HolError):
    """Theorems of two different theories were combined."""


_RULE_TOKEN = object()

# Assumption tuples stay sorted by `term_compare`, which agrees with the
# canonical encoding, and hold one term per alpha-class.  Where two
# alpha-equivalent terms meet, the one from the first operand is kept.


def _union(a: tuple[Term, ...], b: tuple[Term, ...]) -> tuple[Term, ...]:
    if not a:
        return b
    if not b:
        return a
    out: list[Term] = []
    i = j = 0
    while i < len(a) and j < len(b):
        c = term_compare(a[i], b[j])
        if c < 0:
            out.append(a[i])
            i += 1
        elif c > 0:
            out.append(b[j])
            j += 1
        else:
            out.append(a[i])
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _remove(hyps: tuple[Term, ...], t: Term) -> tuple[Term, ...]:
    return tuple(h for h in hyps if not alpha_equiv(h, t))


def _instantiated(hyps: tuple[Term, ...], new: list[Term]) -> tuple[Term, ...]:
    """The assumptions `new`, the images of `hyps`, by one sort (stable, so
    the first of alpha-equivalent terms leads) and one pass that drops
    adjacent alpha-duplicates; `hyps` itself, already so, when no
    assumption changed."""
    if all(h is n for h, n in zip(hyps, new)):
        return hyps
    if len(new) < 2:
        return tuple(new)
    out: list[Term] = []
    for h in sorted(new, key=cmp_to_key(term_compare)):
        if not out or term_compare(out[-1], h):
            out.append(h)
    return tuple(out)


class Theorem(_Frozen):
    """A sequent (assumptions |- conclusion) produced by the kernel.

    ``uses_infinity`` marks derivations that touched the infinity axiom;
    the flag is monotone under every rule and excludes a theorem from
    finite-model checks."""

    __slots__ = ("assumptions", "conclusion", "uses_infinity", "theory")

    def __init__(self, hyps, concl, uses_infinity=False, thy=None, *, _token=None):
        if _token is not _RULE_TOKEN:
            raise KernelViolation(
                "Theorem values can only be made by kernel inference rules"
            )
        _set_assumptions(self, hyps)
        _set_conclusion(self, concl)
        _set_uses_infinity(self, uses_infinity)
        _set_theory(self, thy)

    def __init_subclass__(cls, **kwargs):
        raise TypeError("Theorem cannot be subclassed")

    def __repr__(self):
        from .surface import print_sequent

        return f"<theorem {print_sequent(self.assumptions, self.conclusion)}>"


# The slots' own setters, which bypass `_Frozen` (see `syntax`).
_set_assumptions = Theorem.assumptions.__set__
_set_conclusion = Theorem.conclusion.__set__
_set_uses_infinity = Theorem.uses_infinity.__set__
_set_theory = Theorem.theory.__set__


def _mk(
    hyps: tuple[Term, ...], concl: Term, flag: bool, thy: Optional[Theory] = None
) -> Theorem:
    return Theorem(hyps, concl, flag, thy, _token=_RULE_TOKEN)


def _derive(
    hyps: tuple[Term, ...], concl: Term, th1: Theorem, th2: Optional[Theorem] = None
) -> Theorem:
    """The theorem `hyps |- concl` inferred from `th1` (and `th2`): flagged
    if a premise is, and of the premises' one theory, if they have one."""
    flag, thy = th1.uses_infinity, th1.theory
    if th2 is not None:
        flag = flag or th2.uses_infinity
        if thy is None:
            thy = th2.theory
        elif th2.theory is not None and th2.theory is not thy:
            raise TheoryMismatch("the theorems come from two different theories")
    return _mk(hyps, concl, flag, thy)


def _check_theorem(th, what="argument"):
    if not isinstance(th, Theorem):
        raise KernelViolation(f"{what} is not a kernel Theorem: {th!r}")


# ---------------------------------------------------------------------------
# Derivation tracing (audit support; no effect when disabled)

_trace_log: Optional[list] = None


@contextmanager
def tracing():
    """Record every primitive rule call as (name, args, result)."""
    global _trace_log
    saved = _trace_log
    _trace_log = []
    try:
        yield _trace_log
    finally:
        _trace_log = saved


# The ten primitive rules by name, filled in by `_traced` as it wraps each.
PRIMITIVE_RULES: dict[str, Callable[..., Theorem]] = {}


def _traced(fn_: Callable) -> Callable:
    name = fn_.__name__

    def wrapper(*args):
        result = fn_(*args)
        if _trace_log is not None:
            _trace_log.append((name, args, result))
        return result

    wrapper.__name__ = name
    wrapper.__doc__ = fn_.__doc__
    PRIMITIVE_RULES[name] = wrapper
    return wrapper


# ---------------------------------------------------------------------------
# The ten primitive inference rules


@_traced
def refl(a: Term) -> Theorem:
    """|- a = a."""
    if not isinstance(a, Term):
        raise IllTyped(f"refl expects a term, got {a!r}")
    return _mk((), mk_eq(a, a), False)


@_traced
def trans(th1: Theorem, th2: Theorem) -> Theorem:
    """From |- a = b and |- b' = c with b ~ b', conclude |- a = c."""
    _check_theorem(th1)
    _check_theorem(th2)
    if not (is_eq(th1.conclusion) and is_eq(th2.conclusion)):
        raise NotAnEquation("trans needs two equations")
    a, b = th1.conclusion.rator.rand, th1.conclusion.rand
    b2, c = th2.conclusion.rator.rand, th2.conclusion.rand
    if not alpha_equiv(b, b2):
        raise MiddleMismatch("middle terms are not alpha-equivalent")
    hyps = _union(th1.assumptions, th2.assumptions)
    return _derive(hyps, mk_eq(a, c), th1, th2)


@_traced
def mk_comb_rule(th1: Theorem, th2: Theorem) -> Theorem:
    """From |- f = g and |- a = b, conclude |- f a = g b."""
    _check_theorem(th1)
    _check_theorem(th2)
    if not (is_eq(th1.conclusion) and is_eq(th2.conclusion)):
        raise NotAnEquation("mk_comb_rule needs two equations")
    f, g = th1.conclusion.rator.rand, th1.conclusion.rand
    a, b = th2.conclusion.rator.rand, th2.conclusion.rand
    hyps = _union(th1.assumptions, th2.assumptions)
    return _derive(hyps, mk_eq(mk_comb(f, a), mk_comb(g, b)), th1, th2)


@_traced
def abs_rule(x: Var, th: Theorem) -> Theorem:
    """From |- a = b, conclude |- (\\x. a) = (\\x. b), x not free in hyps."""
    _check_theorem(th)
    if not isinstance(x, Var):
        raise IllTyped("abs_rule binder must be a variable")
    if not is_eq(th.conclusion):
        raise NotAnEquation("abs_rule needs an equation")
    for h in th.assumptions:
        if vfree_in(x, h):
            raise VarFreeInHyps(f"{x.name} occurs free in an assumption")
    a, b = dest_eq(th.conclusion)
    return _derive(th.assumptions, mk_eq(mk_abs(x, a), mk_abs(x, b)), th)


@_traced
def beta(t: Term) -> Theorem:
    """|- (\\x. a) x = a, for a redex applying the abstraction to its own

    binder.  General beta-reduction is derived, not primitive."""
    if (
        isinstance(t, Comb)
        and isinstance(t.rator, Abs)
        and isinstance(t.rand, Var)
        and t.rand == t.rator.bvar
    ):
        return _mk((), mk_eq(t, t.rator.body), False)
    raise NotABetaRedex("beta needs a redex of shape (\\x. a) x")


@_traced
def assume(p: Term) -> Theorem:
    """{p} |- p."""
    if not isinstance(p, Term):
        raise IllTyped(f"assume expects a term, got {p!r}")
    if p.ty != BOOL:
        raise NotBoolean("assumptions must be boolean")
    return _mk((p,), p, False)


@_traced
def eq_mp(th1: Theorem, th2: Theorem) -> Theorem:
    """From |- p and |- p' = q with p ~ p', conclude |- q."""
    _check_theorem(th1)
    _check_theorem(th2)
    if not is_eq(th2.conclusion):
        raise NotAnEquation("eq_mp needs an equation as second argument")
    p2, q = th2.conclusion.rator.rand, th2.conclusion.rand
    if not alpha_equiv(th1.conclusion, p2):
        raise Mismatch("eq_mp premise does not match the equation's left side")
    return _derive(_union(th1.assumptions, th2.assumptions), q, th1, th2)


@_traced
def deduct_antisym(th1: Theorem, th2: Theorem) -> Theorem:
    """From G |- p and D |- q, conclude (G \\ q) u (D \\ p) |- p = q."""
    _check_theorem(th1)
    _check_theorem(th2)
    hyps = _union(
        _remove(th1.assumptions, th2.conclusion),
        _remove(th2.assumptions, th1.conclusion),
    )
    return _derive(hyps, mk_eq(th1.conclusion, th2.conclusion), th1, th2)


@_traced
def inst_type_rule(tyin: Mapping[str, HolType], th: Theorem) -> Theorem:
    """Substitute types for type variables in parallel throughout a sequent."""
    _check_theorem(th)
    concl = inst_type(tyin, th.conclusion)
    hyps = _instantiated(th.assumptions, [inst_type(tyin, h) for h in th.assumptions])
    return _derive(hyps, concl, th)


@_traced
def inst_rule(theta: Mapping[Var, Term], th: Theorem) -> Theorem:
    """Substitute terms for variables in parallel throughout a sequent.

    `vsubst` refuses the map unless every image has its variable's type."""
    _check_theorem(th)
    concl = vsubst(theta, th.conclusion)
    hyps = _instantiated(th.assumptions, [vsubst(theta, h) for h in th.assumptions])
    return _derive(hyps, concl, th)


# ---------------------------------------------------------------------------
# Theory: signature plus the append-only definition log


@dataclass(frozen=True)
class DefinitionEvent:
    """One definitional extension, as logged by the rule that made it;
    `Theory.fingerprint` hashes the ordered log."""

    kind: str  # "constant-definition" | "type-definition"
    names: tuple[str, ...]
    term: Term  # defining rhs, or the carving predicate
    witness: Optional[Term] = None  # type definitions: the inhabitation witness


_A = TyVar("A")


class Theory:
    """Type constructors, term constants, and the definition log.

    Starts with exactly bool/ind/fun and the constants ``=`` (equality at
    A -> A -> bool) and ``@`` (choice at (A -> bool) -> A).  Only
    `new_basic_definition` and `new_basic_type_definition` extend it, and
    names are never redefined.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self.type_constructors: dict[str, int] = {"bool": 0, "ind": 0, "fun": 2}
        self.term_constants: dict[str, HolType] = {
            "=": fn(_A, fn(_A, BOOL)),
            "@": fn(fn(_A, BOOL), _A),
        }
        self.definition_log: list[DefinitionEvent] = []
        self.definitions: dict[str, Term] = {}
        # each defined type's logged event: names (type, abs, rep), predicate
        self.typedefs: dict[str, DefinitionEvent] = {}

    def mk_const(self, name: str, tyinst: dict[str, HolType] | None = None) -> Const:
        """The constant at an instance of its generic type."""
        generic = self.term_constants.get(name)
        if generic is None:
            raise HolError(f"unknown constant {name!r}")
        return Const(name, type_subst(tyinst or {}, generic))

    def fingerprint(self) -> str:
        """Hash of the ordered definition log; pins articles to a signature."""
        h = hashlib.sha256(b"microhol-theory-v1")
        for ev in self.definition_log:
            h.update(b"\x00" + ev.kind.encode())
            for n in ev.names:
                h.update(b"\x01" + n.encode())
            h.update(b"\x02" + term_order_key(ev.term))
            if ev.witness is not None:
                h.update(b"\x03" + term_order_key(ev.witness))
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Axioms


def axiom_extensionality() -> Theorem:
    """|- (\\x. t x) = t (the eta form of extensionality)."""
    t = Var("t", fn(TyVar("A"), TyVar("B")))
    x = Var("x", TyVar("A"))
    return _mk((), mk_eq(mk_abs(x, mk_comb(t, x)), t), False)


def _standard_definitions() -> dict[str, Term]:
    """The bodies the axioms rely on: the constants choice and infinity
    name, and every constant those bodies use (bootstrap defines these)."""
    a, b = TyVar("A"), TyVar("B")
    b2 = fn(BOOL, fn(BOOL, BOOL))
    p, q = Var("p", BOOL), Var("q", BOOL)
    true = Const("T", BOOL)

    def binapp(name, l, r):
        return mk_comb(mk_comb(Const(name, b2), l), r)

    def binder(name, v, body):
        return mk_comb(Const(name, fn(fn(v.ty, BOOL), BOOL)), mk_abs(v, body))

    f2 = Var("f", b2)
    cap_p = Var("P", fn(a, BOOL))
    x = Var("x", a)
    f1 = Var("f", fn(a, b))
    x1, x2 = Var("x1", a), Var("x2", a)
    y = Var("y", b)
    return {
        "T": mk_eq(mk_abs(p, p), mk_abs(p, p)),
        "and": mk_abs(
            p,
            mk_abs(
                q,
                mk_eq(
                    mk_abs(f2, mk_comb(mk_comb(f2, p), q)),
                    mk_abs(f2, mk_comb(mk_comb(f2, true), true)),
                ),
            ),
        ),
        "imp": mk_abs(p, mk_abs(q, mk_eq(binapp("and", p, q), p))),
        "forall": mk_abs(cap_p, mk_eq(cap_p, mk_abs(x, true))),
        "exists": mk_abs(
            cap_p,
            binder(
                "forall",
                q,
                binapp(
                    "imp",
                    binder("forall", x, binapp("imp", mk_comb(cap_p, x), q)),
                    q,
                ),
            ),
        ),
        "F": binder("forall", p, p),
        "not": mk_abs(p, binapp("imp", p, Const("F", BOOL))),
        "ONE_ONE": mk_abs(
            f1,
            binder(
                "forall",
                x1,
                binder(
                    "forall",
                    x2,
                    binapp(
                        "imp",
                        mk_eq(mk_comb(f1, x1), mk_comb(f1, x2)),
                        mk_eq(x1, x2),
                    ),
                ),
            ),
        ),
        "ONTO": mk_abs(
            f1, binder("forall", y, binder("exists", x, mk_eq(y, mk_comb(f1, x))))
        ),
    }


STANDARD_DEFINITIONS: Mapping[str, Term] = MappingProxyType(_standard_definitions())


def _constant_names(t: Term) -> list[str]:
    if isinstance(t, Const):
        return [t.name] if t.name in STANDARD_DEFINITIONS else []
    if isinstance(t, Var):
        return []
    if isinstance(t, Comb):
        return _constant_names(t.rator) + _constant_names(t.rand)
    return _constant_names(t.body)


def _require_standard(theory: Theory, names: tuple[str, ...], axiom: str):
    """Raise unless each named constant, and each constant its standard body
    uses, is defined in `theory` by a body alpha-equal to the standard one.

    An axiom states a fact about the bootstrap meaning of the constants it
    names; with another body (say ``imp`` defined as ``\\p q. q``) it
    would be false."""
    todo = list(names)
    done = set()
    while todo:
        name = todo.pop(0)
        if name in done:
            continue
        done.add(name)
        body = theory.definitions.get(name)
        if body is None:
            raise MissingDefinitions(f"{axiom} needs the bootstrap constant {name!r}")
        standard = STANDARD_DEFINITIONS[name]
        if not alpha_equiv(body, standard):
            raise MissingDefinitions(
                f"{axiom} needs {name!r} with its bootstrap definition, "
                "not another body"
            )
        todo += _constant_names(standard)


def axiom_choice(theory: Theory) -> Theorem:
    """|- P x ==> P ((@) P)."""
    _require_standard(theory, ("imp",), "axiom_choice")
    a = TyVar("A")
    p = Var("P", fn(a, BOOL))
    x = Var("x", a)
    imp = theory.mk_const("imp")
    select = Const("@", fn(fn(a, BOOL), a))
    concl = mk_comb(mk_comb(imp, mk_comb(p, x)), mk_comb(p, mk_comb(select, p)))
    return _mk((), concl, False, theory)


def axiom_infinity(theory: Theory) -> Theorem:
    """|- ?f:ind->ind. ONE_ONE f /\\ ~(ONTO f), flagged `uses-infinity`."""
    _require_standard(
        theory, ("exists", "and", "not", "ONE_ONE", "ONTO"), "axiom_infinity"
    )
    ii = fn(IND, IND)
    inst = {"A": IND, "B": IND}
    f = Var("f", ii)
    one_one = mk_comb(theory.mk_const("ONE_ONE", inst), f)
    onto = mk_comb(theory.mk_const("ONTO", inst), f)
    body = mk_comb(
        mk_comb(theory.mk_const("and"), one_one),
        mk_comb(theory.mk_const("not"), onto),
    )
    concl = mk_comb(theory.mk_const("exists", {"A": ii}), mk_abs(f, body))
    return _mk((), concl, True, theory)


# ---------------------------------------------------------------------------
# Definitional mechanisms


def new_basic_definition(theory: Theory, name: str, rhs: Term) -> Theorem:
    """Define a new constant equal to a closed term; returns |- name = rhs."""
    if free_vars(rhs):
        raise NotClosed(f"definition body for {name!r} has free variables")
    if not type_vars_of_term(rhs) <= type_vars_of_type(rhs.ty):
        raise TypeVarEscape(
            f"type variables of {name!r}'s body do not all occur in its type"
        )
    with theory._lock:
        if name in theory.term_constants:
            raise DuplicateName(f"constant {name!r} already defined")
        theory.term_constants[name] = rhs.ty
        theory.definitions[name] = rhs
        theory.definition_log.append(
            DefinitionEvent("constant-definition", (name,), rhs)
        )
    return _mk((), mk_eq(Const(name, rhs.ty), rhs), False, theory)


def new_basic_type_definition(
    theory: Theory,
    name: str,
    abs_name: str,
    rep_name: str,
    inhabitation: Theorem,
) -> tuple[Theorem, Theorem]:
    """Carve a new type from a provably nonempty predicate.

    Returns |- abs (rep a) = a and |- P r = (rep (abs r) = r).
    """
    _check_theorem(inhabitation, "inhabitation proof")
    if inhabitation.theory is not None and inhabitation.theory is not theory:
        raise TheoryMismatch("the inhabitation theorem comes from another theory")
    if inhabitation.assumptions:
        raise MalformedInhabitation("inhabitation theorem must have no assumptions")
    concl = inhabitation.conclusion
    if not isinstance(concl, Comb):
        raise MalformedInhabitation("inhabitation conclusion must be P w")
    # Every conclusion is boolean, so `Comb` typing gives P : ty(w) -> bool.
    pred, witness = concl.rator, concl.rand
    if free_vars(pred):
        raise MalformedInhabitation("carving predicate must be closed")
    tyvars = tuple(sorted(type_vars_of_term(pred)))
    rep_ty = witness.ty
    newty = TyApp(name, tuple(TyVar(a) for a in tyvars))
    abs_c = Const(abs_name, fn(rep_ty, newty))
    rep_c = Const(rep_name, fn(newty, rep_ty))
    with theory._lock:
        if name in theory.type_constructors:
            raise DuplicateName(f"type {name!r} already defined")
        if abs_name == rep_name:
            raise DuplicateName(f"abs and rep of {name!r} are both {abs_name!r}")
        for cname in (abs_name, rep_name):
            if cname in theory.term_constants:
                raise DuplicateName(f"constant {cname!r} already defined")
        theory.type_constructors[name] = len(tyvars)
        theory.term_constants[abs_name] = abs_c.ty
        theory.term_constants[rep_name] = rep_c.ty
        event = DefinitionEvent("type-definition", (name, abs_name, rep_name), pred, witness)
        theory.typedefs[name] = event
        theory.definition_log.append(event)
    flag = inhabitation.uses_infinity
    a = Var("a", newty)
    th1 = _mk((), mk_eq(mk_comb(abs_c, mk_comb(rep_c, a)), a), flag, theory)
    r = Var("r", rep_ty)
    th2 = _mk(
        (),
        mk_eq(
            mk_comb(pred, r),
            mk_eq(mk_comb(rep_c, mk_comb(abs_c, r)), r),
        ),
        flag,
        theory,
    )
    return th1, th2
