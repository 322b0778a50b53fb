"""Executable finite-model semantics and the rule-soundness fuzzer.

Types denote finite carriers and every element is represented by its
index in the carrier's fixed well-ordering:

* ``bool`` is the two-element carrier, 0 = false, 1 = true;
* ``ind`` has a configurable size (the infinite type cannot be realized
  finitely, which is exactly why `uses-infinity` theorems are excluded);
* ``A -> B`` is the full function space: a table ``t`` with entries
  ``t[a]`` is the index ``sum(t[a] * |B|**a)``, so application is digit
  extraction in base ``|B|``;
* a defined type constructor denotes the subset of its representing
  carrier satisfying the carving predicate, reindexed from 0.

Equality denotes the curried delta function and choice picks the least
element of a predicate's support (least carrier element when the
support is empty).  Terms are compiled once per type assignment,
straight to Python closures: one closure per node, reading variables
from an environment list by slot (after Feeley & Lapalme, "Using
Closures for Code Generation", 1987).  A validity check compiles each
distinct term object once per type assignment, then runs one valuation
loop over the compiled parts, enumerating every valuation or sampling
them, without an interpreter in between.  A defined constant is folded
to a literal: its body is closed (the kernel rejects free variables in
definitions), so the same compiler evaluates it once, at each type it is
used at, instead of rebuilding its function table on every run.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .kernel import Theorem, Theory
from .syntax import (
    BOOL,
    Abs,
    Comb,
    Const,
    HolError,
    HolType,
    Term,
    TyApp,
    TyVar,
    Var,
    inst_type,
    type_match,
    type_vars_of_term,
    type_vars_of_type,
)

__all__ = [
    "CarrierOverflow",
    "UnassignedTypeVar",
    "UnassignedVariable",
    "UninterpretableConstant",
    "EmptyCarrier",
    "FALSE_ELEM",
    "TRUE_ELEM",
    "TYVAR_SIZES",
    "Model",
    "Valuation",
    "Sequent",
    "carrier_size",
    "encode_table",
    "eval_term",
    "Verdict",
    "is_valid",
    "theorem_sequent",
    "RuleInstance",
    "Counterexample",
    "FuzzReport",
    "fuzz_rule_soundness",
]


class CarrierOverflow(HolError):
    """A carrier would exceed the model's cap."""


class UnassignedTypeVar(HolError):
    pass


class UnassignedVariable(HolError):
    pass


class UninterpretableConstant(HolError):
    """A constant with no definition and no fixed interpretation."""


class EmptyCarrier(HolError):
    """A defined type's predicate has empty support in this model."""


FALSE_ELEM = 0
TRUE_ELEM = 1

# The theory of calls given none: the compiler only reads it.
_EMPTY_THEORY = Theory()

Sequent = tuple[tuple[Term, ...], Term]


# The carrier sizes a validity check offers each type variable.
TYVAR_SIZES = (1, 2, 3)


@dataclass(frozen=True)
class Model:
    """Finite carriers: an ind size and a carrier cap."""

    ind_size: int = 3
    cap: int = 1 << 16

    def __post_init__(self):
        if self.ind_size < 1:
            raise ValueError("ind carrier must be nonempty")
        if not (2 <= self.cap <= 1 << 31):
            raise ValueError("cap must lie in [2, 2**31]")


@dataclass(frozen=True)
class Valuation:
    """A model, carrier sizes for type variables, elements for variables."""

    model: Model
    type_sizes: Mapping[str, int] = field(default_factory=dict)
    term_assignment: Mapping[Var, int] = field(default_factory=dict)


def encode_table(entries: Sequence[int], cod: int) -> int:
    value = 0
    for e in reversed(entries):
        value = value * cod + e
    return value


# ---------------------------------------------------------------------------
# Compilation of terms to closures


def _literal(value: int) -> Callable[[list], int]:
    return lambda env: value


def _fun_args(ty: HolType) -> Optional[tuple[HolType, HolType]]:
    if isinstance(ty, TyApp) and ty.con == "fun":
        return ty.args
    return None


def _fixed_arg_type(c: Const) -> Optional[HolType]:
    """The `A` of `=` at A -> A -> bool or of `@` at (A -> bool) -> A, or
    None when the constant is not at an instance of that type."""
    outer = _fun_args(c.ty)
    if outer is None:
        return None
    a, pred = outer if c.name == "=" else reversed(outer)
    inner = _fun_args(pred)
    if inner is None or inner[0] != a or inner[1] != BOOL:
        return None
    return a


class _Compiler:
    """Compiles terms for one model and one type-variable assignment.

    A compiled term is a closure from an environment list to an element
    index, one closure per node.  Slot numbering is shared across
    everything compiled by one instance, so the parts of several sequents
    can be evaluated against one environment list.  The variables in
    `free` take slots 0..len(free)-1 in that order; any other free
    variable gets the next slot when first compiled, and each binder a
    fresh one.  The closed terms behind constants and defined types are
    compiled here too, their variables all bound, so `slots` holds only
    free variables.  Carrier sizes, defined-type supports and the
    closures of constants are cached per type.
    """

    def __init__(
        self,
        model: Model,
        type_sizes: Mapping[str, int],
        theory: Theory,
        free: Sequence[Var] = (),
    ):
        self.model = model
        self.type_sizes = type_sizes
        self.theory = theory
        self.slots: dict[Var, int] = {v: i for i, v in enumerate(free)}
        self.n_slots = len(self.slots)
        self._size_cache: dict[HolType, int] = {}
        self._typedef_cache: dict[HolType, tuple[int, ...]] = {}
        self._const_cache: dict[Const, Callable[[list], int]] = {}

    # -- carriers

    def size_of(self, ty: HolType) -> int:
        cached = self._size_cache.get(ty)
        if cached is not None:
            return cached
        size = self._size_of(ty)
        self._size_cache[ty] = size
        return size

    def _size_of(self, ty: HolType) -> int:
        if isinstance(ty, TyVar):
            size = self.type_sizes.get(ty.name)
            if size is None:
                raise UnassignedTypeVar(f"type variable {ty.name} is unassigned")
            return size
        if ty.con == "bool":
            return 2
        if ty.con == "ind":
            return self.model.ind_size
        if ty.con == "fun":
            dom = self.size_of(ty.args[0])
            cod = self.size_of(ty.args[1])
            size = 1
            for _ in range(dom):
                size *= cod
                if size > self.model.cap:
                    raise CarrierOverflow(
                        f"function carrier exceeds cap {self.model.cap}"
                    )
            return size
        return len(self.typedef_support(ty))

    def typedef_support(self, ty: TyApp) -> tuple[int, ...]:
        """Indices of the representing carrier satisfying the predicate."""
        cached = self._typedef_cache.get(ty)
        if cached is not None:
            return cached
        ev = self.theory.typedefs.get(ty.con)
        if ev is None:
            raise UninterpretableConstant(f"type constructor {ty.con!r} has no model")
        tyin = dict(zip(sorted(type_vars_of_term(ev.term)), ty.args))
        pred = inst_type(tyin, ev.term)
        rep_size = self.size_of(pred.ty.args[0])
        x = Var("r?", pred.ty.args[0])
        slot = self.fresh_slot()
        prog = self.compile(Comb(pred, x), {x: slot})
        env = [0] * self.n_slots
        support = []
        for r in range(rep_size):
            env[slot] = r
            if prog(env) == TRUE_ELEM:
                support.append(r)
        if not support:
            raise EmptyCarrier(
                f"predicate for type {ty.con!r} has empty support in this model"
            )
        out = tuple(support)
        self._typedef_cache[ty] = out
        return out

    # -- slots

    def slot_of(self, v: Var) -> int:
        slot = self.slots.get(v)
        if slot is None:
            slot = self.n_slots
            self.slots[v] = slot
            self.n_slots += 1
        return slot

    def fresh_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    # -- constants with fixed interpretations

    def _abs_rep_values(self, cty: HolType, name: str) -> int:
        """Table for a type-definition's abs or rep constant."""
        dom_ty, cod_ty = cty.args
        self.size_of(cty)
        cod = self.size_of(cod_ty)
        if isinstance(cod_ty, TyApp) and cod_ty.con in self.theory.typedefs and (
            self.theory.typedefs[cod_ty.con].names[1] == name
        ):
            # abs: representing carrier -> new type
            support = self.typedef_support(cod_ty)
            index = {r: i for i, r in enumerate(support)}
            entries = [index.get(r, 0) for r in range(self.size_of(dom_ty))]
        else:
            # rep: new type -> representing carrier
            support = self.typedef_support(dom_ty)
            entries = list(support)
        return encode_table(entries, cod)

    def _check_fixed(self, c: Const):
        """Reject hand-built `=`/`@` constants at non-instance types, which
        would otherwise compare or choose across distinct carriers."""
        if _fixed_arg_type(c) is None:
            raise UninterpretableConstant(f"constant {c.name!r} at bad type {c.ty!r}")

    def compile_const(self, t: Const) -> Callable[[list], int]:
        prog = self._const_cache.get(t)
        if prog is None:
            prog = _literal(self._const_value(t))
            self._const_cache[t] = prog
        return prog

    def _const_value(self, t: Const) -> int:
        name, ty = t.name, t.ty
        if name == "=" or name == "@":
            self._check_fixed(t)
            # A bare `=` or `@` is its eta-expansion `\x. c x`, whose body
            # the equation and choice shortcuts of `compile` evaluate.
            x = Var("x", ty.args[0])
            closed = Abs(x, Comb(t, x))
        else:
            for ev in self.theory.typedefs.values():
                if name in ev.names[1:]:
                    return self._abs_rep_values(ty, name)
            rhs = self.theory.definitions.get(name)
            if rhs is None:
                raise UninterpretableConstant(f"constant {name!r} has no definition")
            tyin = type_match(self.theory.term_constants[name], ty)
            if tyin is None:
                raise UninterpretableConstant(f"constant {name!r} at bad type {ty!r}")
            closed = inst_type(tyin, rhs)
        # The term is closed: its binders take fresh slots, and its value
        # reads none that a caller fills.
        return self.compile(closed)([0] * self.n_slots)

    # -- terms

    def compile(
        self, t: Term, bound: Mapping[Var, int] = MappingProxyType({})
    ) -> Callable[[list], int]:
        """Compile a term to a closure over the environment list."""
        if isinstance(t, Var):
            slot = bound.get(t)
            if slot is None:
                slot = self.slot_of(t)
            return itemgetter(slot)
        if isinstance(t, Const):
            return self.compile_const(t)
        if isinstance(t, Comb):
            f, a = t.rator, t.rand
            if (
                isinstance(f, Comb)
                and isinstance(f.rator, Const)
                and f.rator.name == "="
            ):
                self._check_fixed(f.rator)
                lhs = self.compile(f.rand, bound)
                rhs = self.compile(a, bound)
                return lambda env: 1 if lhs(env) == rhs(env) else 0
            if isinstance(f, Const) and f.name == "=":
                self._check_fixed(f)
                self.size_of(t.ty)
                arg = self.compile(a, bound)
                return lambda env: 1 << arg(env)
            if isinstance(f, Const) and f.name == "@":
                self._check_fixed(f)
                return _choose(self.compile(a, bound))
            if isinstance(f, Abs):
                # Beta shortcut: semantically the table entry at the argument.
                slot = self.fresh_slot()
                arg = self.compile(a, bound)
                body = self.compile(f.body, {**bound, f.bvar: slot})
                return _beta(slot, arg, body)
            self.size_of(f.ty)
            cod = self.size_of(t.ty)
            fun = self.compile(f, bound)
            arg = self.compile(a, bound)
            if cod == 2:
                return lambda env: (fun(env) >> arg(env)) & 1
            powers = _powers(cod, self.size_of(a.ty))
            return lambda env: fun(env) // powers[arg(env)] % cod
        # Abstraction: enumerate the domain carrier.
        self.size_of(t.ty)
        dom = self.size_of(t.bvar.ty)
        cod = self.size_of(t.body.ty)
        slot = self.fresh_slot()
        body = self.compile(t.body, {**bound, t.bvar: slot})
        return _table(slot, dom, cod, body)


def _powers(base: int, n: int) -> tuple[int, ...]:
    return tuple(base**i for i in range(n))


def _choose(pred: Callable[[list], int]) -> Callable[[list], int]:
    def choose(env):
        p = pred(env)
        return (p & -p).bit_length() - 1 if p else 0

    return choose


def _beta(slot: int, arg, body) -> Callable[[list], int]:
    def beta(env):
        env[slot] = arg(env)
        return body(env)

    return beta


def _table(slot: int, dom: int, cod: int, body) -> Callable[[list], int]:
    """The function table of `\\v. body`, v in `slot` ranging over `dom`."""
    if cod == 2:
        bits = tuple(enumerate(_powers(2, dom)))

        def table(env):
            acc = 0
            for elem, bit in bits:
                env[slot] = elem
                if body(env):
                    acc |= bit
            return acc

        return table
    digits = tuple(enumerate(_powers(cod, dom)))

    def table(env):
        acc = 0
        for elem, mul in digits:
            env[slot] = elem
            acc += body(env) * mul
        return acc

    return table


def carrier_size(
    ty: HolType,
    model: Model,
    type_sizes: Mapping[str, int] | None = None,
    theory: Theory | None = None,
) -> int:
    """Cardinality of the carrier denoted by ty."""
    comp = _Compiler(model, type_sizes or {}, theory or _EMPTY_THEORY)
    return comp.size_of(ty)


# ---------------------------------------------------------------------------
# Evaluation of single terms and sequents


def eval_term(t: Term, v: Valuation, theory: Theory | None = None) -> int:
    """The element denoted by t under the valuation (an index; see module
    docs for how function tables are packed)."""
    theory = theory or _EMPTY_THEORY
    comp = _Compiler(v.model, v.type_sizes, theory)
    prog = comp.compile(t)
    env = [0] * comp.n_slots
    for var, slot in comp.slots.items():
        if var not in v.term_assignment:
            raise UnassignedVariable(f"variable {var.name} is unassigned")
        value = v.term_assignment[var]
        size = comp.size_of(var.ty)
        if not 0 <= value < size:
            raise HolError(
                f"assignment {value} for {var.name} outside carrier of size {size}"
            )
        env[slot] = value
    return prog(env)


def theorem_sequent(th: Theorem) -> Sequent:
    return (th.assumptions, th.conclusion)


@dataclass(frozen=True)
class Counterexample:
    type_sizes: dict[str, int]
    assignment: dict[Var, int]

    def render(self) -> str:
        tys = ", ".join(f"{n}:={s}" for n, s in sorted(self.type_sizes.items()))
        vs = ", ".join(
            f"{v.name}:={e}"
            for v, e in sorted(self.assignment.items(), key=lambda kv: kv[0].name)
        )
        return f"[{tys}] {{{vs}}}" if tys else f"{{{vs}}}"


@dataclass(frozen=True)
class Verdict:
    valid: bool
    exhaustive: bool
    checked: int
    counterexample: Optional[Counterexample] = None


def _scan(t: Term, bound: frozenset[Var], free: dict[Var, None], types: set):
    """Add the free variables of `t` to `free` in the order in which
    `_Compiler.compile` first reaches them, and its leaf types to `types`."""
    if isinstance(t, Var):
        types.add(t.ty)
        if t not in bound:
            free.setdefault(t)
    elif isinstance(t, Const):
        types.add(t.ty)
    elif isinstance(t, Comb):
        f = t.rator
        if isinstance(f, Abs):  # a beta redex compiles its argument first
            _scan(t.rand, bound, free, types)
            _scan(f, bound, free, types)
        else:
            _scan(f, bound, free, types)
            _scan(t.rand, bound, free, types)
    else:
        types.add(t.bvar.ty)
        _scan(t.body, bound | {t.bvar}, free, types)


def _valuations(batches, exhaustive: bool, samples: int, rng: random.Random):
    """(batch, valuations) blocks: the whole product of each batch in
    turn, or `samples` single valuations drawn from `rng`, each in a
    batch drawn first."""
    if exhaustive:
        for batch in batches:
            yield batch, itertools.product(*map(range, batch[2]))
    else:
        for _ in range(samples):
            batch = batches[rng.randrange(len(batches))]
            yield batch, ([rng.randrange(size) for size in batch[2]],)


def _premises_hold(parts, n_prem: int, env: list) -> bool:
    """Whether each of the first `n_prem` sequents holds: some hypothesis
    is false or the conclusion is true."""
    return all(
        not all(h(env) for h in hyps) or concl(env) == TRUE_ELEM
        for hyps, concl in parts[:n_prem]
    )


def _search(
    sequents: Sequence[Sequent],
    n_prem: int,
    model: Model,
    theory: Theory,
    limit: int,
    samples: int,
    rng: random.Random,
) -> tuple[bool, int, Optional[tuple[dict[str, int], dict[Var, int]]]]:
    """Look for a valuation under which the first `n_prem` sequents hold
    and the one after them fails.

    Each type assignment gets one compiler, which compiles each distinct
    term object once (a premise's assumptions are usually the same
    objects as the conclusion's), and one batch `(type assignment,
    compiled parts, carrier sizes, environment)`.  Every valuation is
    enumerated when there are at most `limit` of them; otherwise
    `samples` valuations are drawn from `rng`.  Both run the same loop.
    Returns whether the search was exhaustive, the number of valuations
    evaluated, and the first failure as (type assignment, {variable:
    element}), or None.  Raises CarrierOverflow when a carrier exceeds
    the model's cap.

    Free variables are ordered by name, ties by first occurrence; the
    valuations are enumerated in the lexicographic order of that list.
    """
    terms = {id(t): t for hyps, concl in sequents for t in (*hyps, concl)}
    free: dict[Var, None] = {}
    types: set[HolType] = set()
    for t in terms.values():
        _scan(t, frozenset(), free, types)
    tyvars: set[str] = set()
    for ty in types:
        tyvars |= type_vars_of_type(ty)
    tyvar_list = sorted(tyvars)
    free_list = sorted(free, key=lambda v: v.name)
    batches = []
    for sizes in itertools.product(TYVAR_SIZES, repeat=len(tyvar_list)):
        tyassign = dict(zip(tyvar_list, sizes))
        comp = _Compiler(model, tyassign, theory, free_list)
        compiled = {key: comp.compile(t) for key, t in terms.items()}
        parts = [
            ([compiled[id(h)] for h in hyps], compiled[id(concl)])
            for hyps, concl in sequents
        ]
        dims = [comp.size_of(v.ty) for v in free_list]
        batches.append((tyassign, parts, dims, [0] * comp.n_slots))
    exhaustive = sum(math.prod(batch[2]) for batch in batches) <= limit

    # The sequent after the premises is checked first: when it holds (the
    # common case for a sound rule) no premise needs evaluating.
    evaluations = 0
    n = len(free_list)
    for (tyassign, parts, _, env), valuations in _valuations(
        batches, exhaustive, samples, rng
    ):
        hyps, concl = parts[n_prem]
        for values in valuations:
            env[:n] = values
            evaluations += 1
            for h in hyps:
                if not h(env):  # a false assumption: the sequent holds
                    break
            else:
                if concl(env) != TRUE_ELEM and _premises_hold(parts, n_prem, env):
                    failure = (tyassign, dict(zip(free_list, values)))
                    return exhaustive, evaluations, failure
    return exhaustive, evaluations, None


def is_valid(
    s: Sequent,
    model: Model,
    budget: int = 100_000,
    samples: int = 1_000,
    seed: int = 0,
    theory: Theory | None = None,
) -> Verdict:
    """Decide validity by enumerating valuations, or sample when the
    valuation space exceeds the budget (a stochastic verdict)."""
    exhaustive, checked, failure = _search(
        [s], 0, model, theory or _EMPTY_THEORY, budget, samples, random.Random(seed)
    )
    if failure is None:
        return Verdict(True, exhaustive, checked)
    return Verdict(False, exhaustive, checked, Counterexample(*failure))


# ---------------------------------------------------------------------------
# Rule-soundness fuzzing


@dataclass(frozen=True)
class RuleInstance:
    """One generated rule application, as raw sequents."""

    premises: tuple[Sequent, ...]
    conclusion: Sequent
    label: str = ""


@dataclass(frozen=True)
class FuzzCounterexample:
    trial: int
    label: str
    premises: tuple[str, ...]
    conclusion: str
    valuation: str


@dataclass(frozen=True)
class FuzzReport:
    rule: str
    trials: int
    seed: int
    evaluations: int
    skipped_overflow: int
    counterexamples: tuple[FuzzCounterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


_DEFAULT_MODELS = (Model(1), Model(2), Model(3))


def fuzz_rule_soundness(
    rule_id: str,
    instance_generator: Callable[[random.Random], RuleInstance],
    trials: int,
    model: Model | Sequence[Model] | None = None,
    seed: int = 0,
    exhaustive_limit: int = 100_000,
    sample_count: int = 1_000,
) -> FuzzReport:
    """Check `premises all hold => conclusion holds` on random instances.

    For every generated instance, valuations are enumerated exhaustively
    when the space is within `exhaustive_limit`, otherwise sampled
    `sample_count` times.  When several models are given, trials cycle
    through them round-robin.  Counterexamples are reported verbatim,
    never raised.  Instances whose carriers overflow the cap are counted
    and skipped.
    """
    if model is None:
        models: tuple[Model, ...] = _DEFAULT_MODELS
    elif isinstance(model, Model):
        models = (model,)
    else:
        models = tuple(model)
    rng = random.Random(seed)
    evaluations = 0
    skipped = 0
    bad: list[FuzzCounterexample] = []

    for trial in range(trials):
        model = models[trial % len(models)]
        inst = instance_generator(rng)
        try:
            _, count, failure = _search(
                [*inst.premises, inst.conclusion],
                len(inst.premises),
                model,
                _EMPTY_THEORY,
                exhaustive_limit,
                sample_count,
                rng,
            )
        except CarrierOverflow:
            skipped += 1
            continue
        evaluations += count
        if failure is not None:
            from .surface import print_sequent

            bad.append(
                FuzzCounterexample(
                    trial=trial,
                    label=inst.label,
                    premises=tuple(print_sequent(h, c) for h, c in inst.premises),
                    conclusion=print_sequent(*inst.conclusion),
                    valuation=Counterexample(*failure).render(),
                )
            )

    return FuzzReport(
        rule=rule_id,
        trials=trials,
        seed=seed,
        evaluations=evaluations,
        skipped_overflow=skipped,
        counterexamples=tuple(bad),
    )
