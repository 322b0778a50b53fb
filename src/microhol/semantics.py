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
support is empty).  Terms are compiled once per type assignment into
small integer programs; the program runner is the hot kernel and lives
in ``_accel``.  A defined constant is folded to a literal:
its body is closed (the kernel rejects free variables in definitions),
so the compiler evaluates it once, at each type it is used at, instead
of rebuilding its function table on every run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ._accel import run_program
from .kernel import Theorem, Theory
from .syntax import (
    BOOL,
    Abs,
    Comb,
    Const,
    HolError,
    HolType,
    Substitution,
    Term,
    TyApp,
    TyVar,
    Var,
    fn,
    inst_type,
    type_match,
    type_vars_of_term,
)

__all__ = [
    "CarrierOverflow",
    "UnassignedTypeVar",
    "UnassignedVariable",
    "UninterpretableConstant",
    "EmptyCarrier",
    "FALSE_ELEM",
    "TRUE_ELEM",
    "Model",
    "Valuation",
    "Sequent",
    "carrier_size",
    "eval_type",
    "decode_table",
    "encode_table",
    "eval_term",
    "holds_sequent",
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

Sequent = tuple[tuple[Term, ...], Term]


@dataclass(frozen=True)
class Model:
    """Finite carriers: an ind size, a carrier cap, and the candidate
    carrier sizes offered to type variables during validity checks."""

    ind_size: int = 3
    cap: int = 1 << 16
    tyvar_sizes: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self):
        if self.ind_size < 1:
            raise ValueError("ind carrier must be nonempty")
        if not (2 <= self.cap <= 1 << 31):
            raise ValueError("cap must lie in [2, 2**31]")
        if any(s < 1 for s in self.tyvar_sizes):
            raise ValueError("type-variable carriers must be nonempty")


@dataclass(frozen=True)
class Valuation:
    """A model, carrier sizes for type variables, elements for variables."""

    model: Model
    type_sizes: Mapping[str, int] = field(default_factory=dict)
    term_assignment: Mapping[Var, int] = field(default_factory=dict)


def decode_table(value: int, dom: int, cod: int) -> tuple[int, ...]:
    """Unpack a function-table index into its entries."""
    out = []
    for _ in range(dom):
        out.append(value % cod)
        value //= cod
    return tuple(out)


def encode_table(entries: Sequence[int], cod: int) -> int:
    value = 0
    for e in reversed(entries):
        value = value * cod + e
    return value


# ---------------------------------------------------------------------------
# Compilation of terms to integer programs


class _Compiler:
    """Compiles terms for one model and one type-variable assignment.

    Slot numbering is shared across everything compiled by one instance,
    so a batch of sequent parts can be evaluated against one environment
    list.  Carrier sizes, defined-type supports and the programs of
    constants are cached per type.
    """

    def __init__(self, model: Model, type_sizes: Mapping[str, int], theory: Theory):
        self.model = model
        self.type_sizes = type_sizes
        self.theory = theory
        self.slots: dict[Var, int] = {}
        self.n_slots = 0
        self._size_cache: dict[HolType, int] = {}
        self._typedef_cache: dict[HolType, tuple[int, ...]] = {}
        self._const_cache: dict[tuple[str, HolType], tuple] = {}

    def _scratch(self) -> "_Compiler":
        """A compiler with its own slots and this one's caches."""
        sub = _Compiler(self.model, self.type_sizes, self.theory)
        sub._size_cache = self._size_cache
        sub._typedef_cache = self._typedef_cache
        sub._const_cache = self._const_cache
        return sub

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
        info = self.theory.typedefs.get(ty.con)
        if info is None:
            raise UninterpretableConstant(f"type constructor {ty.con!r} has no model")
        tyin = dict(zip(info.tyvars, ty.args))
        pred = inst_type(Substitution.of_types(tyin), info.predicate)
        rep_size = self.size_of(pred.ty.args[0])
        sub = self._scratch()
        x = Var("r?", pred.ty.args[0])
        prog = sub.compile(Comb(pred, x))
        slot = sub.slots[x]
        env = [0] * sub.n_slots
        support = []
        for r in range(rep_size):
            env[slot] = r
            if run_program(prog, env) == TRUE_ELEM:
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

    def _equality_value(self, arg_ty: HolType) -> int:
        n = self.size_of(arg_ty)
        self.size_of(fn(arg_ty, fn(arg_ty, BOOL)))
        delta_carrier = self.size_of(fn(arg_ty, BOOL))
        value = 0
        mul = 1
        for a in range(n):
            value += (1 << a) * mul
            mul *= delta_carrier
        return value

    def _choice_value(self, arg_ty: HolType) -> int:
        n = self.size_of(arg_ty)
        self.size_of(fn(fn(arg_ty, BOOL), arg_ty))
        preds = self.size_of(fn(arg_ty, BOOL))
        value = 0
        mul = 1
        for p in range(preds):
            least = (p & -p).bit_length() - 1 if p else 0
            value += least * mul
            mul *= n
        return value

    def _abs_rep_values(self, cty: HolType, name: str) -> int:
        """Table for a type-definition's abs or rep constant."""
        dom_ty, cod_ty = cty.args
        self.size_of(cty)
        cod = self.size_of(cod_ty)
        if isinstance(cod_ty, TyApp) and cod_ty.con in self.theory.typedefs and (
            self.theory.typedefs[cod_ty.con].abs_name == name
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
        generic = self.theory.term_constants[c.name]
        if type_match(generic, c.ty) is None:
            raise UninterpretableConstant(f"constant {c.name!r} at bad type {c.ty!r}")

    def compile_const(self, t: Const) -> tuple:
        key = (t.name, t.ty)
        prog = self._const_cache.get(key)
        if prog is None:
            prog = self._compile_const(t)
            self._const_cache[key] = prog
        return prog

    def _compile_const(self, t: Const) -> tuple:
        name, ty = t.name, t.ty
        if name == "=":
            shape = type_match(self.theory.term_constants["="], ty)
            if shape is None:
                raise UninterpretableConstant(f"equality at bad type {ty!r}")
            return (1, self._equality_value(shape["A"]))
        if name == "@":
            shape = type_match(self.theory.term_constants["@"], ty)
            if shape is None:
                raise UninterpretableConstant(f"choice at bad type {ty!r}")
            return (1, self._choice_value(shape["A"]))
        for info in self.theory.typedefs.values():
            if name in (info.abs_name, info.rep_name):
                return (1, self._abs_rep_values(ty, name))
        rhs = self.theory.definitions.get(name)
        if rhs is None:
            raise UninterpretableConstant(f"constant {name!r} has no definition")
        tyin = type_match(self.theory.term_constants[name], ty)
        if tyin is None:
            raise UninterpretableConstant(f"constant {name!r} at bad type {ty!r}")
        # The body is closed, so its value needs no environment of ours.
        sub = self._scratch()
        body = sub.compile(inst_type(Substitution.of_types(tyin), rhs))
        return (1, run_program(body, [0] * sub.n_slots))

    # -- terms

    def compile(self, t: Term, bound: dict[Var, int] | None = None) -> tuple:
        """Compile a term to an integer program (opcodes in ``_accel``)."""
        if bound is None:
            bound = {}
        if isinstance(t, Var):
            slot = bound.get(t)
            if slot is None:
                slot = self.slot_of(t)
            return (0, slot)
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
                return (4, self.compile(f.rand, bound), self.compile(a, bound))
            if isinstance(f, Const) and f.name == "=":
                self._check_fixed(f)
                self.size_of(t.ty)
                return (5, self.compile(a, bound))
            if isinstance(f, Const) and f.name == "@":
                self._check_fixed(f)
                return (6, self.compile(a, bound))
            if isinstance(f, Abs):
                # Beta shortcut: semantically the table entry at the argument.
                slot = self.fresh_slot()
                arg = self.compile(a, bound)
                saved = bound.get(f.bvar)
                bound[f.bvar] = slot
                body = self.compile(f.body, bound)
                _restore(bound, f.bvar, saved)
                return (7, slot, arg, body)
            self.size_of(f.ty)
            cod = self.size_of(t.ty)
            return (2, self.compile(f, bound), self.compile(a, bound), cod)
        # Abstraction: enumerate the domain carrier.
        self.size_of(t.ty)
        dom = self.size_of(t.bvar.ty)
        cod = self.size_of(t.body.ty)
        slot = self.fresh_slot()
        saved = bound.get(t.bvar)
        bound[t.bvar] = slot
        body = self.compile(t.body, bound)
        _restore(bound, t.bvar, saved)
        return (3, slot, dom, cod, body)


def _restore(bound: dict, key, saved):
    if saved is None:
        bound.pop(key, None)
    else:
        bound[key] = saved


def carrier_size(
    ty: HolType,
    model: Model,
    type_sizes: Mapping[str, int] | None = None,
    theory: Theory | None = None,
) -> int:
    """Cardinality of the carrier denoted by ty."""
    comp = _Compiler(model, type_sizes or {}, theory or Theory())
    return comp.size_of(ty)


def eval_type(ty: HolType, v: Valuation, theory: Theory | None = None) -> range:
    """The carrier denoted by ty under the valuation: its elements are
    the indices 0..n-1 in the carrier's fixed well-ordering."""
    return range(carrier_size(ty, v.model, v.type_sizes, theory))


# ---------------------------------------------------------------------------
# Evaluation of single terms and sequents


def eval_term(t: Term, v: Valuation, theory: Theory | None = None) -> int:
    """The element denoted by t under the valuation (an index; see module
    docs for how function tables are packed)."""
    theory = theory or Theory()
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
    return run_program(prog, env)


def holds_sequent(s: Sequent, v: Valuation, theory: Theory | None = None) -> bool:
    """True iff some assumption is false or the conclusion is true."""
    hyps, concl = s
    for h in hyps:
        if eval_term(h, v, theory) == FALSE_ELEM:
            return True
    return eval_term(concl, v, theory) == TRUE_ELEM


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


class _SequentBatch:
    """A group of sequents compiled against one shared environment."""

    def __init__(
        self,
        sequents: Sequence[Sequent],
        model: Model,
        type_sizes: Mapping[str, int],
        theory: Theory,
    ):
        comp = _Compiler(model, type_sizes, theory)
        self.compiled = [
            ([comp.compile(h) for h in hyps], comp.compile(concl))
            for hyps, concl in sequents
        ]
        self.free = sorted(comp.slots.items(), key=lambda kv: (kv[0].name, kv[1]))
        self.sizes = [comp.size_of(v.ty) for v, _ in self.free]
        self.slots = [slot for _, slot in self.free]
        self.env = [0] * comp.n_slots

    def space(self) -> int:
        n = 1
        for s in self.sizes:
            n *= s
        return n

    def set_assignment(self, values: Sequence[int]):
        env = self.env
        for slot, value in zip(self.slots, values):
            env[slot] = value

    def holds(self, i: int) -> bool:
        hyps, concl = self.compiled[i]
        env = self.env
        for h in hyps:
            if run_program(h, env) == FALSE_ELEM:
                return True
        return run_program(concl, env) == TRUE_ELEM

    def assignment(self, values: Sequence[int]) -> dict[Var, int]:
        return {v: val for (v, _), val in zip(self.free, values)}


def _search(
    sequents: Sequence[Sequent],
    n_prem: int,
    model: Model,
    theory: Theory,
    limit: int,
    samples: int,
    rng: random.Random,
) -> tuple[bool, int, Optional[tuple]]:
    """Look for a valuation under which the first `n_prem` sequents hold
    and the one after them fails.

    Every valuation is enumerated when there are at most `limit` of them;
    otherwise `samples` valuations are drawn from `rng`.  Returns whether
    the search was exhaustive, the number of valuations evaluated, and the
    first failure as (type assignment, batch, values), or None.  Raises
    CarrierOverflow when a carrier exceeds the model's cap.
    """
    tyvars: set[str] = set()
    for hyps, concl in sequents:
        for t in (*hyps, concl):
            tyvars |= type_vars_of_term(t)
    tyvar_list = sorted(tyvars)
    batches = []
    total = 0
    for sizes in itertools.product(model.tyvar_sizes, repeat=len(tyvar_list)):
        tyassign = dict(zip(tyvar_list, sizes))
        batch = _SequentBatch(sequents, model, tyassign, theory)
        batches.append((tyassign, batch))
        total += batch.space()

    # The sequent after the premises is checked first: when it holds (the
    # common case for a sound rule) no premise needs evaluating.
    evaluations = 0
    if total <= limit:
        for tyassign, batch in batches:
            for values in itertools.product(*(range(s) for s in batch.sizes)):
                batch.set_assignment(values)
                evaluations += 1
                if not batch.holds(n_prem) and all(
                    batch.holds(i) for i in range(n_prem)
                ):
                    return True, evaluations, (tyassign, batch, values)
        return True, evaluations, None
    for _ in range(samples):
        tyassign, batch = batches[rng.randrange(len(batches))]
        values = [rng.randrange(size) for size in batch.sizes]
        batch.set_assignment(values)
        evaluations += 1
        if not batch.holds(n_prem) and all(batch.holds(i) for i in range(n_prem)):
            return False, evaluations, (tyassign, batch, values)
    return False, evaluations, None


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
        [s], 0, model, theory or Theory(), budget, samples, random.Random(seed)
    )
    if failure is None:
        return Verdict(True, exhaustive, checked)
    tyassign, batch, values = failure
    return Verdict(
        False,
        exhaustive,
        checked,
        Counterexample(dict(tyassign), batch.assignment(values)),
    )


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


def fuzz_rule_soundness(
    rule_id: str,
    instance_generator: Callable[[random.Random], RuleInstance],
    trials: int,
    model: Model | Sequence[Model] | None = None,
    seed: int = 0,
    exhaustive_limit: int = 100_000,
    sample_count: int = 1_000,
    theory: Theory | None = None,
) -> FuzzReport:
    """Check `premises all hold => conclusion holds` on random instances.

    For every generated instance, valuations are enumerated exhaustively
    when the space is within `exhaustive_limit`, otherwise sampled
    `sample_count` times.  When several models are given, trials cycle
    through them round-robin.  Counterexamples are reported verbatim,
    never raised.  Instances whose carriers overflow the cap are counted
    and skipped.
    """
    from .surface import print_sequent

    if model is None:
        models: tuple[Model, ...] = (Model(1), Model(2), Model(3))
    elif isinstance(model, Model):
        models = (model,)
    else:
        models = tuple(model)
    theory = theory or Theory()
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
                theory,
                exhaustive_limit,
                sample_count,
                rng,
            )
        except CarrierOverflow:
            skipped += 1
            continue
        evaluations += count
        if failure is not None:
            tyassign, batch, values = failure
            bad.append(
                FuzzCounterexample(
                    trial=trial,
                    label=inst.label,
                    premises=tuple(print_sequent(h, c) for h, c in inst.premises),
                    conclusion=print_sequent(*inst.conclusion),
                    valuation=Counterexample(
                        dict(tyassign), batch.assignment(values)
                    ).render(),
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
