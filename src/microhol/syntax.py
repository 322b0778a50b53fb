"""Simply typed lambda syntax: HOL types, terms, and the term operations
everything else is built on.

Types and atoms are interned: `TyVar` and `TyApp` return the one existing
object for a name or for a (constructor, arguments) pair, and `Var` and
`Const` the one for a (name, type) pair, so types, variables and constants
compare and hash by identity; only combinations and abstractions compare
structurally.  Terms carry their type intrinsically (computed once at
construction), so `type_of` is a field read and the node constructors can
reject ill-typed combinations immediately.  The same name at two types
denotes two unrelated variables.

Types, terms and the kernel's theorems are immutable one way: their base
`_Frozen` refuses every write and delete of an attribute, and their
constructors write through their slots' own setters.

Combinations and abstractions cache their free-variable set on first
use, so `vfree_in` is a membership test and substitution returns any
subtree that mentions no substituted variable without walking it.
Alpha-equivalence walks the two terms side by side and stops at
physically shared subterms while every binder pair opened so far is the
same variable.  The total term order is the same walk, and agrees with a
de Bruijn canonical byte encoding, which is built, uncached, only where
its bytes are a stored value: the theory fingerprint.

This module and ``kernel`` are the trusted base; it imports no other
module of the package except ``surface``, inside the ``__repr__``s.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "HolError",
    "IllTyped",
    "HolType",
    "TyVar",
    "TyApp",
    "Term",
    "Var",
    "Const",
    "Comb",
    "Abs",
    "BOOL",
    "IND",
    "fn",
    "mk_comb",
    "mk_abs",
    "mk_eq",
    "eq_const",
    "is_eq",
    "dest_eq",
    "type_of",
    "free_vars",
    "vfree_in",
    "variant",
    "type_vars_of_type",
    "type_vars_of_term",
    "type_subst",
    "type_match",
    "Substitution",
    "vsubst",
    "inst_type",
    "alpha_equiv",
    "term_compare",
    "term_order_key",
]


class HolError(Exception):
    """Base class for every error this package raises deliberately."""


class IllTyped(HolError):
    """A term construction violated the typing discipline."""


# ---------------------------------------------------------------------------
# Types


class _Frozen:
    """Refuses every write and delete of an attribute.  Types, terms and
    theorems derive from it; their constructors write through their
    slots' own setters, which bypass it."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class HolType(_Frozen):
    __slots__ = ()

    def __repr__(self):
        from .surface import print_type

        return f"<hol_type {print_type(self)}>"


# Every type ever built, keyed by a type variable's name or by a type
# application's (con, args): equal types are one object, so type equality
# and hashing are identity.  `setdefault` keeps that true when two threads
# build the same type at once.
_TYPES: dict = {}


class TyVar(HolType):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        ty = _TYPES.get(name)
        if ty is None:
            ty = object.__new__(cls)
            _set_tyvar_name(ty, name)
            ty = _TYPES.setdefault(name, ty)
        return ty

    def __reduce__(self):  # copies and unpickled types are the interned one
        return (TyVar, (self.name,))


class TyApp(HolType):
    __slots__ = ("con", "args")

    def __new__(cls, con: str, args: Iterable[HolType] = ()):
        args = tuple(args)
        key = (con, args)
        ty = _TYPES.get(key)
        if ty is None:
            ty = object.__new__(cls)
            _set_con(ty, con)
            _set_args(ty, args)
            ty = _TYPES.setdefault(key, ty)
        return ty

    def __reduce__(self):
        return (TyApp, (self.con, self.args))


# The slots' own setters: each constructor writes through these, bypassing
# the `__setattr__` that makes a built type, term or theorem immutable.
_set_tyvar_name = TyVar.name.__set__
_set_con = TyApp.con.__set__
_set_args = TyApp.args.__set__


BOOL = TyApp("bool")
IND = TyApp("ind")


def fn(dom: HolType, cod: HolType) -> TyApp:
    """The function type dom -> cod."""
    return TyApp("fun", (dom, cod))


def type_vars_of_type(ty: HolType) -> set[str]:
    out: set[str] = set()
    stack = [ty]
    while stack:
        t = stack.pop()
        if isinstance(t, TyVar):
            out.add(t.name)
        else:
            stack.extend(t.args)
    return out


def type_subst(mapping: Mapping[str, HolType], ty: HolType) -> HolType:
    """Substitute type variables; shares unchanged subtrees."""
    if isinstance(ty, TyVar):
        return mapping.get(ty.name, ty)
    changed = False
    args = []
    for a in ty.args:
        a2 = type_subst(mapping, a)
        changed = changed or a2 is not a
        args.append(a2)
    return TyApp(ty.con, args) if changed else ty


def type_match(
    pattern: HolType,
    target: HolType,
    env: dict[str, HolType] | None = None,
) -> dict[str, HolType] | None:
    """First-order type matching: an assignment sending pattern to target.

    Returns the (possibly extended) environment, or None if no match.  On
    failure a passed-in env may hold partial bindings; callers that reuse
    environments must treat None as invalidating.
    """
    if env is None:
        env = {}
    if isinstance(pattern, TyVar):
        bound = env.get(pattern.name)
        if bound is None:
            env[pattern.name] = target
            return env
        return env if bound is target else None
    if (
        not isinstance(target, TyApp)
        or pattern.con != target.con
        or len(pattern.args) != len(target.args)
    ):
        return None
    for p, t in zip(pattern.args, target.args):
        if type_match(p, t, env) is None:
            return None
    return env


# ---------------------------------------------------------------------------
# Terms


class Term(_Frozen):
    __slots__ = ()

    def __repr__(self):
        from .surface import print_term

        return f"<term {print_term(self)}>"


# Every atom ever built, keyed by (class, name, type), interned as types
# are.  Neither table ever shrinks, and both stay small: every workload
# draws its names and types from fixed stocks (the fuzzer's and the article
# generator's pools, a problem's symbols, and their numbered or primed
# variants).
_ATOMS: dict = {}


class _Atom(Term):
    """A variable or a constant: a name and a type, interned."""

    __slots__ = ("name", "ty")

    def __new__(cls, name: str, ty: HolType):
        key = (cls, name, ty)
        atom = _ATOMS.get(key)
        if atom is None:
            atom = object.__new__(cls)
            _set_name(atom, name)
            _set_atom_ty(atom, ty)
            atom = _ATOMS.setdefault(key, atom)
        return atom

    def __reduce__(self):  # copies and unpickled atoms are the interned one
        return (type(self), (self.name, self.ty))


_set_name = _Atom.name.__set__
_set_atom_ty = _Atom.ty.__set__


class Var(_Atom):
    __slots__ = ()


class Const(_Atom):
    __slots__ = ()


class Comb(Term):
    __slots__ = ("rator", "rand", "ty", "_h", "_fvs")

    def __init__(self, rator: Term, rand: Term):
        rty = rator.ty
        if not (isinstance(rty, TyApp) and rty.con == "fun"):
            raise IllTyped(f"rator is not a function: {rator!r}")
        if rty.args[0] is not rand.ty:
            raise IllTyped(
                f"operand type {rand.ty!r} does not match domain {rty.args[0]!r}"
            )
        _set_rator(self, rator)
        _set_rand(self, rand)
        _set_comb_ty(self, rty.args[1])
        _set_comb_h(self, None)
        _set_comb_fvs(self, None)

    def __reduce__(self):  # through the checked constructor
        return (Comb, (self.rator, self.rand))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Comb)
            and hash(self) == hash(other)
            and self.rator == other.rator
            and self.rand == other.rand
        )

    def __hash__(self):
        h = self._h
        if h is None:
            h = hash((Comb, self.rator, self.rand))
            _set_comb_h(self, h)
        return h


_set_rator = Comb.rator.__set__
_set_rand = Comb.rand.__set__
_set_comb_ty = Comb.ty.__set__
_set_comb_h = Comb._h.__set__
_set_comb_fvs = Comb._fvs.__set__


class Abs(Term):
    __slots__ = ("bvar", "body", "ty", "_h", "_fvs")

    def __init__(self, bvar: Var, body: Term):
        if not isinstance(bvar, Var):
            raise IllTyped("abstraction binder must be a variable")
        _set_bvar(self, bvar)
        _set_body(self, body)
        _set_abs_ty(self, fn(bvar.ty, body.ty))
        _set_abs_h(self, None)
        _set_abs_fvs(self, None)

    def __reduce__(self):
        return (Abs, (self.bvar, self.body))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Abs)
            and hash(self) == hash(other)
            and self.bvar is other.bvar
            and self.body == other.body
        )

    def __hash__(self):
        h = self._h
        if h is None:
            h = hash((Abs, self.bvar, self.body))
            _set_abs_h(self, h)
        return h


_set_bvar = Abs.bvar.__set__
_set_body = Abs.body.__set__
_set_abs_ty = Abs.ty.__set__
_set_abs_h = Abs._h.__set__
_set_abs_fvs = Abs._fvs.__set__


def type_of(t: Term) -> HolType:
    """The unique type of a term (total on constructed terms)."""
    return t.ty


# The public spellings used throughout; Comb and Abs check their invariants.
mk_comb = Comb
mk_abs = Abs


_EQ_CONSTS: dict[HolType, Const] = {}  # interned argument type -> its `=`


def eq_const(ty: HolType) -> Const:
    """The equality constant instantiated at argument type `ty`."""
    c = _EQ_CONSTS.get(ty)
    if c is None:
        c = _EQ_CONSTS.setdefault(ty, Const("=", fn(ty, fn(ty, BOOL))))
    return c


def mk_eq(lhs: Term, rhs: Term) -> Comb:
    if lhs.ty is not rhs.ty:
        raise IllTyped(f"equation sides have types {lhs.ty!r} and {rhs.ty!r}")
    return Comb(Comb(eq_const(lhs.ty), lhs), rhs)


def is_eq(t: Term) -> bool:
    """An application of `=` at type A -> A -> bool: a constant named `=`
    at any other type makes no equation."""
    return (
        isinstance(t, Comb)
        and t.ty is BOOL
        and isinstance(t.rator, Comb)
        and isinstance(t.rator.rator, Const)
        and t.rator.rator.name == "="
        and t.rator.rand.ty is t.rand.ty
    )


def dest_eq(t: Term) -> tuple[Term, Term]:
    if not is_eq(t):
        raise IllTyped(f"not an equation: {t!r}")
    return t.rator.rand, t.rand


# ---------------------------------------------------------------------------
# Free variables and fresh names


_NO_FREES: frozenset = frozenset()


def free_vars(t: Term) -> frozenset[Var]:
    """The variables with an unbound occurrence in t.

    Cached on Comb/Abs nodes.  A node reuses a child's set when that set
    already covers the rest, so a chain of nodes over the same variables
    shares one set, and every closed term shares `_NO_FREES`."""
    if isinstance(t, Var):
        return frozenset((t,))
    if isinstance(t, Const):
        return _NO_FREES
    fvs = t._fvs
    if fvs is not None:
        return fvs
    if isinstance(t, Comb):
        a = free_vars(t.rator)
        b = free_vars(t.rand)
        fvs = a if b <= a else (b if a <= b else a | b)
        _set_comb_fvs(t, fvs)
    else:
        fvs = free_vars(t.body)
        if t.bvar in fvs:
            fvs = fvs - {t.bvar} or _NO_FREES
        _set_abs_fvs(t, fvs)
    return fvs


def vfree_in(v: Var, t: Term) -> bool:
    """True iff v occurs free in t."""
    if isinstance(t, Var):
        return t is v
    return v in free_vars(t)


def variant(avoid: Iterable[Term], v: Var) -> Var:
    """Prime v's name (x, x', x'', ...) until it is free in nothing avoided."""
    avoid = list(avoid)
    while any(vfree_in(v, t) for t in avoid):
        v = Var(v.name + "'", v.ty)
    return v


def type_vars_of_term(t: Term) -> set[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, (Var, Const)):
            out |= type_vars_of_type(u.ty)
        elif isinstance(u, Comb):
            stack.append(u.rator)
            stack.append(u.rand)
        else:
            stack.append(u.bvar)
            stack.append(u.body)
    return out


# ---------------------------------------------------------------------------
# Substitution


class Substitution:
    """Older spellings of the two substitution maps: each returns a plain
    dict, which `vsubst`, `inst_type` and the kernel's instantiation rules
    take directly."""

    of_terms = staticmethod(dict)  # Mapping[Var, Term] -> dict
    of_types = staticmethod(dict)  # Mapping[str, HolType] -> dict


def vsubst(theta: Mapping[Var, Term], t: Term) -> Term:
    """Simultaneous capture-avoiding substitution of terms for variables.

    Every key must be a variable and every image must have its type, so a
    substitution can never produce an ill-typed term (or turn a boolean
    assumption into a non-boolean one).  This is checked for every entry,
    including those whose variable does not occur in t.  Bound variables
    are renamed to primed variants exactly when a substitution image would
    otherwise capture them.  Unchanged subtrees are shared with the input.
    Each distinct subterm object is substituted once per call, so a
    subterm shared in the input stays shared in the output.
    """
    sub = {}
    for v, im in theta.items():
        if not isinstance(v, Var):
            raise IllTyped(f"substitution domain entry is not a variable: {v!r}")
        if im.ty is not v.ty:
            raise IllTyped(
                f"substitution image for {v.name} has type {im.ty!r}, "
                f"expected {v.ty!r}"
            )
        if v is not im:
            sub[v] = im
    if not sub:
        return t
    return _vsubst(sub, t, {})


def _vsubst(sub: dict[Var, Term], t: Term, memo: dict[int, Term]) -> Term:
    # `memo` maps id() of a Comb/Abs node of the input to its result under
    # `sub`, so it holds only while `sub` is the same: a binder that shadows
    # a key or must be renamed starts a fresh one.
    if isinstance(t, Var):
        return sub.get(t, t)
    if isinstance(t, Const) or free_vars(t).isdisjoint(sub):
        return t
    out = memo.get(id(t))
    if out is not None:
        return out
    if isinstance(t, Comb):
        f = _vsubst(sub, t.rator, memo)
        a = _vsubst(sub, t.rand, memo)
        out = t if f is t.rator and a is t.rand else Comb(f, a)
    else:
        v = t.bvar
        # Some substituted variable is free in t, so this substitution is
        # non-empty and changes the body.
        if v in sub:
            sub2 = {x: im for x, im in sub.items() if x is not v}
            body = _vsubst(sub2, t.body, {})
        else:
            sub2 = sub
            body = _vsubst(sub, t.body, memo)
        # Renaming is needed exactly when some image brings in a free
        # occurrence of the binder while its own variable really occurs in
        # the body.
        if any(vfree_in(v, im) and vfree_in(x, t.body) for x, im in sub2.items()):
            v2 = variant([body], v)
            out = Abs(v2, _vsubst({**sub2, v: v2}, t.body, {}))
        else:
            out = Abs(v, body)
    memo[id(t)] = out
    return out


def inst_type(tyin: Mapping[str, HolType], t: Term) -> Term:
    """Apply a type substitution throughout a term.

    Each abstraction settles its binder before it instantiates its body:
    the binder is renamed exactly when its instance equals that of
    another free variable of the body (same name, types made equal), so
    a subterm's instance depends on the subterm alone."""
    if not tyin:
        return t
    return _inst(tyin, t)


def _inst(tyin: Mapping[str, HolType], t: Term) -> Term:
    if isinstance(t, (Var, Const)):
        ty2 = type_subst(tyin, t.ty)
        return t if ty2 is t.ty else type(t)(t.name, ty2)
    if isinstance(t, Comb):
        f = _inst(tyin, t.rator)
        a = _inst(tyin, t.rand)
        return t if f is t.rator and a is t.rand else Comb(f, a)
    y, body = t.bvar, t.body
    y2 = _inst(tyin, y)
    frees = free_vars(body)
    if any(v.name == y.name and v is not y and _inst(tyin, v) is y2 for v in frees):
        # Rename the binder past every free variable's instance, at its original type.
        y2 = variant([_inst(tyin, v) for v in frees], y2)
        body = _vsubst({y: Var(y2.name, y.ty)}, body, {})
    body2 = _inst(tyin, body)
    return t if y2 is y and body2 is t.body else Abs(y2, body2)


# ---------------------------------------------------------------------------
# Alpha-equivalence, the term order and the canonical encoding
#
# Canonical term encoding (big-endian u32 lengths and indices):
#
#     type:  0x01 name            | 0x02 name u32(nargs) args...
#     term:  0x10 u32(debruijn)   bound variable, 0 = innermost binder
#            0x11 name type       free variable
#            0x12 name type       constant
#            0x13 rator rand      combination
#            0x14 bvar-type body  abstraction
#     name:  u32(len) utf8-bytes
#
# A type's encoding is built, uncached, only where the order walk meets
# two different types or the fingerprint encodes a term.  Where two terms
# differ in node class, the order walk compares these tags, so its order
# is the encoding's: a bound variable (0x10) ranks below every node class.

_TAG = {Var: 0x11, Const: 0x12, Comb: 0x13, Abs: 0x14}


def _enc_name(name: str, out: bytearray):
    b = name.encode()
    out += len(b).to_bytes(4, "big")
    out += b


def _type_enc(ty: HolType) -> bytes:
    out = bytearray()
    if type(ty) is TyVar:
        out.append(0x01)
        _enc_name(ty.name, out)
    else:
        out.append(0x02)
        _enc_name(ty.con, out)
        out += len(ty.args).to_bytes(4, "big")
        for a in ty.args:
            out += _type_enc(a)
    return bytes(out)


def _enc_term(t: Term, out: bytearray, bound: tuple[Var, ...]):
    # `bound`: the binders in scope, innermost first, so a bound
    # variable's de Bruijn index is its position there.
    cls = type(t)
    if cls is Comb:
        out.append(0x13)
        _enc_term(t.rator, out, bound)
        _enc_term(t.rand, out, bound)
    elif cls is Abs:
        out.append(0x14)
        out += _type_enc(t.bvar.ty)
        _enc_term(t.body, out, (t.bvar, *bound))
    elif cls is Var and t in bound:
        out.append(0x10)
        out += bound.index(t).to_bytes(4, "big")
    else:
        out.append(_TAG[cls])
        _enc_name(t.name, out)
        out += _type_enc(t.ty)


def _order(t: Term, u: Term, tenv: dict, uenv: dict, depth: int, sync: bool) -> int:
    # Compares the encodings component by component; every component is
    # self-delimiting, so the first differing one decides.  `sync`: every
    # binder pair opened so far is the same variable.  Then `tenv` and
    # `uenv` are one injective map from variable to level, so whether two
    # subterms are equal does not depend on the scope they are met in: it
    # is alpha-equivalence with each variable free in them, bound further
    # out or not, equal only to itself, the same interned atom.  So a
    # shared subterm equals itself without a walk, and an abstraction pair
    # found equal in sync is walked once however often it repeats: `tenv`
    # also maps id(t), an int key, to u for each such pair.  The top-level
    # call owns the maps and its terms keep the ids; errors need no restore.
    if t is u and sync:
        return 0
    cls = type(t)
    if cls is not type(u):
        kt = 0x10 if cls is Var and t in tenv else _TAG[cls]
        ku = 0x10 if type(u) is Var and u in uenv else _TAG[type(u)]
        return -1 if kt < ku else 1
    if cls is Comb:
        return _order(t.rator, u.rator, tenv, uenv, depth, sync) or _order(
            t.rand, u.rand, tenv, uenv, depth, sync
        )
    if cls is Abs:
        if sync and tenv.get(id(t)) is u:
            return 0
        tv, uv = t.bvar, u.bvar
        if tv.ty is not uv.ty:
            a, b = _type_enc(tv.ty), _type_enc(uv.ty)
            return -1 if a < b else 1
        tsaved = tenv.get(tv)
        usaved = uenv.get(uv)
        tenv[tv] = depth
        uenv[uv] = depth
        c = _order(t.body, u.body, tenv, uenv, depth + 1, sync and tv is uv)
        if tsaved is None:
            del tenv[tv]
        else:
            tenv[tv] = tsaved
        if usaved is None:
            del uenv[uv]
        else:
            uenv[uv] = usaved
        if sync and not c:
            tenv[id(t)] = u
        return c
    if cls is Var:
        tl = tenv.get(t)
        ul = uenv.get(u)
        if tl is not None or ul is not None:
            # A bound variable is less than a free one; between two bound
            # ones the de Bruijn index, depth - level - 1, decides.
            if tl is None:
                return 1
            if ul is None:
                return -1
            return (ul > tl) - (ul < tl)
    # Free variable or constant: the name, length of its UTF-8 first,
    # then the type.
    if t.name != u.name:
        a, b = t.name.encode(), u.name.encode()
        if len(a) != len(b):
            return -1 if len(a) < len(b) else 1
        return -1 if a < b else 1
    if t.ty is u.ty:
        return 0
    a, b = _type_enc(t.ty), _type_enc(u.ty)
    return -1 if a < b else 1


def alpha_equiv(t: Term, u: Term) -> bool:
    """True iff t and u differ only by consistent renaming of bound variables."""
    return t is u or _order(t, u, {}, {}, 0, True) == 0


def term_order_key(t: Term) -> bytes:
    """Canonical de Bruijn encoding; equal keys iff alpha-equivalent terms.
    A stored value: ``Theory.fingerprint`` hashes it.  Terms are ordered
    by ``term_compare``, which builds no encoding."""
    out = bytearray()
    _enc_term(t, out, ())
    return bytes(out)


def term_compare(t: Term, u: Term) -> int:
    """Total order on alpha-classes: -1, 0 or 1, the order of the
    encodings (``term_order_key``), found without building them."""
    return _order(t, u, {}, {}, 0, True)
