"""Hypothesis strategies for well-typed random terms."""

import hypothesis.strategies as st

from microhol.syntax import (
    BOOL,
    IND,
    Abs,
    Comb,
    Const,
    TyVar,
    Var,
    fn,
    mk_eq,
)

from .oracles import oracle_free_vars

BASE_TYPES = (BOOL, IND, TyVar("A"), TyVar("B"))

base_types = st.sampled_from(BASE_TYPES)

hol_types = st.recursive(
    base_types, lambda sub: st.builds(fn, sub, sub), max_leaves=4
)

# A type's structure as plain data, for building the same type twice: a
# type variable's name, or (constructor, tuple of argument shapes).
type_shapes = st.recursive(
    st.sampled_from(("A", "B", "bool", ("bool", ()), ("ind", ()))),
    lambda sub: st.tuples(
        st.sampled_from(("fun", "prod", "bool")), st.lists(sub, max_size=3).map(tuple)
    ),
    max_leaves=6,
)

_VAR_NAMES = ("x", "y", "z", "u")


@st.composite
def typed_terms(draw, ty=None, depth=4):
    """A well-typed term of the given (or drawn) type."""
    if ty is None:
        ty = draw(hol_types)
    if depth <= 0:
        return Var(draw(st.sampled_from(_VAR_NAMES)), ty)
    choice = draw(st.integers(0, 5))
    if choice <= 1:
        return Var(draw(st.sampled_from(_VAR_NAMES)), ty)
    if choice == 2 and ty == BOOL:
        ety = draw(base_types)
        return mk_eq(
            draw(typed_terms(ty=ety, depth=depth - 1)),
            draw(typed_terms(ty=ety, depth=depth - 1)),
        )
    if choice == 3 and getattr(ty, "con", None) == "fun":
        v = Var(draw(st.sampled_from(_VAR_NAMES)), ty.args[0])
        return Abs(v, draw(typed_terms(ty=ty.args[1], depth=depth - 1)))
    if choice == 4:
        sel_ty = fn(fn(ty, BOOL), ty)
        pred = draw(typed_terms(ty=fn(ty, BOOL), depth=depth - 1))
        return Comb(Const("@", sel_ty), pred)
    arg_ty = draw(base_types)
    f = draw(typed_terms(ty=fn(arg_ty, ty), depth=depth - 1))
    a = draw(typed_terms(ty=arg_ty, depth=depth - 1))
    return Comb(f, a)


bool_terms = typed_terms(ty=BOOL)


@st.composite
def shared_pairs(draw):
    """Two terms of one type built around one shared subterm object.

    Each layer wraps both sides in binders that are equal, renamed or
    (for a repeated binder) shadowing, or applies both to one function
    variable, so the pair is alpha-equivalent or not depending on
    whether a renamed binder captures a free variable of the shared
    subterm.  Binders are often the shared subterm's own free variables,
    so capture happens."""
    s = draw(typed_terms(depth=3))
    t = u = s
    frees = sorted(oracle_free_vars(s), key=lambda v: (v.name, repr(v.ty)))

    def binder():
        if frees and draw(st.booleans()):
            return draw(st.sampled_from(frees))
        return Var(draw(st.sampled_from(_VAR_NAMES)), draw(base_types))

    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("same", "renamed", "comb")))
        if op == "comb":
            f = Var("f", fn(t.ty, draw(base_types)))
            t, u = Comb(f, t), Comb(f, u)
            continue
        a = binder()
        b = a if op == "same" else Var(draw(st.sampled_from(_VAR_NAMES)), a.ty)
        t, u = Abs(a, t), Abs(b, u)
    return (u, t) if draw(st.booleans()) else (t, u)


def _copy(t, v=None, w=None):
    """t rebuilt from new combination and abstraction objects (atoms are
    interned, so they stay the same objects), with v replaced by w where
    no binder of v covers it, even where a binder of w does."""
    if t is v:
        return w
    if type(t) is Comb:
        return Comb(_copy(t.rator, v, w), _copy(t.rand, v, w))
    if type(t) is Abs and t.bvar is not v:
        return Abs(t.bvar, _copy(t.body, v, w))
    return t


@st.composite
def copied_dags(draw):
    """Two separately built copies of one term whose subterms repeat.

    The base term is an abstraction over `x`.  Each layer applies a
    function variable to two occurrences of the term so far, each bare or
    under a binder; equal occurrences are one object, so a copy repeats
    its subterms like a Skolem witness in meson's replay, and is
    exponentially larger as a tree than as a DAG.  The copies share no
    combination or abstraction object.  The binders are `x` and `v`, free
    in the base term where it has a free variable; `w` renames `v`.  The
    second copy may bind `w` where the first binds `v`, or build one
    repeated subterm differently: its base term with `v` renamed to `w`,
    one layer's function variable, or one occurrence of a repeat as a
    copy with `v` renamed.  So one pair of shared abstractions is met
    both under equal binders and under renamed ones, and one abstraction
    of the first copy is met with two of the second, and each may be
    equal in one meeting and not the other."""
    s = draw(typed_terms(depth=3))
    frees = sorted(oracle_free_vars(s), key=lambda v: (v.name, repr(v.ty)))
    if frees:
        v = draw(st.sampled_from(frees))
    else:
        v = Var(draw(st.sampled_from(_VAR_NAMES)), draw(base_types))
    names = draw(st.permutations([n for n in _VAR_NAMES if n != v.name]))
    w, x = Var(names[0], v.ty), Var(names[1], draw(base_types))

    layers = []  # per layer: the two occurrences' binders in each copy
    for _ in range(draw(st.integers(1, 4))):
        occurrences = []
        for _ in range(2):
            a = b = draw(st.sampled_from((None, x, v)))
            if a is v and draw(st.booleans()):
                b = w
            occurrences.append((a, b))
        layers.append((occurrences, draw(base_types)))
    differ = draw(st.sampled_from(("nothing", "base", "function", "repeat")))
    at = draw(st.integers(1, len(layers)))  # the layer whose function or repeat differs
    base = (s, _copy(s, v, w) if differ == "base" else s)

    def build(side):
        t = Abs(x, _copy(base[side]))
        for i, (occurrences, ty) in enumerate(layers, start=1):
            made = {}
            for pair in occurrences:
                if pair[side] not in made:
                    made[pair[side]] = t if pair[side] is None else Abs(pair[side], t)
            a, b = (made[pair[side]] for pair in occurrences)
            if side and i == at and differ == "repeat":
                b = _copy(b, v, w)
            name = "h" if side and i == at and differ == "function" else "g"
            t = Comb(Comb(Var(name, fn(a.ty, fn(b.ty, ty))), a), b)
        return t

    t, u = build(0), build(1)
    return (u, t) if draw(st.booleans()) else (t, u)


@st.composite
def dag_substitutions(draw):
    """A term in which one subterm object occurs many times, and a
    substitution for some of its free variables.

    Each layer applies a function variable to two occurrences of the term
    so far, or wraps it once.  An occurrence may sit under a binder that
    the substitution replaces (shadowing), one free in an image (capture,
    so the binder is renamed) or some other binder, so one object is
    reached under different substitutions."""
    s = draw(typed_terms(depth=3))
    frees = sorted(oracle_free_vars(s), key=lambda v: (v.name, repr(v.ty)))
    sub = {}
    for v in frees:
        if draw(st.booleans()):
            sub[v] = draw(
                st.one_of(
                    typed_terms(ty=v.ty, depth=2),
                    st.sampled_from(_VAR_NAMES).map(lambda n, ty=v.ty: Var(n, ty)),
                )
            )
    shadowing = sorted(sub, key=lambda v: (v.name, repr(v.ty)))
    capturing = sorted(
        {w for im in sub.values() for w in oracle_free_vars(im)},
        key=lambda v: (v.name, repr(v.ty)),
    )

    def occurrence(t):
        op = draw(st.sampled_from(("bare", "shadow", "capture", "other")))
        if op == "shadow" and shadowing:
            return Abs(draw(st.sampled_from(shadowing)), t)
        if op == "capture" and capturing:
            return Abs(draw(st.sampled_from(capturing)), t)
        if op == "other":
            return Abs(Var(draw(st.sampled_from(_VAR_NAMES)), draw(base_types)), t)
        return t

    t = s
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            t = occurrence(t)
            continue
        a, b = occurrence(t), occurrence(t)
        g = Var("g", fn(a.ty, fn(b.ty, draw(base_types))))
        t = Comb(Comb(g, a), b)
    return sub, t
