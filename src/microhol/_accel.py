"""The hot alpha kernels, in pure Python.

* ``alpha_canon(term) -> bytes`` -- de Bruijn canonical encoding, built
  afresh on each call; only ``Theory.fingerprint`` hashes it (through
  ``syntax.term_order_key``),
* ``alpha_order(t, u) -> int``   -- the sign of comparing the two
  encodings, by a walk over both terms that builds neither; it is the
  package's one term order (kernel assumptions, sorts, ``term_compare``),
* ``alpha_equal(t, u) -> bool``  -- alpha-equivalence, the same walk
  returning 0; ``syntax.alpha_equiv`` uses it.

The finite-model evaluator is not here: ``semantics`` compiles terms to
closures, and ``run_program`` below only runs one of them.

Dispatches on the ``KIND`` tag carried by the syntax node classes
(0=Var, 1=Const, 2=Comb, 3=Abs; types: 0=TyVar, 1=TyApp) so it does not
import the syntax module.  Types are interned, so two types are equal
exactly when they are the same object, and each distinct type's encoding
is computed once and cached on it.

Canonical term encoding (big-endian u32 lengths and indices):

    type:  0x01 name            | 0x02 name u32(nargs) args...
    term:  0x10 u32(debruijn)   bound variable, 0 = innermost binder
           0x11 name type       free variable
           0x12 name type       constant
           0x13 rator rand      combination
           0x14 bvar-type body  abstraction
    name:  u32(len) utf8-bytes
"""

# Reported by `microhol stats` and the benchmark.
BACKEND = "pure"


def _enc_type(ty, out):
    enc = ty._enc
    if enc is not None:
        out += enc
        return
    start = len(out)
    if ty.KIND == 0:
        out.append(0x01)
        name = ty.name.encode()
        out += len(name).to_bytes(4, "big")
        out += name
    else:
        out.append(0x02)
        name = ty.con.encode()
        out += len(name).to_bytes(4, "big")
        out += name
        args = ty.args
        out += len(args).to_bytes(4, "big")
        for a in args:
            _enc_type(a, out)
    object.__setattr__(ty, "_enc", bytes(out[start:]))


def _enc_term(t, out, env, depth):
    kind = t.KIND
    if kind == 0:
        level = env.get(t)
        if level is None:
            out.append(0x11)
            name = t.name.encode()
            out += len(name).to_bytes(4, "big")
            out += name
            _enc_type(t.ty, out)
        else:
            out.append(0x10)
            out += (depth - level - 1).to_bytes(4, "big")
    elif kind == 1:
        out.append(0x12)
        name = t.name.encode()
        out += len(name).to_bytes(4, "big")
        out += name
        _enc_type(t.ty, out)
    elif kind == 2:
        out.append(0x13)
        _enc_term(t.rator, out, env, depth)
        _enc_term(t.rand, out, env, depth)
    else:
        out.append(0x14)
        v = t.bvar
        _enc_type(v.ty, out)
        saved = env.get(v)
        env[v] = depth
        _enc_term(t.body, out, env, depth + 1)
        if saved is None:
            del env[v]
        else:
            env[v] = saved


def alpha_canon(t):
    """Canonical de Bruijn byte encoding of a term."""
    out = bytearray()
    _enc_term(t, out, {}, 0)
    return bytes(out)


def _type_enc(ty):
    enc = ty._enc
    if enc is None:
        _enc_type(ty, bytearray())
        enc = ty._enc
    return enc


def _order(t, u, tenv, uenv, depth, sync):
    # Compares the encodings component by component; every component is
    # self-delimiting, so the first differing one decides.  `sync`: every
    # binder pair opened so far is the same variable, so both sides see the
    # same bound variables at the same levels and a shared subterm equals
    # itself without a walk.
    if t is u and sync:
        return 0
    kt = t.KIND
    ku = u.KIND
    # Tags: bound var 0x10 < free var 0x11 < const < comb < abs, so a
    # bound variable ranks below every KIND.
    if kt == 0:
        tl = tenv.get(t)
        if tl is not None:
            kt = -1
    if ku == 0:
        ul = uenv.get(u)
        if ul is not None:
            ku = -1
    if kt != ku:
        return -1 if kt < ku else 1
    if kt == -1:
        # de Bruijn index is depth - level - 1: the deeper binder is less.
        return (ul > tl) - (ul < tl)
    if kt == 2:
        return _order(t.rator, u.rator, tenv, uenv, depth, sync) or _order(
            t.rand, u.rand, tenv, uenv, depth, sync
        )
    if kt == 3:
        tv, uv = t.bvar, u.bvar
        if tv.ty is not uv.ty:
            a, b = _type_enc(tv.ty), _type_enc(uv.ty)
            return -1 if a < b else 1
        tsaved = tenv.get(tv)
        usaved = uenv.get(uv)
        tenv[tv] = depth
        uenv[uv] = depth
        try:
            return _order(t.body, u.body, tenv, uenv, depth + 1, sync and tv == uv)
        finally:
            if tsaved is None:
                del tenv[tv]
            else:
                tenv[tv] = tsaved
            if usaved is None:
                del uenv[uv]
            else:
                uenv[uv] = usaved
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


def alpha_order(t, u):
    """The sign of ``alpha_canon(t)`` compared with ``alpha_canon(u)``:
    -1, 0 or 1, by a walk over both terms that builds neither encoding."""
    return _order(t, u, {}, {}, 0, True)


def alpha_equal(t, u):
    """Alpha-equivalence: the order walk finds no difference."""
    return alpha_order(t, u) == 0


# ---------------------------------------------------------------------------
# Finite-model evaluation


def run_program(prog, env):
    """Run a term compiled by ``semantics._Compiler`` (a closure) under an
    environment of element indices.

    ``semantics`` evaluates single terms through this entry point:
    ``eval_term``, defined-constant folding and defined-type supports.  Its
    valuation search calls the compiled closures directly.
    """
    return prog(env)
