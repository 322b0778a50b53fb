# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled backend for the hot kernels.

A line-for-line counterpart of _accel_py (which is the reference
definition): the canonical byte encoding, the alpha-equivalence walk,
and the finite-model program runner.  Element indices stay below the
carrier cap (<= 2**31), so the evaluator works in C integers.
"""

BACKEND = "compiled"


cdef inline void _w32(bytearray out, Py_ssize_t n):
    out.append((n >> 24) & 0xFF)
    out.append((n >> 16) & 0xFF)
    out.append((n >> 8) & 0xFF)
    out.append(n & 0xFF)


cdef _enc_type(ty, bytearray out):
    enc = ty._enc
    if enc is not None:
        out += enc
        return
    cdef Py_ssize_t start = len(out)
    cdef bytes name
    if ty.KIND == 0:
        out.append(0x01)
        name = ty.name.encode()
        _w32(out, len(name))
        out += name
    else:
        out.append(0x02)
        name = ty.con.encode()
        _w32(out, len(name))
        out += name
        args = ty.args
        _w32(out, len(args))
        for a in args:
            _enc_type(a, out)
    object.__setattr__(ty, "_enc", bytes(out[start:]))


cdef _enc_term(t, bytearray out, dict env, Py_ssize_t depth):
    cdef Py_ssize_t kind = t.KIND
    cdef Py_ssize_t start
    cdef bytes name
    if kind >= 2 and not env:
        cached = t._canon
        if cached is not None:
            out += cached
            return
        start = len(out)
        if kind == 2:
            out.append(0x13)
            _enc_term(t.rator, out, env, depth)
            _enc_term(t.rand, out, env, depth)
        else:
            out.append(0x14)
            v = t.bvar
            _enc_type(v.ty, out)
            env[v] = depth
            _enc_term(t.body, out, env, depth + 1)
            del env[v]
        object.__setattr__(t, "_canon", bytes(out[start:]))
        return
    if kind == 0:
        level = env.get(t)
        if level is None:
            out.append(0x11)
            name = t.name.encode()
            _w32(out, len(name))
            out += name
            _enc_type(t.ty, out)
        else:
            out.append(0x10)
            _w32(out, depth - <Py_ssize_t>level - 1)
    elif kind == 1:
        out.append(0x12)
        name = t.name.encode()
        _w32(out, len(name))
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


cdef bint _ty_eq(a, b) except? 2:
    if a is b:
        return True
    cdef Py_ssize_t ka = a.KIND
    if ka != b.KIND:
        return False
    if ka == 0:
        return a.name == b.name
    if a.con != b.con:
        return False
    aargs = a.args
    bargs = b.args
    if len(aargs) != len(bargs):
        return False
    for i in range(len(aargs)):
        if not _ty_eq(aargs[i], bargs[i]):
            return False
    return True


cdef bint _alpha(t, u, dict tenv, dict uenv, Py_ssize_t depth, bint sync) except? 2:
    if t is u and sync:
        return True
    cdef Py_ssize_t kt = t.KIND
    if kt != u.KIND:
        return False
    if kt == 0:
        tl = tenv.get(t)
        ul = uenv.get(u)
        if tl is None and ul is None:
            return t.name == u.name and _ty_eq(t.ty, u.ty)
        return tl == ul
    if kt == 1:
        return t.name == u.name and _ty_eq(t.ty, u.ty)
    if kt == 2:
        if not _alpha(t.rator, u.rator, tenv, uenv, depth, sync):
            return False
        return _alpha(t.rand, u.rand, tenv, uenv, depth, sync)
    tv = t.bvar
    uv = u.bvar
    if not _ty_eq(tv.ty, uv.ty):
        return False
    tsaved = tenv.get(tv)
    usaved = uenv.get(uv)
    tenv[tv] = depth
    uenv[uv] = depth
    try:
        return _alpha(t.body, u.body, tenv, uenv, depth + 1, sync and tv == uv)
    finally:
        if tsaved is None:
            del tenv[tv]
        else:
            tenv[tv] = tsaved
        if usaved is None:
            del uenv[uv]
        else:
            uenv[uv] = usaved


def alpha_equal(t, u):
    """Alpha-equivalence by a walk over both terms, without encodings."""
    return _alpha(t, u, {}, {}, 0, True)


cdef long long _run(tuple prog, list env) except? -1:
    cdef long long tag = prog[0]
    cdef long long f, a, cod, acc, mul, p, elem, dom, least
    if tag == 0:
        return env[<Py_ssize_t>(<long long>prog[1])]
    if tag == 1:
        return prog[1]
    if tag == 2:
        f = _run(<tuple>prog[1], env)
        a = _run(<tuple>prog[2], env)
        cod = prog[3]
        mul = 1
        while a > 0:
            mul *= cod
            a -= 1
        return (f // mul) % cod
    if tag == 3:
        dom = prog[2]
        cod = prog[3]
        body = <tuple>prog[4]
        slot = <Py_ssize_t>(<long long>prog[1])
        acc = 0
        mul = 1
        for elem in range(dom):
            env[slot] = elem
            acc += _run(body, env) * mul
            mul *= cod
        return acc
    if tag == 4:
        return 1 if _run(<tuple>prog[1], env) == _run(<tuple>prog[2], env) else 0
    if tag == 5:
        return (<long long>1) << _run(<tuple>prog[1], env)
    if tag == 6:
        p = _run(<tuple>prog[1], env)
        if p == 0:
            return 0
        least = 0
        while not (p & 1):
            p >>= 1
            least += 1
        return least
    if tag == 7:
        env[<Py_ssize_t>(<long long>prog[1])] = _run(<tuple>prog[2], env)
        return _run(<tuple>prog[3], env)
    raise ValueError(f"bad opcode {tag}")


def run_program(prog, env):
    """Evaluate one compiled term under an environment of element indices."""
    return _run(prog, env)
