"""Backend selector for the hot kernels.

Two interchangeable implementations exist: a Cython extension
(``_accel_c``) and a pure-Python module (``_accel_py``).  Both provide

* ``alpha_canon(term) -> bytes`` -- de Bruijn canonical encoding, the
  key of the total term order and of assumption sets,
* ``alpha_equal(t, u) -> bool``  -- alpha-equivalence by a walk over
  both terms that skips shared subterms; ``syntax.alpha_equiv`` uses it,
* ``run_program(prog, env) -> int`` -- finite-model evaluator step,

with bit-identical results; the agreement is enforced by tests.  The
compiled backend is preferred when importable.  Set ``MICROHOL_PURE=1``
to force the pure backend (the benchmark and the fallback tests do).
"""

import os

if os.environ.get("MICROHOL_PURE"):
    from . import _accel_py as _impl
else:
    try:
        from . import _accel_c as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _accel_py as _impl

alpha_canon = _impl.alpha_canon
alpha_equal = _impl.alpha_equal
run_program = _impl.run_program
BACKEND = _impl.BACKEND
