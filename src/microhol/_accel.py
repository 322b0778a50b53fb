"""Two names the benchmark's tracer (``perfbench/layers.py``) wraps by
module and attribute; no module of the package calls either.

* ``alpha_canon`` is ``syntax.term_order_key``, the canonical encoding;
* ``run_program(prog, env)`` runs a closure compiled by ``semantics``,
  which calls its closures directly.
"""

from .syntax import term_order_key as alpha_canon

__all__ = ["alpha_canon", "run_program"]


def run_program(prog, env):
    return prog(env)
