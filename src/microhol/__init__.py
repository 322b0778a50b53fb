"""microhol: a small LCF-style HOL kernel with finite-model semantics,
a proof-article checker, and basic proof automation."""

from .kernel import Theorem, Theory
from .syntax import (
    Abs,
    BOOL,
    Comb,
    Const,
    HolError,
    HolType,
    IND,
    Substitution,
    Term,
    TyApp,
    TyVar,
    Var,
    alpha_equiv,
    fn,
    free_vars,
    inst_type,
    mk_abs,
    mk_comb,
    mk_eq,
    term_compare,
    type_of,
    vsubst,
)

__version__ = "0.1.0"

# Reported by `microhol stats` and the benchmark.
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "Theorem",
    "Theory",
    "Abs",
    "BOOL",
    "Comb",
    "Const",
    "HolError",
    "HolType",
    "IND",
    "Substitution",
    "Term",
    "TyApp",
    "TyVar",
    "Var",
    "alpha_equiv",
    "fn",
    "free_vars",
    "inst_type",
    "mk_abs",
    "mk_comb",
    "mk_eq",
    "term_compare",
    "type_of",
    "vsubst",
    "__version__",
]
