import pytest

from microhol.audit import check_term, check_type
from microhol.kernel import Theory
from microhol.syntax import BOOL, Abs, Comb, Const, HolError, IllTyped, TyApp, Var, fn


def test_unregistered_names_and_non_instances_are_refused():
    thy = Theory()
    p = Var("p", BOOL)
    check_term(thy, Abs(p, p))
    with pytest.raises(IllTyped, match="constant '=' at bool -> bool is not an instance"):
        check_term(thy, Comb(Const("=", fn(BOOL, BOOL)), p))
    with pytest.raises(HolError, match="unregistered constant 'c'"):
        check_term(thy, Comb(Const("c", fn(BOOL, BOOL)), p))
    with pytest.raises(HolError, match="unregistered type constructor 'prod'"):
        check_type(thy, TyApp("prod", (BOOL, BOOL)))
