"""The twenty criterion-5 problems, each with its recorded meson depth.

A frozen copy of the suite in ``tests/problems.py``: the benchmark keeps
its own so that an edit to the tests cannot change the workload.
"""

from microhol.auto import FirstOrderProblem, add_equality_axioms
from microhol.bootstrap import (
    mk_conj,
    mk_disj,
    mk_exists,
    mk_forall,
    mk_imp,
    mk_neg,
)
from microhol.syntax import BOOL, IND, Var, fn, mk_comb, mk_eq

x = Var("x", IND)
y = Var("y", IND)
z = Var("z", IND)
a = Var("a", IND)
b = Var("b", IND)
c = Var("c", IND)
P = Var("P", fn(IND, BOOL))
Q = Var("Q", fn(IND, BOOL))
R = Var("R", fn(IND, fn(IND, BOOL)))
f = Var("f", fn(IND, IND))
p = Var("p", BOOL)
q = Var("q", BOOL)


def _app(h, *args):
    t = h
    for u in args:
        t = mk_comb(t, u)
    return t


def _problems():
    out = []

    def add(name, axioms, goal, depth, equality=False):
        prob = FirstOrderProblem(tuple(axioms), goal)
        if equality:
            prob = add_equality_axioms(prob)
        out.append((name, prob, depth))

    add(
        "syllogism",
        [mk_forall(x, mk_imp(_app(P, x), _app(Q, x))), _app(P, a)],
        _app(Q, a),
        2,
    )
    add(
        "paper-displayed-formula",
        [],
        mk_eq(
            mk_imp(mk_exists(x, _app(P, x)), mk_forall(y, _app(Q, y))),
            mk_forall(x, mk_forall(y, mk_imp(_app(P, x), _app(Q, y)))),
        ),
        3,
    )
    add(
        "drinker",
        [],
        mk_exists(x, mk_imp(_app(P, x), mk_forall(y, _app(P, y)))),
        1,
    )
    add("forall-to-exists", [mk_forall(x, _app(P, x))], mk_exists(x, _app(P, x)), 1)
    add(
        "transitive-chain",
        [
            mk_forall(
                x,
                mk_forall(
                    y,
                    mk_forall(
                        z,
                        mk_imp(mk_conj(_app(R, x, y), _app(R, y, z)), _app(R, x, z)),
                    ),
                ),
            ),
            _app(R, a, b),
            _app(R, b, c),
        ],
        _app(R, a, c),
        2,
    )
    add(
        "contraposition",
        [mk_forall(x, mk_imp(_app(P, x), _app(Q, x)))],
        mk_imp(mk_neg(_app(Q, a)), mk_neg(_app(P, a))),
        2,
    )
    add(
        "not-forall-iff-exists-not",
        [],
        mk_eq(mk_exists(x, mk_neg(_app(P, x))), mk_neg(mk_forall(x, _app(P, x)))),
        1,
    )
    add(
        "forall-conj-split",
        [],
        mk_eq(
            mk_forall(x, mk_conj(_app(P, x), _app(Q, x))),
            mk_conj(mk_forall(x, _app(P, x)), mk_forall(x, _app(Q, x))),
        ),
        1,
    )
    add(
        "exists-disj-split",
        [],
        mk_eq(
            mk_exists(x, mk_disj(_app(P, x), _app(Q, x))),
            mk_disj(mk_exists(x, _app(P, x)), mk_exists(x, _app(Q, x))),
        ),
        1,
    )
    add(
        "exists-forall-imp",
        [],
        mk_exists(x, mk_forall(y, mk_imp(_app(P, x), _app(P, y)))),
        1,
    )
    add(
        "implication-chain",
        [
            mk_forall(x, mk_imp(_app(P, x), _app(Q, x))),
            mk_forall(x, mk_imp(_app(Q, x), _app(R, x, x))),
        ],
        mk_forall(x, mk_imp(_app(P, x), _app(R, x, x))),
        3,
    )
    add(
        "exists-monotone",
        [mk_exists(x, _app(P, x)), mk_forall(x, mk_imp(_app(P, x), _app(Q, x)))],
        mk_exists(x, _app(Q, x)),
        2,
    )
    add(
        "forall-or-pull",
        [],
        mk_eq(
            mk_disj(mk_forall(x, _app(P, x)), q),
            mk_forall(x, mk_disj(_app(P, x), q)),
        ),
        2,
    )
    add(
        "propositional-contrapose",
        [],
        mk_eq(mk_imp(p, q), mk_imp(mk_neg(q), mk_neg(p))),
        1,
    )
    add(
        "symmetric-transitive",
        [
            mk_forall(x, mk_forall(y, mk_imp(_app(R, x, y), _app(R, y, x)))),
            _app(R, a, b),
        ],
        _app(R, b, a),
        2,
    )
    add("eq-substitution", [mk_eq(a, b), _app(P, a)], _app(P, b), 2, equality=True)
    add(
        "eq-congruence",
        [mk_eq(a, b)],
        mk_eq(mk_comb(f, a), mk_comb(f, b)),
        2,
        equality=True,
    )
    add(
        "eq-fixpoint",
        [mk_forall(x, mk_eq(mk_comb(f, x), x)), _app(P, mk_comb(f, a))],
        _app(P, a),
        2,
        equality=True,
    )
    add(
        "exists-imp-forall-swap",
        [],
        mk_eq(
            mk_forall(x, mk_imp(_app(P, x), q)),
            mk_imp(mk_exists(x, _app(P, x)), q),
        ),
        2,
    )
    add(
        "russell-barber",
        [],
        mk_neg(mk_exists(x, mk_forall(y, mk_eq(_app(R, x, y), mk_neg(_app(R, y, y)))))),
        1,
    )
    return out


PROBLEMS = _problems()
