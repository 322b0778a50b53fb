"""The acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single `ACCEPTANCE <n> ... PASS` line (visible with
pytest -rA or -s) after its assertions hold.  Tolerances are pinned
here, not configurable: zero counterexamples, exact verdicts, and the
stated time/memory budgets.
"""

import itertools
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from microhol import kernel
from microhol.auto import DepthExhausted, NotATautology, meson, taut
from microhol.bootstrap import FALSE, TRUE, mk_disj, mk_imp, mk_neg, mk_conj
from microhol.fuzz import (
    RULE_IDS,
    TermGen,
    make_generator,
    random_kernel_walk,
    weakened_abs_generator,
)
from microhol.kernel import Theorem, Theory, VarFreeInHyps, assume
from microhol.semantics import (
    FALSE_ELEM,
    TRUE_ELEM,
    Model,
    Valuation,
    eval_term,
    fuzz_rule_soundness,
)
from microhol.surface import parse_term, print_term
from microhol.syntax import (
    BOOL,
    IND,
    Const,
    Var,
    alpha_equiv,
    fn,
    mk_comb,
    mk_eq,
)

from .problems import PROBLEMS

TRIALS_PER_RULE = 10_000
WALK_STEPS = 100_000
ROUND_TRIPS = 10_000
ARTICLE_INFERENCES = 100_000


def _report(n, name, detail):
    print(f"ACCEPTANCE {n} ({name}): PASS — {detail}")


def test_criterion_1_rule_soundness_suite():
    """Ten rules x 10^4 instances, models ind in {1,2,3}, exhaustive
    valuations when <= 10^5 else 10^3 samples: zero counterexamples,
    within five minutes."""
    models = tuple(Model(ind_size=n) for n in (1, 2, 3))
    t0 = time.monotonic()
    total_evals = 0
    for rule in RULE_IDS:
        rep = fuzz_rule_soundness(
            rule,
            make_generator(rule),
            trials=TRIALS_PER_RULE,
            model=models,
            seed=7,
            exhaustive_limit=100_000,
            sample_count=1_000,
        )
        assert rep.ok, f"{rule}: {rep.counterexamples[:1]}"
        assert rep.trials == TRIALS_PER_RULE
        total_evals += rep.evaluations
    elapsed = time.monotonic() - t0
    assert elapsed <= 300, f"soundness suite took {elapsed:.0f}s (budget 300s)"
    _report(
        1,
        "rule soundness",
        f"10 rules x {TRIALS_PER_RULE} instances, {total_evals} evaluations, "
        f"0 counterexamples, {elapsed:.0f}s",
    )


def test_criterion_2_false_never_derived(logic):
    """eval(F) is the false element under every valuation in every tested
    model, and a 10^5-step random kernel walk never produces |- F."""
    # F is closed, so each model admits exactly one valuation.
    for n in (1, 2, 3):
        v = Valuation(Model(ind_size=n))
        assert eval_term(FALSE, v, logic.theory) == FALSE_ELEM

    extras = (
        logic.TRUTH,
        logic.EXCLUDED_MIDDLE,
        logic.defs["F"],
        logic.defs["and"],
        logic.defs["not"],
        kernel.axiom_choice(logic.theory),
    )
    report = random_kernel_walk(
        logic.theory, steps=WALK_STEPS, seed=13, extra_theorems=extras, audit_every=997
    )
    assert report.steps == WALK_STEPS
    assert not report.false_derived, f"|- F appeared at step {report.first_false_step}"
    assert report.successes > WALK_STEPS // 10
    _report(
        2,
        "non-derivability of FALSE",
        f"eval(F)=false in all models; walk made {report.successes} theorems, "
        f"audited {report.audited}, no |- F",
    )


def test_criterion_3_side_condition_enforcement():
    """abs_rule rejects a free hypothesis variable; the deliberately
    weakened rule yields a concrete finite-model counterexample."""
    x = Var("x", IND)
    y = Var("y", IND)
    with pytest.raises(VarFreeInHyps):
        kernel.abs_rule(x, assume(mk_eq(x, y)))

    rep = fuzz_rule_soundness(
        "weakened-abs", weakened_abs_generator, trials=100, seed=3
    )
    assert not rep.ok, "the weakened rule must be caught"
    cex = rep.counterexamples[0]
    assert cex.valuation, "counterexample must carry a concrete valuation"
    _report(
        3,
        "side-condition enforcement",
        f"abs_rule raises VarFreeInHyps; weakened variant falsified at "
        f"{cex.valuation} in trial {cex.trial}",
    )


def test_criterion_4_bootstrap_truth_tables(logic):
    """T, F, and, imp, forall, exists, or, not match classical semantics
    by exhaustive evaluation over bool carriers."""
    theory = logic.theory
    model = Model(ind_size=1)
    p, q, r = (Var(n, BOOL) for n in "pqr")

    assert eval_term(TRUE, Valuation(model), theory) == TRUE_ELEM
    assert eval_term(FALSE, Valuation(model), theory) == FALSE_ELEM

    binops = {
        "and": lambda a, b: a and b,
        "or": lambda a, b: a or b,
        "imp": lambda a, b: (not a) or b,
    }
    checked = 0
    for name, semantics in binops.items():
        c = Const(name, fn(BOOL, fn(BOOL, BOOL)))
        for a, b in itertools.product((False, True), repeat=2):
            v = Valuation(model, {}, {p: int(a), q: int(b)})
            assert eval_term(mk_comb(mk_comb(c, p), q), v, theory) == int(
                semantics(a, b)
            )
            checked += 1
    for a in (False, True):
        v = Valuation(model, {}, {p: int(a)})
        assert eval_term(mk_neg(p), v, theory) == int(not a)
        checked += 1
    # iff is equality at bool
    for a, b in itertools.product((False, True), repeat=2):
        v = Valuation(model, {}, {p: int(a), q: int(b)})
        assert eval_term(mk_eq(p, q), v, theory) == int(a == b)
        checked += 1
    # quantifiers over the bool carrier, all predicate tables; and a
    # three-argument spot check (binder body over three variables)
    pv = Var("P", fn(BOOL, BOOL))
    fa = mk_comb(Const("forall", fn(fn(BOOL, BOOL), BOOL)), pv)
    ex = mk_comb(Const("exists", fn(fn(BOOL, BOOL), BOOL)), pv)
    for table in range(4):
        entries = [(table >> i) & 1 for i in range(2)]
        v = Valuation(model, {}, {pv: table})
        assert eval_term(fa, v, theory) == int(all(entries))
        assert eval_term(ex, v, theory) == int(any(entries))
        checked += 2
    from microhol.bootstrap import mk_forall

    b = Var("b", BOOL)
    three = mk_forall(b, mk_imp(mk_conj(p, q), mk_disj(b, mk_disj(p, r))))
    for a1, a2, a3 in itertools.product((False, True), repeat=3):
        v = Valuation(model, {}, {p: int(a1), q: int(a2), r: int(a3)})
        expected = all(
            ((not (a1 and a2)) or (bb or a1 or a3)) for bb in (False, True)
        )
        assert eval_term(three, v, theory) == int(expected)
        checked += 1
    _report(4, "bootstrap truth tables", f"{checked} exhaustive table entries match")


def test_criterion_5_automation_benchmark(logic):
    """meson proves the displayed first-order formula and the 20-problem
    suite within depth 20 and 10 seconds each; taut proves Peirce's law
    and rejects p /\\ q with a correct assignment."""
    assert len(PROBLEMS) == 20
    assert any(name == "paper-displayed-formula" for name, _, _ in PROBLEMS)
    timings = []
    for name, prob, depth in PROBLEMS:
        assert depth <= 20
        t0 = time.monotonic()
        th = meson(logic, prob, depth_bound=depth)
        elapsed = time.monotonic() - t0
        assert isinstance(th, Theorem)
        assert alpha_equiv(th.conclusion, prob.goal)
        assert elapsed <= 10, f"{name} took {elapsed:.1f}s"
        timings.append(elapsed)

    p, q = Var("p", BOOL), Var("q", BOOL)
    peirce = mk_imp(mk_imp(mk_imp(p, q), p), p)
    th = taut(logic, peirce)
    assert th.assumptions == () and th.conclusion == peirce
    with pytest.raises(NotATautology) as err:
        taut(logic, mk_conj(p, q))
    asg = err.value.assignment
    assert not (asg["p"] and asg["q"]), "assignment must falsify p /\\ q"
    _report(
        5,
        "automation benchmark",
        f"20/20 problems proved (max {max(timings):.2f}s); Peirce proved; "
        f"p /\\ q rejected with {asg}",
    )


_ARTICLE_SCRIPT = r"""
import json, resource, sys, time
from microhol.article import check_article
from microhol.kernel import Theory

n = int(sys.argv[1])
thy = Theory()
lines = ["microhol-article 1", f"theory {thy.fingerprint()}"]
lines.append("1. TERM x:ind")
lines.append("2. REFL 1")
k = 2
for i in range(n):
    k += 1
    lines.append(f"{k}. TRANS {k-1} 2")
k += 1
lines.append(f"{k}. THM {k-1} |- (x:ind) = (x:ind)")
text = "\n".join(lines) + "\n"

t0 = time.monotonic()
rep1 = check_article(text, Theory())
elapsed = time.monotonic() - t0
rep2 = check_article(text, Theory())
maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({
    "ok": rep1.ok,
    "lines": rep1.line_count,
    "elapsed": elapsed,
    "maxrss_mb": maxrss_mb,
    "identical": rep1.to_json() == rep2.to_json(),
    "theorems": len(rep1.theorems),
}))
"""


def test_criterion_6_article_throughput():
    """A generated article with 10^5 inferences checks in <= 10 s within
    512 MB, and two replays give byte-identical JSON reports."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", _ARTICLE_SCRIPT, str(ARTICLE_INFERENCES)],
        capture_output=True,
        text=True,
        check=True,
        cwd=root,
        env=env,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["ok"], "the generated article must replay"
    assert result["lines"] == ARTICLE_INFERENCES + 3
    assert result["theorems"] == 1
    assert result["identical"], "two replays must produce identical reports"
    assert result["elapsed"] <= 10, f"replay took {result['elapsed']:.1f}s"
    assert result["maxrss_mb"] <= 512, f"peak memory {result['maxrss_mb']:.0f} MB"
    _report(
        6,
        "article throughput",
        f"{ARTICLE_INFERENCES} inferences in {result['elapsed']:.2f}s, "
        f"peak {result['maxrss_mb']:.0f} MB, reports byte-identical",
    )


def test_criterion_7_round_trip(logic):
    """10^4 random terms of depth <= 8: parse(print(t)) is alpha-identical
    to t, with zero failures."""
    import random

    rng = random.Random(2024)
    theory = logic.theory
    failures = 0
    for i in range(ROUND_TRIPS):
        g = TermGen(rng, max_free=4)
        t = g.term(g.small_type(), rng.randrange(0, 9))
        s = print_term(t)
        try:
            t2 = parse_term(s, theory)
        except Exception:
            failures += 1
            continue
        if not alpha_equiv(t, t2):
            failures += 1
    assert failures == 0, f"{failures} round-trip failures"
    _report(7, "round-trip parsing", f"{ROUND_TRIPS} terms, zero failures")


def test_criterion_8_no_forgery():
    """Theorem construction outside the kernel is rejected in every way
    Python lets us police."""
    x = Var("x", BOOL)
    with pytest.raises(kernel.KernelViolation):
        Theorem((), x)
    with pytest.raises(kernel.KernelViolation):
        Theorem((), x, False, _token=object())
    with pytest.raises(TypeError):

        class Impostor(Theorem):
            pass

    class DuckTheorem:
        assumptions = ()
        conclusion = mk_eq(x, x)
        uses_infinity = False
        theory = None

    with pytest.raises(kernel.KernelViolation):
        kernel.trans(DuckTheorem(), DuckTheorem())
    th = kernel.refl(x)
    with pytest.raises(AttributeError):
        th.conclusion = x
    _report(
        8,
        "no-forgery",
        "direct construction, token guessing, subclassing, duck-typing, and "
        "mutation all rejected",
    )
