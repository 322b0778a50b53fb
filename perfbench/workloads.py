"""The benchmark's three workloads and how their results are summarised.

Each workload runs in a fresh interpreter of its own (see ``run.py``),
drives microhol only through its Python API and draws every input from
the workload seed.  Load comes from one closed-loop client: each call
starts when the previous one returns.

A run repeats *passes* over the workload's operations until the measured
time is spent (at least two passes).  The operations of a pass fall into
*kinds* (a problem, a rule, the article), and the end-to-end numbers are
built from each kind's typical time: its geometric mean over the
passes, which a few very slow operations do not swamp and which, unlike
a median, moves with every operation.  Operations are timed with the
workload's ``clock.RefClock``, at reference speed.

Why these three (reasons from profiling the seed with cProfile, pure
backend, on a 2-CPU VM):

* ``meson-suite`` spends ~40 % of its time in ``_accel.alpha_canon``,
  ~35 % in ``syntax._vsubst``/``vfree_in`` and much of the rest in
  ``bootstrap.rewr_conv`` matching, and ~0 % in ``run_program``.  It
  exercises term-operation caching and bypasses the evaluator.  It keeps
  ``paper-displayed-formula``, the known criterion-5 failure (over the
  10 s gate), so the benchmark shows that failure instead of avoiding it.
* ``fuzz-soundness`` spends ~65 % in ``_accel.run_program`` and ~15 % in
  the ``semantics`` batch loop, and < 1 % in ``alpha_canon``.  It
  exercises the evaluator (closure compiler, compiled backend) and
  bypasses term caching.  Its rules mix compile-heavy instances (refl,
  assume, beta) with ones that run many valuations (mk_comb, trans, inst).
* ``article-replay`` uses ``kernel`` and ``syntax`` the opposite way from
  meson: many terms are parsed, built once and used a few times, where
  meson reuses a few large terms across thousands of inferences.  A
  per-node cache that speeds meson costs time and memory here, and this
  workload shows that cost.  It is the only workload for ``surface``
  parsing and ``article``.
"""

from __future__ import annotations

import contextlib
import math
import random
import statistics

from microhol.article import article_stats, check_article
from microhol.auto import NotATautology, clausify, meson, taut
from microhol.bootstrap import install_logic, mk_conj
from microhol.fuzz import make_generator, weakened_abs_generator
from microhol.kernel import Theorem, Theory
from microhol.semantics import Model, fuzz_rule_soundness
from microhol.syntax import BOOL, HolError, Var, alpha_equiv

import article_gen
from clock import RefClock
from metrics import FUZZ_RULES


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


class Workload:
    """One workload: set-up, a pass over its operations, output checks."""

    name = ""
    trace_passes = 1  # passes a traced run makes, untraced and traced

    def __init__(self, seed: int, clock: RefClock):
        self.seed = seed
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def setup(self):
        raise NotImplementedError

    def run_pass(self, index: int, tracer=None) -> dict[str, tuple]:
        """Run pass `index`; returns kind -> (start mark, end mark,
        operations), marks of ``self.clock``."""
        raise NotImplementedError

    def verify(self):
        """Check the outputs of the passes run since the last call."""

    def final_checks(self):
        """Checks made once per run, after the measured passes."""

    def headline(self, passes) -> list[tuple[str, float, str]]:
        """The workload's own metrics, printed above the result line."""
        return []


class MesonSuite(Workload):
    """The 20 criterion-5 problems, proved by ``auto.meson`` at their
    recorded depths on one bootstrapped Logic.  The seed sets the order.

    An operation is one proof.  It fails when meson raises, or when its
    theorem is not alpha-equal to the goal or has an assumption that is
    not one of the problem's axioms."""

    name = "meson-suite"

    def setup(self):
        from problems import PROBLEMS

        self.problems = PROBLEMS
        self.logic = install_logic(Theory())
        clausify(self.logic, Var("p", BOOL))  # builds the clausifier lemmas
        self.rng = random.Random(self.seed)
        self._results = []

    def run_pass(self, index, tracer=None):
        order = list(range(len(self.problems)))
        self.rng.shuffle(order)
        out = {}
        for i in order:
            name, prob, depth = self.problems[i]
            with _span(tracer, f"meson/{name}"):
                m0 = self.clock.mark()
                try:
                    th = meson(self.logic, prob, depth_bound=depth)
                except HolError as exc:
                    th = exc
                out[name] = (m0, self.clock.mark(), 1)
            if tracer:
                tracer.tally_inferences()
            self._results.append((name, prob, th))
        return out

    def verify(self):
        for name, prob, th in self._results:
            self.attempted += 1
            if not isinstance(th, Theorem):
                self.failed += 1
                self.errors.append(f"{name}: not proved: {th!r}")
            elif not alpha_equiv(th.conclusion, prob.goal):
                self.failed += 1
                self.errors.append(f"{name}: theorem is not the goal")
            elif not all(
                any(alpha_equiv(h, ax) for ax in prob.axioms) for h in th.assumptions
            ):
                self.failed += 1
                self.errors.append(f"{name}: assumption beyond the axioms")
        self._results = []

    def headline(self, passes):
        kinds = kind_medians(passes, self.clock)
        medians = list(kinds.values())
        slowest = max(kinds, key=kinds.get)
        gate = "over" if kinds[slowest] > 10 else "within"
        return [
            ("meson_total_s", sum(medians), "s"),
            ("meson_max_s", kinds[slowest], f"s ({slowest}, {gate} the 10 s gate)"),
            ("meson_geomean_s", _geomean(medians), "s"),
        ]


class FuzzSoundness(Workload):
    """``semantics.fuzz_rule_soundness`` over all ten rules of
    ``fuzz.RULE_IDS``, models ind in {1,2,3} round-robin,
    ``exhaustive_limit=100_000`` and ``sample_count=1_000`` as in
    criterion 1.  Each pass checks one fresh instance of every rule, with
    seeds derived from the workload seed and the pass number.

    Instance cost is heavy-tailed (the costliest 1 % of instances take
    35-65 % of a rule's time), so the mean rate over a 20 s run spreads
    by about 10 % from seed to seed, and so does each rule's median
    (instance times spread over a decade, thinly near the median).  The
    end-to-end metrics therefore use each rule's geometric mean time per
    instance; the mean rate is printed as ``fuzz_trials_per_s``.

    An operation is one rule instance; it fails when it has a
    counterexample.  About one ``inst_type`` instance in a thousand is
    skipped because a carrier would exceed the model's cap: such an
    instance is beyond the finite models, not a failure of the program,
    so it is counted apart (``skipped_overflow``) and not as failed."""

    name = "fuzz-soundness"
    trace_passes = 200

    def setup(self):
        self.models = tuple(Model(ind_size=n) for n in (1, 2, 3))
        self.skipped = 0

    def _seed(self, index, rule):
        return random.Random(f"{self.seed}/{index}/{rule}").getrandbits(32)

    def run_pass(self, index, tracer=None):
        out = {}
        model = self.models[index % len(self.models)]
        for rule in FUZZ_RULES:
            gen = make_generator(rule)
            run = fuzz_rule_soundness
            if tracer:
                gen = tracer.timed("fuzz.generate", gen)
                run = tracer.timed(f"semantics.fuzz.{rule}", run)
            with _span(tracer, f"fuzz/{rule}"):
                m0 = self.clock.mark()
                rep = run(
                    rule,
                    gen,
                    trials=1,
                    model=model,
                    seed=self._seed(index, rule),
                    exhaustive_limit=100_000,
                    sample_count=1_000,
                )
                out[rule] = (m0, self.clock.mark(), 1)
            if tracer:
                tracer.tally_inferences()
                tracer.counts["semantics.evaluations"] += rep.evaluations
                tracer.counts["semantics.skipped_overflow"] += rep.skipped_overflow
            self.attempted += rep.trials
            self.failed += len(rep.counterexamples)
            self.skipped += rep.skipped_overflow
            for cex in rep.counterexamples:
                self.errors.append(f"{rule}: counterexample {cex}")
        return out

    def final_checks(self):
        # The weakened abstraction rule must be caught with a valuation.
        rep = fuzz_rule_soundness(
            "weakened-abs", weakened_abs_generator, trials=100, seed=self.seed
        )
        if rep.ok or not rep.counterexamples[0].valuation:
            self.errors.append("weakened abs rule was not caught")
        # taut rejects a non-tautology with an assignment that falsifies it.
        logic = install_logic(Theory())
        p, q = Var("p", BOOL), Var("q", BOOL)
        try:
            taut(logic, mk_conj(p, q))
            self.errors.append("taut accepted p /\\ q")
        except NotATautology as exc:
            if exc.assignment.get("p") and exc.assignment.get("q"):
                self.errors.append(f"taut's assignment {exc.assignment} satisfies p /\\ q")

    def headline(self, passes):
        trials = sum(n for p in passes for *_, n in p.values())
        seconds = sum(self.clock.seconds(m0, m1) for p in passes for m0, m1, _ in p.values())
        return [
            ("fuzz_trials_per_s", trials / seconds, "trials/s (mean over the run)"),
            ("skipped_overflow", self.skipped, "instances (carrier over the cap)"),
        ]


class ArticleReplay(Workload):
    """``article.check_article`` replaying one seeded article of
    ``DERIVATIONS`` small derivations (see ``article_gen``), generated
    before timing starts.  Every pass replays it against a fresh Theory.

    An operation is one article line; a line that does not replay fails.
    Every replay must report ok, with byte-identical ``to_json()``."""

    name = "article-replay"
    DERIVATIONS = 2000
    trace_passes = 3

    def setup(self):
        self.text = article_gen.generate(self.seed, self.DERIVATIONS)
        self.stats = article_stats(self.text)
        self.reports: set[str] = set()
        self.replays = 0

    def run_pass(self, index, tracer=None):
        run = tracer.timed("article.check", check_article) if tracer else check_article
        m0 = self.clock.mark()
        rep = run(self.text, Theory())
        m1 = self.clock.mark()
        self.attempted += rep.line_count
        if tracer:
            tracer.counts["article.lines"] += rep.line_count
        if not rep.ok:
            self.failed += 1
            self.errors.append(f"replay failed: {rep.failures}")
        self.reports.add(rep.to_json())
        self.replays += 1
        return {"article": (m0, m1, rep.line_count)}

    def final_checks(self):
        if self.replays < 2 or len(self.reports) != 1:
            self.errors.append("replays did not give byte-identical reports")

    def headline(self, passes):
        (seconds,) = kind_medians(passes, self.clock).values()
        return [("article_lines_per_s", passes[0]["article"][2] / seconds, "lines/s")]


WORKLOADS = {w.name: w for w in (MesonSuite, FuzzSoundness, ArticleReplay)}


def _geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def kind_medians(passes, clock):
    """Each kind's median seconds over the passes."""
    return {
        k: statistics.median(clock.seconds(*p[k][:2]) for p in passes) for k in passes[0]
    }


def summarise(passes: list[dict[str, tuple]], clock: RefClock) -> dict[str, float]:
    """The end-to-end metrics of a run's passes, from each kind's typical
    time (kinds: problems, rules, the article).  A kind has the same
    number of operations in every pass."""
    typical = {k: _geomean(clock.seconds(*p[k][:2]) for p in passes) for k in passes[0]}
    ops = {k: n for k, (*_, n) in passes[0].items()}
    return {
        "typical_ops_per_s": sum(ops.values()) / sum(typical.values()),
        "op_geomean_ms": 1000 * _geomean(typical[k] / ops[k] for k in typical),
    }
