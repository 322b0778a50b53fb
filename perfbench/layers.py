"""Per-layer tracing of microhol from outside its source tree.

Every hot function is imported by name into the modules that use it
(``from ._accel import run_program``), so a wrapper must replace the
binding in every ``microhol.*`` module that holds it.  The defining
module keeps its own binding unless the function never calls itself
through it, so recursion inside a module is not counted: "calls" are
top-level calls.  Methods that recurse through ``self`` are wrapped on
the class with a re-entrancy guard instead.

Coarse boundaries (setup, pass, problem, meson phase, rule, article)
record spans: name, start, end and parent.  Every wrapped call adds its
calls and time into the totals of the innermost open span, so the hot
leaves (``run_program``, ``alpha_canon``, ``vfree_in``) cost a counter
update, not a span.  Spans stay in memory and are written out once, at
the end of the run.

Self time is a call's duration minus the time spent in wrapped calls
nested inside it.  A metric named ``<entry>.s`` is self time; a metric
named ``<phase>_s`` is the inclusive time of that phase.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

from microhol import kernel
from microhol.syntax import HolError

from metrics import ARTICLE_COMMANDS, KERNEL_RULES, PER_LAYER

_now = time.perf_counter

# (module, attribute, entry name, patch the defining module too)
FUNCTIONS = (
    ("_accel", "alpha_canon", "accel.alpha_canon", False),
    ("_accel", "run_program", "accel.run_program", False),
    ("syntax", "vsubst", "syntax.vsubst", False),
    ("syntax", "vfree_in", "syntax.vfree_in", False),
    ("syntax", "free_vars", "syntax.free_vars", False),
    ("syntax", "inst_type", "syntax.inst_type", False),
    ("syntax", "alpha_equiv", "syntax.alpha_equiv", False),
    ("syntax", "term_order_key", "syntax.term_order_key", False),
    ("syntax", "type_match", "syntax.type_match", False),
    ("surface", "parse_term", "surface.parse_term", False),
    ("surface", "parse_type", "surface.parse_type", False),
    ("surface", "parse_sequent", "surface.parse_sequent", False),
    ("auto", "taut", "auto.taut", True),
) + tuple(("kernel", rule, f"kernel.{rule}", True) for rule in KERNEL_RULES)

# (module, class, method, entry name); each is guarded against re-entry
METHODS = (
    ("auto", "_Clausifier", "clause_theorems", "auto.clausify"),
    ("auto", "_Rebuild", "refute", "auto.reconstruct"),
    ("semantics", "_Compiler", "compile", "semantics.compile"),
)

# Phases that also open a span, so they show in the written trace.
SPANNED = {
    "auto.clausify",
    "auto.reconstruct",
    "auto.search",
    "auto.lemmas",
    "article.check",
}


def _module(name):
    return importlib.import_module(f"microhol.{name}")


class Span:
    __slots__ = ("name", "start", "end", "parent", "totals")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        # entry -> [calls, inclusive seconds, self seconds]
        self.totals = collections.defaultdict(lambda: [0, 0.0, 0.0])

    def to_json(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "totals": {k: v for k, v in sorted(self.totals.items())},
        }


class Tracer:
    """Wraps microhol's layers; spans and totals live in this object."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._child: list[float] = []
        self.counts = collections.Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._logs: list = []

    # -- spans

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, _now(), parent))
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._open.pop()].end = _now()

    def _record(self, entry, elapsed, child):
        if self._open:
            tot = self.spans[self._open[-1]].totals[entry]
            tot[0] += 1
            tot[1] += elapsed
            tot[2] += elapsed - child
        if self._child:
            self._child[-1] += elapsed

    def timed(self, entry, fn, on_result=None):
        """A wrapper adding fn's calls and time into the open span."""
        record = self._record
        stack = self._child
        spanned = entry in SPANNED

        def wrapper(*args, **kwargs):
            t0 = _now()
            stack.append(0.0)
            try:
                if spanned:
                    with self.span(entry):
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            except HolError:
                self.counts[entry + ".raised"] += 1
                raise
            finally:
                record(entry, _now() - t0, stack.pop())
            if on_result is not None:
                on_result(result)
            return result

        return functools.wraps(fn)(wrapper)

    def guarded(self, entry, fn, on_result=None):
        """Like timed, but calls made while one is running go straight
        through, so recursion is neither counted nor slowed much."""
        inner = self.timed(entry, fn, on_result)
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                depth[0] -= 1

        return functools.wraps(fn)(wrapper)

    # -- installing the wrappers

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, home, attr, new, include_home):
        original = getattr(home, attr)
        defining = sys.modules[original.__module__]
        microhol = [m for n, m in sys.modules.items() if n.startswith("microhol.")]
        for mod in microhol:
            if mod.__dict__.get(attr) is not original:
                continue
            if mod is defining and not include_home:
                continue
            self._patch(mod, attr, new)

    def install(self):
        if self._patches:
            return
        counts = self.counts
        mod = _module

        def canon_bytes(result):
            counts["accel.alpha_canon.bytes"] += len(result)

        for modname, attr, entry, include_home in FUNCTIONS:
            home = mod(modname)
            fn = getattr(home, attr)
            if attr == "parse_term":
                fn = self._counting_chars(fn)
            hook = canon_bytes if attr == "alpha_canon" else None
            wrapper = self.timed(entry, fn, hook)
            self._patch_everywhere(home, attr, wrapper, include_home)

        # _unify recurses through its module global, so it is guarded.
        auto = mod("auto")

        def unify_ok(result):
            if result is not None:
                counts["auto.unify.ok"] += 1

        self._patch(auto, "_unify", self.guarded("auto.unify", auto._unify, unify_ok))

        for modname, cls, meth, entry in METHODS:
            klass = getattr(mod(modname), cls)
            self._patch(klass, meth, self.guarded(entry, getattr(klass, meth)))

        lemmas = auto._NormLemmas
        build = lemmas.__dict__["build"].__func__
        self._patch(lemmas, "build", classmethod(self.timed("auto.lemmas", build)))
        self._patch(auto._Search, "prove_goals", self._search_wrapper(auto._Search))

        boot = mod("bootstrap")
        self._patch(auto, "rewr_conv", self._rewr_wrapper(boot.rewr_conv))
        self._patch(
            auto,
            "exhaustive_conv",
            self._factory_wrapper("bootstrap.exhaustive_conv", boot.exhaustive_conv),
        )

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _search_wrapper(self, search_cls):
        """Time spent advancing the top-level search generator."""
        raw = search_cls.prove_goals
        advance = self.timed("auto.search", next)
        active = [False]

        def prove_goals(search, *args):
            gen = raw(search, *args)
            if active[0]:
                return gen

            def timed_gen():
                while True:
                    active[0] = True
                    try:
                        item = advance(gen)
                    except StopIteration:
                        return
                    finally:
                        active[0] = False
                    yield item

            return timed_gen()

        return prove_goals

    def _rewr_wrapper(self, rewr_conv):
        counts = self.counts

        def traced_rewr_conv(eq_th):
            conv = rewr_conv(eq_th)

            def go(t):
                counts["bootstrap.rewr_conv.attempts"] += 1
                th = conv(t)
                counts["bootstrap.rewr_conv.hits"] += 1
                return th

            return go

        return traced_rewr_conv

    def _counting_chars(self, parse_term):
        counts = self.counts

        def counted(src, *args, **kwargs):
            counts["surface.parse_term.chars"] += len(src)
            return parse_term(src, *args, **kwargs)

        return counted

    def _factory_wrapper(self, entry, factory):
        def traced_factory(*args):
            return self.timed(entry, factory(*args))

        return traced_factory

    # -- kernel inferences, counted with kernel.tracing()

    @contextmanager
    def inferences(self):
        with kernel.tracing() as log:
            self._logs.append(log)
            try:
                yield
            finally:
                self.tally_inferences()
                self._logs.pop()

    def tally_inferences(self):
        """Fold the kernel's trace log into counts and drop its entries,
        so a long pass does not keep every intermediate theorem alive."""
        log = self._logs[-1]
        for name, _args, _result in log:
            self.counts[f"kernel.{name}.calls"] += 1
        self.counts["kernel.inferences"] += len(log)
        log.clear()

    # -- results

    def totals(self, root_name):
        """Summed totals over the span subtree rooted at `root_name`."""
        roots = {i for i, s in enumerate(self.spans) if s.name == root_name}
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        inside = set(roots)
        for i, s in enumerate(self.spans):
            if s.parent in inside:
                inside.add(i)
            if i in inside:
                for entry, (calls, incl, self_s) in s.totals.items():
                    acc = out[entry]
                    acc[0] += calls
                    acc[1] += incl
                    acc[2] += self_s
        return out

    def write(self, path, meta):
        payload = {"meta": meta, "spans": [s.to_json() for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")


def layer_metrics(tracer: Tracer, article_commands: dict, overhead_pct: float):
    """Per-layer metrics from the `pass` span subtree (set-up for the
    lemma build and taut), named as in PER_LAYER."""
    run = tracer.totals("pass")
    setup = tracer.totals("setup")
    counts = tracer.counts
    m = {}
    for name, unit, _ in PER_LAYER:
        entry, _, field = name.rpartition(".")
        if name in counts:
            m[name] = counts[name]
        elif field == "calls" and entry in run:
            m[name] = run[entry][0]
        elif field == "s" and entry in run:
            m[name] = run[entry][2]
        else:
            m[name] = 0.0 if unit == "s" else 0
    rules = [f"kernel.{rule}" for rule in KERNEL_RULES]
    m["kernel.s"] = sum(run[r][2] for r in rules)
    m["kernel.rejected"] = sum(counts[f"{r}.raised"] for r in rules)
    attempts = counts["bootstrap.rewr_conv.attempts"]
    m["bootstrap.rewr_conv.hit_ratio"] = (
        counts["bootstrap.rewr_conv.hits"] / attempts if attempts else 0.0
    )
    m["auto.lemmas_s"] = setup["auto.lemmas"][1]
    m["auto.taut.calls"] = setup["auto.taut"][0] + run["auto.taut"][0]
    for phase in ("clausify", "search", "reconstruct"):
        m[f"auto.{phase}_s"] = run[f"auto.{phase}"][1]
    for cmd in ARTICLE_COMMANDS:
        m[f"article.cmd.{cmd}"] = article_commands.get(cmd, 0)
    m["article.check_s"] = run["article.check"][1]
    m["trace.overhead_pct"] = overhead_pct
    return m
