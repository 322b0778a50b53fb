"""Command-line front door.

Exit codes: 0 = success/proved/valid, 1 = checked-and-failed (falsified
formula, refuted article, fuzz counterexample), 2 = usage or I/O error.
A command returns 0 or 1 and raises everything else; `main` alone turns
what it raises into `error: ...` on stderr and exit 2.
Reports go to stdout; diagnostics and timing go to stderr.  With --json
the stdout payload is deterministic for a fixed invocation and seed (no
timestamps or timings), so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import asdict

from . import BACKEND, __version__
from .article import (
    FingerprintMismatch,
    article_stats,
    check_article,
    standard_theory_for,
)
from .bootstrap import install_logic
from .fuzz import RULE_IDS, make_generator
from .kernel import Theory
from .semantics import Model, fuzz_rule_soundness
from .surface import (
    ParseError,
    parse_term,
    parse_type,
    print_sequent,
    print_term,
    print_type,
)
from .syntax import BOOL, HolError

DEFAULT_SEED = 0


def _print_json(payload) -> None:
    """The one form of every --json report: sorted keys, no spaces."""
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MICROHOL_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise HolError(f"MICROHOL_SEED must be an integer, got {env!r}") from None


def _bootstrapped():
    theory = Theory()
    logic = install_logic(theory)
    return theory, logic


def _read(path: str) -> str:
    """The file's text, newlines read as text mode reads them; a byte that
    is not UTF-8 is an error that names its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + data.count(b"\n", 0, exc.start)
        raise HolError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def cmd_check(args) -> int:
    payloads = []
    ok = True
    for path in args.files:
        text = _read(path)
        t0 = time.monotonic()
        try:
            report = check_article(text, standard_theory_for(text))
        except FingerprintMismatch as exc:
            report = exc.report
        elapsed = time.monotonic() - t0
        ok = ok and report.ok
        if args.json:
            payloads.append(json.loads(report.to_json()) | {"path": path})
        else:
            print(f"== {path}")
            print(report.render())
        print(f"checked {path} in {elapsed:.3f}s", file=sys.stderr)
    if args.json:
        _print_json({"articles": payloads})
    return 0 if ok else 1


def cmd_parse(args) -> int:
    theory, _ = _bootstrapped()
    try:
        if args.type:
            ty = parse_type(args.source, theory)
            if args.json:
                _print_json({"ok": True, "type": print_type(ty)})
            else:
                print(print_type(ty))
        else:
            t = parse_term(args.source, theory)
            if args.json:
                _print_json({"ok": True, "term": print_term(t), "type": print_type(t.ty)})
            else:
                print(print_term(t))
                print(f": {print_type(t.ty)}", file=sys.stderr)
        return 0
    except HolError as exc:
        if args.json:
            _print_json({"ok": False, "error": str(exc)})
        else:
            print(f"parse error: {exc}")
        return 1


def cmd_prove_taut(args) -> int:
    from .auto import NotATautology, taut

    theory, logic = _bootstrapped()
    goal = parse_term(args.term, theory, free_default=BOOL)
    t0 = time.monotonic()
    try:
        th = taut(logic, goal)
    except NotATautology as exc:
        if args.json:
            _print_json({"proved": False, "assignment": exc.assignment})
        else:
            print(f"not a tautology: {exc}")
        return 1
    print(f"proved in {time.monotonic()-t0:.3f}s", file=sys.stderr)
    if args.json:
        _print_json({"proved": True, "theorem": print_sequent(th.assumptions, th.conclusion)})
    else:
        print(print_sequent(th.assumptions, th.conclusion))
    return 0


def _read_problem(path: str, theory):
    from .auto import FirstOrderProblem

    axioms = []
    goal = None
    for lineno, raw in enumerate(_read(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head = re.match(r"(AXIOM|GOAL)([ \t]+|$)", line)
        if head is None:
            raise HolError(f"line {lineno}: expected AXIOM or GOAL")
        keyword, text = head[1], line[head.end() :]
        if not text:
            raise HolError(f"line {lineno}: {keyword} has no formula")
        if keyword == "GOAL" and goal is not None:
            raise HolError(f"line {lineno}: more than one GOAL")
        try:
            t = parse_term(text, theory)
            FirstOrderProblem((), t)  # the fragment check, for this line alone
        except HolError as exc:
            if isinstance(exc, ParseError) and exc.line:
                # the column in the file line, past its indent, keyword and blanks
                col = len(raw) - len(raw.lstrip()) + head.end() + exc.col
                raise ParseError(exc.message, lineno, col) from None
            raise HolError(f"line {lineno}: {exc}") from None
        if keyword == "GOAL":
            goal = t
        else:
            axioms.append(t)
    if goal is None:
        raise HolError("problem file has no GOAL line")
    return FirstOrderProblem(tuple(axioms), goal)


def cmd_prove_meson(args) -> int:
    from .auto import DepthExhausted, add_equality_axioms, meson

    theory, logic = _bootstrapped()
    problem = _read_problem(args.file, theory)
    if args.equality_axioms:
        problem = add_equality_axioms(problem)
    t0 = time.monotonic()
    try:
        if args.trace:
            th, trace = meson(logic, problem, depth_bound=args.depth, want_trace=True)
        else:
            th = meson(logic, problem, depth_bound=args.depth)
            trace = None
    except DepthExhausted as exc:
        if args.json:
            _print_json({"proved": False, "depth_bound": exc.depth})
        else:
            print(f"depth exhausted: {exc}")
            if args.trace:
                print(exc.trace.render())
        return 1
    print(f"proved in {time.monotonic()-t0:.3f}s", file=sys.stderr)
    if args.json:
        payload = {
            "proved": True,
            "theorem": print_sequent(th.assumptions, th.conclusion),
        }
        if trace is not None:
            payload["depth_used"] = trace.depth_used
            payload["steps"] = trace.steps
        _print_json(payload)
    else:
        print(print_sequent(th.assumptions, th.conclusion))
        if trace is not None:
            print(trace.render())
    return 0


def cmd_fuzz(args) -> int:
    seed = _seed_from(args)
    rules = list(RULE_IDS) if args.rule == "all" else [args.rule]
    if args.rule != "all" and args.rule not in RULE_IDS:
        raise HolError(f"unknown rule {args.rule!r}; choose from {', '.join(RULE_IDS)}")
    if args.ind_size is not None:
        models = (Model(ind_size=args.ind_size, cap=args.cap),)
    else:
        models = tuple(Model(ind_size=n, cap=args.cap) for n in (1, 2, 3))
    reports = []
    ok = True
    for rule in rules:
        t0 = time.monotonic()
        rep = fuzz_rule_soundness(
            rule, make_generator(rule), trials=args.trials, model=models, seed=seed
        )
        elapsed = time.monotonic() - t0
        ok = ok and rep.ok
        reports.append(rep)
        print(
            f"fuzzed {rule}: {rep.trials} trials, {rep.evaluations} evaluations, "
            f"{len(rep.counterexamples)} counterexamples, {elapsed:.1f}s",
            file=sys.stderr,
        )
    if args.json:
        payload = {
            "seed": seed,
            "trials": args.trials,
            "rules": [
                {
                    "rule": r.rule,
                    "ok": r.ok,
                    "evaluations": r.evaluations,
                    "skipped_overflow": r.skipped_overflow,
                    "counterexamples": [asdict(c) for c in r.counterexamples],
                }
                for r in reports
            ],
        }
        _print_json(payload)
    else:
        for r in reports:
            status = "ok" if r.ok else f"{len(r.counterexamples)} COUNTEREXAMPLES"
            print(f"{r.rule:16s} trials={r.trials} evals={r.evaluations} {status}")
            for c in r.counterexamples:
                print(f"  trial {c.trial} [{c.label}]")
                for p in c.premises:
                    print(f"    premise    {p}")
                print(f"    conclusion {c.conclusion}")
                print(f"    valuation  {c.valuation}")
    return 0 if ok else 1


def cmd_stats(args) -> int:
    if args.files:
        payloads = []
        for path in args.files:
            stats = article_stats(_read(path)) | {"path": path}
            payloads.append(stats)
            if not args.json:
                print(f"== {path}")
                print(f"lines: {stats['line_count']}")
                for cmd, n in stats["commands"].items():
                    print(f"  {cmd:10s} {n}")
        if args.json:
            _print_json({"articles": payloads})
        return 0
    theory, logic = _bootstrapped()
    info = {
        "version": __version__,
        "backend": BACKEND,
        "type_constructors": dict(sorted(theory.type_constructors.items())),
        "constants": sorted(theory.term_constants),
        "definitions": len(theory.definition_log),
        "fingerprint": theory.fingerprint(),
    }
    if args.json:
        _print_json(info)
    else:
        print(f"microhol {__version__} (backend: {BACKEND})")
        print(f"bootstrapped theory fingerprint: {info['fingerprint']}")
        print(f"type constructors: {info['type_constructors']}")
        print(f"constants: {', '.join(info['constants'])}")
    return 0


def _int_option(lo: int, hi: int | None, what: str):
    """An integer option in [lo, hi] (hi None: no upper bound); argparse
    reports a bad one as a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = lo - 1
        if n < lo or (hi is not None and n > hi):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return n

    return parse


_count = _int_option(0, None, "a non-negative integer")
# the bounds `semantics.Model` accepts
_ind_size = _int_option(1, None, "a positive integer")
_cap = _int_option(2, 1 << 31, "an integer in [2, 2**31]")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="microhol",
        description="LCF-style HOL kernel: article checking, fuzzing, provers",
    )
    ap.add_argument("--version", action="version", version=f"microhol {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="replay proof articles through the kernel")
    p.add_argument("files", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("parse", help="parse and typecheck a term (or type)")
    p.add_argument("source")
    p.add_argument("--type", action="store_true", help="parse a type instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("prove-taut", help="prove a propositional tautology")
    p.add_argument("term")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_prove_taut)

    p = sub.add_parser("prove-meson", help="prove a first-order problem file")
    p.add_argument("file")
    p.add_argument("--depth", type=_count, default=20)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--equality-axioms", action="store_true",
                   help="add reflexivity/symmetry/transitivity/congruence axioms")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_prove_meson)

    p = sub.add_parser("fuzz", help="fuzz the primitive rules for soundness")
    p.add_argument("--rule", default="all")
    p.add_argument("--trials", type=_count, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ind-size", type=_ind_size, default=None)
    p.add_argument("--cap", type=_cap, default=1 << 16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("stats", help="article statistics, or theory info")
    p.add_argument("files", nargs="*")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_stats)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (HolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a front door reports, it never shows a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
