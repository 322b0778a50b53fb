#!/usr/bin/env python3
"""The microhol benchmark: end-to-end metrics, or per-layer ones traced.

    python3 perfbench/run.py --workload meson-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --self-test             # traced counts repeat exactly
    python3 perfbench/run.py --compare A.jsonl B.jsonl

Run it from the root of a checkout; it imports microhol from ``src``
(no install needed).  Each workload runs in a fresh interpreter with
``src`` on PYTHONPATH, so set-up time and peak memory are per workload
and no cache leaks from one workload into the next.  The workloads, and
why each was chosen, are in ``workloads.py``.

End-to-end metrics (``--trace 0``), one value per run:

* ``setup_s``: interpreter start to the first timed operation (imports,
  the Theory, and for meson-suite the Logic and the clausifier lemmas;
  for article-replay generating the article), median of
  ``SETUP_SAMPLES`` fresh interpreters;
* ``peak_rss_mb``: ``ru_maxrss`` of the workload's own process;
* ``typical_ops_per_s``: operations (proofs, rule instances, article
  lines) per second of a pass in which every kind of operation takes its
  typical time, the geometric mean over the run;
* ``op_geomean_ms``: geometric mean over the kinds (problems, rules, the
  article) of each kind's typical time per operation.

Every time is measured at reference speed (``clock.py``): the host's
speed moves by 20-50 % over tens of seconds, and the workload's own
interpreter samples it while it works.  On meson-suite the last two are
20 / ``meson_total_s`` and 1000 * ``meson_geomean_s``, with geometric
means over the passes where those take medians.  The workloads' own metrics (``meson_total_s``, ``meson_max_s``,
``meson_geomean_s``, ``fuzz_trials_per_s``, ``article_lines_per_s``)
are printed above the result line.

``--trace 1`` wraps microhol's layers from outside (``layers.py``), runs
a fixed amount of work untraced, traced, then untraced again, reports
the per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench/``.  Its times are wall times: the reference clock is off.  The last line of standard output is always the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every output check passed, 1 when one failed, 2 on a usage error or
when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import RefClock
from metrics import DETERMINISTIC, E2E_UNITS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("meson-suite", "fuzz-soundness", "article-replay")
SETUP_SAMPLES = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (exit 2)."""


# ---------------------------------------------------------------------------
# Inside the workload's own interpreter


def _identity(seed):
    from microhol import BACKEND

    return {
        "backend": BACKEND,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def child_main(args) -> int:
    clock = RefClock()
    if not args.trace:
        clock.start()
    spawned = (args.spawned_at, 0.0)
    import microhol

    if Path(microhol.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"microhol imported from {microhol.__file__}, not {SRC}")
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    w = WORKLOADS[args.workload](args.seed, clock)
    if tracer:
        with tracer.span("setup"):
            w.setup()
    else:
        w.setup()
    ready = clock.mark()
    if args.setup_only:
        clock.stop()
        print(f"READY {clock.seconds(spawned, ready)!r}", flush=True)
        return 0
    print("READY", flush=True)
    if tracer:
        out = _traced_run(w, tracer, args)
    else:
        out = _timed_run(w, args.seconds)
        out["metrics"]["setup_s"] = clock.seconds(spawned, ready)
    out.update(
        correct=not w.errors,
        attempted=w.attempted,
        failed=w.failed,
        errors=w.errors[:20],
        identity=_identity(args.seed),
    )
    print(json.dumps(out), flush=True)
    return 0


def _timed_run(w, seconds):
    import resource

    from workloads import summarise

    passes = []
    first = w.clock.mark()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(w.run_pass(len(passes)))
        w.verify()
    measured = time.perf_counter() - start
    last = w.clock.mark()
    w.clock.stop()
    metrics = summarise(passes, w.clock)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    w.final_checks()
    return {
        "metrics": metrics,
        "headline": w.headline(passes),
        "passes": len(passes),
        "measured_s": measured,
        "speed": w.clock.speed(first, last),
    }


def _traced_run(w, tracer, args):
    """One untraced warm-up of the fixed passes, the same passes traced,
    then untraced again: overhead is traced over the warm untraced time."""
    from layers import layer_metrics

    def passes(tr=None):
        t0 = time.perf_counter()
        for i in range(w.trace_passes):
            w.run_pass(i, tr)
        return time.perf_counter() - t0

    tracer.uninstall()
    passes()
    tracer.install()
    tracer.counts.clear()
    with tracer.span("pass"), tracer.inferences():
        traced = passes(tracer)
    tracer.uninstall()
    untraced = passes()
    w.verify()  # outside the traced span, so checks add no counts
    w.final_checks()

    commands = w.stats["commands"] if hasattr(w, "stats") else {}
    metrics = layer_metrics(tracer, commands, 100 * (traced / untraced - 1))
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, **_identity(args.seed)})
    print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    return {"metrics": metrics, "untraced_s": untraced, "traced_s": traced}


# ---------------------------------------------------------------------------
# The orchestrating interpreter


def _child_env():
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"  # set and dict order, hence counts, repeat
    return env


def _spawn(workload, seed, seconds, trace, setup_only=False):
    """Run one workload interpreter; returns its result.  The result of a
    set-up-only interpreter is its set-up time."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # CLOCK_MONOTONIC, which perf_counter reads, is shared by processes.
    cmd += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY"):
        raise BenchError(f"{workload} interpreter failed (exit {proc.returncode})")
    if setup_only:
        return float(lines[0].split()[1])
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace) -> dict:
    out = _spawn(workload, seed, seconds, trace)
    if not trace:
        samples = [out["metrics"]["setup_s"]] + [
            _spawn(workload, seed, seconds, trace, setup_only=True)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        out["metrics"]["setup_s"] = statistics.median(samples)
    out.update(workload=workload, seconds=seconds, trace=trace)
    return out


def _units(trace):
    if not trace:
        return E2E_UNITS
    return {name: unit for name, unit, _ in PER_LAYER}


def result_line(out) -> str:
    units = _units(out["trace"])
    metrics = {n: {"value": out["metrics"][n], "unit": u} for n, u in units.items()}
    return json.dumps(
        {
            "correct": out["correct"],
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": metrics,
        }
    )


def report(out):
    ident = out["identity"]
    print(
        f"# {out['workload']}: seed {ident['seed']}, backend {ident['backend']}, "
        f"python {ident['python']}, nproc {ident['nproc']}, "
        + (f"{out['passes']} passes in {out['measured_s']:.1f} s, "
           f"reference loop at {out['speed']:.3f} x reference speed" if not out["trace"]
           else f"untraced {out['untraced_s']:.2f} s, traced {out['traced_s']:.2f} s")
    )
    for name, value, unit in out.get("headline", ()):
        print(f"  {name:<34} {value:>14.4f} {unit}")
    for name, unit in _units(out["trace"]).items():
        print(f"  {name:<34} {out['metrics'][name]:>14.4f} {unit}")
    print(f"  {'attempted':<34} {out['attempted']:>14d}")
    print(f"  {'failed':<34} {out['failed']:>14d}")
    for err in out["errors"]:
        print(f"  CHECK FAILED: {err}")


def compare(path_a, path_b) -> int:
    """Medians of two result files (``--out``), metric by metric."""
    sets = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            sets.append([json.loads(line) for line in fh if line.strip()])
    backends = {r["identity"]["backend"] for rs in sets for r in rs}
    if len(backends) != 1:
        print(f"refused: the result sets mix backends {sorted(backends)}", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<34} {'A median':>12} {'B median':>12} {'B/A':>7}")
    for workload in WORKLOAD_NAMES:
        runs = [[r for r in rs if r["workload"] == workload and not r["trace"]] for rs in sets]
        if not all(runs):
            continue
        for name in E2E_UNITS:
            if not all(name in r["metrics"] for rs in runs for r in rs):
                continue
            a, b = (statistics.median(r["metrics"][name] for r in rs) for rs in runs)
            print(f"{workload:<16} {name:<34} {a:>12.4f} {b:>12.4f} {b / a:>7.3f}")
    return 0


def self_test(seed, seconds) -> int:
    """Two traced runs of one seed must give identical counts, and the
    metric names must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(E2E_UNITS):
        problems.append("BENCHMARK.json end_to_end names differ from E2E_UNITS")
    if [m["name"] for m in spec["per_layer"]] != [n for n, _, _ in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer names differ from layers.PER_LAYER")
    for workload in WORKLOAD_NAMES:
        a, b = (run_workload(workload, seed, seconds, 1) for _ in range(2))
        diff = [n for n in DETERMINISTIC if a["metrics"][n] != b["metrics"][n]]
        print(f"{workload}: {len(DETERMINISTIC)} counts, {len(diff)} differ {diff}")
        if diff or not (a["correct"] and b["correct"]):
            problems.append(f"{workload}: counts differ or a check failed")
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="append each result as a JSON line to this file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.child:
            return child_main(args)
        if not (SRC / "microhol" / "__init__.py").is_file():
            raise BenchError(f"no microhol sources under {SRC}")
        if args.compare:
            return compare(*args.compare)
        if args.self_test:
            return self_test(args.seed, args.seconds)
        status = 0
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        for workload in names:
            out = run_workload(workload, args.seed, args.seconds, args.trace)
            report(out)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(out) + "\n")
            status = max(status, 0 if out["correct"] else 1)
            print(result_line(out), flush=True)
        return status
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
