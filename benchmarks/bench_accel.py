#!/usr/bin/env python3
"""Benchmark: compiled accelerator vs the pure-Python fallback.

Times the two hot kernels head-to-head on identical inputs:

* alpha-canonical encoding of freshly built random terms (caches are
  cold by construction: every round re-generates its own term objects);
* finite-model evaluation of compiled sequents over full valuation
  enumerations;

then runs one end-to-end soundness-fuzz batch per backend in a
subprocess (MICROHOL_PURE=1 selects the fallback at import).

Usage: python benchmarks/bench_accel.py [--trials N] [--seed N]
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from microhol import _accel_py  # noqa: E402

try:
    from microhol import _accel_c
except ImportError:
    _accel_c = None

from microhol.fuzz import TermGen  # noqa: E402
from microhol.kernel import Theory  # noqa: E402
from microhol.semantics import Model, _Compiler  # noqa: E402
from microhol.syntax import BOOL, mk_eq  # noqa: E402


def fresh_terms(seed: int, count: int, depth: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = TermGen(rng, max_free=4)
        out.append(g.term(g.small_type(), depth))
    return out


def bench_canon(backend, seed: int, count: int, rounds: int) -> float:
    times = []
    for r in range(rounds):
        terms = fresh_terms(seed + r, count, depth=6)
        t0 = time.perf_counter()
        for t in terms:
            backend.alpha_canon(t)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def bench_eval(backend, seed: int, rounds: int) -> float:
    rng = random.Random(seed)
    theory = Theory()
    model = Model(ind_size=3)
    progs = []
    for _ in range(40):
        g = TermGen(rng, max_free=3)
        t = mk_eq(g.term(BOOL, 3), g.term(BOOL, 3))
        comp = _Compiler(model, {"A": 2, "B": 3}, theory)
        prog = comp.compile(t)
        sizes = [comp.size_of(v.ty) for v in comp.slots]
        progs.append((prog, comp.n_slots, sizes, list(comp.slots.values())))
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for prog, n_slots, sizes, slots in progs:
            env = [0] * n_slots
            total = 1
            for s in sizes:
                total *= s
            combo = [0] * len(sizes)
            for _ in range(min(total, 512)):
                for slot, value in zip(slots, combo):
                    env[slot] = value
                backend.run_program(prog, env)
                for i in range(len(combo)):
                    combo[i] += 1
                    if combo[i] < sizes[i]:
                        break
                    combo[i] = 0
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def bench_end_to_end(pure: bool, trials: int, seed: int) -> float:
    env = dict(os.environ)
    paths = [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if pure:
        env["MICROHOL_PURE"] = "1"
    else:
        env.pop("MICROHOL_PURE", None)
    code = (
        "import time; t0=time.perf_counter();"
        "from microhol.semantics import fuzz_rule_soundness;"
        "from microhol.fuzz import make_generator;"
        f"rep = fuzz_rule_soundness('trans', make_generator('trans'), {trials}, seed={seed});"
        "assert rep.ok;"
        "print(time.perf_counter()-t0)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args()

    if _accel_c is None:
        print("compiled backend not built; run `pip install -e .` first", file=sys.stderr)
        return 1

    rows = []
    pure_canon = bench_canon(_accel_py, args.seed, 400, args.rounds)
    fast_canon = bench_canon(_accel_c, args.seed, 400, args.rounds)
    rows.append(("alpha_canon (400 fresh terms)", pure_canon, fast_canon))

    pure_eval = bench_eval(_accel_py, args.seed, args.rounds)
    fast_eval = bench_eval(_accel_c, args.seed, args.rounds)
    rows.append(("run_program (40 sequents x valuations)", pure_eval, fast_eval))

    pure_e2e = bench_end_to_end(True, args.trials, args.seed)
    fast_e2e = bench_end_to_end(False, args.trials, args.seed)
    rows.append((f"fuzz trans x{args.trials} (end to end)", pure_e2e, fast_e2e))

    width = max(len(r[0]) for r in rows)
    print(f"{'benchmark'.ljust(width)}  {'pure':>10}  {'compiled':>10}  speedup")
    for name, pure, fast in rows:
        print(f"{name.ljust(width)}  {pure:>9.4f}s  {fast:>9.4f}s  {pure / fast:>6.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
