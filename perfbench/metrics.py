"""Names, units and directions of the benchmark's metrics.

Kept free of microhol imports so the orchestrating interpreter can use
them; ``BENCHMARK.json`` lists the same names in the same order.
"""

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "typical_ops_per_s": "1/s",
    "op_geomean_ms": "ms",
}

KERNEL_RULES = (
    "refl",
    "trans",
    "mk_comb_rule",
    "abs_rule",
    "beta",
    "assume",
    "eq_mp",
    "deduct_antisym",
    "inst_type_rule",
    "inst_rule",
)

# The ten rules of microhol.fuzz.RULE_IDS, frozen so the workload is fixed.
FUZZ_RULES = (
    "refl",
    "trans",
    "mk_comb",
    "abs",
    "beta",
    "assume",
    "eq_mp",
    "deduct_antisym",
    "inst_type",
    "inst",
)

ARTICLE_COMMANDS = (
    "TERM",
    "TYPE",
    "REFL",
    "TRANS",
    "MKCOMB",
    "ABS",
    "BETA",
    "ASSUME",
    "EQMP",
    "DEDUCT",
    "INST",
    "INSTTYPE",
    "THM",
)


def _spec():
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    for entry in ("accel.alpha_canon", "accel.run_program"):
        add(f"{entry}.calls", "count")
        add(f"{entry}.s", "s")
    add("accel.alpha_canon.bytes", "bytes")
    for entry in ("syntax.vsubst", "syntax.vfree_in", "syntax.free_vars", "syntax.inst_type"):
        add(f"{entry}.calls", "count")
        add(f"{entry}.s", "s")
    for entry in ("syntax.alpha_equiv", "syntax.term_order_key", "syntax.type_match"):
        add(f"{entry}.calls", "count")
    add("kernel.inferences", "count")
    for rule in KERNEL_RULES:
        add(f"kernel.{rule}.calls", "count")
    add("kernel.s", "s")
    add("kernel.rejected", "count")
    add("bootstrap.rewr_conv.attempts", "count")
    add("bootstrap.rewr_conv.hits", "count")
    add("bootstrap.rewr_conv.hit_ratio", "ratio", "higher")
    add("bootstrap.exhaustive_conv.s", "s")
    for phase in ("lemmas", "clausify", "search", "reconstruct"):
        add(f"auto.{phase}_s", "s")
    add("auto.taut.calls", "count")
    add("auto.unify.calls", "count")
    add("auto.unify.ok", "count")
    add("semantics.compile.calls", "count")
    add("semantics.compile.s", "s")
    add("semantics.evaluations", "count")
    add("semantics.skipped_overflow", "count")
    for rule in FUZZ_RULES:
        add(f"semantics.fuzz.{rule}.s", "s")
    add("fuzz.generate.calls", "count")
    add("fuzz.generate.s", "s")
    add("surface.parse_term.calls", "count")
    add("surface.parse_term.s", "s")
    add("surface.parse_term.chars", "chars")
    for entry in ("surface.parse_type", "surface.parse_sequent"):
        add(f"{entry}.calls", "count")
        add(f"{entry}.s", "s")
    add("article.lines", "count", "higher")
    for cmd in ARTICLE_COMMANDS:
        add(f"article.cmd.{cmd}", "count", "higher")
    add("article.check_s", "s")
    add("trace.overhead_pct", "%")
    return tuple(out)


PER_LAYER = _spec()

# Counts that must repeat exactly when one seed is traced twice.
DETERMINISTIC = tuple(n for n, unit, _ in PER_LAYER if unit not in ("s", "%"))


