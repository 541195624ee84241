"""Names and units of the workloads and metrics, and the per-layer metrics
computed from the tracer's totals.  Free of lenswall imports, so run.py
can use it without loading the package."""

WORKLOADS = ("eta-tables", "cyclotomic-oracle", "wallcross-orbits", "cli-readme")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# The README commands of the cli-readme workload, by label.
CLI_LABELS = (
    "rho",
    "eta",
    "eta-odd-p",
    "distinguish",
    "sweep-p7",
    "components",
    "swtot",
    "orbit",
    "metabolizer",
    "dimension",
    "plot-disc",
    "sweep-p13-jobs1",
    "sweep-p13-jobs2",
)

# Per-layer metrics from the tracer's spans and counters.
LAYER_METRICS = {
    "cyclotomic.times_root_calls": "count",
    "cyclotomic.times_root_s": "s",
    "cyclotomic.mul_calls": "count",
    "cyclotomic.mul_s": "s",
    "cyclotomic.inverse_calls": "count",
    "cyclotomic.inverse_s": "s",
    "cyclotomic.as_rational_calls": "count",
    "eta.rho_table_misses": "count",
    "eta.rho_table_hits": "count",
    "eta.rho_table_s": "s",
    "eta.match_s": "s",
    "eta.distinguish_calls": "count",
    "eta.match_candidates": "count",
    "eta.match_hit_ratio": "ratio",
    "eta.variant_s": "s",
    "eta.fourier_s": "s",
    "wallcross.orbit_swtot_calls": "count",
    "wallcross.orbit_swtot_s": "s",
    "wallcross.orbit_steps": "count",
    "wallcross.power_swtot_s": "s",
    "wallcross.spinc_orbit_s": "s",
    "wallcross.classify_s": "s",
    "lattice.metabolizer_search_s": "s",
    "lattice.metabolizer_check_calls": "count",
    "lattice.isometry_s": "s",
    "lattice.pairing_calls": "count",
    "scenario.load_s": "s",
    "discplot.render_s": "s",
}

# Measured from outside the CLI processes, on the untraced rounds.
CLI_METRICS = {
    "cli.start_s": "s",
    **{f"cli.command_s.{label}": "s" for label in CLI_LABELS},
    "cli.sweep_jobs2_over_jobs1": "ratio",
}

PER_LAYER = {**LAYER_METRICS, **CLI_METRICS, "trace.overhead_s": "s"}


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Every key of LAYER_METRICS from Tracer.totals (summed over processes);
    layers that were not called read 0."""
    s = lambda *names: sum(totals.get("s:" + n, 0.0) for n in names)
    n = lambda name: totals.get("n:" + name, 0)
    get = lambda key: totals.get(key, 0)
    candidates = get("eta.match_candidates")
    return {
        "cyclotomic.times_root_calls": n("cyclotomic.times_root"),
        "cyclotomic.times_root_s": s("cyclotomic.times_root"),
        "cyclotomic.mul_calls": n("cyclotomic.mul"),
        "cyclotomic.mul_s": s("cyclotomic.mul"),
        "cyclotomic.inverse_calls": n("cyclotomic.inverse"),
        "cyclotomic.inverse_s": s("cyclotomic.inverse"),
        "cyclotomic.as_rational_calls": n("cyclotomic.as_rational"),
        "eta.rho_table_misses": get("eta.rho_table_misses"),
        "eta.rho_table_hits": get("eta.rho_table_hits"),
        "eta.rho_table_s": s("eta.rho_table", "eta.eta_table"),
        "eta.match_s": s("eta.distinguish", "eta.component_classes"),
        "eta.distinguish_calls": n("eta.distinguish"),
        "eta.match_candidates": candidates,
        "eta.match_hit_ratio": get("eta.match_found") / candidates if candidates else 0.0,
        "eta.variant_s": s("eta.variant"),
        "eta.fourier_s": s("eta.fourier"),
        "wallcross.orbit_swtot_calls": n("wallcross.orbit_swtot"),
        "wallcross.orbit_swtot_s": s("wallcross.orbit_swtot"),
        "wallcross.orbit_steps": get("wallcross.orbit_steps"),
        "wallcross.power_swtot_s": s("wallcross.power_swtot"),
        "wallcross.spinc_orbit_s": s("wallcross.spinc_orbit"),
        "wallcross.classify_s": s("wallcross.classify"),
        "lattice.metabolizer_search_s": s("lattice.metabolizer_search"),
        "lattice.metabolizer_check_calls": n("lattice.metabolizer_check"),
        "lattice.isometry_s": s("lattice.isometry"),
        "lattice.pairing_calls": n("lattice.pairing"),
        "scenario.load_s": s("scenario.load"),
        "discplot.render_s": s("discplot.render"),
    }
