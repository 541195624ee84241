"""Command-line front end.

Every command echoes its inputs and emits a deterministic JSON result
document on stdout with exact rationals serialized as "num/den" strings;
--approx adds clearly-marked decimal renderings.  Exit statuses: 0 on
success, 2 for parameter errors, 3 for genericity/stabilization errors,
4 for resource-bound errors.

Handlers return their inputs and results, and main wraps them in the
document.  swtot and orbit echo --n-max, when it is given, as inputs.n_max.

sweep reports the classes of components and runs in one process (--jobs
is accepted and echoed but changes nothing).

Environment: LENSWALL_MAX_P overrides the eta-side size budget,
LENSWALL_SEARCH_BUDGET the metabolizer search budget (the half-vector
table, then the isotropic pairs and extension steps examined); each must
be an integer of at least 1, or the command exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import gcd

from . import __version__
from .discplot import render_disc_svg, sample_wall_points
from .errors import GenericityError, ParameterError, ResourceBoundError
from .eta import (
    ETA_FORMULAS,
    component_classes,
    distinguish_metrics,
    eta_variant,
    matching_sweep,
    rho_lens,
)
from .lattice import (
    DEFAULT_SEARCH_BUDGET,
    IsometricStructure,
    metabolizer_check,
    metabolizer_search,
    sw_formal_dimension,
)
from .scenario import Scenario, _step_budget, format_rational, load_scenario
from .wallcross import (
    classify_isometry,
    cone_point,
    orbit_swtot,
    orbit_walk,
    spinc_orbit,
    unique_crossing_index,
)

# error family -> (error kind, exit status); NotRationalError is none of
# these and would escape as a traceback; the eta sums, traces, never raise it
_ERRORS = {
    ParameterError: ("parameter", 2),
    GenericityError: ("genericity", 3),
    ResourceBoundError: ("resource", 4),
}


def _env_int(name: str, default: int | None = None) -> int | None:
    """A size budget from the environment: an integer of at least 1."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParameterError(f"{name} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ParameterError(f"{name} must be at least 1, got {value}")
    return value


def _value(value, approx: bool) -> dict:
    results = {"value": format_rational(value)}
    if approx:
        results["value_approx"] = float(value)
    return results


def _scenario(args) -> tuple[Scenario, dict]:
    """The scenario a command names, with --n-max (when given, and checked
    as the scenario's own n_max is) in place of its step budget, and the
    inputs echo of both."""
    scenario = load_scenario(args.scenario)
    inputs = {"scenario": args.scenario, "definition": scenario.definition}
    if getattr(args, "n_max", None) is not None:
        inputs["n_max"] = args.n_max
        scenario = scenario._replace(n_max=_step_budget(args.n_max))
    return scenario, inputs


def _cmd_rho(args) -> tuple[dict, dict]:
    value = rho_lens(args.order, args.q, args.s, max_p=_env_int("LENSWALL_MAX_P"))
    return {"order": args.order, "q": args.q, "s": args.s}, _value(value, args.approx)


def _cmd_eta(args) -> tuple[dict, dict]:
    value = eta_variant(args.p, args.q, args.s, args.formula, max_p=_env_int("LENSWALL_MAX_P"))
    inputs = {"p": args.p, "q": args.q, "s": args.s, "formula": args.formula}
    return inputs, _value(value, args.approx)


def _cmd_distinguish(args) -> tuple[dict, dict]:
    result = distinguish_metrics(args.p, args.q, args.qprime, max_p=_env_int("LENSWALL_MAX_P"))
    return (
        {"p": args.p, "q": args.q, "qprime": args.qprime},
        {"distinguishable": result.distinguishable, "matches": list(result.matches)},
    )


def _cmd_sweep(args) -> tuple[dict, dict]:
    qs, table, classes = matching_sweep(args.p, max_p=_env_int("LENSWALL_MAX_P"))
    rows = [{"q": q, "qprime": qp, "matches": list(m)} for (q, qp), m in table.items()]
    return (
        {"p": args.p, "jobs": args.jobs},
        {"q_values": qs, "table": rows, "classes": classes, "count": len(classes)},
    )


def _cmd_components(args) -> tuple[dict, dict]:
    classes = component_classes(args.p, max_p=_env_int("LENSWALL_MAX_P"))
    return {"p": args.p}, {"classes": classes, "count": len(classes)}


def _cmd_swtot(args) -> tuple[dict, dict]:
    scenario, inputs = _scenario(args)
    summary = orbit_swtot(
        scenario.lattice,
        scenario.isometry,
        scenario.spinc,
        scenario.omega0,
        scenario.wall,
        n_max=scenario.n_max,
    )
    return inputs, {
        "total": summary.total,
        "crossings": {str(n): v for n, v in sorted(summary.crossings.items())},
        "stabilized": summary.stabilized,
        "steps_used": summary.steps_used,
    }


def _cmd_orbit(args) -> tuple[dict, dict]:
    scenario, inputs = _scenario(args)
    lat, f = scenario.lattice, scenario.isometry
    status = spinc_orbit(lat, f, scenario.spinc.c1, bound=scenario.n_max)
    results = {
        "classification": classify_isometry(lat, f),
        "spinc_orbit": {"finite": status.finite, "period": status.period, "bound": status.bound},
    }
    if not status.finite:
        results["crossing_index"] = unique_crossing_index(
            lat, f, scenario.spinc, scenario.omega0, scenario.wall, n_max=scenario.n_max
        )
    return inputs, results


def _cmd_metabolizer(args) -> tuple[dict, dict]:
    scenario, inputs = _scenario(args)
    structure = IsometricStructure(scenario.lattice, scenario.isometry)
    budget = _env_int("LENSWALL_SEARCH_BUDGET", DEFAULT_SEARCH_BUDGET)
    found = metabolizer_search(structure, args.bound, budget=budget)
    results: dict = {"found": found is not None, "coefficient_bound": args.bound}
    if found is not None:
        results["vectors"] = [list(v) for v in found]
        results["check"] = metabolizer_check(structure, found)
        results["primitive"] = [gcd(*(abs(x) for x in v if x)) == 1 for v in found]
    return inputs, results


def _cmd_dimension(args) -> tuple[dict, dict]:
    dim = sw_formal_dimension(args.c1_square, args.euler, args.signature)
    inputs = {"c1_square": args.c1_square, "euler": args.euler, "signature": args.signature}
    return inputs, {"dimension": dim}


def _cmd_plot_disc(args) -> tuple[dict, dict]:
    if args.orbit_steps < 0:
        raise ParameterError(f"orbit steps must be >= 0, got {args.orbit_steps}")
    scenario, inputs = _scenario(args)
    if args.orbit_steps > scenario.n_max:
        raise ResourceBoundError(
            f"orbit steps {args.orbit_steps} exceed the scenario's step budget {scenario.n_max}"
        )
    lat, f, wall = scenario.lattice, scenario.isometry, scenario.wall
    action = f.adjoint()
    # the integer ray through omega0 has the same disc image and can be stepped exactly
    start = cone_point(lat, scenario.omega0)
    points = orbit_walk(action, start, -args.orbit_steps, args.orbit_steps)
    try:
        crossing = unique_crossing_index(
            lat, f, scenario.spinc, scenario.omega0, wall, n_max=scenario.n_max
        )
    except (GenericityError, ParameterError):
        crossing = None
    samples = sample_wall_points(lat, wall)
    svg = render_disc_svg(lat, wall, samples, points, crossing_index=crossing)
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(svg)
        except OSError as exc:
            raise ParameterError(f"cannot write {args.out}: {exc}") from exc
    return inputs, {
        "out": args.out,
        "orbit_points": 2 * args.orbit_steps + 1,
        "wall_samples": len(samples),
        "crossing_index": crossing,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenswall",
        description="Exact eta invariants of flip-spun lens spaces and "
        "wall-crossing bookkeeping.",
    )
    parser.add_argument("--approx", action="store_true", help="add approximate decimal renderings")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_rho = sub.add_parser("rho", help="reduced eta invariant of a lens space")
    p_rho.add_argument("--order", type=int, required=True, help="order of the cyclic group")
    p_rho.add_argument("--q", type=int, required=True)
    p_rho.add_argument("--s", type=int, required=True, help="character index")
    p_rho.set_defaults(handler=_cmd_rho, formula="rho-sum")

    p_eta = sub.add_parser("eta", help="eta invariant of a flip-spun lens space")
    p_eta.add_argument("--p", type=int, required=True)
    p_eta.add_argument("--q", type=int, required=True)
    p_eta.add_argument("--s", type=int, required=True)
    p_eta.add_argument("--formula", choices=ETA_FORMULAS, default="pinc-difference")
    p_eta.set_defaults(handler=_cmd_eta)  # --formula is the provenance formula too

    p_dist = sub.add_parser("distinguish", help="decide the eta-matching condition")
    p_dist.add_argument("--p", type=int, required=True)
    p_dist.add_argument("--q", type=int, required=True)
    p_dist.add_argument("--qprime", type=int, required=True)
    p_dist.set_defaults(handler=_cmd_distinguish, formula="eta-matching")

    p_sweep = sub.add_parser("sweep", help="full matching table over all valid (q, q')")
    p_sweep.add_argument("--p", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, default=1, help="ignored; echoed as inputs.jobs")
    p_sweep.set_defaults(handler=_cmd_sweep, formula="eta-matching")

    p_comp = sub.add_parser("components", help="moduli component classes for X(p)")
    p_comp.add_argument("--p", type=int, required=True)
    p_comp.set_defaults(handler=_cmd_components, formula="eta-matching")

    p_swtot = sub.add_parser("swtot", help="total wall-crossing invariant of a scenario")
    p_swtot.add_argument("--n-max", type=int, default=None)
    p_swtot.set_defaults(handler=_cmd_swtot, formula="orbit-crossing-sum")

    p_orbit = sub.add_parser("orbit", help="spin-c orbit and crossing diagnostics")
    p_orbit.add_argument("--n-max", type=int, default=None)
    p_orbit.set_defaults(handler=_cmd_orbit, formula="spinc-orbit")

    p_met = sub.add_parser("metabolizer", help="search the doubled structure for a metabolizer")
    p_met.add_argument("--bound", type=int, default=1, help="coordinate bound for candidates")
    p_met.set_defaults(handler=_cmd_metabolizer, formula="metabolizer-search")

    p_dim = sub.add_parser("dimension", help="formal dimension (c1^2 - 2chi - 3sigma)/4")
    p_dim.add_argument("--c1-square", type=int, required=True)
    p_dim.add_argument("--euler", type=int, required=True)
    p_dim.add_argument("--signature", type=int, required=True)
    p_dim.set_defaults(handler=_cmd_dimension, formula="index-dimension")

    p_plot = sub.add_parser("plot-disc", help="SVG of the disc model with wall and orbit")
    p_plot.add_argument("--out", required=True, help="output SVG path, or - for stdout")
    p_plot.add_argument("--orbit-steps", type=int, default=8)
    p_plot.set_defaults(handler=_cmd_plot_disc, formula="disc-model")

    for p_scenario in (p_swtot, p_orbit, p_met, p_plot):
        p_scenario.add_argument("--scenario", default="paper-default")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs, results = args.handler(args)
    except tuple(_ERRORS) as exc:
        kind, status = next(v for family, v in _ERRORS.items() if isinstance(exc, family))
        print(json.dumps({"error": {"kind": kind, "message": str(exc)}}), file=sys.stderr)
        return status
    doc = {
        "command": args.subcommand,
        "inputs": inputs,
        "results": results,
        "provenance": {"toolkit": "lenswall", "version": __version__, "formula": args.formula},
    }
    if not (args.subcommand == "plot-disc" and args.out == "-"):
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
