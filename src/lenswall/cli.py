"""Command-line front end.

Every command echoes its inputs and emits a deterministic JSON result
document on stdout with exact rationals serialized as "num/den" strings;
--approx adds clearly-marked decimal renderings.  Exit statuses: 0 on
success, 2 for parameter errors, 3 for genericity/stabilization errors,
4 for resource-bound errors.

sweep reports the classes of components and runs in one process (--jobs
is accepted and echoed but changes nothing).

Environment: LENSWALL_MAX_P overrides the eta-side size budget,
LENSWALL_SEARCH_BUDGET the metabolizer search budget (the half-vector
table, then the isotropic pairs and extension steps examined).
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
    double_structure,
    metabolizer_check,
    metabolizer_search,
    sw_formal_dimension,
)
from .scenario import format_rational, load_scenario
from .wallcross import (
    classify_isometry,
    cone_point,
    orbit_swtot,
    orbit_walk,
    spinc_orbit,
    unique_crossing_index,
)

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_GENERICITY = 3
EXIT_RESOURCE = 4


def _env_int(name: str, default: int | None = None) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ParameterError(f"{name} must be an integer, got {raw!r}") from exc


def _document(command: str, inputs: dict, results: dict, formula: str) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "provenance": {
            "toolkit": "lenswall",
            "version": __version__,
            "formula": formula,
        },
    }


def _cmd_rho(args) -> dict:
    value = rho_lens(args.order, args.q, args.s, max_p=_env_int("LENSWALL_MAX_P"))
    results = {"value": format_rational(value)}
    if args.approx:
        results["value_approx"] = float(value)
    return _document(
        "rho",
        {"order": args.order, "q": args.q, "s": args.s},
        results,
        "rho-sum",
    )


def _cmd_eta(args) -> dict:
    value = eta_variant(args.p, args.q, args.s, args.formula, max_p=_env_int("LENSWALL_MAX_P"))
    results = {"value": format_rational(value)}
    if args.approx:
        results["value_approx"] = float(value)
    return _document(
        "eta",
        {"p": args.p, "q": args.q, "s": args.s, "formula": args.formula},
        results,
        args.formula,
    )


def _cmd_distinguish(args) -> dict:
    result = distinguish_metrics(args.p, args.q, args.qprime, max_p=_env_int("LENSWALL_MAX_P"))
    return _document(
        "distinguish",
        {"p": args.p, "q": args.q, "qprime": args.qprime},
        {"distinguishable": result.distinguishable, "matches": list(result.matches)},
        "eta-matching",
    )


def _cmd_sweep(args) -> dict:
    qs, table, classes = matching_sweep(args.p, max_p=_env_int("LENSWALL_MAX_P"))
    rows = [{"q": q, "qprime": qp, "matches": list(m)} for (q, qp), m in table.items()]
    return _document(
        "sweep",
        {"p": args.p, "jobs": args.jobs},
        {"q_values": qs, "table": rows, "classes": classes, "count": len(classes)},
        "eta-matching",
    )


def _cmd_components(args) -> dict:
    classes = component_classes(args.p, max_p=_env_int("LENSWALL_MAX_P"))
    return _document(
        "components",
        {"p": args.p},
        {"classes": classes, "count": len(classes)},
        "eta-matching",
    )


def _scenario_inputs(args, scenario) -> dict:
    return {"scenario": args.scenario, "definition": scenario.definition}


def _cmd_swtot(args) -> dict:
    scenario = load_scenario(args.scenario)
    n_max = scenario.n_max if args.n_max is None else args.n_max
    summary = orbit_swtot(
        scenario.lattice,
        scenario.isometry,
        scenario.spinc,
        scenario.omega0,
        scenario.wall,
        n_max=n_max,
    )
    return _document(
        "swtot",
        _scenario_inputs(args, scenario),
        {
            "total": summary.total,
            "crossings": {str(n): v for n, v in sorted(summary.crossings.items())},
            "stabilized": summary.stabilized,
            "steps_used": summary.steps_used,
        },
        "orbit-crossing-sum",
    )


def _cmd_orbit(args) -> dict:
    scenario = load_scenario(args.scenario)
    lat, f = scenario.lattice, scenario.isometry
    n_max = scenario.n_max if args.n_max is None else args.n_max
    status = spinc_orbit(lat, f, scenario.spinc.c1, bound=n_max)
    results = {
        "classification": classify_isometry(lat, f),
        "spinc_orbit": {"finite": status.finite, "period": status.period, "bound": status.bound},
    }
    if not status.finite:
        results["crossing_index"] = unique_crossing_index(
            lat, f, scenario.spinc, scenario.omega0, scenario.wall, n_max=n_max
        )
    return _document("orbit", _scenario_inputs(args, scenario), results, "spinc-orbit")


def _cmd_metabolizer(args) -> dict:
    scenario = load_scenario(args.scenario)
    structure = double_structure(scenario.lattice, scenario.isometry)
    budget = _env_int("LENSWALL_SEARCH_BUDGET", DEFAULT_SEARCH_BUDGET)
    found = metabolizer_search(structure, args.bound, budget=budget)
    results: dict = {"found": found is not None, "coefficient_bound": args.bound}
    if found is not None:
        results["vectors"] = [list(v) for v in found]
        results["check"] = metabolizer_check(structure, found)
        results["primitive"] = [gcd(*(abs(x) for x in v if x)) == 1 for v in found]
    return _document("metabolizer", _scenario_inputs(args, scenario), results, "metabolizer-search")


def _cmd_dimension(args) -> dict:
    dim = sw_formal_dimension(args.c1_square, args.euler, args.signature)
    return _document(
        "dimension",
        {"c1_square": args.c1_square, "euler": args.euler, "signature": args.signature},
        {"dimension": dim},
        "index-dimension",
    )


def _cmd_plot_disc(args) -> dict:
    if args.orbit_steps < 0:
        raise ParameterError(f"orbit steps must be >= 0, got {args.orbit_steps}")
    scenario = load_scenario(args.scenario)
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
        with open(args.out, "w") as fh:
            fh.write(svg)
    return _document(
        "plot-disc",
        _scenario_inputs(args, scenario),
        {
            "out": args.out,
            "orbit_points": 2 * args.orbit_steps + 1,
            "wall_samples": len(samples),
            "crossing_index": crossing,
        },
        "disc-model",
    )


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
    p_rho.set_defaults(handler=_cmd_rho)

    p_eta = sub.add_parser("eta", help="eta invariant of a flip-spun lens space")
    p_eta.add_argument("--p", type=int, required=True)
    p_eta.add_argument("--q", type=int, required=True)
    p_eta.add_argument("--s", type=int, required=True)
    p_eta.add_argument("--formula", choices=ETA_FORMULAS, default="pinc-difference")
    p_eta.set_defaults(handler=_cmd_eta)

    p_dist = sub.add_parser("distinguish", help="decide the eta-matching condition")
    p_dist.add_argument("--p", type=int, required=True)
    p_dist.add_argument("--q", type=int, required=True)
    p_dist.add_argument("--qprime", type=int, required=True)
    p_dist.set_defaults(handler=_cmd_distinguish)

    p_sweep = sub.add_parser("sweep", help="full matching table over all valid (q, q')")
    p_sweep.add_argument("--p", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, default=1, help="ignored; echoed as inputs.jobs")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_comp = sub.add_parser("components", help="moduli component classes for X(p)")
    p_comp.add_argument("--p", type=int, required=True)
    p_comp.set_defaults(handler=_cmd_components)

    p_swtot = sub.add_parser("swtot", help="total wall-crossing invariant of a scenario")
    p_swtot.add_argument("--scenario", default="paper-default")
    p_swtot.add_argument("--n-max", type=int, default=None)
    p_swtot.set_defaults(handler=_cmd_swtot)

    p_orbit = sub.add_parser("orbit", help="spin-c orbit and crossing diagnostics")
    p_orbit.add_argument("--scenario", default="paper-default")
    p_orbit.add_argument("--n-max", type=int, default=None)
    p_orbit.set_defaults(handler=_cmd_orbit)

    p_met = sub.add_parser("metabolizer", help="search the doubled structure for a metabolizer")
    p_met.add_argument("--scenario", default="paper-default")
    p_met.add_argument("--bound", type=int, default=1, help="coordinate bound for candidates")
    p_met.set_defaults(handler=_cmd_metabolizer)

    p_dim = sub.add_parser("dimension", help="formal dimension (c1^2 - 2chi - 3sigma)/4")
    p_dim.add_argument("--c1-square", type=int, required=True)
    p_dim.add_argument("--euler", type=int, required=True)
    p_dim.add_argument("--signature", type=int, required=True)
    p_dim.set_defaults(handler=_cmd_dimension)

    p_plot = sub.add_parser("plot-disc", help="SVG of the disc model with wall and orbit")
    p_plot.add_argument("--scenario", default="paper-default")
    p_plot.add_argument("--out", required=True, help="output SVG path, or - for stdout")
    p_plot.add_argument("--orbit-steps", type=int, default=8)
    p_plot.set_defaults(handler=_cmd_plot_disc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.handler(args)
    except ParameterError as exc:
        print(json.dumps({"error": {"kind": "parameter", "message": str(exc)}}), file=sys.stderr)
        return EXIT_PARAMETER
    except GenericityError as exc:
        print(json.dumps({"error": {"kind": "genericity", "message": str(exc)}}), file=sys.stderr)
        return EXIT_GENERICITY
    except ResourceBoundError as exc:
        print(json.dumps({"error": {"kind": "resource", "message": str(exc)}}), file=sys.stderr)
        return EXIT_RESOURCE
    if not (args.subcommand == "plot-disc" and args.out == "-"):
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
