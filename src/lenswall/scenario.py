"""Scenario descriptions consumed by the wall-crossing CLI commands.

A scenario is a JSON document fixing the lattice (gram matrix and positive
class), the isometry (either an explicit matrix or a pair of square -1
sphere classes whose reflections are composed), the spin-c class, an
optional rational perturbation, the starting ray, the oracle value, and
the step budget.  Rational entries are written as integers or "a/b"
strings; floats are rejected to keep the exact path exact.  Integer
entries (gram, classes, isometry, spheres) are parsed the same way and
must have denominator 1.  Vectors and matrices must be JSON lists (of
lists), and every vector must have the gram's rank.

A scenario is parsed and checked once, where it is loaded, into the
objects it defines and the canonical echo of its document.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from .errors import ParameterError
from .lattice import IntegralLattice, Isometry, reflection_sphere
from .wallcross import SpinCData, WallClass

__all__ = ["Scenario", "load_scenario", "parse_rational", "format_rational", "BUILTIN_SCENARIOS"]

_REQUIRED_KEYS = {"gram", "positive_class", "c1", "omega0", "sw_x"}
_SCENARIO_KEYS = _REQUIRED_KEYS | {"isometry", "sigma_plus", "sigma_minus", "perturbation", "n_max"}


def parse_rational(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParameterError(f"rational values must be integers or 'a/b' strings, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"cannot parse rational {value!r}") from exc
    raise ParameterError(f"cannot parse rational {value!r}")


def _parse_integer(value) -> int:
    number = parse_rational(value)
    if number.denominator != 1:
        raise ParameterError(f"expected an integer, got {value!r}")
    return number.numerator


def _entries(values, what: str):
    """values itself when it is a list; a number or a string is refused
    rather than iterated."""
    if not isinstance(values, (list, tuple)):
        raise ParameterError(f"{what} must be a list, got {values!r}")
    return values


def _integers(values, what: str) -> tuple[int, ...]:
    return tuple(_parse_integer(x) for x in _entries(values, what))


def _rationals(values, what: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(x) for x in _entries(values, what))


def _matrix(rows, what: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_integers(row, f"{what} row") for row in _entries(rows, what))


def _step_budget(n_max) -> int:
    """n_max itself when it is a positive integer, from a scenario or from
    the command line's --n-max."""
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ParameterError("n_max must be a positive integer")
    return n_max


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _echo(value):
    """A parsed entry in its canonical JSON form: lists for tuples, "a/b"
    strings for rationals, integers as they are."""
    if isinstance(value, tuple):
        return [_echo(x) for x in value]
    if isinstance(value, Fraction):
        return format_rational(value)
    return value


class Scenario(
    namedtuple("Scenario", "lattice isometry spinc wall omega0 n_max definition")
):
    """A scenario parsed once: the objects its document defines (omega0 as
    Fractions), and definition, the canonical echo of the document."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ParameterError(f"a scenario must be a JSON object, got {doc!r}")
        unknown = set(doc) - _SCENARIO_KEYS
        if unknown:
            raise ParameterError(f"unknown scenario keys: {sorted(unknown)}")
        missing = _REQUIRED_KEYS - set(doc)
        if missing:
            raise ParameterError(f"scenario is missing keys: {sorted(missing)}")
        has_matrix = "isometry" in doc
        has_sigmas = "sigma_plus" in doc or "sigma_minus" in doc
        if has_matrix == has_sigmas:
            raise ParameterError(
                "scenario needs exactly one of 'isometry' or the pair 'sigma_plus'/'sigma_minus'"
            )
        if has_sigmas and ("sigma_plus" not in doc or "sigma_minus" not in doc):
            raise ParameterError("both sigma_plus and sigma_minus are required")
        sw_x = doc["sw_x"]
        if not isinstance(sw_x, int) or isinstance(sw_x, bool):
            raise ParameterError("sw_x must be an integer")
        n_max = _step_budget(doc.get("n_max", 1000))
        parsed = {
            "gram": _matrix(doc["gram"], "gram"),
            "positive_class": _integers(doc["positive_class"], "positive_class"),
            "c1": _integers(doc["c1"], "c1"),
            "omega0": _rationals(doc["omega0"], "omega0"),
            "sw_x": sw_x,
            "n_max": n_max,
        }
        if has_matrix:
            parsed["isometry"] = _matrix(doc["isometry"], "isometry")
        else:
            parsed["sigma_plus"] = _integers(doc["sigma_plus"], "sigma_plus")
            parsed["sigma_minus"] = _integers(doc["sigma_minus"], "sigma_minus")
        if "perturbation" in doc:
            parsed["perturbation"] = _rationals(doc["perturbation"], "perturbation")
        rank = len(parsed["gram"])
        for what in ("positive_class", "c1", "omega0", "sigma_plus", "sigma_minus", "perturbation"):
            if what in parsed and len(parsed[what]) != rank:
                raise ParameterError(
                    f"{what} has length {len(parsed[what])}, but the gram has rank {rank}"
                )

        lattice = IntegralLattice(parsed["gram"], positive_class=parsed["positive_class"])
        if has_matrix:
            isometry = Isometry(lattice, parsed["isometry"])
        else:
            r_plus = reflection_sphere(lattice, parsed["sigma_plus"])
            isometry = r_plus * reflection_sphere(lattice, parsed["sigma_minus"])
        return cls(
            lattice=lattice,
            isometry=isometry,
            spinc=SpinCData(parsed["c1"], sw_x),
            wall=WallClass(parsed["c1"], parsed.get("perturbation")),
            omega0=parsed["omega0"],
            n_max=n_max,
            definition={key: _echo(value) for key, value in parsed.items()},
        )


BUILTIN_SCENARIOS = {
    # diag(1,-1,-1) with the composed sphere reflections, c1 = s+e1+e2,
    # oracle value 1: the default wall-crossing configuration
    "paper-default": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "positive_class": [1, 0, 0],
        "sigma_plus": [1, 1, 1],
        "sigma_minus": [1, -1, 1],
        "c1": [1, 1, 1],
        "omega0": [3, 2, 2],
        "sw_x": 1,
        "n_max": 1000,
    },
}


def load_scenario(source: str) -> Scenario:
    """A built-in scenario by name, or a JSON scenario file by path."""
    if source in BUILTIN_SCENARIOS:
        return Scenario.from_dict(BUILTIN_SCENARIOS[source])
    try:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise ParameterError(
            f"unknown scenario {source!r}: not a built-in "
            f"({', '.join(sorted(BUILTIN_SCENARIOS))}) and no such file"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"scenario file {source} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParameterError(f"scenario file {source} is nested too deeply to read") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read scenario file {source}: {exc}") from exc
    return Scenario.from_dict(doc)
