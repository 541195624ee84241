import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import lenswall
from lenswall.cyclotomic import Cyclotomic, root_of_unity
from lenswall.eta import MatchingResult
from lenswall.lattice import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    IsometricStructure,
    reflection_sphere,
    standard_lattice,
)
from lenswall.scenario import BUILTIN_SCENARIOS, Scenario
from lenswall.wallcross import OrbitStatus, OrbitSummary, SpinCData, WallClass

# __main__ runs the CLI on import, so it is not a library module
MODULES = sorted(
    f"lenswall.{info.name}"
    for info in pkgutil.iter_modules(lenswall.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"


LAT = standard_lattice()
PARABOLIC = reflection_sphere(LAT, SIGMA_PLUS) * reflection_sphere(LAT, SIGMA_MINUS)
PAPER = Scenario.from_dict(BUILTIN_SCENARIOS["paper-default"])
GRAM = "IntegralLattice(rank=3, gram=((1, 0, 0), (0, -1, 0), (0, 0, -1)))"
MAP = "Isometry(((9, 4, -8), (4, 1, -4), (8, 4, -7)))"

# (record type, its arguments by keyword, the fields they do not set, with
# their defaults and computed values, and its repr, byte for byte the one
# it had as a frozen dataclass)
RECORDS = [
    (
        MatchingResult,
        dict(p=5, q=1, q_prime=3, matches=()),
        dict(distinguishable=True),
        "MatchingResult(p=5, q=1, q_prime=3, matches=(), distinguishable=True)",
    ),
    (
        MatchingResult,
        dict(p=7, q=1, q_prime=13, matches=(1, 13)),
        dict(distinguishable=False),
        "MatchingResult(p=7, q=1, q_prime=13, matches=(1, 13), distinguishable=False)",
    ),
    (
        IsometricStructure,
        dict(lattice=LAT, map=PARABOLIC),
        {},
        f"IsometricStructure(lattice={GRAM}, map={MAP})",
    ),
    (
        Scenario,
        {
            name: getattr(PAPER, name)
            for name in ("lattice", "isometry", "spinc", "wall", "omega0", "n_max", "definition")
        },
        {},
        f"Scenario(lattice={GRAM}, isometry={MAP}, spinc=SpinCData(c1=(1, 1, 1), sw_x=1), "
        "wall=WallClass(c1=(1, 1, 1), perturbation=None), "
        "omega0=(Fraction(3, 1), Fraction(2, 1), Fraction(2, 1)), n_max=1000, "
        "definition={'gram': [[1, 0, 0], [0, -1, 0], [0, 0, -1]], 'positive_class': [1, 0, 0], "
        "'c1': [1, 1, 1], 'omega0': ['3/1', '2/1', '2/1'], 'sw_x': 1, 'n_max': 1000, "
        "'sigma_plus': [1, 1, 1], 'sigma_minus': [1, -1, 1]})",
    ),
    (
        WallClass,
        dict(c1=(1, 1, 1)),
        dict(perturbation=None),
        "WallClass(c1=(1, 1, 1), perturbation=None)",
    ),
    (
        WallClass,
        dict(c1=(1, 1, 1), perturbation=(Fraction(1, 5), Fraction(0), Fraction(0))),
        {},
        "WallClass(c1=(1, 1, 1), perturbation=(Fraction(1, 5), Fraction(0, 1), Fraction(0, 1)))",
    ),
    (SpinCData, dict(c1=(1, 1, 1), sw_x=1), {}, "SpinCData(c1=(1, 1, 1), sw_x=1)"),
    (
        OrbitSummary,
        dict(crossings={0: 1}, stabilized=False),
        dict(total=1, steps_used=0, method="sweep"),
        "OrbitSummary(crossings={0: 1}, total=1, stabilized=False, steps_used=0, method='sweep')",
    ),
    (
        OrbitSummary,
        dict(crossings={-2: -1, 0: 1, 5: 1}, stabilized=True, steps_used=5, method="certificate"),
        dict(total=1),
        "OrbitSummary(crossings={-2: -1, 0: 1, 5: 1}, total=1, stabilized=True, steps_used=5, "
        "method='certificate')",
    ),
    (
        OrbitStatus,
        dict(finite=True, period=4, bound=10),
        {},
        "OrbitStatus(finite=True, period=4, bound=10)",
    ),
]


@pytest.mark.parametrize(
    "cls, kwargs, derived, expected",
    RECORDS,
    ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(RECORDS)],
)
def test_records_keep_their_behaviour(cls, kwargs, derived, expected):
    """The result records keep their constructors (by keyword and by
    position, with their defaults), their computed fields, their repr, their
    immutability and their pickle and deepcopy round-trips."""
    record = cls(**kwargs)
    assert repr(record) == expected
    assert repr(cls(*kwargs.values())) == expected
    fields = {**kwargs, **derived}
    assert {name: getattr(record, name) for name in fields} == fields
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and repr(copied) == expected


@pytest.mark.parametrize(
    "element",
    [
        Cyclotomic(1),
        Cyclotomic(5, (Fraction(-1, 2),)),
        root_of_unity(9, 2) * Fraction(3, 7) + 1,
        (root_of_unity(12, 5) - 1).inverse(),
    ],
    ids=repr,
)
def test_cyclotomic_elements_round_trip(element):
    """Field elements pickle (every protocol), copy and deepcopy to an equal
    element with the same hash that is still immutable."""
    copies = [pickle.loads(pickle.dumps(element, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in (*copies, copy.copy(element), copy.deepcopy(element)):
        assert type(copied) is Cyclotomic
        assert copied == element and hash(copied) == hash(element)
        assert repr(copied) == repr(element)
        for name in ("order", "_num", "_den", "extra"):
            with pytest.raises(AttributeError):
                setattr(copied, name, None)
