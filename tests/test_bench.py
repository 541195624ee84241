import importlib.util
from pathlib import Path

PAIRS = Path(__file__).parent.parent / "bench" / "pairs.py"


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_summarizes_a_single_pair():
    """One pair has one value per side, which is its own median and both
    quartiles, so a one-pair smoke run writes a document."""
    pairs = _pairs()
    assert pairs.quartiles([0.5]) == (0.5, 0.5)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    run = {"parent": {"metrics": {"wall_s": 2.0}}, "change": {"metrics": {"wall_s": 1.0}}}
    summary = pairs.summarize([run], {"wall_s": "lower"})["wall_s"]
    assert (summary["parent_q1"], summary["parent_q3"], summary["change_wins"]) == (2.0, 2.0, 1)
