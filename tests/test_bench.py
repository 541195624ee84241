import hashlib
import importlib.util
import json
import sys
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


def _layers():
    spec = importlib.util.spec_from_file_location("layers", PAIRS.parent / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PAIRS.parent))
    try:
        spec.loader.exec_module(layers)
    finally:
        sys.path.remove(str(PAIRS.parent))
    return layers


def test_layers_probe_reads_one_call():
    """The layer probe runs one call in a fresh interpreter on a checkout's
    src/ and reports its answer's digest, wall time and peak RSS; one round
    of the orbit layer's power_swtot gives total 1 for each of its six rays
    and d = 2..6, and one of its rank-8 orbit_swtot one crossing, at step 0,
    at each of its three n_max.  The field layer's cold values at p = 7
    are eta(X(7), g_{7,5}, alpha_7) = 3/4 by both field formulas, and the
    poly layer's cold Phi_6 is x^2 - x + 1."""
    layers = _layers()
    run = layers.run_once(PAIRS.parent.parent, "component_classes", 5)
    expected = hashlib.sha256(json.dumps([[1], [3, 7], [9]]).encode()).hexdigest()
    assert run["answer"] == expected
    assert set(run["metrics"]) == set(layers.BETTER)
    assert run["metrics"]["wall_s"] >= 0 and run["metrics"]["peak_rss_mb"] > 0
    rounds = layers.run_once(PAIRS.parent.parent, "power_swtot", 1)
    assert rounds["answer"] == hashlib.sha256(json.dumps([1] * 30).encode()).hexdigest()
    rank8 = layers.run_once(PAIRS.parent.parent, "rank8_orbit_swtot", 1)
    expected = hashlib.sha256(json.dumps([[1, [[0, 1]]]] * 3).encode()).hexdigest()
    assert rank8["answer"] == expected
    for name in ("half_roots", "odd_p"):
        field = layers.run_once(PAIRS.parent.parent, name, 7)
        assert field["answer"] == hashlib.sha256(json.dumps("3/4").encode()).hexdigest()
    phi = layers.run_once(PAIRS.parent.parent, "cyclotomic_polynomial", 6)
    assert phi["answer"] == hashlib.sha256(json.dumps([1, -1, 1]).encode()).hexdigest()


def test_layers_probe_takes_a_checkout_relative_to_the_caller(monkeypatch):
    """A relative checkout path is read from the caller's directory, though
    the probe runs in the checkout: bench/'s parent, given as "..", works."""
    layers = _layers()
    monkeypatch.chdir(PAIRS.parent)
    phi = layers.run_once(Path(".."), "cyclotomic_polynomial", 6)
    assert phi["answer"] == hashlib.sha256(json.dumps([1, -1, 1]).encode()).hexdigest()
