import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lenswall.cli import main
from lenswall.errors import ParameterError
from lenswall.scenario import (
    BUILTIN_SCENARIOS,
    Scenario,
    format_rational,
    load_scenario,
    parse_rational,
)

EXPLICIT_ISOMETRY = Path(__file__).parent / "data" / "explicit_isometry.json"
HYPERBOLIC = Path(__file__).parent / "data" / "hyperbolic.json"
HYPERBOLIC_LONG = Path(__file__).parent / "data" / "hyperbolic_long.json"
RANK8_PARABOLIC = Path(__file__).parent / "data" / "rank8_parabolic.json"
PERTURBED_PLANE = Path(__file__).parent / "data" / "perturbed_plane.json"
A2_ELLIPTIC = Path(__file__).parent / "data" / "a2_elliptic.json"
NONSTANDARD_GRAM = Path(__file__).parent / "data" / "nonstandard_gram.json"
NEGATIVE_SHEET = Path(__file__).parent / "data" / "negative_sheet.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_rho_command(capsys):
    doc = run_json(capsys, "rho", "--order", "2", "--q", "1", "--s", "1")
    assert doc["results"]["value"] == "1/4"
    assert doc["provenance"]["toolkit"] == "lenswall"


def test_rho_approx_flag(capsys):
    doc = run_json(capsys, "--approx", "rho", "--order", "2", "--q", "1", "--s", "1")
    assert doc["results"]["value"] == "1/4"
    assert doc["results"]["value_approx"] == 0.25


def test_eta_command_formulas(capsys):
    base = run_json(capsys, "eta", "--p", "3", "--q", "1", "--s", "1")
    assert base["results"]["value"] == "-1/4"
    for formula in ("half-roots", "odd-p"):
        doc = run_json(capsys, "eta", "--p", "3", "--q", "1", "--s", "1", "--formula", formula)
        assert doc["results"]["value"] == "-1/4"


def test_eta_approx_flag(capsys):
    """--approx on eta adds the float value; the whole document is pinned."""
    code, out, err = run_cli(capsys, "--approx", "eta", "--p", "3", "--q", "1", "--s", "1")
    assert code == 0 and err == ""
    assert out == (
        '{\n  "command": "eta",\n  "inputs": {\n    "formula": "pinc-difference",\n'
        '    "p": 3,\n    "q": 1,\n    "s": 1\n  },\n  "provenance": {\n'
        '    "formula": "pinc-difference",\n    "toolkit": "lenswall",\n'
        '    "version": "0.1.0"\n  },\n  "results": {\n    "value": "-1/4",\n'
        '    "value_approx": -0.25\n  }\n}\n'
    )


def test_distinguish_command(capsys):
    doc = run_json(capsys, "distinguish", "--p", "5", "--q", "1", "--qprime", "3")
    assert doc["results"] == {"distinguishable": True, "matches": []}
    doc = run_json(capsys, "distinguish", "--p", "7", "--q", "3", "--qprime", "5")
    assert doc["results"]["distinguishable"] is False
    assert 9 in doc["results"]["matches"]


def test_components_command(capsys):
    doc = run_json(capsys, "components", "--p", "11")
    assert doc["results"]["count"] == 6
    assert doc["results"]["classes"] == [[1], [3, 15], [5, 9], [7, 19], [13, 17], [21]]


def test_swtot_default_scenario(capsys):
    doc = run_json(capsys, "swtot", "--scenario", "paper-default")
    assert doc["results"]["total"] == 1
    assert doc["results"]["crossings"] == {"0": 1}
    assert doc["results"]["stabilized"] is True


def test_orbit_command(capsys):
    doc = run_json(capsys, "orbit")
    assert doc["results"]["classification"] == "parabolic"
    assert doc["results"]["spinc_orbit"]["finite"] is False
    assert doc["results"]["crossing_index"] == 0


def test_swtot_and_orbit_hyperbolic_scenario(capsys):
    """reflection(sigma_plus) after the quarter turn about S is hyperbolic,
    so swtot steps the orbit; its one crossing is at step 0."""
    for argv, steps_used in (((), 401), (("--n-max", "1"), 3)):
        doc = run_json(capsys, "swtot", "--scenario", str(HYPERBOLIC), *argv)
        assert doc["results"] == {
            "total": 1, "crossings": {"0": 1}, "stabilized": True, "steps_used": steps_used,
        }
    doc = run_json(capsys, "orbit", "--scenario", str(HYPERBOLIC))
    assert doc["results"]["classification"] == "hyperbolic"
    assert doc["results"]["crossing_index"] == 0


def test_a_stepped_orbit_beyond_its_budget_exits_4(capsys):
    """The hyperbolic scenario's orbit is stepped, so swtot and orbit at
    --n-max 1000000 (above wallcross.SWEEP_N_MAX) exit 4 with a resource
    error that names n_max, and print nothing on stdout, instead of
    walking without end."""
    for command in ("swtot", "orbit"):
        code, out, err = run_cli(capsys, command, "--scenario", str(HYPERBOLIC), "--n-max", "1000000")
        assert code == 4 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "resource"
        assert error["message"].startswith("n_max=1000000 exceeds the step budget 20000")


def test_n_max_is_echoed_when_given(capsys):
    """--n-max replaces the scenario's step budget and is echoed as
    inputs.n_max; without it the inputs are the scenario alone."""
    for command in ("swtot", "orbit"):
        doc = run_json(capsys, command, "--scenario", str(HYPERBOLIC))
        assert set(doc["inputs"]) == {"scenario", "definition"}
        doc = run_json(capsys, command, "--scenario", str(HYPERBOLIC), "--n-max", "7")
        assert doc["inputs"]["n_max"] == 7
        assert doc["inputs"]["definition"]["n_max"] == 200
    assert doc["results"]["spinc_orbit"]["bound"] == 7


def test_plot_disc_refuses_an_orbit_too_large_to_draw(capsys):
    """The hyperbolic orbit's integers pass float range after about 540
    steps; the figure is then refused as a resource error, not a traceback.
    tests/data/hyperbolic_long.json is tests/data/hyperbolic.json with a
    step budget of 1000, so both step counts are within it."""
    scenario = str(HYPERBOLIC_LONG)
    code, out, _ = run_cli(
        capsys, "plot-disc", "--scenario", scenario, "--out", "-", "--orbit-steps", "400"
    )
    assert code == 0 and out.startswith("<?xml")
    code, out, err = run_cli(
        capsys, "plot-disc", "--scenario", scenario, "--out", "-", "--orbit-steps", "700"
    )
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "resource"
    assert "too large to draw" in error["message"]


def test_plot_disc_draws_at_most_the_step_budget(capsys):
    """--orbit-steps above the scenario's n_max (1000 for paper-default) is
    refused as a resource error before any orbit point is drawn; a negative
    count is still a parameter error."""
    code, out, _ = run_cli(capsys, "plot-disc", "--out", "-", "--orbit-steps", "1000")
    assert code == 0 and out.startswith("<?xml")
    code, out, err = run_cli(capsys, "plot-disc", "--out", "-", "--orbit-steps", "1001")
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "resource"
    assert "step budget 1000" in error["message"]
    code, _, _ = run_cli(capsys, "plot-disc", "--out", "-", "--orbit-steps", "-1")
    assert code == 2


def test_metabolizer_command(capsys):
    doc = run_json(capsys, "metabolizer", "--bound", "1")
    assert doc["results"]["found"] is True
    assert doc["results"]["check"] is True
    assert len(doc["results"]["vectors"]) == 3
    assert all(doc["results"]["primitive"])


def test_dimension_command(capsys):
    doc = run_json(capsys, "dimension", "--c1-square", "-1", "--euler", "5", "--signature", "-1")
    assert doc["results"]["dimension"] == -2


def test_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "rho", "--order", "6", "--q", "1", "--s", "3")
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert json.dumps(doc, indent=2, sort_keys=True) == out.strip()


def test_sweep_symmetric_with_matching_diagonal(capsys):
    doc = run_json(capsys, "sweep", "--p", "5")
    table = {(row["q"], row["qprime"]): row["matches"] for row in doc["results"]["table"]}
    qs = doc["results"]["q_values"]
    for q in qs:
        assert table[(q, q)], "diagonal must be all-matching"
        for qp in qs:
            assert bool(table[(q, qp)]) == bool(table[(qp, q)])
    assert doc["results"]["count"] == len(doc["results"]["classes"])


def test_sweep_parallel_matches_serial(capsys):
    serial = run_json(capsys, "sweep", "--p", "3")
    parallel = run_json(capsys, "sweep", "--p", "3", "--jobs", "2")
    assert serial["results"] == parallel["results"]


def test_exit_codes_parameter_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "rho", "--order", "6", "--q", "2", "--s", "1")
    assert code == 2
    assert "coprime" in json.loads(err)["error"]["message"]
    code, _, _ = run_cli(capsys, "distinguish", "--p", "4", "--q", "1", "--qprime", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "eta", "--p", "4", "--q", "1", "--s", "0", "--formula", "odd-p")
    assert code == 2
    code, _, _ = run_cli(capsys, "dimension", "--c1-square", "0", "--euler", "5", "--signature", "-1")
    assert code == 2
    code, _, _ = run_cli(capsys, "swtot", "--scenario", "no-such-scenario")
    assert code == 2
    for argv in (
        ("components", "--p", "-3"),
        ("sweep", "--p", "-3"),
        ("sweep", "--p", "0"),
        ("swtot", "--n-max", "0"),
        ("orbit", "--n-max", "0"),
        ("plot-disc", "--out", "-", "--orbit-steps", "-2"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        message = json.loads(err)["error"]["message"]
        assert "must be" in message
        if "--n-max" in argv:  # checked as the scenario's n_max, and named so
            assert "n_max" in message, (argv, message)
    # a quarter turn of the positive-definite plane sends the positive class
    # orthogonal to itself, so its orientation sign is undefined; integer
    # scenario entries are neither truncated nor left to int()
    base = load_scenario("paper-default").definition
    for name, doc, message in (
        ("orthogonal", {
            "gram": [[1, 0], [0, 1]], "positive_class": [1, 0], "isometry": [[0, -1], [1, 0]],
            "c1": [1, 1], "omega0": [1, 0], "sw_x": 1,
        }, "orthogonal to itself"),
        ("float", {**base, "c1": [1.7, 1, 1]}, "got 1.7"),
        ("word", {**base, "gram": [["x", 0, 0], [0, -1, 0], [0, 0, -1]]}, "'x'"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "swtot", "--scenario", str(path))
        assert (code, out) == (2, ""), name
        assert message in json.loads(err)["error"]["message"], name
    # the disc model is drawn for rank-3 lattices only
    code, out, err = run_cli(
        capsys, "plot-disc", "--scenario", str(tmp_path / "orthogonal.json"), "--out", "-"
    )
    assert (code, out) == (2, "")
    assert "rank-3" in json.loads(err)["error"]["message"]
    # every scenario vector must have the gram's rank, whichever command
    # reads it (plot-disc indexed a short c1 and ended in an IndexError)
    path = tmp_path / "short_c1.json"
    path.write_text(json.dumps({**base, "c1": [1, 1]}))
    for command in (("swtot",), ("orbit",), ("metabolizer",), ("plot-disc", "--out", "-")):
        code, out, err = run_cli(capsys, *command, "--scenario", str(path))
        assert (code, out) == (2, ""), command
        message = json.loads(err)["error"]["message"]
        assert message == "c1 has length 2, but the gram has rank 3", command


def test_exit_code_genericity(capsys, tmp_path):
    doc = dict(load_scenario("paper-default").definition)
    doc["omega0"] = ["2/1", "1/1", "1/1"]  # on the wall
    path = tmp_path / "on_wall.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "swtot", "--scenario", str(path))
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "genericity"


def test_exit_code_resource(capsys):
    code, _, err = run_cli(capsys, "components", "--p", "51")
    assert code == 4
    assert json.loads(err)["error"]["kind"] == "resource"
    # the rho budget is stated in the order the user gave
    code, _, err = run_cli(capsys, "rho", "--order", "102", "--q", "1", "--s", "1")
    assert code == 4
    assert json.loads(err)["error"] == {
        "kind": "resource",
        "message": "order n=102 exceeds the size budget 100; raise max_p explicitly to override",
    }


def test_env_search_budget(capsys, monkeypatch):
    monkeypatch.setenv("LENSWALL_SEARCH_BUDGET", "1")
    code, _, err = run_cli(capsys, "metabolizer", "--bound", "1")
    assert code == 4
    assert json.loads(err)["error"]["kind"] == "resource"


def test_env_override_max_p(capsys, monkeypatch):
    monkeypatch.setenv("LENSWALL_MAX_P", "3")
    code, _, _ = run_cli(capsys, "eta", "--p", "5", "--q", "1", "--s", "1")
    assert code == 4
    monkeypatch.setenv("LENSWALL_MAX_P", "60")
    code, _, _ = run_cli(capsys, "eta", "--p", "51", "--q", "1", "--s", "1")
    assert code == 0
    monkeypatch.setenv("LENSWALL_MAX_P", "not-a-number")
    code, _, _ = run_cli(capsys, "eta", "--p", "3", "--q", "1", "--s", "1")
    assert code == 2
    for budget in ("0", "-5"):
        monkeypatch.setenv("LENSWALL_MAX_P", budget)
        code, _, err = run_cli(capsys, "eta", "--p", "3", "--q", "1", "--s", "1")
        assert code == 2 and json.loads(err)["error"]["kind"] == "parameter"


def test_scenario_file_round_trip(capsys, tmp_path):
    scenario = load_scenario("paper-default")
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(scenario.definition))
    doc = run_json(capsys, "swtot", "--scenario", str(path))
    assert doc["results"]["total"] == 1


def test_scenario_file_must_be_an_object(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    for text in ("5", "null", '[1, "a"]', '"gram"'):
        path.write_text(text)
        code, out, err = run_cli(capsys, "swtot", "--scenario", str(path))
        assert (code, out) == (2, ""), text
        assert "must be a JSON object" in json.loads(err)["error"]["message"]


def test_unreadable_scenario_files_exit_2(capsys, tmp_path):
    """A scenario path that is a directory, or a file whose bytes are not
    UTF-8, is a parameter error that names the path, not a traceback; a
    missing path, or one below a file, keeps its message."""
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"gram": "\xe9"}')
    for path in (tmp_path, undecodable):
        code, out, err = run_cli(capsys, "swtot", "--scenario", str(path))
        assert (code, out) == (2, ""), path
        error = json.loads(err)["error"]
        assert error["kind"] == "parameter"
        assert error["message"].startswith(f"cannot read scenario file {path}: "), error
    for missing in (tmp_path / "missing.json", undecodable / "below-a-file.json"):
        code, out, err = run_cli(capsys, "swtot", "--scenario", str(missing))
        assert (code, out) == (2, ""), missing
        assert json.loads(err)["error"]["message"] == (
            f"unknown scenario {str(missing)!r}: not a built-in (paper-default) and no such file"
        )


def test_deeply_nested_scenario_files_exit_2(capsys, tmp_path):
    """100 000 nested arrays or objects are a parameter error that names
    the path and says the file is nested too deeply, not a RecursionError
    traceback."""
    for name, text in (("arrays.json", "[" * 100_000), ("objects.json", '{"a":' * 100_000)):
        path = tmp_path / name
        path.write_text(text)
        for command in ("swtot", "orbit"):
            code, out, err = run_cli(capsys, command, "--scenario", str(path))
            assert (code, out) == (2, ""), (name, command)
            assert json.loads(err)["error"] == {
                "kind": "parameter",
                "message": f"scenario file {path} is nested too deeply to read",
            }


def test_scenario_validation(tmp_path):
    base = load_scenario("paper-default").definition
    bad = dict(base)
    bad["mystery"] = 1
    with pytest.raises(ParameterError, match="unknown scenario keys"):
        Scenario.from_dict(bad)
    bad = dict(base)
    del bad["sigma_plus"]
    with pytest.raises(ParameterError):
        Scenario.from_dict(bad)
    bad = dict(base)
    bad["isometry"] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ParameterError, match="exactly one"):
        Scenario.from_dict(bad)
    bad = dict(base)
    bad["omega0"] = [0.5, 1, 1]
    with pytest.raises(ParameterError, match="rational"):
        Scenario.from_dict(bad)
    # integer entries are exact too: no truncation, no stray ValueError
    for key, value in (
        ("c1", [1.7, 1, 1]),
        ("c1", [True, 1, 1]),
        ("positive_class", ["3/2", 0, 0]),
        ("gram", [["x", 0, 0], [0, -1, 0], [0, 0, -1]]),
        ("sigma_plus", [1, 1.0, 1]),
        ("c1", 5),
        ("c1", "111"),
        ("gram", 5),
        ("gram", [5, 5, 5]),
        ("omega0", 3),
        ("perturbation", "1/2"),
        ("n_max", True),
        ("sw_x", True),
    ):
        bad = dict(base)
        bad[key] = value
        with pytest.raises(ParameterError):
            Scenario.from_dict(bad)
    for key, value in (
        ("positive_class", [1, 0]),
        ("c1", [1, 1, 1, 1]),
        ("omega0", [3, 2]),
        ("sigma_minus", [1, -1]),
        ("perturbation", ["1/2", 0]),
    ):
        with pytest.raises(ParameterError, match=f"^{key} has length {len(value)}, but the gram"):
            Scenario.from_dict({**base, key: value})
    bad = {k: v for k, v in base.items() if not k.startswith("sigma")}
    for value in (5, [5, 5, 5]):
        with pytest.raises(ParameterError, match="must be a list"):
            Scenario.from_dict({**bad, "isometry": value})
    good = dict(base)
    good["c1"] = ["1", 1, "2/2"]
    assert Scenario.from_dict(good).spinc.c1 == (1, 1, 1)


def test_rational_helpers():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(7) == Fraction(7)
    assert format_rational(Fraction(-2, 6)) == "-1/3"
    assert format_rational(Fraction(5)) == "5/1"
    with pytest.raises(ParameterError):
        parse_rational(0.5)
    with pytest.raises(ParameterError):
        parse_rational("1/0")


def test_plot_disc(capsys, tmp_path):
    out = tmp_path / "disc.svg"
    doc = run_json(capsys, "plot-disc", "--out", str(out), "--orbit-steps", "4")
    svg = out.read_text()
    assert svg.startswith("<?xml")
    assert svg.count("<circle") >= 10  # unit circle plus nine orbit dots
    assert doc["results"]["crossing_index"] == 0
    # determinism: a second run is byte-identical
    out2 = tmp_path / "disc2.svg"
    run_json(capsys, "plot-disc", "--out", str(out2), "--orbit-steps", "4")
    assert out2.read_text() == svg
    # zero steps draw the single point n = 0
    doc = run_json(capsys, "plot-disc", "--out", str(out2), "--orbit-steps", "0")
    assert doc["results"]["orbit_points"] == 1


def test_plot_disc_to_an_unopenable_path_exits_2(capsys, tmp_path):
    out = tmp_path / "missing" / "x.svg"
    code, stdout, err = run_cli(capsys, "plot-disc", "--out", str(out))
    assert (code, stdout) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "parameter"
    assert error["message"].startswith(f"cannot write {out}: "), error
    assert not out.parent.exists()


def test_plot_disc_samples_the_wall_once(capsys, monkeypatch, tmp_path):
    """The arc and the wall_samples count come from one sampling."""
    import lenswall.cli
    import lenswall.discplot

    calls = []
    original = lenswall.discplot.sample_wall_points

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (lenswall.cli, lenswall.discplot):
        monkeypatch.setattr(module, "sample_wall_points", counted)
    doc = run_json(capsys, "plot-disc", "--out", str(tmp_path / "disc.svg"))
    assert len(calls) == 1
    assert doc["results"]["wall_samples"] == len(original(*calls[0])) == 50


def test_plot_disc_stdout(capsys):
    code, out, _ = run_cli(capsys, "plot-disc", "--out", "-")
    assert code == 0
    assert out.startswith("<?xml") and out.rstrip().endswith("</svg>")


@pytest.mark.parametrize("steps, digest", [
    ((), "b6bd304234da1770b06d176e3048d0e4a7a7d4f46f135076ea6d2b7439228e5f"),
    (("--orbit-steps", "12"), "7ab5b1e302c9181e162ce8278b3708cbaedb1739e00813ec9122937a7060b81a"),
    (("--orbit-steps", "0"), "34ece160a7b1c82d3aa2a55ec715b4a3959b6e7afa264444304b789b9dad58f2"),
], ids=["default", "steps-12", "steps-0"])
def test_plot_disc_figure_is_pinned(capsys, steps, digest):
    """The paper-default figure, byte for byte (sha256 of the SVG text)."""
    code, out, _ = run_cli(capsys, "plot-disc", "--out", "-", *steps)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SCENARIO_COMMANDS = (
    ("swtot",),
    ("orbit",),
    ("metabolizer", "--bound", "1"),
    ("plot-disc", "--out", "-"),
)


def _pinned_scenario(case, tmp_path) -> str:
    """The --scenario argument of one pinned case: the built-in default, the
    paper map written as an explicit matrix, a hyperbolic map, the paper map
    with a wall whose plane reaches the a != 0 branch of
    wall_ideal_endpoints, an elliptic map of order 3 on (1) + A2(-1), or an
    invalid variant of them."""
    if case == "paper-default":
        return case
    if case == "explicit-isometry":
        return str(EXPLICIT_ISOMETRY)
    if case == "hyperbolic":
        return str(HYPERBOLIC)
    if case == "perturbed-plane":
        return str(PERTURBED_PLANE)
    if case == "a2-elliptic":
        return str(A2_ELLIPTIC)
    explicit = json.loads(EXPLICIT_ISOMETRY.read_text())
    doc = {
        "perturbed": {**explicit, "perturbation": ["0/1", "0/1", "1/2"]},
        "positive-sphere": {**BUILTIN_SCENARIOS["paper-default"], "sigma_plus": [1, 0, 0]},
        "asymmetric-gram": {**explicit, "gram": [[1, 1, 0], [0, -1, 0], [0, 0, -1]]},
    }[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("case, codes, digests", [
    ("paper-default", [0, 0, 0, 0], [
        "6808b8c7568a0ffca42d75eb3f6b89ee4a7076da453ec482ab6b106ffc4691a7",
        "9bcf9859e4f1f99f00580317141b5e7b05ada101b0a4689039db7302f0dd1ea7",
        "3fb22c4a555350ed75d8bca618ed78b4468d53aba03c8ce1c1a99a22c5e56745",
        "7fa5b0106ca9e14406747905055e02567df88de0e2fdbdb650aaef385a3accff",
    ]),
    ("explicit-isometry", [0, 0, 0, 0], [
        "e17469d9bacdd49c9ba8690e702185ec1bc101c56ac8825c430f0fa4db94b053",
        "3abd17c0cde9a4de09de1d5e47c83c4350b579ccffa7cc76714d927853f38157",
        "735ebf704001455c2af1f7fcfce34ab80ed333fbc84b521fc81a9cdac0d21059",
        "43ec17c4aaf36f3022c3f3ab3c7ec49b4711aeb22ca09ecf844de46693b85799",
    ]),
    ("perturbed", [0, 3, 0, 0], [
        "7ddeb37be6df3eb675b5cf701db0468943fbb406df09781e06c4ebd9143598ea",
        "0bb147d21cb6cfb0055e0dc8d45de3a7d04e28a7fa77c2a87ef8a06b94614dda",
        "1cb0700dd57faf8076cd9700439160a08e40b2d7d29b0a06983ffc75bc01670a",
        "c0326cc4de4c0feb97ba032d5e7c0a3f3378e0b0a132921a13d86cb557b6a90d",
    ]),
    ("positive-sphere", [2, 2, 2, 2], [
        "eb242ae9de475535179ff06fc4f681c444e05d3b15db7827e1bcb72bbc42d06e",
        "eb242ae9de475535179ff06fc4f681c444e05d3b15db7827e1bcb72bbc42d06e",
        "eb242ae9de475535179ff06fc4f681c444e05d3b15db7827e1bcb72bbc42d06e",
        "eb242ae9de475535179ff06fc4f681c444e05d3b15db7827e1bcb72bbc42d06e",
    ]),
    ("asymmetric-gram", [2, 2, 2, 2], [
        "69d5fe6b47e85485de71693b3a7d698117b7872e7571bd93095add31575894cb",
        "69d5fe6b47e85485de71693b3a7d698117b7872e7571bd93095add31575894cb",
        "69d5fe6b47e85485de71693b3a7d698117b7872e7571bd93095add31575894cb",
        "69d5fe6b47e85485de71693b3a7d698117b7872e7571bd93095add31575894cb",
    ]),
    ("hyperbolic", [0, 0, 0, 0], [
        "fff0ff10c33ec095c9ff9eb8a45d8f4a87ebe73924975bf3d9e1cb5e1221ec36",
        "eb942f11ffbb36c6ae5411c9344267b8df6f3f5ecd39d1ffd95a3220a3ecaaf5",
        "a9f14aa863f70bb06265d5006becdaa4c9b4d89132048c20506fadc3a4874cd4",
        "16c5611f7c218adcb19d2e9220252e33df401078c1abd88254c770baac68a420",
    ]),
    ("perturbed-plane", [0, 3, 0, 0], [
        "a4f9b86932ac3c88854d251219e288ca5b37c0b68d4dda0e17d585b4247e3f47",
        "3d271db0fc609e714d47d068740cc638adbe926c0da28e9c4caaddaeda9ea7ff",
        "b90e94825c6b7634653ec20dac5b30e1e5774d90b16d578f0628e2fec70ff80c",
        "eaabb28b932b084df6278cf4db49a5e56c5d3ff92a0cd2ee0b5390510686dbbf",
    ]),
    ("a2-elliptic", [0, 0, 0, 2], [
        "94b594726c2a05bc72f18c1c668c8c0b25060a5b98c3d77065858aa5f10a347b",
        "618b1e18d72842a6c151c9490dfed84147950a61313d49b03eea76f1e2224c46",
        "1d597e66dae771b40a961fce9cddd23e2360d6a7c5a3df3b189d87a744b6f2bc",
        "6631428c25e79a0a2067fdf12f9344926c3c81fed423510415f4b1e5e6cc533e",
    ]),
])
def test_scenario_commands_are_pinned(capsys, tmp_path, case, codes, digests):
    """Exit code, stdout and stderr of every scenario command, byte for byte
    (sha256 of the three as a JSON list), with the scenario argument
    replaced by a fixed token; this pins the inputs.definition echo."""
    scenario = _pinned_scenario(case, tmp_path)
    seen_codes, seen_digests = [], []
    for command in SCENARIO_COMMANDS:
        code, out, err = run_cli(capsys, *command, "--scenario", scenario)
        record = [code, out.replace(scenario, "SCENARIO"), err.replace(scenario, "SCENARIO")]
        seen_codes.append(code)
        seen_digests.append(hashlib.sha256(json.dumps(record).encode()).hexdigest())
    assert seen_codes == codes
    assert seen_digests == digests


@pytest.mark.parametrize("command, code, digest", [
    (("swtot",), 0, "c32bff0bbc08add5660051404e970ba7c5eec280e09c3fc5af19266707bfe172"),
    (("orbit",), 0, "19e4fe9e7c381acee18366d23250f2047fa17edd82c44a730655687ec78db8e8"),
    (("plot-disc", "--out", "-"), 2, "9baae6b3073327429023c77d05b86df652919bc68d991e44b28c9723fddc4476"),
])
def test_rank8_scenario_commands_are_pinned(capsys, command, code, digest):
    """The paper map plus a 5-cycle on diag(1, -1 x 7), pinned as the
    scenario commands above: swtot as the stepped orbit gave it, orbit
    classifying the map as parabolic, and plot-disc refusing a rank other
    than 3."""
    scenario = str(RANK8_PARABOLIC)
    seen_code, out, err = run_cli(capsys, *command, "--scenario", scenario)
    record = [seen_code, out.replace(scenario, "SCENARIO"), err.replace(scenario, "SCENARIO")]
    assert seen_code == code
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest


@pytest.mark.parametrize("env, command, code, digest", [
    ({}, ("rho", "--order", "2", "--q", "1", "--s", "1"), 0,
     "9be5b5b4bc22d6fc9f1834426bfc7fa8dfc5fedc9f46dcc861b8a901940891f9"),
    ({}, ("eta", "--p", "3", "--q", "1", "--s", "1"), 0,
     "ca942f0f2ef756d2b98b5c3324b9359ce499dee93f43ba5e436c47ce47d7e079"),
    ({}, ("eta", "--p", "3", "--q", "1", "--s", "1", "--formula", "odd-p"), 0,
     "b99299934a157790f3dcc3601fe01c533a061f27a54e2c8a06320133a53eeb74"),
    ({}, ("distinguish", "--p", "5", "--q", "1", "--qprime", "3"), 0,
     "5bbb23306cbeb60d1d9e833f20fe44443ebee3a96d41d3e86d84b9f4de198eee"),
    ({}, ("sweep", "--p", "7", "--jobs", "4"), 0,
     "6f80c08a5eb6b207800bd306432e3c7cb02edb5d4a7000c739f61d76831c3b6b"),
    ({}, ("components", "--p", "11"), 0,
     "14ae5311e7caf34f9bf57bd69c319e219169d9d87119aa7a6e7f7cdcd2636d53"),
    ({}, ("swtot", "--scenario", "paper-default"), 0,
     "74bda8b442463cd9a3003213b48a093449af373b4ba236382fdaa2291165c6d3"),
    ({}, ("orbit", "--scenario", "paper-default"), 0,
     "696be5a0b70ae88237cbeff773eac8c2b65d1fb0046ceb0c9c4763bacfaf136e"),
    ({}, ("metabolizer", "--bound", "1"), 0,
     "73d6ae01b226580a6ba8819a5691f0197c836c6bd0c8e5d0115b0945db91a0a2"),
    ({}, ("dimension", "--c1-square", "-1", "--euler", "5", "--signature", "-1"), 0,
     "d4fdb2071905155bd006f54b2559675985ecabccdef8b60a36ea38f5e0934a4a"),
    ({}, ("plot-disc", "--out", "disc.svg"), 0,
     "baf11e5d2b1419f35bcaf444947ad7fc54d03129fe4ceb6ddc5ce4717aeccd87"),
    ({}, ("--approx", "rho", "--order", "2", "--q", "1", "--s", "1"), 0,
     "38fb54fb0312f073b431104aaead21f251b7fb0db5d88bf0b8524f8e1744572c"),
    ({}, ("--approx", "eta", "--p", "3", "--q", "1", "--s", "1"), 0,
     "baa458ea89d6a7ee8185bf980cd71647119f74a25fccddbb6111ec68f94ac99b"),
    ({}, ("rho", "--order", "102", "--q", "1", "--s", "1"), 4,
     "9a243c46db7331033e8e6353a8d28ceace1c1fa2f2b10c992ed0c4f715eea8e4"),
    ({}, ("eta", "--p", "4", "--q", "1", "--s", "1", "--formula", "odd-p"), 2,
     "426c0c5008bba20f16ecca4c7b97354a3b37b02517d20cd27997468f45dd04aa"),
    ({}, ("eta", "--p", "52", "--q", "1", "--s", "0", "--formula", "odd-p"), 2,
     "426c0c5008bba20f16ecca4c7b97354a3b37b02517d20cd27997468f45dd04aa"),
    ({"LENSWALL_MAX_P": "not-a-number"}, ("eta", "--p", "3", "--q", "1", "--s", "1"), 2,
     "e0e468f15e962e5f6b71ee0f7f3abb4b7185b3a9e3d1afa8e25224a49819e803"),
    ({"LENSWALL_MAX_P": "-5"}, ("eta", "--p", "3", "--q", "1", "--s", "1"), 2,
     "421788e8a2f30f9368007c089a7308359fdc9b3d558dae3b119b9108e902caf4"),
    ({"LENSWALL_SEARCH_BUDGET": "-1"}, ("metabolizer", "--bound", "1"), 2,
     "5db81b6cea80bca5b4f71dc9525e31eb4a1eccae7dfb06da9883853a5b62bfb4"),
], ids=[
    "rho", "eta", "eta-odd-p", "distinguish", "sweep", "components", "swtot", "orbit",
    "metabolizer", "dimension", "plot-disc", "approx-rho", "approx-eta",
    "rho-over-budget", "odd-p-at-even-p", "odd-p-at-even-p-over-budget", "max-p-not-an-integer",
    "max-p-below-one", "search-budget-below-one",
])
def test_value_commands_are_pinned(capsys, monkeypatch, tmp_path, env, command, code, digest):
    """The README commands, --approx on rho and eta, and the value commands'
    error documents, byte for byte: sha256 of the exit code, stdout and
    stderr as a JSON list, plus the text of the SVG that plot-disc writes."""
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    seen_code, out, err = run_cli(capsys, *command)
    record = [seen_code, out, err]
    if command[0] == "plot-disc":
        record.append((tmp_path / "disc.svg").read_text())
    assert seen_code == code
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest


def test_plot_disc_draws_the_ray_of_a_rational_omega0(capsys, tmp_path):
    """omega0 = (7/2, 2, 2) is the ray of (7, 4, 4), and the disc image
    does not depend on scale, so the two figures are the same."""
    svgs = []
    for name, omega0 in (("rational", ["7/2", 2, 2]), ("integer", [7, 4, 4])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**load_scenario("paper-default").definition, "omega0": omega0}))
        code, out, _ = run_cli(capsys, "plot-disc", "--scenario", str(path), "--out", "-")
        assert code == 0
        svgs.append(out)
    assert svgs[0] == svgs[1]


def test_plot_disc_refuses_a_gram_other_than_the_standard_one(capsys):
    """The wall's ideal endpoints are disc coordinates: a rank-3 gram other
    than diag(1, -1, -1) exits 2 rather than dividing by zero."""
    code, out, err = run_cli(capsys, "plot-disc", "--scenario", str(NONSTANDARD_GRAM), "--out", "-")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "kind": "parameter",
        "message": "disc projection needs the standard diag(1,-1,-1) coordinates",
    }


def test_plot_disc_draws_the_x_negative_sheet_as_its_mirror_image(capsys):
    """paper-default with the positive cone on the x < 0 sheet, and omega0
    negated: v and -v are one point of the disc, so the figure is the same."""
    figures = []
    for scenario in ("paper-default", str(NEGATIVE_SHEET)):
        code, out, _ = run_cli(capsys, "plot-disc", "--scenario", scenario, "--out", "-")
        assert code == 0
        figures.append(out)
    assert figures[0] == figures[1]


def test_orbit_with_a_zero_oracle_value_exits_2(capsys, tmp_path):
    """sw_x = 0 is a parameter error whatever the orbit does, also when the
    start (2, 1, 1) lies on the wall."""
    for omega0 in ([3, 2, 2], [2, 1, 1]):
        path = tmp_path / "zero.json"
        definition = {**load_scenario("paper-default").definition, "omega0": omega0, "sw_x": 0}
        path.write_text(json.dumps(definition))
        code, _, err = run_cli(capsys, "orbit", "--scenario", str(path))
        assert code == 2
        assert json.loads(err)["error"]["message"] == (
            "crossing index is undefined when the oracle value is zero"
        )


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "lenswall", "dimension", "--c1-square", "-1",
         "--euler", "5", "--signature", "-1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["dimension"] == -2
    # the sweep runs in one process, so the CLI loads no process-pool
    # modules; the result types are named tuples, so it loads no dataclasses
    # (which imports inspect, ast and dis)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lenswall.cli; "
         "print(sorted({'multiprocessing', 'concurrent.futures', 'dataclasses', 'inspect'}"
         " & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
