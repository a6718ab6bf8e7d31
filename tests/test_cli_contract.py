"""The CLI contract: exit 0 only with finite outputs, 2 for bad input, 3 for a
numeric guard, and never an exception."""

import json
import re
import shlex
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaplab.cli import main

# lattices on the self-dual N = 16 and N = 32 grids (steps 1/4 and 1/sqrt(32))
# whose Gabor-matrix envelopes decay, so that gaborscan can exit 0
LATTICE16 = "0.75,0.75,2"
LATTICE32 = f"{6 / 32 ** 0.5!r},{6 / 32 ** 0.5!r},3"


def nonfinite_outputs(out: Path) -> list[str]:
    """Files under `out` that hold a nan or an inf."""
    bad = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.suffix == ".bin":
            vals = np.fromfile(path, dtype="<f8")
        elif path.suffix == ".json":
            vals = np.array(_json_floats(json.loads(path.read_text())), dtype=float)
        elif path.suffix == ".csv":
            rows = path.read_text().splitlines()[1:]
            vals = np.array([float(tok) for row in rows for tok in row.split(",")])
        else:
            continue
        if not np.all(np.isfinite(vals)):
            bad.append(path.name)
    return bad


def _json_floats(value) -> list[float]:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _json_floats(v)]
    return [value] if isinstance(value, float) else []


def run(argv: list[str]) -> int:
    """main's exit code; an argparse rejection counts as its exit code."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.fixture(scope="module")
def not_a_matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrix") / "list.json"
    path.write_text("[1, 2]")
    return str(path)


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    """Identity matrices of side 2 and 4: symplectic, but each is the wrong
    size for one of --rep (4x4) and --operator (2x2)."""
    root = tmp_path_factory.mktemp("sides")
    paths = {}
    for side in (2, 4):
        paths[side] = root / f"eye{side}.json"
        paths[side].write_text(json.dumps({"rows": np.eye(side).tolist()}))
    return {f"eye{side}": str(path) for side, path in paths.items()}


GABOR32 = ["gaborscan", "--n", "32", "--lattice", LATTICE32]

# each of these raised or exited 0 with nan in its outputs before the CLI
# checked its numbers where they enter
BAD_INPUTS = {
    "rep-matrix-list": ["wigner", "--n", "32", "--rep", "matrix:{matrix}"],
    "operator-matrix-list": GABOR32 + ["--operator", "matrix:{matrix}"],
    "rep-matrix-2x2": ["wigner", "--n", "32", "--rep", "matrix:{eye2}"],
    "wfs-rep-matrix-2x2": ["wfs", "--n", "32", "--rep", "matrix:{eye2}"],
    "operator-matrix-4x4": GABOR32 + ["--operator", "matrix:{eye4}"],
    "bins-zero": ["wfs", "--n", "32", "--bins", "0"],
    "qs-zero": GABOR32 + ["--qs", "0:0"],
    "qs-nan": GABOR32 + ["--qs", "nan:0"],
    "cov-nan": ["wigner", "--n", "32", "--rep", "cov:nan,0,0"],
    "two-bump-nan": ["wigner", "--n", "32", "--signal", "two-bump:nan,0"],
    "times-nan": ["evolve", "--n", "32", "--times", "nan"],
    "times-inf": ["evolve", "--n", "32", "--times", "inf"],
    "r0-nan": ["wfs", "--n", "32", "--r0", "nan"],
    "hermite-negative": ["wigner", "--n", "32", "--signal", "hermite:-1"],
    "half-width-nan": ["wigner", "--n", "32", "--half-width", "nan"],
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_numbers_are_validation_errors(tmp_path, not_a_matrix, matrix_files, name, capsys):
    argv = [a.format(matrix=not_a_matrix, **matrix_files) for a in BAD_INPUTS[name]]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert "validation error" in capsys.readouterr().err
    assert nonfinite_outputs(tmp_path) == []


def test_bad_numbers_in_config_match_flags(tmp_path):
    for field, value in (("bins", 0), ("r0", float("nan")), ("half_width", float("inf")),
                         ("n", float("inf")), ("bins", [3])):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 32, field: value}))
        assert run(["wfs", "--config", str(cfg), "--out", str(tmp_path)]) == 2, field


@pytest.mark.parametrize("value", ["false", "true", "yes", 2.5, 2, -1, 1.0])
def test_bad_boolean_config_is_a_validation_error(tmp_path, value, capsys):
    # bool("false") is True, so a loose conversion would run with the flag set
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimate_chi": value}))
    assert run(["gaborscan", "--config", str(cfg), "--dump-config"]) == 2
    assert "estimate_chi" in capsys.readouterr().err


@pytest.mark.parametrize("value, want", [(True, True), (False, False), (1, True), (0, False)])
def test_boolean_config_accepts_json_booleans_and_0_1(tmp_path, value, want, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimate_chi": value}))
    assert run(["gaborscan", "--config", str(cfg), "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out)["estimate_chi"] is want


@pytest.mark.parametrize("command", ["wigner", "evolve", "gaborscan", "wfs"])
def test_huge_grid_is_a_numeric_guard(tmp_path, command, capsys):
    # one n x n complex array would be 16 TiB; the budget refuses it before
    # any signal is built, so nothing large is allocated
    tracemalloc.start()
    try:
        code = run([command, "--n", "1048576", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "past the 256 MiB budget" in capsys.readouterr().err
    assert peak <= 4 * 2 ** 20, peak / 2 ** 20


def test_check_tau_propagation_guard_exits_3(tmp_path, capsys):
    # the flow's chirp aliases in propagate_quadratic before the transport
    # check runs; no input found so far makes propagation pass and both
    # transport routes fail, so "no route in band" has no test of its own
    code = run(["evolve", "--n", "64", "--times", "3", "--hamiltonian", "quad:3,0.5,1",
                "--check-tau", "0.5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "chirp aliases" in err and "edge frequency 4.772 exceeds Nyquist 4" in err
    assert "Traceback" not in err
    assert nonfinite_outputs(tmp_path) == []


def readme_cli_examples() -> list[list[str]]:
    """The `metaplab ...` lines of README's CLI `sh` block, split into argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("metaplab ")]
    assert examples, "README's CLI block holds no metaplab command"
    return examples


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_examples_run(tmp_path, argv):
    assert "--out" in argv
    argv = list(argv)
    argv[argv.index("--out") + 1] = str(tmp_path / "out")
    assert run(argv) == 0
    assert nonfinite_outputs(tmp_path) == []


def test_gaborscan_on_a_grid_that_is_not_self_dual_exits_3(tmp_path, capsys):
    # the dense Fourier matrix goes through the same guards as apply
    code = run(["gaborscan", "--n", "64", "--half-width", "3", "--operator", "fourier",
                "--lattice", "0.375,0.5,2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "self-dual" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t", ["1e20", "1e300"])
def test_check_tau_on_an_ill_conditioned_flow_exits_3(tmp_path, t, capsys):
    # the inverse free flow is a shear of size 4 pi t; composing the
    # transported field with it goes through the rescale conditioning guard
    code = run(["evolve", "--n", "32", "--times", t, "--hamiltonian", "free",
                "--check-tau", "0.5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "condition number exceeds bound" in err and "Traceback" not in err
    assert nonfinite_outputs(tmp_path) == []


@pytest.mark.parametrize("hamiltonian, t", [("quad:-1,0,1", "1e5"), ("harmonic", "1e20"),
                                            ("quad:0.5,0.1,1", "1e20")])
def test_flow_that_float64_cannot_hold_exits_3(tmp_path, hamiltonian, t, capsys):
    # the unstable flow's exponential overflows; the long flows come out of
    # their squarings no longer symplectic: valid input, no computable flow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["evolve", "--n", "64", "--times", t, "--hamiltonian", hamiltonian,
                    "--check-tau", "0.5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "cannot be computed in float64" in err and "Traceback" not in err
    assert "RuntimeWarning" not in err and not [w for w in caught if w.category is RuntimeWarning]
    assert nonfinite_outputs(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["evolve", "--n", "128", "--times", "0.05", "--sigma", "1/x"],
    ["evolve", "--n", "128", "--times", "0.05", "--sigma", "sqrt(0-1-x^2)"],
    ["gaborscan", "--n", "128", "--operator", "weyl:1/x", "--lattice", "0.5,0.5,3"],
])
def test_symbol_that_is_not_finite_on_the_grid_exits_3(tmp_path, argv, capsys):
    # 1/x is infinite at x = 0 and sqrt(0-1-x^2) is nan everywhere; the
    # symbol is sampled before any matrix or lattice is built
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "symbol is not finite" in err and "Traceback" not in err
    assert "RuntimeWarning" not in err and not [w for w in caught if w.category is RuntimeWarning]
    assert nonfinite_outputs(tmp_path) == []


# config values for the fuzz, as (valid, bad): bad ones are out of range,
# non-finite or of the wrong type; N stays at 16 or 32, so every run is small
SIGNALS = (["gaussian", "hermite:2", "two-bump:1,1", "sign-gaussian"],
           ["hermite:-1", "hermite:x", "two-bump:nan,0", "two-bump:1", "bogus", "", 5])
VALUES = {
    "n": ([16, 32, "32"], [15, 0, -2, "abc", 2.5, True, float("nan"), float("inf"), [16]]),
    "half_width": ([None, 2.0, "3"], [0, -1.0, float("nan"), float("inf"), "abc", {}]),
    "signal": SIGNALS,
    "u0": SIGNALS,
    "window": SIGNALS,
    "rep": (["tau:0.5", "stft", "cov:0.4,0.1,-0.2", "cov:0.5,0,3"],
            ["tau:nan", "tau:1.5", "tau:", "cov:inf,0,0", "matrix:{matrix}", "matrix:nosuch", 0.5]),
    "hamiltonian": (["free", "harmonic", "quad:0.5,0.1,1"], ["quad:nan,0,0", "quad:1,2", "bogus"]),
    "sigma": ([None, "0.3*exp(-(x^2+xi^2))", "1/x"], ["x+*2", 3]),
    "times": (["0.05", "0.02,0.1", "0.1,,0.2", 0.05, "-0.1", "1e308"],
              ["", ",", "nan", "inf", "0.1,abc"]),
    "check_tau": ([None, 0.5, "0.25", -3, 1e300], [float("nan"), float("inf"), "abc"]),
    "operator": (["fourier", "identity", "weyl:exp(-(x^2+xi^2))", "weyl:1/x"],
                 ["matrix:{matrix}", "bogus"]),
    "lattice": ([], ["0,0.5,3", "nan,0.5,3", "0.5,0.5", "0.5,0.5,-1", "0.5,0.5,inf", 0.5]),
    "qs": (["1:0", "inf:0", "1:0,,0.5:1", "2:-1"], ["0:0", "nan:0", "1:nan", "1:inf", "1-0", "-1:0"]),
    "estimate_chi": ([True, False, None, 0, 1], ["yes", "false", 2.5, 2]),
    "bins": ([1, 8, "8", 2.5], [0, -3, float("nan"), float("inf"), "abc"]),
    "r0": ([0, 1.5, "2"], [-1, float("nan"), float("inf"), "abc"]),
}
COMMAND_FIELDS = {
    "wigner": ("signal", "rep"),
    "evolve": ("hamiltonian", "sigma", "times", "u0", "check_tau"),
    "gaborscan": ("operator", "window", "lattice", "qs", "estimate_chi"),
    "wfs": ("signal", "rep", "bins", "r0"),
}


@st.composite
def configs(draw):
    """A command and its config: all fields valid, or one of them bad."""
    command = draw(st.sampled_from(sorted(COMMAND_FIELDS)))
    fields = ("n", "half_width") + COMMAND_FIELDS[command]
    bad = draw(st.sampled_from([f for f in fields if VALUES[f][1]])) if draw(st.booleans()) else None
    cfg = {"n": draw(st.sampled_from(VALUES["n"][0]))}
    if command == "gaborscan":
        cfg["lattice"] = LATTICE16 if cfg["n"] == 16 else LATTICE32
    for field in fields:
        good, wrong = VALUES[field]
        if field == bad:
            cfg[field] = draw(st.sampled_from(wrong))
        elif good and field != "n" and draw(st.booleans()):
            cfg[field] = draw(st.sampled_from(good))
    return command, cfg


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(configs())
def test_config_fuzz_keeps_the_contract(not_a_matrix, drawn):
    command, cfg = drawn
    cfg = {k: v.format(matrix=not_a_matrix) if isinstance(v, str) else v for k, v in cfg.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        with np.errstate(all="ignore"):
            code = main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3), (command, cfg)
        if code == 0:
            assert nonfinite_outputs(out) == [], (command, cfg)
