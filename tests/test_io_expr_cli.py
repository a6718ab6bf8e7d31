"""Serialization round trips, the expression grammar, and CLI behaviour."""

import json
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaplab.cli import main
from metaplab.exprparse import ExprError, compile_expression
from metaplab.serial import (
    _K_LO,
    _POW10,
    dumps_deterministic,
    field_csv,
    load_field,
    load_signal,
    matrix_from_json,
    matrix_to_json,
    save_field,
    fmt17,
    save_signal,
    signal_csv,
    write_csv,
)
from metaplab.signals import (
    PhaseSpaceField,
    SamplingError,
    default_grid,
    gaussian,
    sign_gaussian,
    smooth_noise,
)
from metaplab.symplectic import tau_matrix
from metaplab.wigner import wigner_cross


def test_signal_roundtrip(tmp_path, grid256, rng):
    f = smooth_noise(grid256, rng)
    save_signal(tmp_path / "sig", f)
    back = load_signal(tmp_path / "sig")
    assert np.array_equal(back.values, f.values)
    assert back.grid.axes == f.grid.axes


def test_signal_roundtrip_is_bit_exact(tmp_path):
    # array_equal treats -0.0 and 0.0 as equal, so compare the bits
    grid = default_grid(16)
    vals = np.full(16, complex(-0.0, 1.0))
    vals[1::2] = complex(2.5, -0.0)
    f = gaussian(grid).with_values(vals)
    save_signal(tmp_path / "sig", f)
    back = load_signal(tmp_path / "sig")
    assert np.array_equal(back.values.view(np.uint64), vals.view(np.uint64))
    back.values[0] = 0.0  # the loaded samples are writable


def test_field_roundtrip(tmp_path, phi):
    W = wigner_cross(phi, phi)
    save_field(tmp_path / "field", W)
    back = load_field(tmp_path / "field")
    assert np.array_equal(back.values, W.values)


def test_matrix_json_roundtrip():
    A = tau_matrix(0.3)
    text = matrix_to_json(A)
    M = matrix_from_json(text)
    assert np.max(np.abs(M - A.mat)) <= 1e-15
    data = json.loads(text)
    assert data["n"] == 2


def test_csv_headers(tmp_path, phi):
    signal_csv(tmp_path / "sig.csv", phi)
    lines = (tmp_path / "sig.csv").read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 257
    W = wigner_cross(phi, phi)
    small = default_grid(16)
    g16 = gaussian(small)
    field_csv(tmp_path / "f.csv", wigner_cross(g16, g16))
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[0] == "x,xi,re,im,abs"
    assert len(lines) == 16 * 16 + 1


def test_write_csv_matches_per_value_fmt17(tmp_path, rng):
    edge = [-0.0, 5e-324, 1e308, 0.1, -1.5, 1.0, 2.0 ** 52 + 1.0]
    floats = np.concatenate([edge, rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)])
    ints = np.arange(floats.size, dtype=np.int64) - 7
    write_csv(tmp_path / "t.csv", ("k", "v"), (ints, floats))
    expected = "k,v\n" + "".join(f"{int(k)},{fmt17(v)}\n" for k, v in zip(ints, floats))
    assert floats.size > 4096
    assert (tmp_path / "t.csv").read_text() == expected
    write_csv(tmp_path / "empty.csv", ("a", "b"), ([], []))
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"


def test_field_csv_abs_column_is_the_scalar_abs(tmp_path, phi):
    F = wigner_cross(phi, phi)
    field_csv(tmp_path / "f.csv", F)
    rows = (tmp_path / "f.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == [fmt17(abs(v)) for v in F.values.ravel()]


# floats whose |x| 10^(16-e), computed in longdouble, lands within its error
# bound of a rounding tie and on the wrong side of it (about 1 in 38,000
# random bit patterns): only the tie test sends them to Python
NEAR_TIES = ("-0x1.86e23eb219231p-733", "0x1.eb1f8a217c4f7p-328", "-0x1.7f5ffd9a99729p+393",
             "0x1.68b0e96ac9be1p-710", "-0x1.895bbdc1672adp-504", "0x1.a7a48ffa6406dp-689",
             "-0x1.4b504ba745e01p+477", "0x1.a3cbfd8403ec6p+991", "0x1.6f62727855844p-114",
             "-0x1.43c350e84981bp-320")


def _hard_floats(rng) -> np.ndarray:
    """Finite floats where %.17g is easy to get wrong: random bit patterns,
    subnormals, signed zeros, every power of ten and its two neighbours,
    exact 17-digit ties m/8, near ties, and the decade and range edges."""
    bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64)
    subnormal = rng.integers(1, 2 ** 52, 2000, dtype=np.uint64) | (bits[:2000] & np.uint64(2 ** 63))
    powers = 10.0 ** np.arange(-323, 309)
    ties = rng.integers(8 * 10 ** 14, 8 * 10 ** 15, 3000) / 8.0
    edges = [0.0, -0.0, 1e16, 1e17, 5e-324, 1.7976931348623157e308]
    near_ties = [float.fromhex(h) for h in NEAR_TIES]
    x = np.concatenate([bits.view(np.float64), subnormal.view(np.float64), powers, np.nextafter(powers, 0),
                        np.nextafter(powers, np.inf), ties, -ties, near_ties, edges])
    return x[np.isfinite(x)]


def test_write_csv_is_percent_17g_on_hard_floats(tmp_path, rng):
    x = _hard_floats(rng)
    write_csv(tmp_path / "h.csv", ("v",), (x,))
    assert (tmp_path / "h.csv").read_text().splitlines()[1:] == ["%.17g" % v for v in x.tolist()]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64))
def test_write_csv_is_percent_17g_on_any_finite_floats(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.csv"
        write_csv(path, ("v",), (np.array(values, dtype=np.float64),))
        assert path.read_text().splitlines()[1:] == ["%.17g" % v for v in values]


@pytest.mark.parametrize("rows", [0, 4095, 4096, 4097])
def test_write_csv_mixed_columns_across_block_edges(tmp_path, rng, rows):
    ints = rng.integers(-2 ** 63, 2 ** 63 - 1, rows)
    flags = rng.random(rows) < 0.5
    small = rng.integers(0, 256, rows).astype(np.uint8)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    write_csv(tmp_path / "m.csv", ("k", "flag", "u", "v"), (ints, flags, small, floats))
    rows_text = zip(ints.tolist(), flags.tolist(), small.tolist(), floats.tolist())
    assert (tmp_path / "m.csv").read_text() == "k,flag,u,v\n" + "".join("%d,%d,%d,%.17g\n" % r for r in rows_text)


def test_csv_powers_of_ten_are_correctly_rounded():
    # the exact digits of write_csv rest on each 10^k of this table being
    # within half an ulp; where longdouble is float64 the entries past
    # 1e308 are inf, and every entry of write_csv falls back to Python
    half_ulp = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio()) / 2
    for i, p in enumerate(_POW10):
        if np.isfinite(p):
            exact = Fraction(10) ** (_K_LO + i)
            assert abs(Fraction(*p.as_integer_ratio()) - exact) <= half_ulp * exact, _K_LO + i


def test_field_csv_traced_peak_stays_small(tmp_path):
    # the text is built per block of rows: at N = 256 the file is 16 MB, and
    # the traced peak stays near the field's own 1 MiB
    grid = default_grid(256)
    F = wigner_cross(sign_gaussian(grid), gaussian(grid))
    field_csv(tmp_path / "warm.csv", F)
    tracemalloc.start()
    try:
        field_csv(tmp_path / "f.csv", F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6, peak / 1e6


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_writers_refuse_nonfinite_numbers(tmp_path, bad):
    g16 = gaussian(default_grid(16))
    F = wigner_cross(g16, g16)
    vals = F.values.copy()
    vals[3, 5] = bad
    F = PhaseSpaceField(F.x_axis, F.xi_axis, vals)
    with pytest.raises(SamplingError):
        save_field(tmp_path / "field", F)
    with pytest.raises(SamplingError):
        field_csv(tmp_path / "field.csv", F)
    with pytest.raises(SamplingError):
        save_signal(tmp_path / "sig", g16.with_values(np.where(np.arange(16) == 2, bad, g16.values)))
    assert list(tmp_path.iterdir()) == []


def test_matrix_from_json_names_the_problem():
    for text, problem in (("[1, 2]", "object"), ('{"rows": [1, 2]}', "lists of finite"),
                          ('{"rows": [[1, 2], [3]]}', "equal-length"),
                          ('{"rows": [[NaN, 0], [0, 1]]}', "finite")):
        with pytest.raises(ValueError, match=problem):
            matrix_from_json(text)


def test_expression_grammar():
    fn = compile_expression("exp(-(x^2 + xi^2)) * (1 + 0.5*cos(x))")
    x = np.linspace(-1, 1, 5)
    got = fn(x, 0.0 * x)
    want = np.exp(-(x ** 2)) * (1 + 0.5 * np.cos(x))
    assert np.max(np.abs(got - want)) <= 1e-14
    assert complex(compile_expression("2^3 - 4/2")(0.0, 0.0)) == pytest.approx(6.0)
    assert complex(compile_expression("-x + 1")(2.0, 0.0)) == pytest.approx(-1.0)
    assert complex(compile_expression("sqrt(pi)")(0.0, 0.0)) == pytest.approx(np.sqrt(np.pi))
    fn4 = compile_expression("u*v + x", ("x", "xi", "u", "v"))
    assert complex(fn4(1.0, 0.0, 2.0, 3.0)) == pytest.approx(7.0)


def test_expression_errors():
    for bad in ("x +", "foo(3)", "exp 3", "(x", "x ) y", "y"):
        with pytest.raises(ExprError):
            compile_expression(bad)
    try:
        compile_expression("x + bar")
    except ExprError as e:
        assert e.pos == 4


def test_cli_wigner_gaussian(tmp_path):
    rc = main(["wigner", "--signal", "gaussian", "--rep", "tau:0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "meta.json").read_text())
    # normalized Gaussian: the field peaks at 2 at the origin
    assert abs(meta["max_abs"] - 2.0) <= 1e-8
    assert meta["moyal_deviation"] <= 1e-8
    # binary output round-trips through the loader
    F = load_field(tmp_path / "field")
    assert abs(F.norm() - 1.0) <= 1e-8


def test_cli_wigner_stft(tmp_path):
    rc = main(["wigner", "--signal", "gaussian", "--rep", "stft", "--out", str(tmp_path)])
    assert rc == 0
    F = load_field(tmp_path / "field")
    assert abs(abs(F.values[128, 128]) - 1.0) <= 1e-8


def test_cli_validation_exit_codes(tmp_path):
    assert main(["wigner", "--rep", "tau:1.5", "--out", str(tmp_path)]) == 2
    assert main(["wigner", "--signal", "nosuch", "--out", str(tmp_path)]) == 2
    assert main(["wigner", "--n", "255", "--out", str(tmp_path)]) == 2


def test_cli_guard_exit_code(tmp_path):
    # a chirp-heavy covariant representation on a tiny grid trips the
    # sampling guard: exit code 3
    rc = main(["wigner", "--signal", "gaussian", "--rep", "cov:0.5,0.0,3.0",
               "--n", "16", "--out", str(tmp_path)])
    assert rc == 3


def test_cli_dump_config(tmp_path, capsys):
    rc = main(["wigner", "--dump-config", "--signal", "hermite:2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    cfg = json.loads(out)
    assert cfg["signal"] == "hermite:2"
    assert cfg["rep"] == "tau:0.5"


def test_dumps_deterministic_writes_booleans():
    text = dumps_deterministic({"a": True, "b": np.bool_(False), "c": 1})
    assert text == '{\n "a": true,\n "b": false,\n "c": 1\n}'


def test_cli_boolean_config_round_trip(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"estimate_chi": True}))
    assert main(["gaborscan", "--config", str(cfg_file), "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert '"estimate_chi": true' in dumped
    # the dumped config loads again as a config file
    cfg_file.write_text(json.dumps({k: v for k, v in json.loads(dumped).items() if k != "command"}))
    assert main(["gaborscan", "--config", str(cfg_file), "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped


def test_cli_config_file_and_override(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"signal": "two-bump", "n": 128}))
    rc = main(["wigner", "--config", str(cfg_file), "--signal", "gaussian",
               "--dump-config", "--out", str(tmp_path)])
    assert rc == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["signal"] == "gaussian"  # flag overrides file
    assert cfg["n"] == 128
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    assert main(["wigner", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_evolve(tmp_path):
    rc = main(["evolve", "--hamiltonian", "free", "--times", "0.0,0.05",
               "--u0", "gaussian", "--check-tau", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "conservation.csv").read_text().splitlines()
    assert lines[0] == "t,norm,energy_re,energy_im"
    norms = [float(row.split(",")[1]) for row in lines[1:]]
    assert max(abs(n - 1.0) for n in norms) <= 1e-8
    resid = (tmp_path / "transport_residuals.csv").read_text().splitlines()
    assert all(float(r.split(",")[1]) <= 1e-5 for r in resid[1:])
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["transport_routes"] == ["covariant", "covariant"]
    # t = 0 output equals the input samples bit-exactly
    u0 = load_signal(tmp_path / "u_0")
    grid = default_grid(256)
    assert np.array_equal(u0.values, gaussian(grid).values)


def test_cli_evolve_with_sigma(tmp_path):
    rc = main(["evolve", "--hamiltonian", "free", "--sigma",
               "0.3*exp(-(x^2+xi^2))", "--times", "0.1", "--u0", "hermite:1",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "conservation.csv").read_text().splitlines()
    assert abs(float(lines[1].split(",")[1]) - 1.0) <= 1e-8


def test_cli_evolve_one_eigendecomposition(tmp_path, monkeypatch):
    from metaplab.quantize import SymbolGrid
    from metaplab.schrodinger import Hamiltonian, propagate_perturbed
    from metaplab.symplectic import QuadraticHamiltonian

    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
    times = (0.0, 0.05, 0.1, 0.2, 0.4)
    rc = main(["evolve", "--n", "128", "--hamiltonian", "free", "--sigma",
               "0.3*exp(-(x^2+xi^2))", "--times", ",".join(map(str, times)),
               "--u0", "hermite:1", "--out", str(tmp_path)])
    assert rc == 0 and len(calls) == 1
    monkeypatch.undo()
    grid = default_grid(128)
    ax = grid.axes[0]
    sigma = SymbolGrid.from_function(compile_expression("0.3*exp(-(x^2+xi^2))", ("x", "xi")), ax)
    H = Hamiltonian(QuadraticHamiltonian.free_particle(), sigma)
    u0 = load_signal(tmp_path / "u_0")
    for t in times:
        u = load_signal(tmp_path / f"u_{fmt17(t)}")
        assert np.max(np.abs(u.values - propagate_perturbed(H, t, u0).values)) <= 1e-13


@pytest.mark.parametrize("sigma", ["1/x", "sqrt(0-1-x^2)"])
def test_cli_evolve_nonfinite_sigma_is_a_guard(tmp_path, sigma):
    with np.errstate(all="ignore"):
        rc = main(["evolve", "--n", "128", "--hamiltonian", "free", "--sigma", sigma,
                   "--times", "0.1", "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "conservation.csv").exists()


@pytest.mark.parametrize("args", [
    "--times 0.064,0.088 --u0 hermite:2 --check-tau 0.025",
    "--times 0.071,0.085 --u0 hermite:1 --check-tau 0.976",
    "--times 0.016,0.046,0.072,0.082 --u0 gaussian --check-tau 0.991",
    "--times 0.016,0.036,0.070,0.089 --u0 hermite:2 --check-tau 0.050",
])
def test_cli_evolve_check_tau_past_the_a13_chirp_guard(tmp_path, args):
    # the evolved form's A13 multiplier aliases at the last time: the check
    # falls back to the generator chain instead of exiting 3
    rc = main(["evolve", "--n", "256", "--hamiltonian", "free", *args.split(),
               "--out", str(tmp_path)])
    assert rc == 0
    resid = (tmp_path / "transport_residuals.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) <= 1e-5 for r in resid)
    routes = json.loads((tmp_path / "meta.json").read_text())["transport_routes"]
    assert len(routes) == len(resid) and routes[-1] == "chain"


def test_cli_evolve_check_tau_verdict(tmp_path):
    # residuals 1e-15, 1e-2 and 0.92: a failed identity is reported, exit stays 0
    rc = main(["evolve", "--n", "256", "--hamiltonian", "free", "--times", "0.1,0.3,1",
               "--u0", "hermite:1", "--check-tau", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["transport_verified"] == [True, False, False]


def test_cli_evolve_check_tau_irrational_grid(tmp_path):
    # N = 128 is self-dual with irrational L = sqrt(128)/2
    rc = main(["evolve", "--n", "128", "--times", "0.05", "--check-tau", "0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    resid = (tmp_path / "transport_residuals.csv").read_text().splitlines()
    values = [float(r.split(",")[1]) for r in resid[1:]]
    assert values and all(np.isfinite(v) and v <= 1e-5 for v in values)


def test_cli_signal_file_missing(tmp_path, capsys):
    rc = main(["wigner", "--signal", f"file:{tmp_path / 'nosuch'}", "--out", str(tmp_path)])
    assert rc == 2
    assert "cannot read signal file" in capsys.readouterr().err


def test_cli_signal_file_bad_header(tmp_path, capsys):
    (tmp_path / "sig.json").write_text(json.dumps({"kind": "signal", "dim": 1}))
    (tmp_path / "sig.bin").write_bytes(b"")
    rc = main(["wigner", "--signal", f"file:{tmp_path / 'sig'}", "--out", str(tmp_path)])
    assert rc == 2
    assert "'axes'" in capsys.readouterr().err
    (tmp_path / "sig.json").write_text("{not json")
    rc = main(["wigner", "--signal", f"file:{tmp_path / 'sig'}", "--out", str(tmp_path)])
    assert rc == 2


def test_loaders_name_the_missing_header_key(tmp_path):
    (tmp_path / "s.json").write_text(json.dumps({"kind": "signal"}))
    with pytest.raises(ValueError, match="'axes'"):
        load_signal(tmp_path / "s")
    (tmp_path / "f.json").write_text(json.dumps({"kind": "field", "axes": [{"N": 16}]}))
    with pytest.raises(ValueError, match="'L'"):
        load_field(tmp_path / "f")
    (tmp_path / "g.json").write_text(json.dumps({"kind": "field", "axes": [{"N": 16, "L": 2.0}]}))
    with pytest.raises(ValueError, match="two axes"):
        load_field(tmp_path / "g")
    (tmp_path / "t.json").write_text(json.dumps({"kind": "signal", "axes": [{"N": "16", "L": 2.0}]}))
    with pytest.raises(ValueError, match="integer 'N'"):
        load_signal(tmp_path / "t")


def test_cli_gaborscan(tmp_path):
    rc = main(["gaborscan", "--operator", "fourier", "--window", "gaussian",
               "--lattice", "0.5,0.5,4", "--out", str(tmp_path)])
    assert rc == 0
    env = json.loads((tmp_path / "envelope.json").read_text())
    assert env["slope"] < -0.5
    shells = (tmp_path / "shells.csv").read_text().splitlines()
    assert shells[0] == "k_sup,shell_max"
    # identity operator with chi estimation recovers chi ~ I
    rc = main(["gaborscan", "--operator", "identity", "--window", "gaussian",
               "--lattice", "0.5,0.5,4", "--estimate-chi", "--out", str(tmp_path)])
    assert rc == 0
    env = json.loads((tmp_path / "envelope.json").read_text())
    chi = np.array(env["chi"])
    assert np.linalg.norm(chi - np.eye(2)) <= 1e-3
    # missing window is a validation error
    assert main(["gaborscan", "--operator", "fourier", "--window", "",
                 "--out", str(tmp_path)]) == 2


def test_cli_wfs(tmp_path):
    rc = main(["wfs", "--signal", "gaussian", "--rep", "tau:0.5", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "wavefront.json").read_text())
    assert rep["singular_bins"] == []
    rc = main(["wfs", "--signal", "sign-gaussian", "--rep", "tau:0.5", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "wavefront.json").read_text())
    angles = rep["singular_angles_deg"]
    assert angles and all(min(abs(a - 90), abs(a - 270)) < 25 for a in angles)
    # tiny grid: inconclusive flags present, exit code still 0
    rc = main(["wfs", "--signal", "gaussian", "--n", "16", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "wavefront.json").read_text())
    assert len(rep["inconclusive_bins"]) > 0


def test_cli_wfs_matrix_rep(tmp_path):
    # the tau = 1/2 matrix through the chain flags the same cones as tau:0.5
    path = tmp_path / "tau.json"
    path.write_text(matrix_to_json(tau_matrix(0.5)))
    for signal, want in (("sign-gaussian", [15, 16, 47, 48]), ("gaussian", [])):
        rc = main(["wfs", "--signal", signal, "--rep", f"matrix:{path}", "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "wavefront.json").read_text())
        assert rep["singular_bins"] == want, signal


def test_cli_wfs_params_name_the_route(tmp_path):
    # params carry represent's route and Moyal deviation, never a Python repr
    path = tmp_path / "tau.json"
    path.write_text(matrix_to_json(tau_matrix(0.5)))
    for rep, route in (("cov:0.3,0.2,-0.1", "covariant"), (f"matrix:{path}", "chain"),
                       ("stft", "stft")):
        assert main(["wfs", "--n", "64", "--rep", rep, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "wavefront.json").read_text()
        assert "array(" not in text and "CovariantForm" not in text, rep
        params = json.loads(text)["params"]
        assert "rep" not in params
        assert params["route"] == route
        assert 0.0 <= params["moyal_deviation"] < 1e-6, rep


def test_cli_wigner_meta_names_the_route(tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(matrix_to_json(tau_matrix(0.5)))
    for rep, route in (("tau:0.5", "covariant"), ("cov:0.3,0.2,-0.1", "covariant"),
                       ("stft", "stft"), (f"matrix:{path}", "chain")):
        assert main(["wigner", "--n", "64", "--rep", rep, "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["rep"] == rep and meta["route"] == route


def test_cli_evolve_check_tau_refuses_sigma(tmp_path, capsys):
    # the transport check holds for quadratic flows only; it is refused, not dropped
    rc = main(["evolve", "--n", "64", "--sigma", "0.3*exp(-(x^2+xi^2))",
               "--check-tau", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--check-tau" in err and "--sigma" in err
    assert not (tmp_path / "meta.json").exists()


def test_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["wigner", "--signal", "two-bump", "--rep", "tau:0.25",
                     "--out", str(out)]) == 0
        assert main(["gaborscan", "--operator", "fourier", "--window", "gaussian",
                     "--lattice", "0.5,0.5,3", "--out", str(out)]) == 0
    for name in ("field.json", "field.bin", "field.csv", "meta.json",
                 "envelope.json", "shells.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
