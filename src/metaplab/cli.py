"""Command-line front end: synthesis, analysis pipelines, plot-ready output.

Subcommands: `wigner` (time-frequency fields), `evolve` (propagation with
conservation and transport checks), `gaborscan` (Gabor-matrix decay
envelopes), `wfs` (wave-front reports).  Configuration is one JSON document;
explicit flags override config fields, and --dump-config prints the
effective configuration without running.  Identical configurations produce
byte-identical outputs.

Exit codes: 0 success, 2 validation error, 3 numeric guard trip.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .exprparse import ExprError, compile_expression
from .gabor import FrameError, GaborLattice, envelope_fit, gabor_matrix
from .metaplectic import DecompositionError, dense_matrix
from .quantize import DenseOperator, SymbolGrid, weyl
from .schrodinger import (
    Hamiltonian,
    _flow,
    evolved_wigner_check,
    hamiltonian_matrix,
    wavefront,
)
from .serial import (
    dumps_deterministic,
    field_csv,
    fmt17,
    load_signal,
    matrix_from_json,
    save_field,
    save_signal,
)
from .signals import (
    GridError,
    SamplingError,
    default_grid,
    gaussian,
    hermite,
    sign_gaussian,
    two_bump,
)
from .symplectic import (
    CovariantForm,
    QuadraticHamiltonian,
    SymplecticError,
    SymplecticMatrix,
    standard_J,
)
from .wigner import stft, tau_wigner, wigner_A_covariant

__all__ = ["main"]


class ValidationError(ValueError):
    pass


def _parse_signal(spec: str, grid):
    name, _, arg = spec.partition(":")
    if name == "gaussian":
        return gaussian(grid)
    if name == "hermite":
        try:
            return hermite(grid, int(arg or "0"))
        except ValueError as e:
            raise ValidationError(f"bad hermite order {arg!r}") from e
    if name == "sign-gaussian":
        return sign_gaussian(grid)
    if name == "two-bump":
        if arg:
            try:
                x0, xi0 = (float(tok) for tok in arg.split(","))
            except ValueError as e:
                raise ValidationError(f"two-bump wants 'x0,xi0', got {arg!r}") from e
            return two_bump(grid, x0, xi0)
        return two_bump(grid)
    if name == "file":
        try:
            sig = load_signal(arg)
        except (OSError, ValueError) as e:
            # ValueError covers JSONDecodeError, bad headers and bad grids
            raise ValidationError(f"cannot read signal file {arg!r}: {e}") from e
        if sig.grid.axes != grid.axes:
            raise ValidationError("signal file grid does not match the configured grid")
        return sig
    raise ValidationError(f"unknown signal {spec!r}")


def _parse_rep(spec: str):
    name, _, arg = spec.partition(":")
    if name == "tau":
        try:
            tau = float(arg)
        except ValueError as e:
            raise ValidationError(f"bad tau value {arg!r}") from e
        if not 0.0 <= tau <= 1.0:
            raise ValidationError(f"tau must lie in [0, 1], got {tau}")
        return ("tau", tau)
    if name == "stft":
        return ("stft", None)
    if name == "cov":
        try:
            a11, a13, a21 = (float(tok) for tok in arg.split(","))
        except ValueError as e:
            raise ValidationError(f"cov wants 'a11,a13,a21', got {arg!r}") from e
        return ("cov", CovariantForm(np.array([[a11]]), np.array([[a13]]), np.array([[a21]])))
    if name == "matrix":
        try:
            M = matrix_from_json(Path(arg).read_text())
        except (OSError, json.JSONDecodeError, KeyError) as e:
            raise ValidationError(f"cannot read matrix file {arg!r}: {e}") from e
        return ("matrix", SymplecticMatrix(M))
    raise ValidationError(f"unknown representation {spec!r}")


def _merge_config(defaults: dict, config_path: str | None, cli_pairs: dict) -> dict:
    effective = dict(defaults)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ValidationError(f"config file {config_path!r}: {e}") from e
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ValidationError(f"unknown config fields: {', '.join(unknown)}")
        effective.update(loaded)
    for key, value in cli_pairs.items():
        if value is not None:
            effective[key] = value
    return effective


def _grid_from(cfg: dict):
    n = int(cfg["n"])
    grid = default_grid(n, cfg.get("half_width"))
    return grid


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_wigner(cfg: dict) -> int:
    grid = _grid_from(cfg)
    f = _parse_signal(cfg["signal"], grid)
    kind, arg = _parse_rep(cfg["rep"])
    window = gaussian(grid)
    if kind == "tau":
        F = tau_wigner(f, f, arg)
    elif kind == "stft":
        F = stft(f, window)
    elif kind == "cov":
        F = wigner_A_covariant(arg, f, f)
    else:
        from .wigner import wigner_A

        F = wigner_A(arg, f, f)
    out = _out_dir(cfg)
    save_field(out / "field", F)
    field_csv(out / "field.csv", F)
    gnorm = window.norm() if kind == "stft" else f.norm()
    meta = {
        "signal": cfg["signal"],
        "rep": cfg["rep"],
        "signal_norm": f.norm(),
        "field_norm": F.norm(),
        "moyal_deviation": abs(F.norm() - f.norm() * gnorm),
        "max_abs": float(np.max(np.abs(F.values))),
    }
    (out / "meta.json").write_text(dumps_deterministic(meta) + "\n")
    return 0


def _parse_hamiltonian(cfg: dict):
    spec = cfg["hamiltonian"]
    name, _, arg = spec.partition(":")
    if name == "free":
        quad = QuadraticHamiltonian.free_particle()
    elif name == "harmonic":
        quad = QuadraticHamiltonian.harmonic()
    elif name == "quad":
        try:
            a, b, c = (float(tok) for tok in arg.split(","))
        except ValueError as e:
            raise ValidationError(f"quad wants 'A,B,C', got {arg!r}") from e
        quad = QuadraticHamiltonian(np.array([[a]]), np.array([[b]]), np.array([[c]]))
    else:
        raise ValidationError(f"unknown hamiltonian {spec!r}")
    sigma = None
    if cfg.get("sigma"):
        try:
            fn = compile_expression(cfg["sigma"], ("x", "xi"))
        except ExprError as e:
            raise ValidationError(f"sigma expression: {e}") from e
        sigma = fn
    return quad, sigma


def cmd_evolve(cfg: dict) -> int:
    grid = _grid_from(cfg)
    ax = grid.axes[0]
    u0 = _parse_signal(cfg["u0"], grid)
    quad, sigma_fn = _parse_hamiltonian(cfg)
    sigma = SymbolGrid.from_function(sigma_fn, ax) if sigma_fn is not None else None
    H = Hamiltonian(quad, sigma)
    try:
        times = [float(t) for t in str(cfg["times"]).split(",") if t != ""]
    except ValueError as e:
        raise ValidationError(f"bad times list {cfg['times']!r}") from e
    out = _out_dir(cfg)
    M = hamiltonian_matrix(H, ax)
    lines = ["t,norm,energy_re,energy_im"]
    norms = []
    for t, vals in zip(times, _flow(M, u0.values, times)):
        u = u0.with_values(vals)
        energy = complex(np.vdot(vals, M @ vals) * ax.step)
        norms.append(u.norm())
        save_signal(out / f"u_{fmt17(t)}", u)
        lines.append(f"{fmt17(t)},{fmt17(norms[-1])},{fmt17(energy.real)},{fmt17(energy.imag)}")
    (out / "conservation.csv").write_text("\n".join(lines) + "\n")
    check_tau = cfg.get("check_tau")
    meta = {"hamiltonian": cfg["hamiltonian"], "times": times,
            "unitarity_max_dev": max(abs(nrm - u0.norm()) for nrm in norms)}
    if check_tau is not None and sigma is None:
        rows = ["t,residual"]
        for t in times:
            res = evolved_wigner_check(quad, float(check_tau), t, u0)
            rows.append(f"{fmt17(t)},{fmt17(res['residual'])}")
        (out / "transport_residuals.csv").write_text("\n".join(rows) + "\n")
        meta["transport_check_tau"] = float(check_tau)
    (out / "meta.json").write_text(dumps_deterministic(meta) + "\n")
    return 0


def _parse_operator(cfg: dict, grid):
    spec = cfg["operator"]
    ax = grid.axes[0]
    name, _, arg = spec.partition(":")
    if name == "identity":
        return DenseOperator(np.eye(ax.n), (ax,), "signal"), np.eye(2)
    if name == "fourier":
        J = SymplecticMatrix(standard_J(1))
        return DenseOperator(dense_matrix(J, ax), (ax,), "signal"), J.mat
    if name == "weyl":
        try:
            fn = compile_expression(arg, ("x", "xi"))
        except ExprError as e:
            raise ValidationError(f"weyl symbol expression: {e}") from e
        return weyl(SymbolGrid.from_function(fn, ax), ax), np.eye(2)
    if name == "matrix":
        try:
            M = matrix_from_json(Path(arg).read_text())
        except (OSError, json.JSONDecodeError, KeyError) as e:
            raise ValidationError(f"cannot read matrix file {arg!r}: {e}") from e
        chi = SymplecticMatrix(M)
        return DenseOperator(dense_matrix(chi, ax), (ax,), "signal"), chi.mat
    raise ValidationError(f"unknown operator {spec!r}")


def cmd_gaborscan(cfg: dict) -> int:
    grid = _grid_from(cfg)
    if not cfg.get("window"):
        raise ValidationError("gaborscan needs a window specification")
    window = _parse_signal(cfg["window"], grid)
    T, chi_guess = _parse_operator(cfg, grid)
    try:
        dx, dxi, radius = (float(tok) for tok in str(cfg["lattice"]).split(","))
    except ValueError as e:
        raise ValidationError(f"lattice wants 'dx,dxi,R', got {cfg['lattice']!r}") from e
    lattice = GaborLattice.separable(dx, dxi, radius)
    qs = []
    for tok in str(cfg["qs"]).split(","):
        if not tok:
            continue
        try:
            q, s = tok.split(":")
            qs.append((float(q), float(s)))
        except ValueError as e:
            raise ValidationError(f"qs wants 'q:s' pairs, got {tok!r}") from e
    data = gabor_matrix(T, window, lattice)
    chi = None if cfg.get("estimate_chi") else chi_guess
    report = envelope_fit(data, chi=chi, qs=tuple(qs) or ((1.0, 0.0),))
    out = _out_dir(cfg)
    radii, vals = report.shell_radii_and_values()
    rows = ["k_sup,shell_max"]
    for r, v in zip(radii, vals):
        rows.append(f"{int(r)},{fmt17(v)}")
    (out / "shells.csv").write_text("\n".join(rows) + "\n")
    payload = {
        "chi": [[float(fmt17(v)) for v in row] for row in report.chi],
        "chi_estimated": report.chi_estimated,
        "slope": report.slope,
        "tail_estimate": report.tail_estimate,
        "norms": {f"q={fmt17(q)},s={fmt17(s)}": v for (q, s), v in report.norms.items()},
        "lattice": {"dx": dx, "dxi": dxi, "radius": radius},
    }
    (out / "envelope.json").write_text(dumps_deterministic(payload) + "\n")
    return 0


def cmd_wfs(cfg: dict) -> int:
    grid = _grid_from(cfg)
    f = _parse_signal(cfg["signal"], grid)
    kind, arg = _parse_rep(cfg["rep"])
    if kind == "tau":
        rep = CovariantForm.tau(arg)
    elif kind == "cov":
        rep = arg
    elif kind == "stft":
        rep = "stft_global"
    else:
        raise ValidationError("wfs supports tau:<t>, cov:<blocks>, or stft representations")
    report = wavefront(
        f,
        rep=rep,
        n_bins=int(cfg["bins"]),
        r0=float(cfg["r0"]),
    )
    out = _out_dir(cfg)
    rows = ["angle_rad,order,integral"]
    for b, angle in enumerate(report.angles):
        for j, N in enumerate(report.orders):
            rows.append(f"{fmt17(angle)},{int(N)},{fmt17(report.integrals[b, j])}")
    (out / "cones.csv").write_text("\n".join(rows) + "\n")
    payload = {
        "signal": cfg["signal"],
        "rep": cfg["rep"],
        "threshold": report.threshold,
        "singular_bins": [int(b) for b in report.singular_bins()],
        "singular_angles_deg": [float(fmt17(np.degrees(report.angles[b]))) for b in report.singular_bins()],
        "inconclusive_bins": [int(b) for b in np.where(report.inconclusive)[0]],
        "params": {k: v for k, v in report.params.items()},
        "slopes": [float(fmt17(s)) if np.isfinite(s) else None for s in report.slopes],
    }
    (out / "wavefront.json").write_text(dumps_deterministic(payload) + "\n")
    return 0


_DEFAULTS = {
    "wigner": {"signal": "gaussian", "rep": "tau:0.5", "n": 256, "half_width": None, "out": "."},
    "evolve": {
        "hamiltonian": "free",
        "sigma": None,
        "times": "0.02,0.05,0.1",
        "u0": "gaussian",
        "check_tau": None,
        "n": 256,
        "half_width": None,
        "out": ".",
    },
    "gaborscan": {
        "operator": "fourier",
        "window": "gaussian",
        "lattice": "0.5,0.5,5",
        "qs": "1:0,0.5:0,1:1",
        "estimate_chi": False,
        "n": 256,
        "half_width": None,
        "out": ".",
    },
    "wfs": {"signal": "gaussian", "rep": "tau:0.5", "bins": 64, "r0": 2.0, "n": 256,
            "half_width": None, "out": "."},
}

_RUNNERS = {
    "wigner": cmd_wigner,
    "evolve": cmd_evolve,
    "gaborscan": cmd_gaborscan,
    "wfs": cmd_wfs,
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="metaplab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        sp.add_argument("--dump-config", action="store_true", help="print the effective config and exit")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--n", type=int, help="grid size (even)")
        sp.add_argument("--half-width", dest="half_width", type=float, help="grid half width (default self-dual)")

    sp = sub.add_parser("wigner", help="time-frequency field of a signal")
    add_common(sp)
    sp.add_argument("--signal")
    sp.add_argument("--rep")

    sp = sub.add_parser("evolve", help="propagate under a Hamiltonian")
    add_common(sp)
    sp.add_argument("--hamiltonian")
    sp.add_argument("--sigma")
    sp.add_argument("--times")
    sp.add_argument("--u0")
    sp.add_argument("--check-tau", dest="check_tau", type=float)

    sp = sub.add_parser("gaborscan", help="Gabor matrix decay envelope")
    add_common(sp)
    sp.add_argument("--operator")
    sp.add_argument("--window")
    sp.add_argument("--lattice")
    sp.add_argument("--qs")
    sp.add_argument("--estimate-chi", dest="estimate_chi", action="store_const", const=True)

    sp = sub.add_parser("wfs", help="wave front report")
    add_common(sp)
    sp.add_argument("--signal")
    sp.add_argument("--rep")
    sp.add_argument("--bins", type=int)
    sp.add_argument("--r0", type=float)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    cli_pairs = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config", "dump_config") and v is not None
    }
    try:
        cfg = _merge_config(_DEFAULTS[command], args.config, cli_pairs)
        if args.dump_config:
            sys.stdout.write(dumps_deterministic({"command": command, **cfg}) + "\n")
            return 0
        if cfg.get("n") is None or int(cfg["n"]) <= 0 or int(cfg["n"]) % 2:
            raise ValidationError(f"grid size must be a positive even integer, got {cfg.get('n')}")
        return _RUNNERS[command](cfg)
    except (SamplingError, GridError, DecompositionError) as e:
        # guard exceptions subclass ValueError, so they must match first
        sys.stderr.write(f"metaplab {command}: numeric guard: {e}\n")
        return 3
    except (ValidationError, SymplecticError, FrameError, ValueError) as e:
        sys.stderr.write(f"metaplab {command}: validation error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
