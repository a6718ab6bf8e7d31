"""Command-line front end: synthesis, analysis pipelines, plot-ready output.

Subcommands: `wigner` (time-frequency fields), `evolve` (propagation with
conservation and transport checks), `gaborscan` (Gabor-matrix decay
envelopes), `wfs` (wave-front reports).  Configuration is one JSON document;
explicit flags override config fields, and --dump-config prints the
effective configuration without running.  Identical configurations produce
byte-identical outputs.

Numbers enter through `_numbers` and the field checks of `_merge_config`, and
leave through the `serial` writers, which refuse nan and inf.  Exit codes: 0
success (every written number finite), 2 validation error (non-finite input
included), 3 numeric guard trip.
"""

from __future__ import annotations

import argparse
import json
import math
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
    write_csv,
    write_json,
)
from .signals import (
    GridError,
    SamplingError,
    _check_bytes,
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
from .wigner import represent

__all__ = ["main"]


class ValidationError(ValueError):
    pass


def _numbers(text, count, what, sep=",", allow_inf=False) -> list[float]:
    """Exactly `count` numbers in `text` split at `sep`, or with `count` None
    any number of them, empty tokens skipped.  nan is refused, inf too unless
    `allow_inf`; `what` names the expected form."""
    try:
        vals = [float(tok) for tok in str(text).split(sep) if tok or count is not None]
    except ValueError as e:
        raise ValidationError(f"{what}, got {text!r}") from e
    if count is not None and len(vals) != count:
        raise ValidationError(f"{what}, got {text!r}")
    if any(math.isnan(v) or (math.isinf(v) and not allow_inf) for v in vals):
        raise ValidationError(f"{what}, got {text!r}: numbers must be finite")
    return vals


def _read_matrix(path: str, side: int) -> SymplecticMatrix:
    try:
        M = matrix_from_json(Path(path).read_text())
    except (OSError, ValueError) as e:  # ValueError covers JSONDecodeError
        raise ValidationError(f"cannot read matrix file {path!r}: {e}") from e
    if M.shape != (side, side):
        raise ValidationError(f"matrix file {path!r} must hold a {side}x{side} matrix")
    return SymplecticMatrix(M)


def _parse_signal(spec: str, grid):
    name, _, arg = spec.partition(":")
    if name == "gaussian":
        return gaussian(grid)
    if name == "hermite":
        try:
            order = int(arg or "0")
        except ValueError as e:
            raise ValidationError(f"bad hermite order {arg!r}") from e
        if order < 0:
            raise ValidationError(f"hermite order must be >= 0, got {order}")
        return hermite(grid, order)
    if name == "sign-gaussian":
        return sign_gaussian(grid)
    if name == "two-bump":
        if arg:
            return two_bump(grid, *_numbers(arg, 2, "two-bump wants 'x0,xi0'"))
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
    """The representation spec `wigner.represent` takes for a --rep value."""
    name, _, arg = spec.partition(":")
    if name == "tau":
        (tau,) = _numbers(arg, 1, "tau wants one number")
        if not 0.0 <= tau <= 1.0:
            raise ValidationError(f"tau must lie in [0, 1], got {tau}")
        return CovariantForm.tau(tau)
    if name == "stft":
        return "stft"
    if name == "cov":
        a11, a13, a21 = _numbers(arg, 3, "cov wants 'a11,a13,a21'")
        return CovariantForm(np.array([[a11]]), np.array([[a13]]), np.array([[a21]]))
    if name == "matrix":
        return _read_matrix(arg, 4)
    raise ValidationError(f"unknown representation {spec!r}")


def _merge_config(defaults: dict, config_path: str | None, cli_pairs: dict) -> dict:
    effective, loaded = dict(defaults), {}
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
    # config values, then the flags that override them, through the same checks
    for key, value in [*loaded.items(), *cli_pairs.items()]:
        if value is None:
            continue  # null keeps the default, as an absent flag does
        if isinstance(value, (list, dict)):
            raise ValidationError(f"{key} must be a string or a number, got {value!r}")
        kind, ok, rule = _TYPED.get(key, (str, None, None))
        try:
            value = kind(value)
        except (ValueError, OverflowError) as e:
            raise ValidationError(f"{key}: {e}") from e
        if ok is not None and not ok(value):
            raise ValidationError(f"{key} must be {rule}, got {value}")
        effective[key] = value
    return effective


def _boolean(value) -> bool:
    """JSON true/false, or 0 and 1 as older dumps wrote them."""
    if isinstance(value, bool) or (isinstance(value, int) and value in (0, 1)):
        return bool(value)
    raise ValueError(f"must be true or false, got {value!r}")


def _grid_from(cfg: dict):
    # every command builds at least one n x n complex array
    _check_bytes(f"--n {cfg['n']}", 16 * cfg["n"] ** 2)
    return default_grid(cfg["n"], cfg.get("half_width"))


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_wigner(cfg: dict) -> int:
    """time-frequency field of a signal"""
    grid = _grid_from(cfg)
    f = _parse_signal(cfg["signal"], grid)
    F, route, moyal_deviation = represent(_parse_rep(cfg["rep"]), f)
    out = _out_dir(cfg)
    save_field(out / "field", F)
    field_csv(out / "field.csv", F)
    write_json(out / "meta.json", {
        "signal": cfg["signal"],
        "rep": cfg["rep"],
        "route": route,
        "signal_norm": f.norm(),
        "field_norm": F.norm(),
        "moyal_deviation": moyal_deviation,
        "max_abs": np.max(np.abs(F.values)),
    })
    return 0


def _symbol(text: str, ax, what: str) -> SymbolGrid:
    try:
        fn = compile_expression(text, ("x", "xi"))
    except ExprError as e:
        raise ValidationError(f"{what} expression: {e}") from e
    return SymbolGrid.from_function(fn, ax)


def _parse_hamiltonian(spec: str) -> QuadraticHamiltonian:
    name, _, arg = spec.partition(":")
    if name == "free":
        return QuadraticHamiltonian.free_particle()
    if name == "harmonic":
        return QuadraticHamiltonian.harmonic()
    if name == "quad":
        a, b, c = _numbers(arg, 3, "quad wants 'A,B,C'")
        return QuadraticHamiltonian(np.array([[a]]), np.array([[b]]), np.array([[c]]))
    raise ValidationError(f"unknown hamiltonian {spec!r}")


def cmd_evolve(cfg: dict) -> int:
    """propagate under a Hamiltonian"""
    grid = _grid_from(cfg)
    ax = grid.axes[0]
    u0 = _parse_signal(cfg["u0"], grid)
    quad = _parse_hamiltonian(cfg["hamiltonian"])
    sigma = _symbol(cfg["sigma"], ax, "sigma") if cfg.get("sigma") else None
    H = Hamiltonian(quad, sigma)
    times = _numbers(cfg["times"], None, "times wants 't1,t2,...'")
    if not times:
        raise ValidationError("times wants at least one time")
    check_tau = cfg.get("check_tau")
    if check_tau is not None and sigma is not None:
        raise ValidationError("--check-tau needs a quadratic flow: drop --sigma")
    out = _out_dir(cfg)
    M = hamiltonian_matrix(H, ax)
    states = [u0.with_values(vals) for vals in _flow(M, u0.values, times)]
    for t, u in zip(times, states):
        save_signal(out / f"u_{fmt17(t)}", u)
    norms = [u.norm() for u in states]
    energies = [complex(np.vdot(u.values, M @ u.values) * ax.step) for u in states]
    write_csv(out / "conservation.csv", ("t", "norm", "energy_re", "energy_im"),
              (times, norms, [e.real for e in energies], [e.imag for e in energies]))
    meta = {"hamiltonian": cfg["hamiltonian"], "times": times,
            "unitarity_max_dev": max(abs(nrm - u0.norm()) for nrm in norms)}
    if check_tau is not None:
        checks = [evolved_wigner_check(quad, check_tau, t, u0) for t in times]
        write_csv(out / "transport_residuals.csv", ("t", "residual"),
                  (times, [c["residual"] for c in checks]))
        meta["transport_check_tau"] = check_tau
        meta["transport_routes"] = [c["route"] for c in checks]
        meta["transport_verified"] = [c["verified"] for c in checks]
    write_json(out / "meta.json", meta)
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
        return weyl(_symbol(arg, ax, "weyl symbol"), ax), np.eye(2)
    if name == "matrix":
        chi = _read_matrix(arg, 2)
        return DenseOperator(dense_matrix(chi, ax), (ax,), "signal"), chi.mat
    raise ValidationError(f"unknown operator {spec!r}")


def cmd_gaborscan(cfg: dict) -> int:
    """Gabor matrix decay envelope"""
    grid = _grid_from(cfg)
    if not cfg.get("window"):
        raise ValidationError("gaborscan needs a window specification")
    window = _parse_signal(cfg["window"], grid)
    T, chi_guess = _parse_operator(cfg, grid)
    dx, dxi, radius = _numbers(cfg["lattice"], 3, "lattice wants 'dx,dxi,R'")
    lattice = GaborLattice.separable(dx, dxi, radius)
    qs = []
    for tok in str(cfg["qs"]).split(","):
        if tok:
            q, s = _numbers(tok, 2, "qs wants 'q:s' pairs", sep=":", allow_inf=True)
            if not (q > 0 and math.isfinite(s)):
                raise ValidationError(f"qs wants q > 0 and a finite s, got {tok!r}")
            qs.append((q, s))
    data = gabor_matrix(T, window, lattice)
    chi = None if cfg.get("estimate_chi") else chi_guess
    report = envelope_fit(data, chi=chi, qs=tuple(qs) or ((1.0, 0.0),))
    out = _out_dir(cfg)
    radii, vals = report.shell_radii_and_values()
    write_csv(out / "shells.csv", ("k_sup", "shell_max"), (radii.astype(np.int64), vals))
    write_json(out / "envelope.json", {
        "chi": report.chi,
        "chi_estimated": report.chi_estimated,
        "slope": report.slope,
        "tail_estimate": report.tail_estimate,
        "norms": {f"q={fmt17(q)},s={fmt17(s)}": v for (q, s), v in report.norms.items()},
        "lattice": {"dx": dx, "dxi": dxi, "radius": radius},
    })
    return 0


def cmd_wfs(cfg: dict) -> int:
    """wave front report"""
    grid = _grid_from(cfg)
    f = _parse_signal(cfg["signal"], grid)
    report = wavefront(f, rep=_parse_rep(cfg["rep"]), n_bins=cfg["bins"], r0=cfg["r0"])
    out = _out_dir(cfg)
    orders = np.array(report.orders, dtype=np.int64)
    write_csv(out / "cones.csv", ("angle_rad", "order", "integral"),
              (np.repeat(report.angles, orders.size), np.tile(orders, report.angles.size),
               report.integrals.ravel()))
    singular = report.singular_bins()
    write_json(out / "wavefront.json", {
        "signal": cfg["signal"],
        "rep": cfg["rep"],
        "threshold": report.threshold,
        "singular_bins": singular,
        "singular_angles_deg": np.degrees(report.angles[singular]),
        "inconclusive_bins": np.where(report.inconclusive)[0],
        "params": report.params,
        "slopes": [s if np.isfinite(s) else None for s in report.slopes],
    })
    return 0


_GRID_OUT = {"n": 256, "half_width": None, "out": "."}  # every command's last fields
_DEFAULTS = {
    "wigner": {"signal": "gaussian", "rep": "tau:0.5", **_GRID_OUT},
    "evolve": {"hamiltonian": "free", "sigma": None, "times": "0.02,0.05,0.1",
               "u0": "gaussian", "check_tau": None, **_GRID_OUT},
    "gaborscan": {"operator": "fourier", "window": "gaussian", "lattice": "0.5,0.5,5",
                  "qs": "1:0,0.5:0,1:1", "estimate_chi": False, **_GRID_OUT},
    "wfs": {"signal": "gaussian", "rep": "tau:0.5", "bins": 64, "r0": 2.0, **_GRID_OUT},
}

# the fields that are not strings: type, the test each value must pass, and
# the test in words; only check_tau may be any finite number
_TYPED = {
    "n": (int, lambda v: v > 0 and v % 2 == 0, "a positive even integer"),
    "bins": (int, lambda v: v >= 1, ">= 1"),
    "half_width": (float, lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    "r0": (float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    "check_tau": (float, math.isfinite, "finite"),
    "estimate_chi": (_boolean, None, None),
}

_RUNNERS = {
    "wigner": cmd_wigner,
    "evolve": cmd_evolve,
    "gaborscan": cmd_gaborscan,
    "wfs": cmd_wfs,
}


_FLAG_HELP = {"out": "output directory", "n": "grid size (even)",
              "half_width": "grid half width (default self-dual)"}


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per runner, one flag per config field."""
    p = argparse.ArgumentParser(prog="metaplab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, run in _RUNNERS.items():
        sp = sub.add_parser(command, help=run.__doc__)
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        sp.add_argument("--dump-config", action="store_true", help="print the effective config and exit")
        for key in _DEFAULTS[command]:
            flag = "--" + key.replace("_", "-")
            kind = _TYPED.get(key, (str,))[0]
            if kind is _boolean:
                sp.add_argument(flag, dest=key, action="store_const", const=True)
            else:
                sp.add_argument(flag, dest=key, type=kind, help=_FLAG_HELP.get(key))
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    cli_pairs = {k: v for k, v in vars(args).items() if k not in ("command", "config", "dump_config")}
    try:
        cfg = _merge_config(_DEFAULTS[command], args.config, cli_pairs)
        if args.dump_config:
            sys.stdout.write(dumps_deterministic({"command": command, **cfg}) + "\n")
            return 0
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
