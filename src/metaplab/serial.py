"""Serialization: JSON headers with raw binary sidecars, plot-ready CSV.

Complex arrays are stored as little-endian interleaved float64 (re, im)
next to a JSON header describing the grid; floats in JSON and CSV are
written with 17 significant digits so that two runs of the same
configuration produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .signals import Axis, Grid, GridSignal, PhaseSpaceField
from .symplectic import SymplecticMatrix

__all__ = [
    "fmt17",
    "save_signal",
    "load_signal",
    "save_field",
    "load_field",
    "save_operator_matrix",
    "load_operator_matrix",
    "matrix_to_json",
    "matrix_from_json",
    "signal_csv",
    "field_csv",
    "dumps_deterministic",
]


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def dumps_deterministic(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats."""

    def convert(o):
        if isinstance(o, dict):
            return {str(k): convert(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [convert(v) for v in o]
        if isinstance(o, (np.floating, float)):
            return float(fmt17(float(o)))
        if isinstance(o, (np.integer, int)):
            return int(o)
        if isinstance(o, np.ndarray):
            return convert(o.tolist())
        if isinstance(o, complex):
            return {"re": float(fmt17(o.real)), "im": float(fmt17(o.imag))}
        return o

    return json.dumps(convert(obj), sort_keys=True, indent=1)


def _with_ext(base: Path, ext: str) -> Path:
    # append rather than Path.with_suffix: stems like "u_0.05" contain dots
    return base.parent / (base.name + ext)


def _write_complex(path: Path, values: np.ndarray) -> None:
    inter = np.empty(values.size * 2, dtype="<f8")
    flat = values.ravel()
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    path.write_bytes(inter.tobytes())


def _read_complex(path: Path, count: int) -> np.ndarray:
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    if raw.size != 2 * count:
        raise ValueError(f"binary sidecar holds {raw.size // 2} samples, expected {count}")
    return raw[0::2] + 1j * raw[1::2]


def _axis_header(ax: Axis) -> dict:
    return {"N": ax.n, "L": float(fmt17(ax.half_width))}


def save_signal(path, sig: GridSignal) -> None:
    """Write `<path>.json` header and `<path>.bin` sidecar."""
    base = Path(path)
    header = {
        "kind": "signal",
        "dim": sig.grid.dim,
        "axes": [_axis_header(ax) for ax in sig.grid.axes],
        "dtype": "c128",
    }
    _with_ext(base, ".json").write_text(dumps_deterministic(header) + "\n")
    _write_complex(_with_ext(base, ".bin"), sig.values)


def _read_header(base: Path, kind: str, keys=("axes",)) -> dict:
    """The JSON header of `base`, checked for its kind and its keys."""
    header = json.loads(_with_ext(base, ".json").read_text())
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise ValueError(f"{base}: not a {kind} header")
    for key in keys:
        if key not in header:
            raise ValueError(f"{base}: {kind} header has no {key!r}")
    return header


def _axes_from_header(base: Path, header: dict) -> tuple[Axis, ...]:
    entries = header["axes"]
    if not isinstance(entries, list):
        raise ValueError(f"{base}: header 'axes' must be a list")
    for i, entry in enumerate(entries):
        for key in ("N", "L"):
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f"{base}: header axis {i} has no {key!r}")
        # exact types: bool is an int subclass but no grid size
        if type(entry["N"]) is not int or type(entry["L"]) not in (int, float):
            raise ValueError(f"{base}: header axis {i} needs an integer 'N' and a number 'L'")
    return tuple(Axis(entry["N"], entry["L"]) for entry in entries)


def load_signal(path) -> GridSignal:
    base = Path(path)
    header = _read_header(base, "signal")
    axes = _axes_from_header(base, header)
    count = int(np.prod([ax.n for ax in axes]))
    vals = _read_complex(_with_ext(base, ".bin"), count)
    return GridSignal(Grid(axes), vals.reshape([ax.n for ax in axes]))


def save_field(path, F: PhaseSpaceField) -> None:
    base = Path(path)
    header = {
        "kind": "field",
        "dim": 2,
        "axes": [_axis_header(F.x_axis), _axis_header(F.xi_axis)],
        "dtype": "c128",
    }
    _with_ext(base, ".json").write_text(dumps_deterministic(header) + "\n")
    _write_complex(_with_ext(base, ".bin"), F.values)


def load_field(path) -> PhaseSpaceField:
    base = Path(path)
    header = _read_header(base, "field")
    axes = _axes_from_header(base, header)
    if len(axes) != 2:
        raise ValueError(f"{base}: field header needs two axes, got {len(axes)}")
    ax1, ax2 = axes
    vals = _read_complex(_with_ext(base, ".bin"), ax1.n * ax2.n)
    return PhaseSpaceField(ax1, ax2, vals.reshape(ax1.n, ax2.n))


def save_operator_matrix(path, matrix: np.ndarray, axes) -> None:
    base = Path(path)
    header = {
        "kind": "operator",
        "shape": list(matrix.shape),
        "axes": [_axis_header(ax) for ax in axes],
        "dtype": "c128",
    }
    _with_ext(base, ".json").write_text(dumps_deterministic(header) + "\n")
    _write_complex(_with_ext(base, ".bin"), matrix)


def load_operator_matrix(path) -> tuple[np.ndarray, tuple[Axis, ...]]:
    base = Path(path)
    header = _read_header(base, "operator", ("shape", "axes"))
    shape = tuple(header["shape"])
    vals = _read_complex(_with_ext(base, ".bin"), int(np.prod(shape)))
    axes = _axes_from_header(base, header)
    return vals.reshape(shape), axes


def matrix_to_json(M) -> str:
    """Symplectic (or plain real) matrix as {"n": ..., "rows": [[...]]}."""
    mat = M.mat if isinstance(M, SymplecticMatrix) else np.asarray(M, dtype=float)
    rows = [[float(fmt17(v)) for v in row] for row in mat]
    return json.dumps({"n": mat.shape[0] // 2, "rows": rows}, sort_keys=True)


def matrix_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    return np.array(data["rows"], dtype=float)


def signal_csv(path, sig: GridSignal) -> None:
    """Columns x, re, im."""
    if sig.grid.dim != 1:
        raise ValueError("CSV export expects a 1-D signal")
    lines = ["x,re,im"]
    for x, v in zip(sig.grid.axes[0].points(), sig.values):
        lines.append(f"{fmt17(x)},{fmt17(v.real)},{fmt17(v.imag)}")
    Path(path).write_text("\n".join(lines) + "\n")


def field_csv(path, F: PhaseSpaceField) -> None:
    """Columns x, xi, re, im, abs."""
    xs = F.x_axis.points()
    xis = F.xi_axis.points()
    lines = ["x,xi,re,im,abs"]
    for i, x in enumerate(xs):
        for j, xi in enumerate(xis):
            v = F.values[i, j]
            lines.append(
                f"{fmt17(x)},{fmt17(xi)},{fmt17(v.real)},{fmt17(v.imag)},{fmt17(abs(v))}"
            )
    Path(path).write_text("\n".join(lines) + "\n")
