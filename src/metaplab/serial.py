"""Serialization: JSON headers with raw binary sidecars, plot-ready CSV.

Complex arrays are stored as little-endian interleaved float64 (re, im)
next to a JSON header describing the grid; floats in JSON and CSV are
written with 17 significant digits so that two runs of the same
configuration produce byte-identical files.  Every writer refuses a
non-finite number with `SamplingError` before it writes any file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .signals import Axis, Grid, GridSignal, PhaseSpaceField, SamplingError
from .symplectic import SymplecticMatrix

__all__ = [
    "fmt17",
    "save_signal",
    "load_signal",
    "save_field",
    "load_field",
    "matrix_to_json",
    "matrix_from_json",
    "signal_csv",
    "field_csv",
    "write_csv",
    "write_json",
    "dumps_deterministic",
]

# rows per `%`-format call of `write_csv`: one template for the whole table
# would hold the whole text in memory at once
_CSV_BLOCK = 4096


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def dumps_deterministic(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats; ValueError on nan or inf."""

    def convert(o):
        if isinstance(o, dict):
            return {str(k): convert(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [convert(v) for v in o]
        if isinstance(o, (np.floating, float)):
            return float(o)  # repr round-trips, as the 17-digit text does
        if isinstance(o, (np.bool_, bool)):  # before int: bool is an int
            return bool(o)
        if isinstance(o, (np.integer, int)):
            return int(o)
        if isinstance(o, np.ndarray):
            return convert(o.tolist())
        if isinstance(o, complex):
            return {"re": float(o.real), "im": float(o.imag)}
        return o

    return json.dumps(convert(obj), sort_keys=True, indent=1, allow_nan=False)


def _refuse_nonfinite(path, *arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise SamplingError(f"{path}: refusing to write a non-finite number")


def write_json(path, obj) -> None:
    """`obj` as deterministic JSON plus a newline; SamplingError on nan or inf."""
    try:
        text = dumps_deterministic(obj)
    except ValueError as e:
        raise SamplingError(f"{path}: refusing to write a non-finite number") from e
    Path(path).write_text(text + "\n")


def write_csv(path, header, columns) -> None:
    """Equal-length 1-D `columns` under the column names `header`.

    Integer columns are written with %d, float columns with the 17
    significant digits of `fmt17`.  SamplingError on nan or inf.
    """
    cols = [np.asarray(c) for c in columns]
    _refuse_nonfinite(path, *cols)
    row = ",".join("%d" if c.dtype.kind in "iub" else "%.17g" for c in cols) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(cols[0]), _CSV_BLOCK):
            block = [c[start:start + _CSV_BLOCK].tolist() for c in cols]
            fh.write((row * len(block[0])) % tuple(v for r in zip(*block) for v in r))


def _with_ext(base: Path, ext: str) -> Path:
    # append rather than Path.with_suffix: stems like "u_0.05" contain dots
    return base.parent / (base.name + ext)


def _save(path, header: dict, values) -> None:
    """`<path>.json` header and `<path>.bin` sidecar of interleaved (re, im)."""
    base = Path(path)
    _refuse_nonfinite(base, values)
    write_json(_with_ext(base, ".json"), {**header, "dtype": "c128"})
    _with_ext(base, ".bin").write_bytes(np.asarray(values, dtype="<c16").tobytes())


def _read_complex(path: Path, count: int) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) != 16 * count:
        raise ValueError(f"binary sidecar holds {len(raw) // 16} samples, expected {count}")
    # one complex read keeps signed zeros exact
    return np.frombuffer(raw, dtype="<c16").copy()


def _axis_header(ax: Axis) -> dict:
    return {"N": ax.n, "L": float(ax.half_width)}


def save_signal(path, sig: GridSignal) -> None:
    """Write `<path>.json` header and `<path>.bin` sidecar."""
    axes = [_axis_header(ax) for ax in sig.grid.axes]
    _save(path, {"kind": "signal", "dim": sig.grid.dim, "axes": axes}, sig.values)


def _read_header(base: Path, kind: str) -> dict:
    """The JSON header of `base`, checked for its kind and its axes."""
    header = json.loads(_with_ext(base, ".json").read_text())
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise ValueError(f"{base}: not a {kind} header")
    if "axes" not in header:
        raise ValueError(f"{base}: {kind} header has no 'axes'")
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
    axes = [_axis_header(F.x_axis), _axis_header(F.xi_axis)]
    _save(path, {"kind": "field", "dim": 2, "axes": axes}, F.values)


def load_field(path) -> PhaseSpaceField:
    base = Path(path)
    header = _read_header(base, "field")
    axes = _axes_from_header(base, header)
    if len(axes) != 2:
        raise ValueError(f"{base}: field header needs two axes, got {len(axes)}")
    ax1, ax2 = axes
    vals = _read_complex(_with_ext(base, ".bin"), ax1.n * ax2.n)
    return PhaseSpaceField(ax1, ax2, vals.reshape(ax1.n, ax2.n))


def matrix_to_json(M) -> str:
    """Symplectic (or plain real) matrix as {"n": ..., "rows": [[...]]}."""
    mat = M.mat if isinstance(M, SymplecticMatrix) else np.asarray(M, dtype=float)
    return json.dumps({"n": mat.shape[0] // 2, "rows": mat.tolist()}, sort_keys=True)


def matrix_from_json(text: str) -> np.ndarray:
    """The finite 2-D array under "rows"; ValueError naming what is wrong."""
    data = json.loads(text)
    if not isinstance(data, dict) or "rows" not in data:
        raise ValueError('matrix JSON must be an object {"rows": [[...], ...]}')
    try:
        M = np.array(data["rows"], dtype=float)
    except (TypeError, ValueError):
        M = None
    if M is None or M.ndim != 2 or not np.all(np.isfinite(M)):
        raise ValueError("matrix rows must be equal-length lists of finite numbers")
    return M


def signal_csv(path, sig: GridSignal) -> None:
    """Columns x, re, im."""
    if sig.grid.dim != 1:
        raise ValueError("CSV export expects a 1-D signal")
    x = sig.grid.axes[0].points()
    write_csv(path, ("x", "re", "im"), (x, sig.values.real, sig.values.imag))


def field_csv(path, F: PhaseSpaceField) -> None:
    """Columns x, xi, re, im, abs (x-major rows)."""
    xs, xis = F.x_axis.points(), F.xi_axis.points()
    v = F.values.ravel()
    # hypot matches the scalar abs(complex) bit for bit; np.abs does not
    write_csv(path, ("x", "xi", "re", "im", "abs"), (np.repeat(xs, xis.size), np.tile(xis, xs.size),
                                                    v.real, v.imag, np.hypot(v.real, v.imag)))
