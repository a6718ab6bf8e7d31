"""Serialization: JSON headers with raw binary sidecars, plot-ready CSV.

Complex arrays are stored as little-endian interleaved float64 (re, im)
next to a JSON header describing the grid; floats in JSON and CSV are
written with 17 significant digits so that two runs of the same
configuration produce byte-identical files.  Every writer refuses a
non-finite number with `SamplingError` before it writes any file.

CSV numbers are Python's `'%.17g' % x` (`'%d'` for integer and bool
columns) byte for byte, but built for a block of rows at once in numpy:
the 17 digits are the integer nearest |x| 10^(16-e), e = floor(log10|x|),
computed in longdouble, and laid out as %g does.  An entry whose rounding
longdouble cannot decide, because it lies within the product's error bound
of a tie or of a decade edge, is formatted by Python's `'%.17g'` itself
(about 2 % of a Wigner field; every entry where longdouble is float64).
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

# rows per block of CSV text: each block is formatted in numpy arrays of
# rows x columns x (_TEXT + 1) bytes, so the whole table's text is never in
# memory at once; per block and column, the entries longdouble cannot round
# go to one Python '%.17g' call
_CSV_BLOCK = 4096
# bytes of one number's CSV text, NUL-padded; the longest %.17g text is
# "-1.2345678901234567e-308".  '%d' and '%.17g' text holds no NUL, so the
# file bytes of a block are its nonzero bytes in order
_TEXT = 24
# correctly rounded 10^k in longdouble, parsed from text, for the k = 16 - e
# of every finite float64 (e from -325 to 309 while it is being corrected)
_K_LO, _K_HI = -293, 341
_POW10 = np.array([f"1e{k}" for k in range(_K_LO, _K_HI + 1)], dtype=np.longdouble)
# |x| is exact in longdouble, and 10^k and the product are each correctly
# rounded, so the computed |x| 10^k is within eps of the true one, relative;
# entries within 3 eps of a rounding tie go to Python
_TIE = 3 * float(np.finfo(np.longdouble).eps)
# the four ASCII digits of 0..9999, each as the native uint32 of its bytes
# (uint16 arithmetic: the tables are built at import, in every process)
_DIGITS4 = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
            + 48).astype(np.uint8).view(np.uint32).ravel()
# digits of a nonzero 4-digit group up to its last nonzero one; a max over the
# groups of a number skips the all-zero ones, which get -100
_SIG4 = np.int8(4) - np.sum([np.arange(10000, dtype=np.uint16) % p == 0 for p in (10, 100, 1000)],
                            axis=0, dtype=np.int8)
_SIG4[0] = -100
# A source row of `_g17` is eight native uint32 words, 32 bytes: "000" and
# the first digit (byte 0 also serves as a literal '0'), the other 16 digits,
# then sign, '.', 'e' and the exponent's sign, then "0" and the exponent's
# three digits, then NUL.  Where %g has no sign or '.', and for stripped
# trailing zeros, the byte is NUL.
_DIG, _SIGN, _DOT, _E, _NUL = 3, 20, 21, 22, 28
# word 5 for (negative, '.', negative exponent) as the bits of 0..7
_SIGNS = np.array([[45 * (i >> 2), 46 * (i >> 1 & 1), 101, 43 + 2 * (i & 1)] for i in range(8)],
                  np.uint8).view(np.uint32).ravel()
# for keep = 0..17, the mask of a source row that strips the digits after
# the first `keep` ones (the first one always stays)
_KEEP = np.where((np.arange(32) < _DIG + np.maximum(np.arange(18), 1)[:, None]) | (np.arange(32) >= _SIGN),
                 np.uint8(255), np.uint8(0)).view(np.uint32)


def _layout(cls: int) -> list[int]:
    """Source-row offsets of the text of exponent class `cls`: e + 4 for the
    fixed notation of -4 <= e < 17, 21 for e+XX and 22 for e+XXX."""
    digits = list(range(_DIG, _DIG + 17))
    if cls >= 21:
        exponent = range(26 if cls == 21 else 25, 28)
        idx = [_SIGN, digits[0], _DOT, *digits[1:], _E, _E + 1, *exponent]
    elif cls >= 4:
        idx = [_SIGN, *digits[:cls - 3], _DOT, *digits[cls - 3:]]
    else:
        idx = [_SIGN, 0, _DOT, *[0] * (3 - cls), *digits]
    return idx + [_NUL] * (_TEXT - len(idx))


_LAYOUT = [_layout(cls) for cls in range(23)]


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


def _g17(x: np.ndarray) -> np.ndarray:
    """`'%.17g' % v` for each finite float64 v of `x`, as (len, _TEXT) NUL-padded bytes."""
    m = x.size
    ax = np.abs(x)
    zero = ax == 0
    ax[zero] = 1.0
    axl = ax.astype(np.longdouble)
    # s = |x| 10^(16-e) lies in [1e16, 1e17); e from log10 can be one off next
    # to a power of ten, and is corrected once
    e = np.floor(np.log10(ax)).astype(np.int64)
    s = axl * _POW10[16 - e - _K_LO]
    off = np.flatnonzero((s < 1e16) | (s >= 1e17))
    e[off] += np.where(s[off] < 1e16, -1, 1)
    s[off] = axl[off] * _POW10[16 - e[off] - _K_LO]
    r = np.rint(s)
    # the 17 digits are r's unless s is within its error bound of a tie or r
    # carries into an 18th digit: Python formats those entries below.  Where
    # longdouble is float64, 10^k overflows for the smallest |x|: s and r are
    # inf there, which fails r < 1e17, and s - r is nan
    with np.errstate(invalid="ignore"):
        tie = np.abs((s - r).astype(np.float64)) >= 0.5 - _TIE * r.astype(np.float64)
    good = (r > 1e16) & (r < 1e17) & ~tie
    # %g: fixed notation for -4 <= e < 17, with ip digits before the '.'
    fixed = (e >= -4) & (e < 17)
    cls = np.where(fixed, e + 4, np.where(np.abs(e) < 100, 21, 22)).astype(np.uint8)
    # the rows are built sorted by class, so that each class is one column gather
    order = np.argsort(cls, kind="stable")
    n, e, fixed, neg = np.where(good, r, 0).astype(np.int64)[order], e[order], fixed[order], np.signbit(x[order])
    hi, lo = np.divmod(n, 10 ** 16)
    a, b = np.divmod(lo, 10 ** 8)
    src = np.zeros((m, 8), np.uint32)
    src[:, 0] = _DIGITS4[hi]
    k = np.minimum(hi, 1)  # digits up to the last nonzero one
    for j, group in enumerate((*np.divmod(a, 10 ** 4), *np.divmod(b, 10 ** 4))):
        src[:, 1 + j] = _DIGITS4[group]
        np.maximum(k, 4 * j + 1 + _SIG4[group], out=k)
    ip = np.where(fixed, np.maximum(e + 1, 0), 1)
    src[:, 5] = _SIGNS[4 * neg + 2 * (k > ip) + (e < 0)]
    src[:, 6] = _DIGITS4[np.abs(e)]
    # trailing zeros after the ip digits are dropped, and so is a bare '.'
    src &= _KEEP.take(np.maximum(k, ip), axis=0)
    row = src.view(np.uint8)
    text = np.empty((m, _TEXT), np.uint8)
    start = 0
    for c, end in enumerate(np.cumsum(np.bincount(cls, minlength=len(_LAYOUT))).tolist()):
        if end > start:
            row[start:end].take(_LAYOUT[c], axis=1, out=text[start:end])
        start = end
    out = np.empty_like(text)
    out[order] = text
    redo = np.flatnonzero(~(good | zero))
    if redo.size:
        fallback = ("%.17g," * redo.size % tuple(x[redo].tolist()))[:-1].split(",")
        out[redo] = np.array(fallback, dtype=f"S{_TEXT}").view(np.uint8).reshape(-1, _TEXT)
    return out


def _text(values: np.ndarray) -> np.ndarray:
    """CSV text of a 1-D column as (len, _TEXT) NUL-padded bytes: '%d' for
    integers and bools, '%.17g' for the rest."""
    if values.dtype.kind in "iub":
        ints = values.astype(np.int64) if values.dtype.kind == "b" else values
        return ints.astype(f"S{_TEXT}").view(np.uint8).reshape(-1, _TEXT)
    if values.dtype.kind != "f":
        raise TypeError(f"a CSV column holds real numbers, not {values.dtype}")
    return _g17(values.astype(np.float64, copy=False))


def _write_rows(path, header, n_rows: int, columns) -> None:
    """`header` and `n_rows` rows, where `columns[j](rows)` is the `_text` of
    column j at the row indices `rows`."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for start in range(0, n_rows, _CSV_BLOCK):
            rows = np.arange(start, min(start + _CSV_BLOCK, n_rows))
            block = np.empty((rows.size, len(columns), _TEXT + 1), np.uint8)
            for j, column in enumerate(columns):
                block[:, j, :_TEXT] = column(rows)
            block[:, :, _TEXT] = ord(",")
            block[:, -1, _TEXT] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\0"))


def write_csv(path, header, columns) -> None:
    """Equal-length 1-D `columns` under the column names `header`.

    Integer and bool columns are written with %d, float columns with %.17g,
    the 17 significant digits of `fmt17`.  SamplingError on nan or inf.
    """
    cols = [np.asarray(c) for c in columns]
    _refuse_nonfinite(path, *cols)
    _write_rows(path, header, len(cols[0]), [lambda rows, c=c: _text(c[rows]) for c in cols])


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
    cols = (v.real, v.imag, np.hypot(v.real, v.imag))
    _refuse_nonfinite(path, xs, xis, *cols)
    # row r holds x[r // n] and xi[r % n]: each coordinate is formatted once
    x_text, xi_text, n = _text(xs), _text(xis), xis.size
    _write_rows(path, ("x", "xi", "re", "im", "abs"), v.size,
                [lambda rows: x_text[rows // n], lambda rows: xi_text[rows % n],
                 *(lambda rows, c=c: _text(c[rows]) for c in cols)])
