"""Dense matrices, the pseudoinverse engine, and the one CSV writer.

All numerics are float64: the experiments this library reproduces report
sums of squared errors down to the 1e-19 scale, which single precision
cannot express.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, _check_real, _check_type

_EPS = float(np.finfo(np.float64).eps)
_PATH = (str, bytes, os.PathLike)  # a CSV path; `open` would take an int as a descriptor

__all__ = [
    "Matrix",
    "PinvOptions",
    "pinv",
    "penrose_residual",
    "sse",
    "write_matrix_csv",
]


class Matrix:
    """Read-only 2-D float64 matrix: the type of `WeightSet.weights`
    entries and of `forward`'s output.

    Every other function takes and returns plain ndarrays. The class
    remains only because the benchmark reads `.array` on those two
    results; it goes with ROADMAP item 4, which waits on the benchmark
    change of item 1b. The constructor validates through `as_array`, with
    `name` in its errors, and keeps a read-only C-ordered copy.
    """

    __slots__ = ("_a",)

    def __init__(self, data, name="matrix"):
        a = np.array(as_array(data, name), order="C")
        a.setflags(write=False)
        self._a = a

    @property
    def shape(self):
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ndarray."""
        return self._a


def as_array(a, name="matrix") -> np.ndarray:
    """Validate a Matrix or array-like into a finite 2-D float64 ndarray; a
    value numpy cannot convert is rejected by its type, not its long repr."""
    if isinstance(a, Matrix):
        return a.array
    try:
        arr = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgumentError(
            f"{name} must be an array of numbers, got a {type(a).__name__}") from None
    if arr.ndim != 2:
        raise InvalidArgumentError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidArgumentError(f"{name} shape {arr.shape} has a zero dimension")
    return _check_finite(arr, f"{name} entries")


def _check_finite(a: np.ndarray, what: str) -> np.ndarray:
    """a, or InvalidArgumentError saying that `what` must be finite."""
    if not np.isfinite(a).all():
        raise InvalidArgumentError(f"{what} must be finite")
    return a


@dataclass(frozen=True)
class PinvOptions:
    """Pseudoinverse controls: the cutoff picks the kept singular values,
    ridge damps them.

    tolerance None (`automatic()`, the default) keeps sigma > max(rows,
    cols) * eps * sigma_max; a number t (`explicit(t)`) keeps sigma > t, so
    0.0 keeps every nonzero sigma. Each kept sigma inverts to the Tikhonov
    filter sigma / (sigma^2 + ridge): `explicit(0.0, ridge)` is
    (A^T A + ridge I)^-1 A^T.
    """

    tolerance: Optional[float] = None
    ridge: float = 0.0

    def __post_init__(self):
        if self.tolerance is not None:
            _check_real("tolerance", self.tolerance, 0)
        _check_real("ridge", self.ridge, 0)

    @classmethod
    def automatic(cls, ridge: float = 0.0) -> "PinvOptions":
        return cls(None, ridge)

    @classmethod
    def explicit(cls, tolerance: float, ridge: float = 0.0) -> "PinvOptions":
        _check_real("tolerance", tolerance, 0)
        return cls(tolerance, ridge)


_DEFAULT_OPTS = PinvOptions()


def _pinv_array(a: np.ndarray, opts: PinvOptions) -> np.ndarray:
    return _truncated_pinv(*np.linalg.svd(a, full_matrices=False), opts)[0]


def _pinv_or_inverse(a: np.ndarray, opts: PinvOptions) -> np.ndarray:
    """A^+ from one LU inverse X = A^-1 in place of `_pinv_array`'s SVD when
    A is square, `opts` is the default cutoff and X is finite with
    n * eps * sqrt(|A|_1 |A|_inf |X|_1 |X|_inf) < 1/2: the root bounds
    cond_2(A), so the cutoff n * eps * sigma_max would keep every sigma
    (Golub & Van Loan, Matrix Computations, 3.2 and 5.5)."""
    n = a.shape[0]
    if a.shape[1] == n and opts.tolerance is None and opts.ridge == 0:
        try:
            x = np.linalg.inv(a)
        except np.linalg.LinAlgError:  # exactly singular
            return _pinv_array(a, opts)
        # each |A|_p |X|_p is >= 1, so the product can only overflow, to a
        # bound that fails
        with np.errstate(over="ignore"):
            k1, kinf = (float(np.linalg.norm(a, p) * np.linalg.norm(x, p))
                        for p in (1, np.inf))
        if np.isfinite(x).all() and n * _EPS * math.sqrt(k1 * kinf) < 0.5:
            return x
    return _pinv_array(a, opts)


def _truncated_pinv(u, s, vt, opts: PinvOptions):
    """(V_r diag(f) U_r^T, U_r) from A = U diag(s) V^T, keeping the s whose
    |s| passes the cutoff (none when s is all zero); f = 1/(s + ridge/s),
    1/s bit for bit at ridge 0. U_r is an orthonormal basis of the kept
    range, so A A^dagger = U_r U_r^T when ridge is 0."""
    size = np.abs(s)
    tol = (max(u.shape[0], vt.shape[1]) * _EPS * size.max()
           if opts.tolerance is None else opts.tolerance)
    keep = size > tol
    with np.errstate(over="ignore"):  # ridge/s = inf damps that s to 0, its limit
        kept = s[keep] + opts.ridge / s[keep]
    return (vt[keep].T * (1.0 / kept)) @ u[:, keep].T, u[:, keep]


def pinv(a, opts: PinvOptions = _DEFAULT_OPTS) -> np.ndarray:
    """Pseudoinverse from one thin SVD, cut and damped as `opts` says (see
    `PinvOptions`); at ridge=0 it meets the four Penrose conditions."""
    _check_type("opts", opts, PinvOptions)
    return _pinv_array(as_array(a, "pinv input"), opts)


def penrose_residual(a, a_dag) -> float:
    """Worst relative violation of the four Penrose conditions.

    Returns max over {AXA=A, XAX=X, (AX)^T=AX, (XA)^T=XA} of
    ||lhs - rhs||_F / max(1, ||A||_F).
    """
    aa = as_array(a, "a")
    xx = as_array(a_dag, "a_dag")
    if xx.shape != (aa.shape[1], aa.shape[0]):
        raise InvalidArgumentError(
            f"shape mismatch: a is {aa.shape}, a_dag is {xx.shape}"
        )
    ax = aa @ xx
    xa = xx @ aa
    scale = max(1.0, float(np.linalg.norm(aa)))
    checks = (
        np.linalg.norm(ax @ aa - aa),
        np.linalg.norm(xa @ xx - xx),
        np.linalg.norm(ax.T - ax),
        np.linalg.norm(xa.T - xa),
    )
    return float(max(checks)) / scale


def sse(g, y) -> float:
    """Sum of squared entry differences, trace((G-Y)^T (G-Y))."""
    gg = as_array(g, "g")
    yy = as_array(y, "y")
    if gg.shape != yy.shape:
        raise InvalidArgumentError(f"shape mismatch: {gg.shape} vs {yy.shape}")
    d = gg - yy
    return float(np.sum(d * d))


def write_matrix_csv(a, path) -> None:
    """One matrix row per line, comma separated, 17 significant digits,
    no header. 17 digits round-trips float64 exactly."""
    _write_csv(path, as_array(a, "matrix"))


def _write_csv(path, rows: np.ndarray, labels=None) -> None:
    """The one CSV writer: each row of float64 `rows` as `"%.17g"` cells,
    then, when `labels` is given, one text cell per row. Rows are
    formatted and written a block of about _CSV_BLOCK values at a time."""
    _check_type("path", path, _PATH)
    step = max(1, _CSV_BLOCK // rows.shape[1])
    labels = None if labels is None else [label.encode("utf-8") for label in labels]
    with open(path, "wb") as fh:
        for i in range(0, rows.shape[0], step):
            text = _format_rows(rows[i:i + step])
            if labels is not None:
                text = b"".join(b"%s,%s\n" % pair for pair in
                                zip(text.split(b"\n"), labels[i:i + step]))
            fh.write(text)


# The formatter lays each value out in one 48-byte cell of six 8-byte
# words, NUL where the value has no character: the sign, the "0.000" of a
# small fixed-point value, the first digit and a '.' slot after it; four
# words of four digits, each digit followed by a '.' slot; the exponent,
# and the separator in the cell's last byte. Deleting the NULs leaves the
# text. Which bytes a value keeps depends only on its count of significant
# digits and on its decimal exponent e, and no byte depends on e outside
# -5..17 but the exponent's own: the tables are indexed by those.
_CSV_BLOCK = 4096  # values per block: bounds the formatter's memory
_E10 = 260  # the power and exponent tables span e in -_E10.._E10
_COLUMNS = 23  # layout columns: e <= -5, then -4, ..., 16, then e >= 17
_CELL = 48
_SPLITTER = 2.0 ** 27 + 1.0


def _split(a):
    """a = hi + lo with each half of 26 significant bits or fewer (Dekker)."""
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _csv_tables():
    """The formatter's tables, built on the first write; the byte tables
    are viewed as native-order uint64 words, as the cells are.

    powers: 10^(16 - e) per e as [hi, hi's two Dekker halves, lo], the
        double-double hi + lo within 2^-106 of it.
    quads: the word "d.d.d.d." per four-digit number.
    ends: per (quad j, number q), the significant digits through q's last
        nonzero digit, 1 when q is 0.
    column: per e, its layout column.
    masks: per (digits, column), the four words' bytes that are kept, one
        row per word.
    heads: per (sign, digits, column), the first word without its digit.
    firsts: per first digit, the first word's digit byte.
    tails: per e, the exponent word, empty where %g prints fixed point.
    """
    es = range(-_E10, _E10 + 1)
    hi, lo = np.empty(len(es)), np.empty(len(es))
    for i, e in enumerate(es):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi[i] = num / den  # int / int is correctly rounded
        a, b = hi[i].as_integer_ratio()
        lo[i] = (num * b - a * den) / (den * b)
    powers = np.column_stack([hi, *_split(hi), lo])

    def words(b):
        return np.ascontiguousarray(b, np.uint8).view(np.uint64).reshape(b.shape[:-1])

    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1])) % 10
    quads = np.full((10000, 8), ord("."), np.uint8)
    quads[:, ::2] = digits + ord("0")
    nonzero = digits[:, ::-1] != 0
    last = np.where(nonzero.any(axis=1), 4 - nonzero.argmax(axis=1), 0)
    ends = np.where(last > 0, np.arange(1, 17, 4)[:, None] + last, 1).astype(np.uint8)
    column = np.clip(np.arange(-_E10, _E10 + 1), -5, 17) + 5

    masks = np.zeros((18, _COLUMNS, 4, 8), np.uint8)
    heads = np.zeros((2, 18, _COLUMNS, 8), np.uint8)
    heads[1, ..., 0] = ord("-")
    for n in range(1, 18):
        for col, e in enumerate(range(-5, 18)):
            # %g prints e < -4 or e >= 17 with one digit before the '.',
            # fixed point with e + 1 digits before it, or "0." and none
            before = 1 if e < -4 or e >= 17 else max(e + 1, 0)
            for g in range(1, max(n, before)):  # digit 0 is the first word's
                masks[n, col, (g - 1) // 4, 2 * ((g - 1) % 4)] = 255
            if before < n and before > 1:  # the '.' after digit before - 1
                g = before - 1
                masks[n, col, (g - 1) // 4, 2 * ((g - 1) % 4) + 1] = 255
            if before < n and before == 1:
                heads[:, n, col, 7] = ord(".")
            if before == 0:
                prefix = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
                heads[:, n, col, 1:1 + len(prefix)] = prefix
    firsts = np.zeros((10, 8), np.uint8)
    firsts[:, 6] = np.arange(10) + ord("0")
    tails = np.zeros((len(es), 8), np.uint8)
    for e in es:
        if e < -4 or e >= 17:
            text = np.frombuffer(b"e%+03d" % e, np.uint8)
            tails[e + _E10, :len(text)] = text
    return (powers, words(quads), ends.ravel(), column,
            words(masks).reshape(-1, 4).T.copy(), words(heads).ravel(), words(firsts),
            words(tails))


def _scaled(a: np.ndarray, power: np.ndarray):
    """floor and fraction of a * 10^(16 - e), `power` the rows of
    `powers` for e: the product with the power's high part is exact as
    Dekker's split product (Numer. Math. 18, 1971), the whole to within
    about 1e-14."""
    p_hi, b1, b2, p_lo = power.T
    p = a * p_hi
    a1, a2 = _split(a)
    err = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    whole = np.floor(p)
    f = ((p - whole) + err) + a * p_lo
    f_whole = np.floor(f)
    return whole.astype(np.int64) + f_whole.astype(np.int64), f - f_whole


def _format_rows(rows: np.ndarray) -> bytes:
    """The bytes of `"%.17g"` for each value of float64 `rows`, comma
    separated, one line per row.

    A value is scaled to a 17-digit integer by 10^(16 - e), e from its
    log10 and corrected by one where the scaled value falls outside
    [1e16, 1e17), then rounded and laid out by `%g`'s rules. Python's
    formatter takes the values the scaling does not settle: zeros,
    non-finite values, |x| outside [1e-250, 1e250], and those whose
    fraction lies within 1e-9 of one half, exact ties included.
    """
    powers, quads, ends, column, masks, heads, firsts, tails = _csv_tables()
    x = rows.ravel()
    mag = np.abs(x)
    fast = (mag >= 1e-250) & (mag <= 1e250)  # NaN fails both
    mag = np.where(fast, mag, 1.0)
    e = np.floor(np.log10(mag)).astype(np.intp)
    num, frac = _scaled(mag, powers.take(e + _E10, axis=0))
    off = np.flatnonzero((num < 10**16) | (num >= 10**17))
    if off.size:
        e[off] += np.where(num[off] < 10**16, -1, 1)
        num[off], frac[off] = _scaled(mag[off], powers.take(e[off] + _E10, axis=0))
        fast &= (num >= 10**16) & (num < 10**17)
    fast &= np.abs(frac - 0.5) >= 1e-9
    num += frac > 0.5
    carry = num == 10**17  # rounded up to one more digit
    num[carry] = 10**16
    e += carry + _E10  # from here on, the tables' row

    # the first digit, and the other 16 as four four-digit numbers
    high = num // 10**8
    halves = np.stack([high, num - high * 10**8])
    lead = high // 10**8
    halves[0] -= lead * 10**8
    quad = np.empty((4, x.size), np.intp)
    quad[::2] = halves // 10**4
    quad[1::2] = halves - quad[::2] * 10**4
    ndigits = ends.take(quad + np.arange(0, 40000, 10000)[:, None]).max(axis=0)
    layout = ndigits.astype(np.intp) * _COLUMNS + column.take(e)
    cells = np.empty((x.size, _CELL // 8), np.uint64)
    cells[:, 0] = heads.take((x < 0) * masks.shape[1] + layout) | firsts.take(lead)
    cells[:, 1:5] = (quads.take(quad) & masks.take(layout, axis=1)).T
    cells[:, 5] = tails.take(e)

    slow = np.flatnonzero(~fast)
    if slow.size:
        bits, which = np.unique(x[slow].view(np.uint64), return_inverse=True)
        text = np.zeros((bits.size, _CELL), np.uint8)
        for k, v in enumerate(bits.view(np.float64)):
            s = b"%.17g" % v
            text[k, :len(s)] = np.frombuffer(s, np.uint8)
        cells[slow] = text.view(np.uint64)[which.ravel()]
    out = cells.view(np.uint8).reshape(*rows.shape, _CELL)
    out[..., -1] = ord(",")
    out[:, -1, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")
