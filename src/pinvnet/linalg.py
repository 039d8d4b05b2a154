"""Dense matrices, the pseudoinverse engine, and the one CSV writer.

All numerics are float64: the experiments this library reproduces report
sums of squared errors down to the 1e-19 scale, which single precision
cannot express.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, _check_real

_EPS = float(np.finfo(np.float64).eps)

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
    """Validate a Matrix or array-like into a finite 2-D float64 ndarray."""
    if isinstance(a, Matrix):
        return a.array
    arr = np.asarray(a, dtype=np.float64)
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
    """The one CSV writer: each row of `rows` at 17 significant digits,
    then, when `labels` is given, one text cell per row."""
    fmt = "%.17g"
    if labels is not None:
        fmt = [fmt] * rows.shape[1] + ["%s"]
        rows = np.column_stack([rows.astype(object), labels])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt=fmt, delimiter=",")
