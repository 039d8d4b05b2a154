"""Dense matrices, the pseudoinverse engine, and a matrix CSV writer.

All numerics are float64: the experiments this library reproduces report
sums of squared errors down to the 1e-19 scale, which single precision
cannot express.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "EPS",
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
    results; it goes with ROADMAP item 5, which waits on the benchmark
    change of item 2. The constructor validates through `as_array` and
    keeps a read-only C-ordered copy.
    """

    __slots__ = ("_a",)

    def __init__(self, data):
        a = np.array(as_array(data), order="C")
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
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} entries must be finite")
    return arr


@dataclass(frozen=True)
class PinvOptions:
    """Pseudoinverse controls.

    tolerance_mode "automatic" treats singular values
    sigma <= max(rows, cols) * eps * sigma_max as zero (the standard
    rank-revealing convention). Mode "explicit" uses the absolute cutoff
    `tolerance` instead; tolerance=0.0 keeps every strictly positive
    singular value. ridge > 0 switches to the regularized closed forms
    and ignores truncation entirely.
    """

    tolerance_mode: str = "automatic"
    tolerance: float = 0.0
    ridge: float = 0.0

    def __post_init__(self):
        if self.tolerance_mode not in ("automatic", "explicit"):
            raise InvalidArgumentError(
                f"unknown tolerance_mode {self.tolerance_mode!r}"
            )
        for name in ("tolerance", "ridge"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidArgumentError(
                    f"{name} must be finite and >= 0, got {value!r}")

    @classmethod
    def automatic(cls, ridge: float = 0.0) -> "PinvOptions":
        return cls("automatic", 0.0, ridge)

    @classmethod
    def explicit(cls, tolerance: float, ridge: float = 0.0) -> "PinvOptions":
        return cls("explicit", tolerance, ridge)


_DEFAULT_OPTS = PinvOptions()


def _pinv_array(a: np.ndarray, opts: PinvOptions) -> np.ndarray:
    if opts.ridge > 0.0:
        lam = opts.ridge
        m, n = a.shape
        if m >= n:
            return np.linalg.solve(a.T @ a + lam * np.eye(n), a.T)
        return np.linalg.solve(a @ a.T + lam * np.eye(m), a).T
    return _truncated_pinv(*np.linalg.svd(a, full_matrices=False), opts)[0]


def _truncated_pinv(u, s, vt, opts: PinvOptions):
    """(V_r diag(1/s_r) U_r^T, U_r) from A = U diag(s) V^T, keeping the s
    whose |s| passes the cutoff (none when s is all zero). U_r is an
    orthonormal basis of the kept range, so A A^dagger = U_r U_r^T."""
    size = np.abs(s)
    tol = (max(u.shape[0], vt.shape[1]) * EPS * size.max()
           if opts.tolerance_mode == "automatic" else opts.tolerance)
    keep = size > tol
    return (vt[keep].T * (1.0 / s[keep])) @ u[:, keep].T, u[:, keep]


def pinv(a, opts: PinvOptions = _DEFAULT_OPTS) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD truncation (or ridge closed form).

    With ridge=0 the result satisfies the four Penrose conditions within
    numeric tolerance. With ridge=lambda>0 returns (A^T A + lambda I)^-1 A^T
    for tall inputs and the transposed analogue for wide ones.
    """
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
    arr = as_array(a, "matrix")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in arr:
            fh.write(",".join("%.17g" % v for v in row))
            fh.write("\n")

