"""Output-variance Monte Carlo and solution counting."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .activations import ActivationKind, _apply
from .errors import InvalidArgumentError, _check_int, _check_real
from .linalg import _DEFAULT_OPTS, _truncated_pinv, _write_csv

__all__ = [
    "VarianceConfig",
    "VarianceReport",
    "mc_output_variance",
    "solution_count",
    "write_variance_csv",
]

@dataclass(frozen=True)
class VarianceConfig:
    """Monte Carlo setup for the output-variance-vs-depth experiment.

    Defaults: 100 samples of dimension 10 drawn uniform on [-5, 5], noise
    amplitude 1.0 (one tenth of the input range magnitude), 1000 trials,
    depths 1..8, activation e^(0.0001 x).
    """

    m: int = 100
    d: int = 10
    input_range: Tuple[float, float] = (-5.0, 5.0)
    noise_scale: float = 1.0
    trials: int = 1000
    max_depth: int = 8
    activation: ActivationKind = field(default_factory=ActivationKind.exp_scaled)
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "d", "trials", "max_depth"):
            _check_int(name, getattr(self, name), 1)
        _check_int("seed", self.seed, 0)
        try:
            lo, hi = self.input_range
        except (TypeError, ValueError):
            raise InvalidArgumentError(
                f"input_range must be a pair lo, hi, got {self.input_range!r}") from None
        _check_real("input_range[0]", lo)
        _check_real("input_range[1]", hi)
        # the draws span [lo, hi], whose width hi - lo must be finite too
        if not (lo < hi and math.isfinite(hi - lo)):
            raise InvalidArgumentError(
                f"input_range must have lo < hi and a finite span, got {self.input_range}")
        _check_real("noise_scale", self.noise_scale, 0, strict=True)


@dataclass(frozen=True)
class VarianceReport:
    per_depth_mean: Tuple[float, ...]
    per_depth_std: Tuple[float, ...]
    # probe dimension per depth; depth 1 probes in input space, deeper
    # levels in sample space, so their points are not directly comparable
    x0_dims: Tuple[int, ...]


def _projection_chain(x: np.ndarray, activation: ActivationKind, max_depth: int,
                      at_identity):
    """Yield (H_k, H_k^dagger) for k = 1..max_depth, H_1 = x and
    H_{k+1} = f(P_k) with the projector P_k = H_k H_k^dagger.

    Depth 1 is one SVD of x. Every later H_k is f of a symmetric projector,
    so one eigh factorizes it. Once a depth keeps full rank, P_k = I exactly
    and the next step is f(I), which no trial changes: the caller's cached
    `at_identity()` returns that step as (H, H^dagger, basis of P)."""
    h_dag, basis = _truncated_pinv(*np.linalg.svd(x, full_matrices=False), _DEFAULT_OPTS)
    yield x, h_dag
    for _ in range(1, max_depth):
        h, h_dag, basis = (at_identity() if basis.shape[0] == basis.shape[1]
                           else _symmetric_step(basis @ basis.T, activation))
        yield h, h_dag


def _symmetric_step(p: np.ndarray, activation: ActivationKind):
    """(H, H^dagger, basis of H H^dagger) for H = f(P), P a finite projector,
    from one eigh of H's lower triangle; sigma = |lambda|, so the SVD cutoff applies."""
    h = _apply(activation, p)
    lam, v = np.linalg.eigh(h)
    return (h, *_truncated_pinv(v, lam, v.T, _DEFAULT_OPTS))


def _identity_step(m: int, activation: ActivationKind):
    """The chain's step from P = I, computed on first use only."""
    return functools.cache(lambda: _symmetric_step(np.eye(m), activation))


def mc_output_variance(cfg: VarianceConfig) -> VarianceReport:
    """Average squared noise response (x0^T H_k^dagger eps)^2 per depth.

    Each trial draws one X, one noise vector and one probe point of each
    dimension from its own child generator and reuses them across all
    depths, so depth comparisons are paired. Draw order per trial:
    X, eps, d-dimensional x0, m-dimensional x0.
    """
    lo, hi = cfg.input_range
    children = np.random.default_rng(cfg.seed).spawn(cfg.trials)
    at_identity = _identity_step(cfg.m, cfg.activation)
    vals = np.empty((cfg.max_depth, cfg.trials))
    for t, child in enumerate(children):
        x = child.uniform(lo, hi, (cfg.m, cfg.d))
        eps = child.uniform(-1.0, 1.0, cfg.m) * cfg.noise_scale
        x0_d = child.uniform(lo, hi, cfg.d)
        x0_m = child.uniform(lo, hi, cfg.m)
        chain = _projection_chain(x, cfg.activation, cfg.max_depth, at_identity)
        for k, (_, h_dag) in enumerate(chain, start=1):
            x0 = x0_d if k == 1 else x0_m
            v = float(x0 @ (h_dag @ eps))
            vals[k - 1, t] = v * v
    dims = tuple(cfg.d if k == 1 else cfg.m for k in range(1, cfg.max_depth + 1))
    return VarianceReport(
        per_depth_mean=tuple(float(v) for v in vals.mean(axis=1)),
        per_depth_std=tuple(float(v) for v in vals.std(axis=1)),
        x0_dims=dims,
    )


def solution_count(n: int) -> Tuple[int, int]:
    """Feasible weight-set families of an n-layer network, as the symbolic
    pair (exponent, multiplier) of N^exponent * multiplier.

    N is the (infinite, in the reals) count of admissible placeholder
    choices per layer; exponent = n - 1, multiplier = C(n, n-1) = n. For
    n = 2 this formula gives 2N, double the commonly quoted plain N; the
    factor counts the two orderings separately.
    """
    _check_int("n", n, 2)  # a single layer has a unique least-squares solution
    return (n - 1, n)


def write_variance_csv(report: VarianceReport, path) -> None:
    """depth,mean,std per line, 17 significant digits, no header."""
    rows = np.column_stack([report.per_depth_mean, report.per_depth_std])
    _write_csv(path, np.column_stack([np.arange(1, len(rows) + 1), rows]))
