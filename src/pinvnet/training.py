"""Analytic, gradient-free weight estimation.

Weights are solved layer by layer in closed form. Each layer k fits the
least-squares system A_{k-1} W_k = T_k, where A_{k-1} is the design matrix
produced by the layers before k and T_k is the training target pulled back
through the layers after k by alternating functional inverses with
right-multiplied pseudoinverses. Layers not yet solved contribute random
placeholder matrices on both sides; the output layer is always solved last,
which makes its solve the exact least-squares optimum of the final system.

There is no iteration: every weight matrix is written once.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .activations import apply as _apply, invert_with_count
from .errors import InvalidArgumentError, InvalidConfigurationError
from .linalg import Matrix, PinvOptions, _pinv_array, as_array, sse
from .network import NetworkSpec, WeightSet, augment, default_masks

__all__ = [
    "InitScheme",
    "TrainConfig",
    "TrainReport",
    "back_target",
    "train",
    "solve_masked_layer",
]


@dataclass(frozen=True)
class InitScheme:
    """Placeholder initialization and solve order.

    kind "random": placeholders drawn uniform on [-1, 1] times scale_c from
    a seeded generator. kind "data_matrix": no randomness, every non-output
    weight is the pseudoinverse of its design matrix (requires all hidden
    widths equal to the sample count). solve_order None solves layers
    1..n in order; a custom order permutes the inner layers only, the
    output layer is solved last by construction.
    """

    kind: str = "random"
    seed: int = 0
    scale_c: float = 1.0
    solve_order: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.kind not in ("random", "data_matrix"):
            raise InvalidConfigurationError(f"unknown init kind {self.kind!r}")
        if self.kind == "random" and not self.scale_c > 0:
            raise InvalidConfigurationError("scale_c must be > 0")
        if self.solve_order is not None:
            object.__setattr__(self, "solve_order", tuple(self.solve_order))
            if self.kind == "data_matrix":
                raise InvalidConfigurationError(
                    "data_matrix init is inherently sequential; no custom order"
                )

    @classmethod
    def random(cls, seed: int = 0, scale_c: float = 1.0, solve_order=None):
        return cls("random", seed, scale_c, solve_order)

    @classmethod
    def data_matrix(cls):
        return cls("data_matrix")


@dataclass(frozen=True)
class TrainConfig:
    init: InitScheme
    pinv_opts: PinvOptions = field(default_factory=PinvOptions)
    clamp_margin: Optional[float] = 1e-9
    record_intermediates: bool = False

    def __post_init__(self):
        if self.clamp_margin is not None and self.clamp_margin < 0:
            raise InvalidConfigurationError("clamp_margin must be >= 0 or None")


@dataclass
class TrainReport:
    weights: WeightSet
    train_sse: float
    per_layer_solve_residuals: List[float]
    clamped_entry_counts: List[int]
    wall_time: float
    intermediates: Optional[list] = None


def _pull_step(t, wj, gj, skip_inverse, clamp_margin, opts):
    """One back-chain step through layer j: the functional inverse g_j
    (skipped for a linear output layer), then a right-multiply by the
    pseudoinverse of W_j. Returns (target, clamped entry count)."""
    clamped = 0
    if not skip_inverse:
        t, clamped = invert_with_count(gj, t, clamp_margin)
    return t @ _pinv_array(wj, opts), clamped


def back_target(y, weights_after, activations_after, linear_output,
                clamp_margin=1e-9, pinv_opts: PinvOptions = None) -> Matrix:
    """Back-propagated target for a layer, given the downstream weights in
    output-to-inner order. The layer's own inverse is not applied here."""
    t = as_array(y, "y")
    if len(weights_after) != len(activations_after):
        raise InvalidArgumentError("weights_after / activations_after mismatch")
    opts = pinv_opts if pinv_opts is not None else PinvOptions()
    for idx, (wj, gj) in enumerate(zip(weights_after, activations_after)):
        t, _ = _pull_step(t, as_array(wj, "weights_after"), gj,
                          idx == 0 and linear_output, clamp_margin, opts)
    return Matrix(t)


def solve_masked_layer(a, t, mask, opts: PinvOptions = None) -> Matrix:
    """Least-squares weight with support restricted to a boolean mask.

    Column j is solved against only the design columns its mask admits;
    off-support entries are exactly zero. A column with empty support
    stays all zero.
    """
    aa = as_array(a, "a")
    tt = as_array(t, "t")
    if aa.shape[0] != tt.shape[0]:
        raise InvalidArgumentError("a and t must have the same row count")
    m = np.asarray(mask, dtype=bool)
    if m.shape != (aa.shape[1], tt.shape[1]):
        raise InvalidArgumentError(
            f"mask shape {m.shape} != {(aa.shape[1], tt.shape[1])}"
        )
    opts = opts if opts is not None else PinvOptions()
    w = np.zeros(m.shape)
    for j in range(m.shape[1]):
        support = np.flatnonzero(m[:, j])
        if support.size == 0:
            continue
        w[support, j] = (_pinv_array(aa[:, support], opts) @ tt[:, j : j + 1]).ravel()
    return Matrix(w)


def _solve_order(spec: NetworkSpec, init: InitScheme):
    n = spec.n_layers
    if init.solve_order is None:
        return list(range(1, n + 1))
    inner = list(init.solve_order)
    if sorted(inner) != list(range(1, n)):
        raise InvalidConfigurationError(
            f"solve_order must be a permutation of 1..{n - 1}, got {inner}"
        )
    return inner + [n]


def train(spec: NetworkSpec, x_raw, y, cfg: TrainConfig) -> TrainReport:
    """Solve every layer of `spec` once, in closed form.

    Both init schemes run the same loop over the solve order; they differ
    only in how they initialize. Random init draws a placeholder for each
    layer after the first, shaped like that layer's weight, from a
    generator seeded by cfg.init.seed. Each layer's weight is then the
    pseudoinverse of its design matrix times its back-propagated target;
    solved layers replace their placeholders in all later targets.
    data_matrix init draws nothing and solves in order: each hidden layer
    k < n solves A W = I, so W_k is the pseudoinverse of its design
    (hidden widths must equal the sample count; the residual reported is
    ||A W_k - I||), and the output layer solves against the data like any
    random-init layer.

    Two prefix caches keep each factorization to one: the design of
    every layer up to the next one solved, carried forward from aug(x),
    and y pulled back through the output-side layers, carried backward
    with its cumulative clamp count. Solving layer k drops the designs
    of the layers after k and every pull-back through layer k; each
    missing entry is rebuilt from its neighbour with the same operations
    in the same order as a from-scratch rebuild, so results are bit for
    bit those of rebuilding everything per layer. The default order
    makes 2n - 1 pseudoinverse factorizations (n - 1 placeholders, n
    solves) instead of n(n + 1) / 2, data_matrix init makes n; masked
    layers factorize per column.

    The output layer is solved last, against the design built from the
    final weights, so A W_n on that design is the forward pass's output
    pre-activation: train_sse is read from it, equal bit for bit to the
    SSE of `forward` on the training inputs, without a second pass.
    """
    t_start = time.perf_counter()
    x = as_array(x_raw, "x_raw")
    yarr = as_array(y, "y")
    if x.shape[1] != spec.input_dim:
        raise InvalidArgumentError(
            f"x has {x.shape[1]} columns, spec.input_dim is {spec.input_dim}"
        )
    if yarr.shape[0] != x.shape[0]:
        raise InvalidArgumentError("x and y must have the same row count")
    if yarr.shape[1] != spec.widths[-1]:
        raise InvalidArgumentError(
            f"y has {yarr.shape[1]} columns, output width is {spec.widths[-1]}"
        )

    n = spec.n_layers
    m = x.shape[0]
    acts = [layer.activation for layer in spec.layers]
    masks = default_masks(spec)
    xa = augment(x)
    opts = cfg.pinv_opts
    margin = cfg.clamp_margin
    intermediates = [] if cfg.record_intermediates else None

    residuals: List[float] = [0.0] * n
    counts: List[int] = [0] * n

    data_matrix = cfg.init.kind == "data_matrix"
    if data_matrix:
        for h in spec.widths[:-1]:
            if h != m:
                raise InvalidConfigurationError(
                    f"data_matrix init needs every hidden width equal to the "
                    f"sample count {m}, got {h}"
                )
        if any(mk is not None for mk in masks):
            raise InvalidConfigurationError(
                "banded layers cannot hold pseudoinverse-valued weights"
            )

    rng = np.random.default_rng(cfg.init.seed)

    def draw(k):
        shape = (spec.in_dims[k - 1], spec.widths[k - 1])
        r = rng.uniform(-1.0, 1.0, shape) * cfg.init.scale_c
        return r if masks[k - 1] is None else np.where(masks[k - 1], r, 0.0)

    # w[j] is layer j's placeholder until layer j is solved, then its weight;
    # data_matrix init solves in order and never reads a placeholder
    w: List[Optional[np.ndarray]] = [None] * (n + 1)
    if not data_matrix:
        for k in range(2, n + 1):
            w[k] = draw(k)
    order = _solve_order(spec, cfg.init)
    if order[0] != 1:
        # custom orders that defer layer 1 need a placeholder for it on
        # the design side; drawn after the others so forward-order runs
        # consume exactly the same stream
        w[1] = draw(1)

    # designs[j - 1] is layer j's input; pulled[i] is (y pulled back
    # through layers n..n+1-i, cumulative clamp count)
    designs = [xa]
    pulled = [(yarr, 0)]
    for k in order:
        while len(designs) < k:
            j = len(designs)
            designs.append(_apply(acts[j - 1], designs[-1] @ w[j]))
        a = designs[k - 1]
        solves_identity = data_matrix and k < n
        if solves_identity:
            # W_k solves A W = I: the pseudoinverse of the design itself
            wk = _pinv_array(a, opts)
            t, clamped = np.eye(m), 0
        else:
            while len(pulled) <= n - k:
                j = n + 1 - len(pulled)
                t, clamped = pulled[-1]
                t, c1 = _pull_step(t, w[j], acts[j - 1],
                                   j == n and spec.linear_output, margin, opts)
                pulled.append((t, clamped + c1))
            t, clamped = pulled[n - k]
            if not (k == n and spec.linear_output):
                t, c2 = invert_with_count(acts[k - 1], t, margin)
                clamped += c2
            if masks[k - 1] is not None:
                wk = solve_masked_layer(a, t, masks[k - 1], opts).array
            else:
                wk = _pinv_array(a, opts) @ t
        w[k] = wk
        # layer k now differs from its placeholder: drop every cached
        # design computed through it and every pull-back through it
        del designs[k:]
        del pulled[n + 1 - k:]
        residuals[k - 1] = float(np.linalg.norm(a @ wk - t))
        counts[k - 1] = clamped
        if intermediates is not None:
            record = {"layer": k, "design": Matrix(a)}
            if not solves_identity:
                record["target"] = Matrix(t)
            intermediates.append(record)
    weights = WeightSet([Matrix(wk) for wk in w[1:]], masks)

    # layer n was solved last, so `a` is its design under the final weights
    z = a @ w[n]
    out = z if spec.linear_output else _apply(acts[-1], z)
    report = TrainReport(
        weights=weights,
        train_sse=sse(out, yarr),
        per_layer_solve_residuals=residuals,
        clamped_entry_counts=counts,
        wall_time=time.perf_counter() - t_start,
        intermediates=intermediates,
    )
    return report
