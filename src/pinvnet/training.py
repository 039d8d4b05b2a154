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

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .activations import _DEFAULT_MARGIN, _invert_with_count
from .errors import (InvalidArgumentError, _check_int, _check_real, _check_sequence,
                     _check_text, _check_type)
from .linalg import (_DEFAULT_OPTS, PinvOptions, _check_finite, _pinv_array,
                     _pinv_or_inverse, as_array, sse)
from .network import NetworkSpec, WeightSet, _default_masks, _input_design, _layer_step

__all__ = [
    "InitScheme",
    "TrainConfig",
    "TrainReport",
    "train",
]


@dataclass(frozen=True)
class InitScheme:
    """Placeholder initialization and solve order.

    kind "random": placeholders drawn uniform on [-1, 1] times scale_c from
    a seeded generator. kind "data_matrix": no randomness, every non-output
    weight is the pseudoinverse of its design matrix (requires all hidden
    widths equal to the sample count), so seed 0, scale_c 1.0 and no
    solve_order. solve_order None solves layers 1..n in order; a sequence
    of ints permutes the inner layers only, the output layer last.
    """

    kind: str = "random"
    seed: int = 0
    scale_c: float = 1.0
    solve_order: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        _check_text("kind", self.kind, ("random", "data_matrix"))
        _check_int("seed", self.seed, 0)
        _check_real("scale_c", self.scale_c, 0, strict=True)
        if self.kind == "data_matrix":
            for name, unread in (("seed", 0), ("scale_c", 1.0)):
                if getattr(self, name) != unread:
                    raise InvalidArgumentError(
                        f"{name} must be {unread!r} under data_matrix init, "
                        f"got {getattr(self, name)!r}")
        if self.solve_order is not None:
            object.__setattr__(self, "solve_order",
                               _check_sequence("solve_order", self.solve_order, "ints"))
            if self.kind == "data_matrix":
                raise InvalidArgumentError(
                    "data_matrix init is inherently sequential; no custom order"
                )
            for i, k in enumerate(self.solve_order):
                _check_int(f"solve_order[{i}]", k, 1)

    @classmethod
    def random(cls, seed: int = 0, scale_c: float = 1.0, solve_order=None):
        return cls("random", seed, scale_c, solve_order)

    @classmethod
    def data_matrix(cls):
        return cls("data_matrix")


@dataclass(frozen=True)
class TrainConfig:
    init: InitScheme
    pinv_opts: PinvOptions = _DEFAULT_OPTS
    clamp_margin: float = _DEFAULT_MARGIN

    def __post_init__(self):
        _check_type("init", self.init, InitScheme)
        _check_type("pinv_opts", self.pinv_opts, PinvOptions)
        _check_real("clamp_margin", self.clamp_margin, 0)


@dataclass
class TrainReport:
    """The solved weights, the output's SSE on the training data, and per
    layer the residual ||A W_k - T_k|| and the entries clamped on the way to
    T_k, cumulative: those of f's inverse into T_k and of every pull back
    through the layers after k (a data_matrix hidden layer clamps none)."""

    weights: WeightSet
    train_sse: float
    per_layer_solve_residuals: List[float]
    clamped_entry_counts: List[int]


def _clamp_note(what, f, margin, clamped):
    """`what`, and the clamp floor and clamp_margin if a clamp fed it: the
    one way a large margin reaches a pulled target or a weight."""
    if not clamped:
        return what
    return (f"{what} (from a target clamped to floor {f.lower_bound + margin!r} "
            f"= lower bound {f.lower_bound!r} + clamp_margin {margin!r})")


def _pull_step(t, wj, opts, what):
    """One back-chain step through layer j: the target, already through
    f's inverse, times W_j's pseudoinverse, an LU inverse when W_j is
    square and certified well-conditioned (`linalg._pinv_or_inverse`);
    raises naming `what` if the product is not finite."""
    return _check_finite(t @ _pinv_or_inverse(wj, opts), what)


def solve_masked_layer(a, t, mask, opts: PinvOptions = _DEFAULT_OPTS) -> np.ndarray:
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
    w = np.zeros(m.shape)
    for j in range(m.shape[1]):
        support = np.flatnonzero(m[:, j])
        if support.size == 0:
            continue
        w[support, j] = (_pinv_array(aa[:, support], opts) @ tt[:, j : j + 1]).ravel()
    return w


def _solve_order(spec: NetworkSpec, init: InitScheme):
    n = spec.n_layers
    if init.solve_order is None:
        return list(range(1, n + 1))
    inner = list(init.solve_order)
    if sorted(inner) != list(range(1, n)):
        raise InvalidArgumentError(
            f"solve_order must be a permutation of 1..{n - 1}, got {inner}"
        )
    return inner + [n]


def train(spec: NetworkSpec, x_raw, y, cfg: TrainConfig) -> TrainReport:
    """Solve every layer of `spec` once, in closed form.

    Every layer of both init schemes is one target and one projection:
    W_k is the pseudoinverse of its design matrix times its target.
    Random init draws a placeholder for each layer after the first, shaped
    like that layer's weight, from a generator seeded by cfg.init.seed,
    and targets y pulled back through the layers after k, whose solved
    weights replace their placeholders. data_matrix init draws nothing and
    solves in order; each hidden layer k < n targets I, so W_k = A^+ I
    (hidden widths must equal the sample count; the residual reported is
    ||A W_k - I||), and the output layer targets the data. A non-finite
    pulled target, weight or pre-activation raises InvalidArgumentError
    naming its layer, and clamp_margin if a clamped target fed it.

    Two prefix caches keep each factorization to one: the design of
    every layer up to the next one solved, carried forward from aug(x),
    and y pulled back through the output-side layers and f's inverse,
    carried backward with its cumulative clamp count, so each pulled
    target is inverted once, for the layer it targets and for the next
    pull step alike. Solving layer k drops the designs of the layers
    after k and every pull-back through layer k; when the next layer
    solved comes after k, layer k + 1's design is built at once from the
    product A W_k that k's residual needs. Each missing entry is rebuilt
    from its neighbour with the same operations in the same order as a
    from-scratch rebuild, so results are bit for bit those of rebuilding
    everything per layer. The default order makes 2n - 1 pseudoinverse
    factorizations (n - 1 placeholders, n solves) instead of
    n(n + 1) / 2, data_matrix init makes n; masked layers factorize per
    column. Each is an SVD, except that a square
    placeholder certified well-conditioned under the default cutoff is
    pulled through by an LU inverse (`linalg._pinv_or_inverse`); designs
    always take the SVD, whose cutoff must see their singular values.

    The output layer is solved last, against the design built from the
    final weights, so A W_n on that design is the forward pass's output
    pre-activation: train_sse is read from it through `forward`'s own
    layer step, equal bit for bit to `forward`'s SSE, without a second pass.
    """
    _check_type("spec", spec, NetworkSpec)
    _check_type("cfg", cfg, TrainConfig)
    xa = _input_design(spec, x_raw)
    yarr = as_array(y, "y")
    if yarr.shape[0] != xa.shape[0]:
        raise InvalidArgumentError("x and y must have the same row count")
    if yarr.shape[1] != spec.widths[-1]:
        raise InvalidArgumentError(
            f"y has {yarr.shape[1]} columns, output width is {spec.widths[-1]}"
        )

    n = spec.n_layers
    m = xa.shape[0]
    f = spec.activation
    masks = _default_masks(spec)
    opts = cfg.pinv_opts
    margin = cfg.clamp_margin

    residuals: List[float] = [0.0] * n
    counts: List[int] = [0] * n

    data_matrix = cfg.init.kind == "data_matrix"
    if data_matrix:
        for h in spec.widths[:-1]:
            if h != m:
                raise InvalidArgumentError(
                    f"data_matrix init needs every hidden width equal to the "
                    f"sample count {m}, got {h}"
                )
        if any(mk is not None for mk in masks):
            raise InvalidArgumentError(
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

    # designs[j - 1] is layer j's input; pulled[i] is (f^-1 of y pulled
    # back through layers n..n+1-i, cumulative clamp count), layer n+1-i's
    # target and the input of the pull through it; pulled[0] is y itself
    # for a linear output
    designs = [xa]
    pulled = []
    for pos, k in enumerate(order):
        while len(designs) < k:
            j = len(designs)
            designs.append(_layer_step(spec, designs[-1] @ w[j], j))
        a = designs[k - 1]
        if data_matrix and k < n:
            # a data_matrix hidden layer targets I, so W_k = A^+ I = A^+
            t, clamped = np.eye(m), 0
        else:
            while len(pulled) <= n - k:
                i = len(pulled)
                if i == 0:
                    t, clamped = yarr, 0
                else:
                    t, clamped = pulled[-1]
                    t = _pull_step(t, w[n + 1 - i], opts, _clamp_note(
                        f"back-chained target for layer {n - i}", f, margin, clamped))
                if not (i == 0 and spec.linear_output):
                    t, c = _invert_with_count(f, t, margin)
                    clamped += c
                pulled.append((t, clamped))
            t, clamped = pulled[n - k]
        if masks[k - 1] is not None:
            wk = solve_masked_layer(a, t, masks[k - 1], opts)
        else:
            wk = _pinv_array(a, opts) @ t
        w[k] = _check_finite(
            wk, _clamp_note(f"solved weight of layer {k}", f, margin, clamped))
        # layer k now differs from its placeholder: drop every cached
        # design computed through it and every pull-back through it
        del designs[k:]
        del pulled[n + 1 - k:]
        z = a @ wk
        residuals[k - 1] = float(np.linalg.norm(z - t))
        counts[k - 1] = clamped
        if k < n:  # only the output layer's product outlives its solve
            if order[pos + 1] > k:  # the next solve reads layer k + 1's design
                designs.append(_layer_step(spec, z, k))
            del z

    # layer n was solved last: z is the output's pre-activation
    return TrainReport(
        weights=WeightSet(w[1:]),
        train_sse=sse(_layer_step(spec, z, n), yarr),
        per_layer_solve_residuals=residuals,
        clamped_entry_counts=counts,
    )
