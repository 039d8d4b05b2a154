"""Network topology, bias augmentation, banded receptive fields, forward pass.

A network is a chain of widths with one activation f; the raw input is
augmented with a leading all-ones column once, inner layers carry no bias.
Layer k computes f(A_{k-1} W_k); with linear_output the last f is skipped.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .activations import ActivationKind, _apply
from .errors import InvalidArgumentError, _check_bool, _check_int, _check_text
from .linalg import Matrix, _check_finite, as_array

__all__ = [
    "NetworkSpec",
    "WeightSet",
    "forward",
    "hidden_activation",
    "parse_structure",
    "build_spec",
]


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths h_1..h_n and the one activation f every layer applies
    (the output layer skips it with linear_output). receptive_fields None
    connects every layer fully; otherwise it holds one entry per layer,
    None for full or an odd band size r."""

    input_dim: int
    widths: Tuple[int, ...]
    activation: ActivationKind
    linear_output: bool = False
    receptive_fields: Optional[Tuple[Optional[int], ...]] = None

    def __post_init__(self):
        widths = tuple(self.widths)
        bands = (tuple(self.receptive_fields) if self.receptive_fields is not None
                 else (None,) * len(widths))
        _check_int("input_dim", self.input_dim, 1)
        _check_bool("linear_output", self.linear_output)
        if not widths:
            raise InvalidArgumentError("need at least one layer")
        if len(bands) != len(widths):
            raise InvalidArgumentError(
                f"{len(bands)} receptive fields for {len(widths)} layers")
        for k, (width, r) in enumerate(zip(widths, bands), start=1):
            _check_int(f"layer {k} width", width, 1)
            if r is not None:
                _check_int("receptive field", r, 1)
                if r % 2 == 0:
                    raise InvalidArgumentError(f"receptive field must be odd, got {r}")
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "receptive_fields", bands)

    @property
    def n_layers(self) -> int:
        return len(self.widths)

    @property
    def in_dims(self) -> Tuple[int, ...]:
        """Input dimension of each layer; layer 1 sees the augmented input."""
        return (self.input_dim + 1,) + self.widths[:-1]


class WeightSet:
    """One weight matrix per layer, each validated once and stored as a
    read-only Matrix. A banded layer's off-band zeros are its weight's own
    entries: `train` writes them exactly (`solve_masked_layer`)."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        self.weights = tuple(Matrix(w, "weight") for w in weights)

    def __len__(self):
        return len(self.weights)


def _input_design(spec: NetworkSpec, x_raw):
    """x_raw, validated once and checked against spec.input_dim, with a
    leading column of ones: m x d -> m x (d+1)."""
    x = as_array(x_raw, "x_raw")
    if x.shape[1] != spec.input_dim:
        raise InvalidArgumentError(
            f"x_raw has {x.shape[1]} columns, spec.input_dim is {spec.input_dim}")
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _receptive_mask(in_dim: int, width: int, r: int, biased_input: bool) -> np.ndarray:
    """Boolean in_dim x width band mask.

    Column centers are spaced linearly over the unbiased input indices; each
    column keeps a window of r consecutive rows around its center, shifted
    (not shortened) where it would run past either edge, so the bias row is
    covered only by windows that reach the top. r larger than the unbiased
    input count degenerates to a full (all-true) mask. The arguments come
    from a NetworkSpec, which has checked them.
    """
    data_count = in_dim - 1 if biased_input else in_dim
    if r > data_count:
        mask = np.ones((in_dim, width), dtype=bool)
        mask.setflags(write=False)
        return mask
    mask = np.zeros((in_dim, width), dtype=bool)
    for j in range(width):
        if width == 1:
            center_data = (data_count - 1) // 2
        else:
            center_data = int(round(j * (data_count - 1) / (width - 1)))
        center_row = center_data + 1 if biased_input else center_data
        start = min(max(center_row - (r - 1) // 2, 0), in_dim - r)
        mask[start : start + r, j] = True
    mask.setflags(write=False)
    return mask


def _default_masks(spec: NetworkSpec):
    """Per-layer masks implied by banded receptive fields (None when full)."""
    return [
        None if r is None
        else _receptive_mask(spec.in_dims[k], spec.widths[k], r, biased_input=(k == 0))
        for k, r in enumerate(spec.receptive_fields)
    ]


def _check_chain(spec: NetworkSpec, w: WeightSet):
    if len(w) != spec.n_layers:
        raise InvalidArgumentError(
            f"weight set has {len(w)} layers, spec has {spec.n_layers}"
        )
    for k, (wk, ind, wd) in enumerate(zip(w.weights, spec.in_dims, spec.widths)):
        if wk.shape != (ind, wd):
            raise InvalidArgumentError(
                f"layer {k + 1} weight is {wk.shape}, expected {(ind, wd)}"
            )


def _layer_step(spec: NetworkSpec, z: np.ndarray, k: int) -> np.ndarray:
    """Layer k's output f(z), or z for a linear output layer, from its
    pre-activation z, checked first: a product of finite arrays can overflow."""
    _check_finite(z, f"pre-activation of layer {k}")
    return z if k == spec.n_layers and spec.linear_output else _apply(spec.activation, z)


def hidden_activation(spec: NetworkSpec, w: WeightSet, x_raw, upto_layer: int):
    """Design matrix after `upto_layer` activated layers; 0 means the
    augmented input itself."""
    _check_int("upto_layer", upto_layer, 0)
    if upto_layer > spec.n_layers - 1:
        raise InvalidArgumentError(
            f"upto_layer must be in [0, {spec.n_layers - 1}], got {upto_layer}"
        )
    _check_chain(spec, w)
    a = _input_design(spec, x_raw)
    for k in range(upto_layer):
        a = _layer_step(spec, a @ w.weights[k].array, k + 1)
    return a


def forward(spec: NetworkSpec, w: WeightSet, x_raw):
    """Network output on raw (unaugmented) inputs."""
    a = hidden_activation(spec, w, x_raw, spec.n_layers - 1)
    return Matrix(_layer_step(spec, a @ w.weights[-1].array, spec.n_layers))


_TOKEN = re.compile(r"^(\d+)(?:\^r(\d+))?$")


def parse_structure(text: str):
    """Parse "30-50^r3-250-6" into [(width, band_or_None), ...]."""
    _check_text("structure", text)
    out = []
    for tok in text.strip().split("-"):
        m = _TOKEN.match(tok)
        if not m:
            raise InvalidArgumentError(f"bad structure token {tok!r} in {text!r}")
        width = int(m.group(1))
        band = int(m.group(2)) if m.group(2) else None
        out.append((width, band))
    return out


def build_spec(structure: str, input_dim: int, activation: ActivationKind,
               linear_output: bool = False) -> NetworkSpec:
    """NetworkSpec from a structure string and the network's activation."""
    widths, bands = zip(*parse_structure(structure))
    return NetworkSpec(input_dim, widths, activation, linear_output, bands)
