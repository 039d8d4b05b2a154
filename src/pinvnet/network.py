"""Network topology, bias augmentation, banded receptive fields, forward pass.

A network is a chain of widths; the raw input is augmented with a leading
all-ones column once, inner layers carry no bias. Layer k computes
f_k(A_{k-1} W_k); with linear_output the last activation is skipped.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .activations import ActivationKind, apply
from .errors import InvalidArgumentError
from .linalg import Matrix, as_array

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "WeightSet",
    "augment",
    "receptive_mask",
    "default_masks",
    "forward",
    "hidden_activation",
    "parse_structure",
    "format_structure",
    "build_spec",
]


@dataclass(frozen=True)
class LayerSpec:
    """width h_k, receptive_field None for full or an odd band size r,
    and the layer's activation."""

    width: int
    receptive_field: Optional[int] = None
    activation: ActivationKind = field(default_factory=ActivationKind.softplus08)

    def __post_init__(self):
        if self.width < 1:
            raise InvalidArgumentError("layer width must be >= 1")
        r = self.receptive_field
        if r is not None and (r < 1 or r % 2 == 0):
            raise InvalidArgumentError(f"receptive field must be odd >= 1, got {r}")


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    layers: Tuple[LayerSpec, ...]
    linear_output: bool = False

    def __post_init__(self):
        if self.input_dim < 1:
            raise InvalidArgumentError("input_dim must be >= 1")
        if not self.layers:
            raise InvalidArgumentError("need at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def widths(self) -> Tuple[int, ...]:
        return tuple(l.width for l in self.layers)

    @property
    def in_dims(self) -> Tuple[int, ...]:
        """Input dimension of each layer; layer 1 sees the augmented input."""
        return (self.input_dim + 1,) + self.widths[:-1]


class WeightSet:
    """One weight matrix per layer plus optional boolean masks.

    Each weight is validated once and stored as a read-only Matrix.
    Masked-out entries are forced to exactly zero at construction, so the
    forward pass is invariant to whatever values were stored off-support.
    """

    __slots__ = ("weights", "masks")

    def __init__(self, weights, masks=None):
        ws = [as_array(w, "weight") for w in weights]
        if masks is None:
            masks = [None] * len(ws)
        if len(masks) != len(ws):
            raise InvalidArgumentError("masks list must match weights list")
        fixed_w, fixed_m = [], []
        for w, mk in zip(ws, masks):
            if mk is not None:
                mk = np.array(mk, dtype=bool)  # a copy: the caller's stays writable
                if mk.shape != w.shape:
                    raise InvalidArgumentError(
                        f"mask shape {mk.shape} != weight shape {w.shape}"
                    )
                mk.setflags(write=False)
                w = np.where(mk, w, 0.0)
            fixed_w.append(Matrix(w))
            fixed_m.append(mk)
        self.weights = tuple(fixed_w)
        self.masks = tuple(fixed_m)

    def __len__(self):
        return len(self.weights)


def augment(x):
    """Prepend a column of ones: m x d -> m x (d+1)."""
    arr = as_array(x, "augment input")
    return np.hstack([np.ones((arr.shape[0], 1)), arr])


def receptive_mask(in_dim: int, width: int, r: int, biased_input: bool) -> np.ndarray:
    """Boolean in_dim x width band mask.

    Column centers are spaced linearly over the unbiased input indices; each
    column keeps a window of r consecutive rows around its center, shifted
    (not shortened) where it would run past either edge, so the bias row is
    covered only by windows that reach the top. r larger than the unbiased
    input count degenerates to a full (all-true) mask.
    """
    if r < 1 or r % 2 == 0:
        raise InvalidArgumentError(f"receptive field must be odd >= 1, got {r}")
    if in_dim < 1 or width < 1:
        raise InvalidArgumentError("in_dim and width must be >= 1")
    data_count = in_dim - 1 if biased_input else in_dim
    if data_count < 1:
        raise InvalidArgumentError("no unbiased inputs under the band")
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


def default_masks(spec: NetworkSpec):
    """Per-layer masks implied by banded receptive fields (None when full)."""
    out = []
    for k, layer in enumerate(spec.layers):
        if layer.receptive_field is None:
            out.append(None)
        else:
            out.append(
                receptive_mask(
                    spec.in_dims[k], layer.width, layer.receptive_field,
                    biased_input=(k == 0),
                )
            )
    return out


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


def hidden_activation(spec: NetworkSpec, w: WeightSet, x_raw, upto_layer: int):
    """Design matrix after `upto_layer` activated layers; 0 means the
    augmented input itself."""
    if not 0 <= upto_layer <= spec.n_layers - 1:
        raise InvalidArgumentError(
            f"upto_layer must be in [0, {spec.n_layers - 1}], got {upto_layer}"
        )
    _check_chain(spec, w)
    x = as_array(x_raw, "x_raw")
    if x.shape[1] != spec.input_dim:
        raise InvalidArgumentError(
            f"input has {x.shape[1]} columns, spec.input_dim is {spec.input_dim}"
        )
    a = augment(x)
    for k in range(upto_layer):
        a = apply(spec.layers[k].activation, a @ w.weights[k].array)
    return a


def forward(spec: NetworkSpec, w: WeightSet, x_raw):
    """Network output on raw (unaugmented) inputs."""
    a = hidden_activation(spec, w, x_raw, spec.n_layers - 1)
    z = a @ w.weights[-1].array
    if not spec.linear_output:
        z = apply(spec.layers[-1].activation, z)
    return Matrix(z)


_TOKEN = re.compile(r"^(\d+)(?:\^r(\d+))?$")


def parse_structure(text: str):
    """Parse "30-50^r3-250-6" into [(width, band_or_None), ...]."""
    out = []
    for tok in text.strip().split("-"):
        m = _TOKEN.match(tok)
        if not m:
            raise InvalidArgumentError(f"bad structure token {tok!r} in {text!r}")
        width = int(m.group(1))
        band = int(m.group(2)) if m.group(2) else None
        out.append((width, band))
    return out


def format_structure(spec: NetworkSpec) -> str:
    toks = []
    for layer in spec.layers:
        t = str(layer.width)
        if layer.receptive_field is not None:
            t += f"^r{layer.receptive_field}"
        toks.append(t)
    return "-".join(toks)


def build_spec(structure: str, input_dim: int, activation: ActivationKind,
               linear_output: bool = False) -> NetworkSpec:
    """NetworkSpec from a structure string; the activation applies to every
    layer (network-wide, per the structure grammar)."""
    layers = tuple(
        LayerSpec(width, band, activation)
        for width, band in parse_structure(structure)
    )
    return NetworkSpec(input_dim, layers, linear_output)
