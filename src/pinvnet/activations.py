"""Elementwise activation functions and their inverses.

Every supported activation is strictly increasing and invertible on its
range; the inverse of each has an explicit lower domain bound L (open
interval (L, inf) of admissible values). Values at or below L can either
raise or be clamped up to L + margin, because pseudoinverse projections
routinely push targets marginally out of range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainViolationError, InvalidArgumentError, _check_real, _check_text,
                     _check_type)
from .linalg import as_array

__all__ = [
    "ActivationKind",
    "apply",
    "format_kind",
    "invert",
    "parse_kind",
]

LN_08 = math.log(0.8)

# each variant's lower bound L: the infimum of its range
_LOWER_BOUNDS = {"identity": -math.inf, "softplus": 0.0, "softplus08": LN_08,
                 "exp_scaled": 0.0}

# by default, inverse inputs below L + 1e-9 are raised to that floor
_DEFAULT_MARGIN = 1e-9

_DEFAULT_ALPHA = 1e-4


@dataclass(frozen=True)
class ActivationKind:
    """One of: identity, softplus log(1+e^x), softplus08 log(0.8+e^x),
    exp_scaled e^(alpha x). Only exp_scaled reads alpha; the others
    reject any alpha but the default, so equal behaviour compares equal."""

    variant: str
    alpha: float = _DEFAULT_ALPHA

    def __post_init__(self):
        _check_text("variant", self.variant, _LOWER_BOUNDS)
        if self.variant != "exp_scaled" and self.alpha != _DEFAULT_ALPHA:
            raise InvalidArgumentError(
                f"{self.variant} takes no alpha, got {self.alpha!r}")
        _check_real("alpha", self.alpha, 0, strict=True)

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def softplus(cls):
        return cls("softplus")

    @classmethod
    def softplus08(cls):
        return cls("softplus08")

    @classmethod
    def exp_scaled(cls, alpha: float = _DEFAULT_ALPHA):
        return cls("exp_scaled", alpha)

    @property
    def lower_bound(self) -> float:
        """Infimum of the range; the inverse domain is (lower_bound, inf)."""
        return _LOWER_BOUNDS[self.variant]


def format_kind(kind: ActivationKind) -> str:
    """The text `parse_kind` reads back to `kind`: exp:<alpha> in the short
    %g form when that parses back to alpha exactly, else repr(alpha)."""
    _check_type("kind", kind, ActivationKind)
    if kind.variant != "exp_scaled":
        return kind.variant
    text = f"{kind.alpha:g}"
    return "exp:" + (text if float(text) == kind.alpha else repr(float(kind.alpha)))


def parse_kind(text: str) -> ActivationKind:
    """Inverse of format_kind; accepts identity/softplus/softplus08/exp:<a>."""
    _check_text("activation", text)
    if text in ("identity", "softplus", "softplus08"):
        return ActivationKind(text)
    if text.startswith("exp:"):
        try:
            alpha = float(text[4:])
        except ValueError:
            raise InvalidArgumentError(f"bad exp_scaled alpha in {text!r}") from None
        return ActivationKind.exp_scaled(alpha)
    raise InvalidArgumentError(f"unknown activation string {text!r}")


def apply(kind: ActivationKind, a):
    """f(a) entrywise."""
    _check_type("kind", kind, ActivationKind)
    return _apply(kind, as_array(a, "activation input"))


def _apply(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    """`apply` on a float64 array its caller already checked."""
    if kind.variant == "identity":
        return np.array(x, copy=True)
    if kind.variant == "softplus":
        # logaddexp(0, x) == log(1 + e^x) without overflow for large x
        return np.logaddexp(0.0, x)
    if kind.variant == "softplus08":
        return np.logaddexp(LN_08, x)
    # exponent clipped just inside float64 range so output stays finite
    return np.exp(np.clip(kind.alpha * x, -700.0, 700.0))


def _invert_with_count(kind: ActivationKind, y: np.ndarray, clamp_margin: float):
    """`invert` on a float64 array and margin its caller already checked,
    plus the number of entries raised to the clamp floor."""
    low = kind.lower_bound
    clamped = 0
    if math.isfinite(low):
        if clamp_margin == 0:
            bad = y <= low
            if bad.any():
                pos = tuple(int(v) for v in np.argwhere(bad)[0])
                raise DomainViolationError(
                    f"entry {y[pos]!r} at {pos} is <= inverse-domain bound {low!r} "
                    f"for {kind.variant} and clamping is disabled",
                    position=pos,
                    value=float(y[pos]),
                )
        else:
            floor = low + clamp_margin
            below = y < floor
            clamped = int(below.sum())
            if clamped:
                y = np.where(below, floor, y)

    if kind.variant == "identity":
        return np.array(y, copy=True), clamped
    if kind.variant == "exp_scaled":
        return np.log(y) / kind.alpha, clamped

    # softplus family: x = L + log(expm1(y - L)) for moderate y, switching
    # to the exact rewrite y + log1p(-c e^-y) once y - L > 30 (expm1 would
    # overflow while the correction term is already below 1e-13)
    c = 1.0 if kind.variant == "softplus" else 0.8
    u = y - low
    out = np.empty_like(u)
    small = u <= 30.0
    out[small] = low + np.log(np.expm1(u[small]))
    big = ~small
    out[big] = y[big] + np.log1p(-c * np.exp(-y[big]))
    return out, clamped


def invert(kind: ActivationKind, y, clamp_margin=_DEFAULT_MARGIN):
    """g(y) entrywise.

    Entries below lower_bound + clamp_margin are raised to that floor
    first. Pass clamp_margin=0 to disable clamping, in which case any
    entry at or below the bound raises DomainViolationError naming its
    position. clamp_margin must be a finite number >= 0.
    """
    _check_type("kind", kind, ActivationKind)
    _check_real("clamp_margin", clamp_margin, 0)
    return _invert_with_count(kind, as_array(y, "inverse input"), clamp_margin)[0]
