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

from .errors import DomainViolationError, InvalidArgumentError
from .linalg import as_array

__all__ = [
    "ActivationKind",
    "apply",
    "format_kind",
    "invert",
    "invert_with_count",
    "parse_kind",
]

LN_08 = math.log(0.8)

_VARIANTS = ("identity", "softplus", "softplus08", "exp_scaled")


@dataclass(frozen=True)
class ActivationKind:
    """One of: identity, softplus log(1+e^x), softplus08 log(0.8+e^x),
    exp_scaled e^(alpha x)."""

    variant: str
    alpha: float = 1e-4

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise InvalidArgumentError(f"unknown activation {self.variant!r}")
        if self.variant == "exp_scaled" and not self.alpha > 0:
            raise InvalidArgumentError("exp_scaled alpha must be > 0")

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
    def exp_scaled(cls, alpha: float = 1e-4):
        return cls("exp_scaled", alpha)

    @property
    def lower_bound(self) -> float:
        """Infimum of the range; the inverse domain is (lower_bound, inf)."""
        if self.variant == "identity":
            return -math.inf
        if self.variant == "softplus":
            return 0.0
        if self.variant == "softplus08":
            return LN_08
        return 0.0


def format_kind(kind: ActivationKind) -> str:
    if kind.variant == "exp_scaled":
        return f"exp:{kind.alpha:g}"
    return kind.variant


def parse_kind(text: str) -> ActivationKind:
    """Inverse of format_kind; accepts identity/softplus/softplus08/exp:<a>."""
    if text in ("identity", "softplus", "softplus08"):
        return ActivationKind(text)
    if text.startswith("exp:"):
        try:
            alpha = float(text[4:])
        except ValueError:
            raise InvalidArgumentError(f"bad exp_scaled alpha in {text!r}") from None
        return ActivationKind.exp_scaled(alpha)
    raise InvalidArgumentError(f"unknown activation string {text!r}")


def _apply_array(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    if kind.variant == "identity":
        return np.array(x, copy=True)
    if kind.variant == "softplus":
        # logaddexp(0, x) == log(1 + e^x) without overflow for large x
        return np.logaddexp(0.0, x)
    if kind.variant == "softplus08":
        return np.logaddexp(LN_08, x)
    # exponent clipped just inside float64 range so output stays finite
    return np.exp(np.clip(kind.alpha * x, -700.0, 700.0))


def apply(kind: ActivationKind, a):
    """f(a) entrywise."""
    return _apply_array(kind, as_array(a, "activation input"))


def _invert_array(kind: ActivationKind, y: np.ndarray, clamp_margin):
    """Returns (g(y), clamped_count); raises on out-of-domain when the
    clamp is disabled (margin None) or cannot help (margin 0)."""
    low = kind.lower_bound
    clamped = 0
    if math.isfinite(low):
        if clamp_margin is None or clamp_margin == 0.0:
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


def invert_with_count(kind: ActivationKind, y, clamp_margin=1e-9):
    """g(y) entrywise plus the number of entries raised to the clamp floor."""
    return _invert_array(kind, as_array(y, "inverse input"), clamp_margin)


def invert(kind: ActivationKind, y, clamp_margin=1e-9):
    """g(y) entrywise.

    Entries below lower_bound + clamp_margin are raised to that floor
    first. Pass clamp_margin=None to disable clamping, in which case any
    entry at or below the bound raises DomainViolationError naming its
    position.
    """
    out, _ = invert_with_count(kind, y, clamp_margin)
    return out
