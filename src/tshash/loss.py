"""Pairwise code losses and their exact per-bit quadratic form.

Every supported loss depends on a pair of m-bit sign codes only through
their inner product s = z_i . z_j (equivalently the Hamming distance
d_h = (m - s) / 2). When all bits but one are held fixed, such a loss
restricted to the free bit pair (z1, z2) takes exactly two values, so it
equals a * z1 * z2 + c with

    a = (l(+1,+1) - l(-1,+1)) / 2,   c = (l(+1,+1) + l(-1,+1)) / 2.

That identity is what turns each bit update into a quadratic problem; it is
verified exhaustively in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LOSS_TAGS",
    "LossKind",
    "pair_loss",
    "quadratic_coeffs",
]

LOSS_TAGS = ("ksh", "bre", "splh", "ee", "exph")

# Weight of the dissimilar-pair term of the ee loss.
_EE_LAMBDA = 100.0


@dataclass(frozen=True)
class LossKind:
    """A loss family instance: tag and code length m."""

    tag: str
    m: int

    def __post_init__(self):
        if self.tag not in LOSS_TAGS:
            raise ValueError(f"unknown loss {self.tag!r}; valid: {', '.join(LOSS_TAGS)}")
        if self.m < 1:
            raise ValueError("m must be >= 1")


def _loss_values(kind: LossKind, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = kind.m
    d_h = (m - s) / 2.0
    if kind.tag == "ksh":
        return (s - m * y) ** 2
    if kind.tag == "bre":
        y01 = np.where(y > 0, 0.0, 1.0)
        return (d_h / m - y01) ** 2
    if kind.tag == "splh":
        return np.exp(-y * s / m)
    if kind.tag == "ee":
        return (y > 0) * d_h + _EE_LAMBDA * (y < 0) * np.exp(-d_h / m)
    # exph
    return np.exp((y * d_h + m * (y < 0)) / m)


def _gram_scale(kind: LossKind) -> float | None:
    """Scale of kind's Gram form under label supervision (codegen.LowRankBqp), or None.

    On +-1 affinities ksh's pair loss is (s - m y)^2, and bre's is that over 4m^2.
    """
    return {"ksh": 1.0, "bre": 1.0 / (4.0 * kind.m**2)}.get(kind.tag)


def pair_loss(kind: LossKind, s, y):
    """Loss of a code pair with inner product s and affinity y.

    s must satisfy |s| <= m and s == m (mod 2); accepts scalars or arrays.
    """
    s_arr = np.asarray(s, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if np.any(np.abs(s_arr) > kind.m):
        raise ValueError(f"|s| exceeds m={kind.m}")
    if np.any((s_arr - kind.m) % 2 != 0):
        raise ValueError(f"s must have the parity of m={kind.m}")
    out = _loss_values(kind, s_arr, y_arr)
    if np.isscalar(s) and np.isscalar(y):
        return float(out)
    return out


def quadratic_coeffs(kind: LossKind, sbar, y):
    """Vectorized (a, c) pairs for bit updates with fixed-rest products sbar.

    a * z1 * z2 + c reproduces the restricted loss for all four sign
    combinations of the free bit pair.
    """
    sbar_arr = np.asarray(sbar, dtype=np.float64)
    if np.any(np.abs(sbar_arr) > kind.m - 1):
        raise ValueError(f"|sbar| exceeds m-1={kind.m - 1}")
    if np.any((sbar_arr - (kind.m - 1)) % 2 != 0):
        raise ValueError(f"sbar must have the parity of m-1={kind.m - 1}")
    y_arr = np.asarray(y, dtype=np.float64)
    hi = _loss_values(kind, sbar_arr + 1, y_arr)
    lo = _loss_values(kind, sbar_arr - 1, y_arr)
    return 0.5 * (hi - lo), 0.5 * (hi + lo)

