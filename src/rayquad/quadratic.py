"""Piecewise-quadratic opacity: interpolation, integrals, and pathologies.

One parabola is fit through each triple of knots (Lagrange form), so a
grid needs an odd interior sample count for the patches to tile its
intervals in pairs.  The per-subinterval opacity integrals are rational
functions of the knot gaps, not polynomials, and the gap denominators do
not cancel.  The rational expressions are kept exactly as derived, with
no algebraic re-simplification, because the point of this module is to
exhibit the resulting conditioning problems: when a sharp opacity rise
meets nearly coincident samples, a subinterval integral goes negative and
the corresponding transmittance factor exceeds one, which no probability
can do.  Both pathologies are preserved deliberately and shipped as a
regression fixture.

Inverse transform sampling is NOT provided for this model.  The in-patch
cumulative opacity is cubic, so inverting the CDF means solving cubics
(and degree n interpolation means degree n + 1 root finding, which has no
radical solution past quartics); the complexity and conditioning make it
impractical, so only the forward formulas are implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rays import OpacityTrace, SampleGrid, _frozen, _is_real


@dataclass(frozen=True, eq=False)
class QuadraticPatch:
    """Three knots and their opacities defining one parabola.

    Gap aliases: alpha is the left subinterval width, beta the right,
    gamma their sum.
    """

    knots: np.ndarray
    taus: np.ndarray

    def __post_init__(self):
        knots, taus = _frozen(self, "knots"), _frozen(self, "taus")
        if knots.shape != (3,) or taus.shape != (3,):
            raise ValueError("a patch needs exactly three knots and three opacities")
        if not (knots[0] < knots[1] < knots[2]):
            raise ValueError("patch knots must be strictly increasing")

    @property
    def alpha(self) -> float:
        return float(self.knots[1] - self.knots[0])

    @property
    def beta(self) -> float:
        return float(self.knots[2] - self.knots[1])

    @property
    def gamma(self) -> float:
        return float(self.knots[2] - self.knots[0])


# Shipped regression fixture: opacity doubling across a 0.01-wide gap.
# Its empirical slope (2 - 1) / 0.01 = 100 exceeds the stability threshold
# 6 of its left subinterval, so the left integral is negative and the
# corresponding transmittance factor exceeds one.
PATHOLOGICAL_PATCH = QuadraticPatch(
    knots=np.array([0.0, 1.0, 1.01]), taus=np.array([1.0, 1.0, 2.0])
)


def quad_eval(patch: QuadraticPatch, s):
    """Evaluate the Lagrange parabola through the patch knots at ``s``."""
    s = np.asarray(s, dtype=np.float64)
    k0, k1, k2 = patch.knots
    if not ((s >= k0) & (s <= k2)).all():
        raise ValueError("evaluation point outside the patch")
    t0, t1, t2 = patch.taus
    a, b, g = patch.alpha, patch.beta, patch.gamma
    return (
        t0 / (a * g) * (s - k1) * (s - k2)
        - t1 / (a * b) * (s - k0) * (s - k2)
        + t2 / (b * g) * (s - k0) * (s - k1)
    )


def quad_integral_left(patch: QuadraticPatch) -> float:
    """Opacity integral over the left subinterval [knot0, knot1]."""
    t0, t1, t2 = patch.taus
    a, b, g = patch.alpha, patch.beta, patch.gamma
    return float(
        t0 / g * (a * a / 3.0 + a * b / 2.0)
        - t1 / b * (a * a / 3.0 - a * g / 2.0)
        + t2 / (b * g) * -(a**3) / 6.0
    )


def quad_integral_right(patch: QuadraticPatch) -> float:
    """Opacity integral over the right subinterval [knot1, knot2]."""
    t0, t1, t2 = patch.taus
    a, b, g = patch.alpha, patch.beta, patch.gamma
    return float(
        t0 / (a * g) * -(b**3) / 6.0
        - t1 / a * (b * b / 3.0 - b * g / 2.0)
        + t2 / g * (b * b / 3.0 + b * a / 2.0)
    )


def patches_from(grid: SampleGrid, tau: OpacityTrace) -> list[QuadraticPatch]:
    """Tile the grid with patches starting at even point indices 0, 2, 4...

    Needs an odd interior count so the final patch ends at the far bound.
    """
    if grid.n % 2 == 0:
        raise ValueError(
            f"quadratic model needs an odd interior sample count, got {grid.n}"
        )
    if tau.values.size != grid.n + 2:
        raise ValueError("opacity trace does not match grid size")
    pts = grid.points
    return [
        QuadraticPatch(knots=pts[j : j + 3], taus=tau.values[j : j + 3])
        for j in range(0, grid.n + 1, 2)
    ]


def transmittance_quadratic(grid: SampleGrid, tau: OpacityTrace) -> np.ndarray:
    """Survival values at grid points under the patchwise parabolas.

    Factors are exponentials of the per-subinterval integrals; a negative
    integral yields a factor above one, and the value is reported as-is.
    """
    patches = patches_from(grid, tau)
    depths = np.empty(grid.n + 1)
    for p, patch in enumerate(patches):
        depths[2 * p] = quad_integral_left(patch)
        depths[2 * p + 1] = quad_integral_right(patch)
    log_t = np.concatenate(([0.0], -np.cumsum(depths)))
    return np.exp(log_t)


def instability_threshold(tau_j: float, tau_j1: float, alpha: float) -> float:
    """Opacity slope past which the left integral goes negative.

    In the limit of the right knot approaching the middle one, the left
    subinterval integral turns negative exactly when the local opacity
    slope at the middle knot exceeds (2 tau_j + 4 tau_{j+1}) / alpha.
    """
    if not (_is_real(tau_j) and _is_real(tau_j1)):
        raise ValueError(f"knot opacities must be real, got tau_j={tau_j!r}, tau_j1={tau_j1!r}")
    if not _is_real(alpha, "positive"):
        raise ValueError(f"left subinterval width must be positive and finite, got alpha={alpha!r}")
    return (2.0 * tau_j + 4.0 * tau_j1) / alpha
