"""Closed-form transmittance, interval probabilities, and rendering.

Two per-interval opacity models are supported.  The constant model assigns
each interval the opacity of its left sample, so crossing interval
``[s_j, s_{j+1}]`` attenuates by ``exp(-tau_j * (s_{j+1} - s_j))``.  The
linear model interpolates opacity between the interval endpoints, and the
integral of that linear segment is the trapezoid
``(tau_j + tau_{j+1}) * (s_{j+1} - s_j) / 2``, so every transmittance
factor stays an elementary exponential.

Both models yield the interval probability ``P_j = T_j - T_{j+1}``, the
chance that a ray terminates inside interval j.  Transmittance is
accumulated in log space and exponentiated once per grid point, which
avoids underflow compounding in long products across opaque regions.

``_distributions`` is the one builder of ray distributions, for one ray
or a stack of rays of one grid size; a stacked row is bit-identical to
its one-ray build.  ``interval_pmf`` is its one-ray view: the exact
sampler inverts through its log-transmittance and the render gradient
reads its transmittance, so all of them see the same bits.  Each
distribution is built once per trace: ``interval_pmf`` stores it on the
``OpacityTrace``, keyed on the model and the grid's identity, and hands
the same object to every later call with that trace, model and grid.  The
memo is private to the trace and dies with it.  It is sound because
traces and grids are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rays import OPAQUE, ColorTrace, ModelKind, OpacityTrace, SampleGrid, _Adopted, _frozen

# Tolerance for the internal cross-check between the direct P_j formula and
# the transmittance difference T_j - T_{j+1}; both are exact rearrangements.
_CROSSCHECK_ATOL = 1e-12


@dataclass(frozen=True)
class RayDistribution:
    """Termination distribution of one ray over the grid intervals.

    log_transmittance[k] is the log-survival at grid point k (entry 0 is
    zero) and transmittance[k] its exponential; pmf[j] is the probability
    of terminating in interval j, and cumulative[k] the prefix sum of the
    pmf.  ``cumulative[k] + transmittance[k] == 1`` holds to rounding
    because the pmf telescopes.
    """

    model: ModelKind
    log_transmittance: np.ndarray
    transmittance: np.ndarray
    pmf: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        # A caller's arrays are copied; ``interval_pmf`` adopts its own, as copying
        # them in a 65,536-sample two-pass render's four builds moves about 8 MB.
        for name in ("log_transmittance", "transmittance", "pmf", "cumulative"):
            _frozen(self, name)
        if self.pmf.size + 1 != self.transmittance.size:
            raise ValueError("pmf must have one entry per interval")
        for name in ("log_transmittance", "cumulative"):
            if getattr(self, name).size != self.transmittance.size:
                raise ValueError(f"{name} must align with transmittance")


def _distributions(model: ModelKind, widths: np.ndarray, t: np.ndarray):
    """Log-transmittance, transmittance, pmf and prefix sums along the last axis.

    ``t`` is one ray's opacities ``(N+2,)`` or a stack ``(R, N+2)``, and
    ``widths`` one shared ``(N+1,)`` row or one row per ray; a stacked row
    gets the bits of its one-ray build, and each check holds once per batch.
    The far-bound opacity sentinel (the opaque-far convention) enters the
    linear model through the final trapezoid.  The constant model never
    reads the far-bound value, so the sentinel instead gives that row's
    final interval unbounded optical depth, the classical way of absorbing
    all remaining probability mass at the far plane.

    P_j is the direct ``T_j * (1 - exp(-depth_j))``, cross-checked against
    the telescoped ``T_j - T_{j+1}``; a disagreement beyond rounding raises.
    """
    if model not in (ModelKind.CONSTANT, ModelKind.LINEAR):
        raise ValueError(f"interval pmf needs constant or linear model, got {model}")
    if t.shape[-1] != widths.shape[-1] + 1:
        raise ValueError(
            f"opacity trace has {t.shape[-1]} values for a grid with {widths.shape[-1] + 1} points"
        )
    # Negative opacity gives negative optical depth: probabilities below
    # zero and transmittance above one.  Callers pass finite values, so the
    # minimum decides.
    if t.min() < 0.0:
        raise ValueError("opacity must be nonnegative to build a ray distribution")
    # Steps write into arrays already made, in the formulas' order, so the
    # bits are theirs: on long rays a temporary costs more than arithmetic.
    if model is ModelKind.CONSTANT:
        depth = t[..., :-1] * widths
        np.putmask(depth[..., -1:], t[..., -1:] >= OPAQUE, t[..., -2:-1] * OPAQUE)
    else:
        # depth = 0.5 * (t[..., :-1] + t[..., 1:]) * widths
        depth = t[..., :-1] + t[..., 1:]
        depth *= 0.5
        depth *= widths
    log_t = np.zeros(t.shape)
    np.cumsum(depth, axis=-1, out=log_t[..., 1:])
    np.negative(log_t[..., 1:], out=log_t[..., 1:])
    trans = np.exp(log_t)
    # pmf = trans[..., :-1] * -np.expm1(-depth), in the depth array.
    pmf = np.negative(depth, out=depth)
    np.expm1(pmf, out=pmf)
    np.negative(pmf, out=pmf)
    pmf *= trans[..., :-1]

    # max |T_j - T_{j+1} - P_j| <= atol is np.allclose with rtol=0: a NaN
    # fails it, and neither side can be infinite.  The gap borrows ``cumulative``.
    cumulative = np.zeros(t.shape)
    gap = np.subtract(trans[..., :-1], trans[..., 1:], out=cumulative[..., 1:])
    gap -= pmf
    if not np.abs(gap, out=gap).max() <= _CROSSCHECK_ATOL:
        raise ArithmeticError(
            "interval probabilities disagree with transmittance differences"
        )

    np.cumsum(pmf, axis=-1, out=cumulative[..., 1:])
    return log_t, trans, pmf, cumulative


def interval_pmf(
    model: ModelKind, grid: SampleGrid, tau: OpacityTrace
) -> RayDistribution:
    """Log-transmittance, transmittance, interval pmf and prefix sums of one ray.

    The one-ray view of ``_distributions``, with the memo: a repeat call
    with the same trace, model and grid object returns the distribution
    built the first time; only a build that passed every check is kept.
    """
    # Grids are unhashable, so the key is the grid's id; the entry holds
    # the grid itself, which keeps that id from being reused while it lives.
    key = (model, id(grid))
    hit = tau._dists.get(key)
    if hit is not None and hit[0] is grid:
        return hit[1]
    log_t, trans, pmf, cumulative = _distributions(model, grid.widths, tau.values)
    dist = RayDistribution(
        model=model, log_transmittance=_Adopted(log_t), transmittance=_Adopted(trans),
        pmf=_Adopted(pmf), cumulative=_Adopted(cumulative),
    )
    tau._dists[key] = (grid, dist)
    return dist


def render(dist: RayDistribution, colors: ColorTrace) -> np.ndarray:
    """Expected color: pmf-weighted sum of the per-interval colors."""
    if colors.values.shape[0] != dist.pmf.size:
        raise ValueError(
            f"{colors.values.shape[0]} colors for {dist.pmf.size} intervals"
        )
    return dist.pmf @ colors.values


def expected_depth(dist: RayDistribution, grid: SampleGrid) -> float:
    """Expected ray termination distance, each interval's mass at its midpoint."""
    if dist.pmf.size != grid.widths.size:
        raise ValueError(f"{dist.pmf.size} interval probabilities for {grid.widths.size} intervals")
    pts = grid.points
    mids = pts[:-1] + pts[1:]
    mids *= 0.5
    return float(dist.pmf @ mids)
