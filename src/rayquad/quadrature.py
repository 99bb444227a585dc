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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rays import OPAQUE, ColorTrace, ModelKind, OpacityTrace, SampleGrid

# Tolerance for the internal cross-check between the direct P_j formula and
# the transmittance difference T_j - T_{j+1}; both are exact rearrangements.
_CROSSCHECK_ATOL = 1e-12


@dataclass(frozen=True)
class RayDistribution:
    """Termination distribution of one ray over the grid intervals.

    transmittance[k] is the survival probability at grid point k, pmf[j]
    the probability of terminating in interval j, and cumulative[k] the
    prefix sum of the pmf.  ``cumulative[k] + transmittance[k] == 1`` holds
    to rounding because the pmf telescopes.
    """

    model: ModelKind
    transmittance: np.ndarray
    pmf: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        for name in ("transmittance", "pmf", "cumulative"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.pmf.size + 1 != self.transmittance.size:
            raise ValueError("pmf must have one entry per interval")
        if self.cumulative.size != self.transmittance.size:
            raise ValueError("cumulative must align with transmittance")


def _check_lengths(grid: SampleGrid, tau: OpacityTrace) -> None:
    if tau.values.size != grid.n + 2:
        raise ValueError(
            f"opacity trace has {tau.values.size} values for a grid with "
            f"{grid.n + 2} points"
        )


def log_transmittance(
    model: ModelKind, grid: SampleGrid, tau: OpacityTrace
) -> np.ndarray:
    """Cumulative log-survival at every grid point; entry 0 is zero.

    The far-bound opacity sentinel (the opaque-far convention) enters the
    linear model through the final trapezoid.  The constant model never
    reads the far-bound value, so the sentinel instead gives the final
    interval unbounded optical depth, the classical way of absorbing all
    remaining probability mass at the far plane.
    """
    depth = _interval_depths(model, grid, tau)
    return np.concatenate(([0.0], -np.cumsum(depth)))


def _interval_depths(
    model: ModelKind, grid: SampleGrid, tau: OpacityTrace
) -> np.ndarray:
    _check_lengths(grid, tau)
    widths = grid.widths
    t = tau.values
    # Negative opacity gives negative optical depth: probabilities below
    # zero and transmittance above one.  ``OpacityTrace`` guarantees finite
    # values, so the minimum decides.
    if t.min() < 0.0:
        raise ValueError("opacity must be nonnegative to build a ray distribution")
    if model is ModelKind.CONSTANT:
        depth = t[:-1] * widths
        if t[-1] >= OPAQUE:
            depth[-1] = t[-2] * OPAQUE
    elif model is ModelKind.LINEAR:
        depth = 0.5 * (t[:-1] + t[1:]) * widths
    else:
        raise ValueError(f"no closed-form transmittance for model {model}")
    return depth


def interval_pmf(
    model: ModelKind, grid: SampleGrid, tau: OpacityTrace
) -> RayDistribution:
    """Interval termination probabilities plus transmittance and prefix sums.

    P_j is evaluated by the direct per-interval formula
    ``T_j * (1 - exp(-depth_j))`` and cross-checked against the telescoped
    form ``T_j - T_{j+1}``; disagreement beyond rounding means the inputs
    are inconsistent and raises.
    """
    return _distribution(model, grid, tau)[0]


def _distribution(
    model: ModelKind, grid: SampleGrid, tau: OpacityTrace
) -> tuple[RayDistribution, np.ndarray]:
    """``interval_pmf`` together with the log-transmittance it is built from."""
    if model not in (ModelKind.CONSTANT, ModelKind.LINEAR):
        raise ValueError(f"interval pmf needs constant or linear model, got {model}")
    depth = _interval_depths(model, grid, tau)
    log_t = np.concatenate(([0.0], -np.cumsum(depth)))
    trans = np.exp(log_t)
    pmf = trans[:-1] * -np.expm1(-depth)

    telescoped = trans[:-1] - trans[1:]
    if not np.allclose(pmf, telescoped, rtol=0.0, atol=_CROSSCHECK_ATOL):
        raise ArithmeticError(
            "interval probabilities disagree with transmittance differences"
        )

    cumulative = np.concatenate(([0.0], np.cumsum(pmf)))
    dist = RayDistribution(
        model=model, transmittance=trans, pmf=pmf, cumulative=cumulative
    )
    return dist, log_t


def render(dist: RayDistribution, colors: ColorTrace) -> np.ndarray:
    """Expected color: pmf-weighted sum of the per-interval colors."""
    if colors.values.shape[0] != dist.pmf.size:
        raise ValueError(
            f"{colors.values.shape[0]} colors for {dist.pmf.size} intervals"
        )
    return dist.pmf @ colors.values


def expected_depth(dist: RayDistribution, grid: SampleGrid) -> float:
    """Expected ray termination distance, each interval's mass at its midpoint."""
    pts = grid.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    return float(dist.pmf @ mids)
