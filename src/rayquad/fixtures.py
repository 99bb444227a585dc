"""Frozen experiment scenes and regression fixtures.

These are the reference configurations the experiment commands and the
acceptance suite run against.  Values were fixed after the first
oracle-verified runs and act as regression anchors; changing them changes
what the thresholds mean.
"""

from __future__ import annotations

import numpy as np

from . import quadrature, sampling
from .fields import (
    AnalyticField,
    GaussianBump,
    GradientColor,
    LogisticStep,
    UniformColor,
    opaque_trace,
)
from .rays import ModelKind, OpacityTrace, RaySegment, SampleGrid

# Convergence study: an off-center bump, so the field value and slope both
# differ between the segment ends.  A centered bump makes the left-sample
# rule accidentally second order (the endpoint terms cancel by symmetry)
# and hides the order gap between the models.
CONVERGENCE_SEGMENT = RaySegment(0.0, 2.0)


def convergence_scene() -> AnalyticField:
    return AnalyticField(
        GaussianBump(amplitude=3.0, center=0.6, width=0.25),
        UniformColor(np.array([1.0])),
    )


# Shift sweep: a logistic wall resolved at the N=32 grid scale
# (steepness * spacing of about 0.6), rendered against a smooth color
# gradient.  Under-resolved walls pin both models to the grid and smooth
# fields make plain Riemann sums shift-stable, so this is the regime
# where the left-sample rule's offset sensitivity actually shows.
SHIFT_SEGMENT = RaySegment(0.0, 0.5)
SHIFT_N = 32
# First oracle-verified run measured spread ratio 9.6; frozen floor below.
SHIFT_RATIO_THRESHOLD = 3.0


def shift_scene() -> AnalyticField:
    return AnalyticField(
        LogisticStep(amplitude=40.0, steepness=40.0, center=0.25),
        GradientColor(np.array([0.0]), np.array([1.0]), 0.0, 0.5),
    )


# Sampler distribution tests: a steep wall sampled by only three interior
# points, so opacity varies strongly within bins.
SAMPLER_SEGMENT = RaySegment(0.0, 2.0)


def steep_sampler_fixture() -> tuple[SampleGrid, OpacityTrace]:
    grid = SampleGrid(np.array([0.5, 1.0, 1.5]), SAMPLER_SEGMENT)
    tau, _ = opaque_trace(AnalyticField(LogisticStep(10.0, 40.0, 1.0)), grid)
    return grid, tau


def single_bin_fixture() -> tuple[SampleGrid, OpacityTrace]:
    """One shallow uniform-opacity bin; the surrogate is near-exact here."""
    grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
    tau = OpacityTrace(np.array([0.01, 0.01, 0.01]))
    return grid, tau


def gradient_instance(rng) -> tuple[SampleGrid, np.ndarray, np.ndarray]:
    """A random small grid with opacity values and one color per interval.

    ``grad-check`` and the gradient acceptance criterion both draw their
    instances here; the order of the ``rng`` calls is part of what their
    recorded results depend on.
    """
    n = int(rng.integers(1, 13))
    segment = RaySegment(0.0, float(rng.uniform(0.5, 1.5)))
    interior = np.sort(rng.uniform(segment.near + 1e-3, segment.far - 1e-3, n))
    while np.any(np.diff(interior) <= 0):
        interior = np.sort(rng.uniform(segment.near + 1e-3, segment.far - 1e-3, n))
    tau_values = rng.uniform(0.05, 4.0, n + 2)
    colors = rng.uniform(0.1, 0.9, n + 1)
    return SampleGrid(interior, segment), tau_values, colors


def surrogate_invariance_instance() -> tuple[SampleGrid, OpacityTrace, OpacityTrace]:
    """A trace pair with identical linear-model cumulative values.

    Opacities are dyadic rationals and the perturbation alternates +d/-d,
    so every per-interval endpoint sum is preserved exactly in floating
    point; the two traces induce bitwise-equal cumulative values but
    different within-bin slopes.
    """
    grid = SampleGrid(np.linspace(0.25, 1.75, 7), RaySegment(0.0, 2.0))
    base = np.array([0.5, 1.25, 2.0, 1.5, 2.5, 0.75, 1.0, 1.5, 2.0])
    d = 0.25
    signs = np.where(np.arange(base.size) % 2 == 0, 1.0, -1.0)
    return grid, OpacityTrace(base), OpacityTrace(base + d * signs)


def precise_and_surrogate(
    grid: SampleGrid, tau: OpacityTrace
) -> tuple[sampling.ContinuousRayCdf, sampling.DiscreteRayCdf]:
    """Both samplers over one trace: exact linear CDF and constant-model surrogate."""
    continuous = sampling.ContinuousRayCdf(grid, tau)
    constant = quadrature.interval_pmf(ModelKind.CONSTANT, grid, tau)
    return continuous, sampling.DiscreteRayCdf(grid, constant)
