import numpy as np
import pytest

from rayquad import (
    ColorTrace,
    OpacityTrace,
    RaySegment,
    SampleGrid,
    apply_far_convention,
    floor_opacity,
    oracle,
    shift_sweep,
)
from rayquad.quadrature import RayDistribution
from rayquad.rays import _Adopted


def random_instance(rng, n_max=64, tau_lo=1e-6, tau_hi=10.0, convention=None):
    """One random grid + floored opacity trace; log-uniform opacities."""
    n = int(rng.integers(1, n_max + 1))
    near = float(rng.uniform(0.0, 0.5))
    far = near + float(rng.uniform(0.5, 4.0))
    segment = RaySegment(near, far)
    interior = np.sort(rng.uniform(near + 1e-4, far - 1e-4, n))
    while np.any(np.diff(interior) <= 1e-9):
        interior = np.sort(rng.uniform(near + 1e-4, far - 1e-4, n))
    grid = SampleGrid(interior, segment)
    tau_values = 10.0 ** rng.uniform(np.log10(tau_lo), np.log10(tau_hi), n + 2)
    trace = OpacityTrace(tau_values)
    if convention is not None:
        trace = apply_far_convention(trace, convention)
    return grid, floor_opacity(trace)


def sweep_traces(field, segment, n, offsets):
    """``shift_sweep``'s rows as one-ray ``(grid, tau, colors)`` triples, built
    with the public constructors."""
    _, points, taus, colors = shift_sweep(field, segment, n, offsets)
    return [
        (SampleGrid(p[1:-1], segment), OpacityTrace(t), ColorTrace(c))
        for p, t, c in zip(points, taus, colors)
    ]


def hand_distribution(grid, log_transmittance, transmittance, pmf, cumulative):
    """A ``RayDistribution`` on ``grid`` of copies of these arrays, adopted as
    ``interval_pmf`` adopts its own: a test sets a pmf that no opacity trace gives."""
    arrays = (log_transmittance, transmittance, pmf, cumulative)
    return RayDistribution(*(_Adopted(np.array(a, dtype=np.float64)) for a in arrays), grid)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def engine_guard(monkeypatch):
    """Make the oracle's adaptive engine raise if it is reached at all.

    Tests of bad tolerances use it: under a NaN tolerance no panel is ever
    accepted, so a check that let one through would double every panel to
    the depth limit and exhaust memory instead of failing.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("the adaptive engine was reached")

    monkeypatch.setattr(oracle, "_adaptive_simpson", refuse)
