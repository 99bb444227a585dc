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

``_distributions`` takes its steps in this order, each into an array it
made: the negated optical depth ``-depth_j``; its prefix sums after a zero,
the log-transmittance; their exponentials, the transmittance; the pmf
``-(expm1(-depth_j) * T_j)`` in the depth's array; the cross-check against
``T_j - T_{j+1}`` in the cumulative's array; last, the pmf's prefix sums
over it.  Negation is exact and rounding is sign-symmetric, so each output
has the bits of the formulas as written, a -0.0 included.

``_distributions`` is the one builder of ray distributions, for one ray
or a stack of rays of one grid size; a stacked row is bit-identical to
its one-ray build.  ``interval_pmf`` is its one-ray view and the only
maker of a ``RayDistribution``, so each one telescopes.  The exact sampler
inverts through its log-transmittance and the render gradient reads its
transmittance, so all of them see the same bits.  Each distribution is
built once per trace: ``interval_pmf`` stores it on the ``OpacityTrace``,
keyed on the model and the grid itself, and hands the same object to every
later call with that trace, model and grid.  The memo is private to the
trace and dies with it.  It is sound because traces and grids are
immutable after construction.  ``_weighted_sums`` is the one pmf-weighted
sum: ``render`` and ``expected_depth`` are its one-ray views, and the
commands call it on stacked rays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rays import (
    OPAQUE,
    ColorTrace,
    ModelKind,
    OpacityTrace,
    SampleGrid,
    _Adopted,
    _blocks,
    _frozen,
)

# Tolerance for the internal cross-check between the direct P_j formula and
# the transmittance difference T_j - T_{j+1}; both are exact rearrangements.
_CROSSCHECK_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class RayDistribution:
    """Termination distribution of one ray over the grid intervals.

    log_transmittance[k] is the log-survival at grid point k (entry 0 is
    zero) and transmittance[k] its exponential; pmf[j] is the probability
    of terminating in interval j, and cumulative[k] the prefix sum of the
    pmf.  ``cumulative[k] + transmittance[k] == 1`` holds to rounding
    because the pmf telescopes.  ``grid`` is the grid it was built on.  Only
    ``interval_pmf`` builds one.
    """

    log_transmittance: np.ndarray
    transmittance: np.ndarray
    pmf: np.ndarray
    cumulative: np.ndarray
    grid: SampleGrid

    def __post_init__(self):
        for name in ("log_transmittance", "transmittance", "pmf", "cumulative"):
            if not isinstance(getattr(self, name), _Adopted):
                raise TypeError("a RayDistribution is built only by interval_pmf")
            _frozen(self, name)


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
    # bits are theirs: on long rays a pass costs more than the arithmetic.
    # They work on ``neg = -depth``: negation is exact and rounding is
    # sign-symmetric, so ``(a + b) * -0.5 * w``, the prefix sums of ``neg``
    # and ``-(expm1(neg) * T)`` are the bits of the formulas' negations.
    if model is ModelKind.CONSTANT:
        # neg = -(t[..., :-1] * widths)
        neg = np.multiply(t[..., :-1], widths)
        np.negative(neg, out=neg)
        np.putmask(neg[..., -1:], t[..., -1:] >= OPAQUE, t[..., -2:-1] * -OPAQUE)
    else:
        # neg = -(0.5 * (t[..., :-1] + t[..., 1:]) * widths)
        neg = np.add(t[..., :-1], t[..., 1:])
        neg *= -0.5
        neg *= widths
    # log_t = [0, -cumsum(depth)]; ``add.accumulate`` is cumsum's loop
    # without its argument handling.
    log_t = np.empty(t.shape)
    log_t[..., 0] = 0.0
    np.add.accumulate(neg, axis=-1, out=log_t[..., 1:])
    trans = np.exp(log_t)
    # pmf = trans[..., :-1] * -np.expm1(-depth), in the ``neg`` array.
    pmf = np.expm1(neg, out=neg)
    pmf *= trans[..., :-1]
    np.negative(pmf, out=pmf)

    # max |T_j - T_{j+1} - P_j| <= atol is np.allclose with rtol=0: a NaN
    # fails both bounds, and neither side can be infinite.  The gap borrows
    # ``cumulative``.
    cumulative = np.empty(t.shape)
    cumulative[..., 0] = 0.0
    gap = np.subtract(trans[..., :-1], trans[..., 1:], out=cumulative[..., 1:])
    gap -= pmf
    if not (gap.max() <= _CROSSCHECK_ATOL and gap.min() >= -_CROSSCHECK_ATOL):
        raise ArithmeticError(
            "interval probabilities disagree with transmittance differences"
        )

    np.add.accumulate(pmf, axis=-1, out=cumulative[..., 1:])
    return log_t, trans, pmf, cumulative


def interval_pmf(
    model: ModelKind, grid: SampleGrid, tau: OpacityTrace
) -> RayDistribution:
    """Log-transmittance, transmittance, interval pmf and prefix sums of one ray.

    The one-ray view of ``_distributions``, with the memo: a repeat call
    with the same trace, model and grid object returns the distribution
    built the first time; only a build that passed every check is kept.
    """
    key = (model, grid)
    dist = tau._dists.get(key)
    if dist is None:
        log_t, trans, pmf, cumulative = _distributions(model, grid.widths, tau.values)
        dist = RayDistribution(
            log_transmittance=_Adopted(log_t), transmittance=_Adopted(trans),
            pmf=_Adopted(pmf), cumulative=_Adopted(cumulative), grid=grid,
        )
        tau._dists[key] = dist
    return dist


def _check_grid(dist: RayDistribution, grid: SampleGrid) -> None:
    """ValueError unless ``grid`` is the one ``dist`` was built on: that object or equal points."""
    if grid is not dist.grid and not np.array_equal(grid.points, dist.grid.points):
        raise ValueError("the distribution was built on another grid")


def _weighted_sums(pmf: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The one weighted sum: per ray, the pmf-weighted sum of each column of ``v``.

    ``pmf`` is ``(N+1,)`` or ``(R, N+1)``, ``v`` ``(N+1, C)`` or ``(R, N+1, C)``, the
    result ``(C,)`` or ``(R, C)``.  Each pmf enters as a one-row matrix, so a row and
    channel is one dot product and a stacked row gets the bits of its one-ray sum
    (a 2-D ``pmf @ v``, BLAS gemv, does not).  A row longer than ``rays._BLOCK``
    intervals is summed as one product per block, added in order: threaded BLAS
    took about 8 ms for one single-channel product of 16,385 elements on a 2-vCPU
    VM, against 13 us for its two blocks."""
    blocks = _blocks(pmf.shape[-1])
    total = np.matmul(pmf[..., None, blocks[0]], v[..., blocks[0], :])
    for block in blocks[1:]:
        total += np.matmul(pmf[..., None, block], v[..., block, :])
    return total[..., 0, :]


def render(dist: RayDistribution, colors: ColorTrace) -> np.ndarray:
    """Expected color: pmf-weighted sum of the per-interval colors.  Colors that
    keep the grid they were sampled on must share ``dist``'s grid, else ValueError."""
    if colors.values.shape[0] != dist.pmf.size:
        raise ValueError(f"{colors.values.shape[0]} colors for {dist.pmf.size} intervals")
    if colors.grid is not None:
        _check_grid(dist, colors.grid)
    return _weighted_sums(dist.pmf, colors.values)


def expected_depth(dist: RayDistribution, grid: SampleGrid) -> float:
    """Expected ray termination distance, each interval's mass at its midpoint.
    ``grid`` must be the one ``dist`` was built on, else ValueError."""
    _check_grid(dist, grid)
    pts = grid.points
    mids = pts[:-1] + pts[1:]
    mids *= 0.5
    return float(_weighted_sums(dist.pmf, mids[:, None])[0])
