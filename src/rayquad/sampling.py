"""Drawing ray termination distances from coarse ray distributions.

Two samplers are provided.  The classical surrogate linearly interpolates
the discrete cumulative values between grid points, which makes every
sample uniform within its bin regardless of how opacity varies there.
The precise sampler inverts the continuous CDF available under the linear
opacity model, where the in-bin cumulative opacity is the quadratic

    (tau_{k+1} - tau_k) * t^2 / (2 * delta) + tau_k * t,    t = s - s_k,

so inverse transform sampling reduces to one stable quadratic root per
draw.  The root is evaluated in the conjugate form

    t = 2 q / (tau_k + sqrt(tau_k^2 + 2 a q / delta)),

which degrades gracefully to the exponential inverse ``q / tau_k`` as the
endpoint opacities approach each other; the textbook form loses all
precision there to cancellation.  ``q = ln T(s_k) - ln(1 - u)`` uses the
identity ``T(s_k) - (u - C_k) = 1 - u``, valid because the cumulative
values telescope against transmittance.

Both samplers and ``ContinuousRayCdf.cdf_eval`` check the whole input
first, then run their elementwise kernel over it in blocks of
``rays._BLOCK`` draws (``rays._blockwise``), so a 100,000-draw call keeps
its temporaries at 64 KiB each instead of mapping a fresh 800 KB array per
step.  Every output is bit-identical to one whole-array call, an input of
at most one block is one call, and a 0-d input returns a Python ``float``.
Each kernel gathers a table entry once per draw (``tau[1:][k]``, not
``tau[k + 1]``) and writes each step of its formula, in order, into an
array it made, never into the draws: they view the caller's array.

The exact inverse is one kernel, ``_invert_rows``, over one ray or over
``(R, N+2)`` rows of rays that share one grid, each row located by its
own search (``rays._interval``); ``ContinuousRayCdf._invert`` is its
one-row case.  ``_precise_rows`` samples R rows from one stacked
``quadrature._distributions`` build, bit for bit as R ``ContinuousRayCdf``
instances would; ``grad-check``'s finite differences run through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .rays import ModelKind, OpacityTrace, SampleGrid, _Adopted, _blockwise, _interval, _is_count

# Draws above 1 - EPS_UNIT carry no invertible information and are clamped
# to the far bound.
EPS_UNIT = 1e-12

# Merged sample grids drop points closer than this.
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteRayCdf:
    """Piecewise-linear surrogate over the discrete interval CDF.

    Built from any ray distribution (classically the constant-model one,
    whose true CDF is a step function and cannot be inverted directly).
    """

    grid: SampleGrid
    dist: quadrature.RayDistribution

    def __post_init__(self):
        if self.dist.cumulative.size != self.grid.n + 2:
            raise ValueError("distribution does not match grid size")

    @property
    def cumulative(self) -> np.ndarray:
        return self.dist.cumulative

    def surrogate_sample(self, u):
        """Invert the interpolated CDF at ``u``; uniform within each bin.

        Zero-probability bins are skipped: the located bin is the smallest
        k with ``C_{k+1} > u``, so ``u == C_k`` returns ``s_k`` exactly.
        """
        u = np.asarray(u, dtype=np.float64)
        if not ((u >= 0.0) & (u < 1.0)).all():
            raise ValueError("surrogate draws must lie in [0, 1)")
        c = self.cumulative
        if (u > c[-1]).any():
            raise ValueError("draw exceeds the total probability mass of the ray")
        return _blockwise(self._surrogate, u)

    def _surrogate(self, u: np.ndarray) -> np.ndarray:
        """``surrogate_sample``'s kernel on checked draws."""
        c, grid = self.cumulative, self.grid
        k = _interval(c, u)
        # frac = (u - c[k]) / span where span = c[k + 1] - c[k] > 0, else 0.
        c_k = c[k]
        span = c[1:][k]
        span -= c_k
        frac = np.zeros(u.shape)
        np.divide(np.subtract(u, c_k, out=c_k), span, out=frac, where=span > 0.0)
        # s = pts[k] + frac * (pts[k + 1] - pts[k]); those differences are the widths.
        s = np.multiply(frac, grid.widths[k], out=frac)
        s += grid.points[k]
        return np.minimum(s, grid.segment.far, out=s)


@dataclass(frozen=True)
class ContinuousRayCdf:
    """Continuous, strictly increasing CDF under the linear opacity model.

    Holds the precomputed linear-model distribution, whose log-transmittance
    the inverse reads, so repeated evaluation and sampling touch no
    exponentials of sums.  ``dist`` is the object ``interval_pmf`` keeps on
    the trace for this grid, so a caller that already built the linear
    distribution of ``(grid, tau)`` shares it instead of a rebuild.
    """

    grid: SampleGrid
    tau: OpacityTrace
    dist: quadrature.RayDistribution = field(init=False)

    def __post_init__(self):
        if (self.tau.interior <= 0.0).any():
            raise ValueError("interior opacities must be floored positive before sampling")
        dist = quadrature.interval_pmf(ModelKind.LINEAR, self.grid, self.tau)
        object.__setattr__(self, "dist", dist)

    @property
    def cumulative(self) -> np.ndarray:
        return self.dist.cumulative

    def _invert(self, u: np.ndarray):
        """``_invert_rows`` on this ray: its one-row case."""
        dist = self.dist
        return _invert_rows(self.grid, self.tau.values, dist.log_transmittance, dist.cumulative, u)

    def cdf_eval(self, t):
        """Probability of terminating before distance ``t``."""
        t = np.asarray(t, dtype=np.float64)
        seg = self.grid.segment
        if not ((t >= seg.near) & (t <= seg.far)).all():
            raise ValueError("evaluation point outside the ray segment")
        return _blockwise(self._cdf, t)

    def _cdf(self, t: np.ndarray) -> np.ndarray:
        """``cdf_eval``'s kernel on checked points."""
        grid, tau, dist = self.grid, self.tau.values, self.dist
        k = _interval(grid.points, t)
        # depth = (tau[k + 1] - tau[k]) * tp * tp / (2 delta) + tau[k] * tp, tp = t - s_k.
        tp = np.subtract(t, grid.points[k])
        tau_k = tau[k]
        depth = tau[1:][k]
        depth -= tau_k
        depth *= tp
        depth *= tp
        two_delta = grid.widths[k]
        two_delta *= 2.0
        depth /= two_delta
        depth += np.multiply(tau_k, tp, out=tau_k)
        # f = cumulative[k] + transmittance[k] * -expm1(-depth), clipped to [0, 1].
        f = np.negative(depth, out=depth)
        np.expm1(f, out=f)
        np.negative(f, out=f)
        f *= dist.transmittance[k]
        f += dist.cumulative[k]
        return np.clip(f, 0.0, 1.0, out=f)

    def precise_sample(self, u):
        """Exact inverse of the CDF at ``u`` in [0, 1].

        Draws at or above ``1 - EPS_UNIT`` (or beyond the total mass of an
        unnormalized ray) are clamped to the far bound.
        """
        u = np.asarray(u, dtype=np.float64)
        if not ((u >= 0.0) & (u <= 1.0)).all():
            raise ValueError("draws must lie in [0, 1]")
        return _blockwise(self._precise, u)

    def _precise(self, u: np.ndarray) -> np.ndarray:
        """``precise_sample``'s kernel on checked draws: ``_sample_rows`` on this ray."""
        dist = self.dist
        return _sample_rows(self.grid, self.tau.values, dist.log_transmittance, dist.cumulative, u)


def _at(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``rows[k]`` of one row, or of a stack each row's own entries ``rows[r, k[r]]``."""
    return rows[k] if rows.ndim == 1 else np.take_along_axis(rows, k, axis=-1)


def _invert_rows(grid: SampleGrid, tau, log_t, cumulative, u: np.ndarray):
    """The exact inverse's kernel: ``(k, delta, q, root, denom, clamped)`` per draw.

    ``tau``, ``log_t`` and ``cumulative`` are one ray's linear-model arrays,
    shape (N+2,), with draws ``u`` (S,); or R rays' rows on the one ``grid``,
    shape (R, N+2), with draws (R, S), row ``r`` inverting ray ``r`` bit for
    bit as alone.  ``k`` is the located bin (``rays._interval``, one search
    per row) and ``delta`` its width; ``q = ln T_k - ln(1 - u)`` is the log
    mass left to spend in it; ``root`` and ``denom`` make up the stable root
    ``t = 2 q / denom``.  Draws at or above ``1 - EPS_UNIT`` or the total mass
    are flagged in ``clamped`` and inverted as ``u = 0``.  ``precise_sample``
    and ``gradients.grad_sample_wrt_tau`` both invert through here.
    """
    # u >= 1 - EPS_UNIT or u >= the total mass, in one compare.
    clamped = u >= np.minimum(1.0 - EPS_UNIT, cumulative[..., -1:])
    u = np.where(clamped, 0.0, u)  # a fresh array: the caller's draws are never written
    k = _interval(cumulative, u)
    # q = log_t[k] - log1p(-u), in u's array.
    q = np.negative(u, out=u)
    np.log1p(q, out=q)
    np.subtract(_at(log_t, k), q, out=q)
    if not np.isfinite(q).all():
        raise ArithmeticError("non-finite log mass while inverting the CDF")
    tau_k = _at(tau, k)
    delta = grid.widths[k]
    # disc = tau_k * tau_k + 2.0 * (tau[k + 1] - tau_k) * q / delta
    slope = _at(tau[..., 1:], k)
    slope -= tau_k
    slope *= 2.0
    slope *= q
    slope /= delta
    disc = np.multiply(tau_k, tau_k)
    disc += slope
    # The discriminant lies between tau_k^2 and tau_{k+1}^2; rounding can
    # push it a hair negative when q sits at the bin boundary.
    root = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    return k, delta, q, root, np.add(tau_k, root, out=slope), clamped


def _sample_rows(grid: SampleGrid, tau, log_t, cumulative, u: np.ndarray) -> np.ndarray:
    """Exact inverse samples of ``_invert_rows``' one ray or rows; clamped draws go to far."""
    k, delta, q, _, denom, clamped = _invert_rows(grid, tau, log_t, cumulative, u)
    # t = 2 q / denom where denom > 0, else 0, clipped to [0, delta].
    q *= 2.0
    t = np.zeros(q.shape)
    np.divide(q, denom, out=t, where=denom > 0.0)
    np.clip(t, 0.0, delta, out=t)
    s = np.add(grid.points[k], t, out=t)
    np.copyto(s, grid.segment.far, where=clamped)
    return s


def _precise_rows(grid: SampleGrid, tau: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``ContinuousRayCdf(grid, tau[r]).precise_sample(u[r])`` of each row, bit for
    bit, for opacity rows (R, N+2) and draws (R, S): one stacked linear
    ``quadrature._distributions`` build and one row inverse, with the checks
    of the one-ray path but no ``ContinuousRayCdf``."""
    if (tau[:, 1:-1] <= 0.0).any():
        raise ValueError("interior opacities must be floored positive before sampling")
    if not ((u >= 0.0) & (u <= 1.0)).all():
        raise ValueError("draws must lie in [0, 1]")
    log_t, _, _, cumulative = quadrature._distributions(ModelKind.LINEAR, grid.widths, tau)
    return _sample_rows(grid, tau, log_t, cumulative, u)


def _stratified_unit_samples(n: int, seed: int) -> np.ndarray:
    """One uniform draw per equal-width stratum of [0, 1); deterministic."""
    rng = np.random.default_rng(seed)
    return (np.arange(n) + rng.random(n)) / n


def hierarchical_samples(
    cdf: DiscreteRayCdf | ContinuousRayCdf,
    n_fine: int,
    seed: int,
) -> SampleGrid:
    """Merge fine importance samples from ``cdf`` into its coarse grid.

    The sampler is chosen by the CDF type: a DiscreteRayCdf draws through
    the surrogate, a ContinuousRayCdf through the exact inverse.  Unit
    draws are stratified (``_stratified_unit_samples``).
    """
    if not _is_count(n_fine, "positive"):
        raise ValueError(f"need a positive integer count of fine samples, got n_fine={n_fine!r}")
    if not _is_count(seed, "nonnegative"):
        raise ValueError(f"seed must be nonnegative and an integer, got seed={seed!r}")
    u = _stratified_unit_samples(n_fine, seed)
    u = np.minimum(u, cdf.cumulative[-1] * (1.0 - 1e-15))

    if isinstance(cdf, ContinuousRayCdf):
        fine = cdf.precise_sample(u)
    elif isinstance(cdf, DiscreteRayCdf):
        fine = cdf.surrogate_sample(u)
    else:
        raise TypeError(f"unknown cdf type {type(cdf).__name__}")

    # Merged between the segment bounds, so one mask makes the point array.
    # No sample lies below near, which is merged[0], so the gap test also
    # drops every sample within MERGE_TOL of near; the bound test drops one
    # within MERGE_TOL of far.
    seg = cdf.grid.segment
    merged = np.concatenate(([seg.near], cdf.grid.interior, fine, [seg.far]))
    samples = merged[1:-1]
    samples.sort()
    # Drop samples within MERGE_TOL of the one before (or near) or of far.
    gap = samples - merged[:-2]
    keep = np.ones(merged.size, dtype=bool)
    np.greater(gap, MERGE_TOL, out=keep[1:-1])
    keep[1:-1] &= np.subtract(seg.far, samples, out=gap) > MERGE_TOL
    del gap  # freed before the grid builds its widths
    return SampleGrid(interior=_Adopted(merged[keep]), segment=seg)
