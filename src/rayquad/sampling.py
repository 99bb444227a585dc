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
Each kernel's formula is written once over a bin's table entries, and
``_per_bin`` runs it on runs of sorted draws against a few bins
(``rays._interval``), once per run with scalar entries, or else on entries
gathered once per draw (``tau[1:][k]``, not ``tau[k + 1]``), bit for bit alike;
each step goes into an array it made or a gathered entry, never the draws.

The inverse's formula, ``_root``, has one row kernel, ``_sample_rows``, for
one ray or ``(R, N+2)`` rows on one grid: ``precise_sample`` is its one-row
view, and ``_precise_rows`` samples R rows from one stacked
``quadrature._distributions`` build, bit for bit as R ``ContinuousRayCdf``
instances would; ``grad-check`` runs through it.  The gradient's
``ContinuousRayCdf._invert`` runs ``_root`` on the one bin of its one draw.
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
    whose true CDF is a step function and cannot be inverted directly) of
    ``grid``; one built on another grid raises ValueError.
    """

    grid: SampleGrid
    dist: quadrature.RayDistribution

    def __post_init__(self):
        quadrature._check_grid(self.dist, self.grid)

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
        s = _per_bin(_in_bin, u, _interval(c, u, runs=True), c, c[1:], grid.points, grid.widths)
        return np.minimum(s, grid.segment.far, out=s)


def _in_bin(u, c_k, c_next, s_k, width):
    """The surrogate in a bin: ``s_k + width * (u - c_k) / span``, or ``s_k`` if ``span`` is 0."""
    span = c_next
    span -= c_k
    frac = np.zeros(u.shape)
    np.divide(u - c_k, span, out=frac, where=span > 0.0)
    frac *= width
    frac += s_k
    return frac


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

    def _invert(self, u: float):
        """The exact inverse's steps at one draw: ``(k, delta, q, root, denom, clamped)``.

        ``k`` is the bin ``rays._interval`` locates in the cumulative and ``delta``
        its width; ``q``, ``root`` and ``denom`` are ``_root``'s on the bin's scalar
        entries.  A draw ``_clamped`` is flagged and inverted as ``u = 0``, for the gradient.
        """
        tau, dist = self.tau.values, self.dist
        (clamped,), zeroed = _clamped(np.array([u]), dist.cumulative)
        k = _interval(dist.cumulative, zeroed[0])
        delta = self.grid.widths[k]
        steps = _root(zeroed, dist.log_transmittance[k], tau[k], tau[k + 1], delta)
        return k, delta, *(v[0] for v in steps), clamped

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
        tables = (grid.points, tau, tau[1:], grid.widths, dist.transmittance, dist.cumulative)
        return _per_bin(_cdf_in_bin, t, _interval(grid.points, t, runs=True), *tables)

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


def _cdf_in_bin(t, s_k, tau_k, tau_next, width, trans_k, cum_k):
    """The CDF in a bin: ``cum_k + trans_k * -expm1(-depth)``, clipped to [0, 1], where
    ``depth = (tau_next - tau_k) * tp * tp / (2 width) + tau_k * tp``, ``tp = t - s_k``."""
    tp = t - s_k
    depth = tau_next
    depth -= tau_k
    depth *= tp
    depth *= tp
    width *= 2.0
    depth /= width
    tau_k *= tp
    depth += tau_k
    f = np.negative(depth, out=depth)
    np.expm1(f, out=f)
    np.negative(f, out=f)
    f *= trans_k
    f += cum_k
    return np.clip(f, 0.0, 1.0, out=f)


def _at(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``rows[k]`` of one row, or of a stack each row's own entries ``rows[r, k[r]]``."""
    return rows[k] if rows.ndim == 1 else np.take_along_axis(rows, k, axis=-1)


def _per_bin(formula, x: np.ndarray, located, *tables) -> np.ndarray:
    """``formula(x, *entries)``, each entry a table's value at the bins ``rays._interval``
    ``located``: gathered per point in one call, or a scalar in one call per run.  An
    entry is fresh, so a formula may update it in place (``c -= d`` rebinds a scalar)."""
    if not isinstance(located, list):
        return formula(x, *(_at(table, located) for table in tables))
    out = np.empty(x.shape)
    for k, run in located:
        out[run] = formula(x[run], *(table[k] for table in tables))
    return out


def _clamped(u: np.ndarray, cumulative) -> tuple[np.ndarray, np.ndarray]:
    """Draws at or above ``1 - EPS_UNIT`` or the total mass, and a fresh ``u`` with them 0."""
    clamped = u >= np.minimum(1.0 - EPS_UNIT, cumulative[..., -1:])
    return clamped, np.where(clamped, 0.0, u)


def _root(u, log_t_k, tau_k, tau_next, delta):
    """The inverse in a bin: ``(q, root, denom)``, ``q = log_t_k - log1p(-u)`` in ``u``'s
    array, and ``t = 2 q / denom`` with ``denom = tau_k + root`` the stable root."""
    q = np.negative(u, out=u)
    np.log1p(q, out=q)
    np.subtract(log_t_k, q, out=q)
    if not np.isfinite(q).all():
        raise ArithmeticError("non-finite log mass while inverting the CDF")
    # disc = tau_k * tau_k + 2.0 * (tau_next - tau_k) * q / delta
    slope = tau_next
    slope -= tau_k
    slope *= 2.0
    slope *= q
    slope /= delta
    disc = tau_k * tau_k
    disc += slope
    # The discriminant lies between tau_k^2 and tau_{k+1}^2; rounding can
    # push it a hair negative when q sits at the bin boundary.
    root = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    return q, root, np.add(tau_k, root, out=slope)


def _sample_in_bin(u, log_t_k, tau_k, tau_next, delta, s_k):
    """The exact sample in a bin: ``s_k + t``, ``t = 2 q / denom`` of ``_root`` (0 if
    ``denom`` is 0) clipped to [0, delta]."""
    q, _, denom = _root(u, log_t_k, tau_k, tau_next, delta)
    q *= 2.0
    t = np.zeros(q.shape)
    np.divide(q, denom, out=t, where=denom > 0.0)
    np.clip(t, 0.0, delta, out=t)
    return np.add(s_k, t, out=t)


def _sample_rows(grid: SampleGrid, tau, log_t, cumulative, u: np.ndarray) -> np.ndarray:
    """Exact inverse samples of one ray's linear-model arrays ``tau``, ``log_t`` and
    ``cumulative``, shape (N+2,), at draws (S,); or of R rays' rows on the one ``grid``,
    shape (R, N+2), at draws (R, S), row ``r`` bit for bit as alone.  Clamped draws go
    to far.  Bins are located on the draws as given, so sorted ones keep runs."""
    clamped, zeroed = _clamped(u, cumulative)
    tables = (log_t, tau, tau[..., 1:], grid.widths, grid.points)
    s = _per_bin(_sample_in_bin, zeroed, _interval(cumulative, u, runs=True), *tables)
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
    the surrogate, a ContinuousRayCdf through the exact inverse; any other
    type raises TypeError.  Unit draws are stratified (``_stratified_unit_samples``).
    """
    if not isinstance(cdf, (ContinuousRayCdf, DiscreteRayCdf)):
        raise TypeError(f"unknown cdf type {type(cdf).__name__}")
    if not _is_count(n_fine, "positive"):
        raise ValueError(f"need a positive integer count of fine samples, got n_fine={n_fine!r}")
    if not _is_count(seed, "nonnegative"):
        raise ValueError(f"seed must be nonnegative and an integer, got seed={seed!r}")
    u = _stratified_unit_samples(n_fine, seed)
    u = np.minimum(u, cdf.cumulative[-1] * (1.0 - 1e-15))
    if isinstance(cdf, ContinuousRayCdf):
        fine = cdf.precise_sample(u)
    else:
        fine = cdf.surrogate_sample(u)

    # Merged between the segment bounds, so one mask makes the point array.
    # No sample lies below near, which is merged[0], so the gap test also
    # drops every sample within MERGE_TOL of near; the bound test drops one
    # within MERGE_TOL of far.
    seg = cdf.grid.segment
    merged = np.concatenate(([seg.near], cdf.grid.interior, fine, [seg.far]))
    samples = merged[1:-1]
    # Two sorted runs, the interior and the monotone draws: a stable sort
    # merges them in linear time.  Its order differs from another sort's only
    # among equal values, which are equal bits but for a ±0 draw at near,
    # and that is dropped below.
    samples.sort(kind="stable")
    # Drop samples within MERGE_TOL of the one before (or near) or of far.
    # ``far - s > MERGE_TOL`` is monotone on sorted samples, so the last one
    # decides it for all; with no sample dropped, ``merged`` is the points.
    keep = np.ones(merged.size, dtype=bool)
    np.greater(samples - merged[:-2], MERGE_TOL, out=keep[1:-1])
    if not (keep.all() and seg.far - samples[-1] > MERGE_TOL):
        keep[1:-1] &= seg.far - samples > MERGE_TOL
        merged = merged[keep]
    del keep  # freed before the grid builds its widths
    return SampleGrid(interior=_Adopted(merged), segment=seg)
