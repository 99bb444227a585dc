"""Long rays: every kernel that works in place gives, bit for bit, what
its plain formula gives, and builds no more full-length arrays than it
keeps.

The references below are the formulas written out as expressions, one
fresh array per step.  The allocation guards measure the peak of traced
memory during one call at N = 65,536 interior samples, in units of one
(N + 2)-entry float64 array.
"""

import tracemalloc

import numpy as np
import pytest

from rayquad import (
    OPAQUE,
    ContinuousRayCdf,
    DiscreteRayCdf,
    FarConvention,
    GrazingRig,
    ModelKind,
    OpacityTrace,
    RaySegment,
    SampleGrid,
    apply_far_convention,
    expected_depth,
    floor_opacity,
    grad_render_wrt_tau,
    grad_sample_wrt_tau,
    hierarchical_samples,
    interval_pmf,
    make_uniform_grid,
    sample_field,
    shift_sweep,
)
from rayquad.fields import LogisticStep, _by_ray
from rayquad.quadrature import _distributions, _weighted_sums
from rayquad.rays import EPS_OPACITY, _BLOCK
from rayquad.sampling import MERGE_TOL, _stratified_unit_samples

from conftest import hand_distribution

N = 65_536
UNIT = (N + 2) * 8
MODELS = [ModelKind.CONSTANT, ModelKind.LINEAR]


@pytest.fixture(scope="module")
def ray():
    """One grazing-wall ray of the long-ray benchmark on a 65,536-sample grid."""
    rig = GrazingRig(
        wall_amplitude=10.0, wall_steepness=40.0, wall_depth=1.0, angles=np.array([0.7])
    )
    field = rig.ray_field(0.7, 0.05)
    grid = make_uniform_grid(RaySegment(0.0, 4.0), N)
    raw, colors = sample_field(field, grid)
    tau = apply_far_convention(floor_opacity(raw), FarConvention.OPAQUE_FAR)
    return field, grid, raw, tau, colors


def plain_tau(step, s):
    s = np.asarray(s, dtype=np.float64)
    z = step.steepness * (s - step.center)
    e = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return step.amplitude * sig


def plain_interval_pmf(model, widths, t):
    if model is ModelKind.CONSTANT:
        depth = t[:-1] * widths
        if t[-1] >= OPAQUE:
            depth[-1] = t[-2] * OPAQUE
    else:
        depth = 0.5 * (t[:-1] + t[1:]) * widths
    log_t = np.concatenate(([0.0], -np.cumsum(depth)))
    trans = np.exp(log_t)
    pmf = trans[:-1] * -np.expm1(-depth)
    return log_t, trans, pmf, np.concatenate(([0.0], np.cumsum(pmf)))


def plain_merge(cdf, n_fine, seed):
    u = np.minimum(_stratified_unit_samples(n_fine, seed), cdf.cumulative[-1] * (1.0 - 1e-15))
    if isinstance(cdf, ContinuousRayCdf):
        fine = cdf.precise_sample(u)
    else:
        fine = cdf.surrogate_sample(u)
    seg = cdf.grid.segment
    fine = np.clip(fine, np.nextafter(seg.near, np.inf), np.nextafter(seg.far, -np.inf))
    merged = np.sort(np.concatenate([cdf.grid.interior, fine]))
    merged = merged[np.concatenate(([True], np.diff(merged) > MERGE_TOL))]
    merged = merged[(merged - seg.near > MERGE_TOL) & (seg.far - merged > MERGE_TOL)]
    return np.concatenate(([seg.near], merged, [seg.far]))


def plain_grad_render(model, grid, trans, c):
    widths, n_pts = grid.widths, grid.n + 2
    u = np.empty(n_pts)
    u[0] = 0.0
    u[1:-1] = (c[1:] - c[:-1]) * trans[1:-1]
    u[-1] = -c[-1] * trans[-1]
    suffix = np.zeros(n_pts + 1)
    suffix[:-1] = np.cumsum(u[::-1])[::-1]
    grad = np.zeros(n_pts)
    if model is ModelKind.CONSTANT:
        grad[:-1] = -widths * suffix[1:-1]
    else:
        grad[1:] -= 0.5 * widths * suffix[1:-1]
        grad[:-1] -= 0.5 * widths * suffix[1:-1]
    return grad


def same_bits(got, want) -> bool:
    """Equal float64 bits, compared as ``int64`` views, so a -0.0 against a +0.0
    counts, which ``np.array_equal`` does not."""
    got, want = np.asarray(got), np.asarray(want)
    same_kind = got.dtype == want.dtype == np.float64 and got.shape == want.shape
    return same_kind and np.array_equal(got.view(np.int64), want.view(np.int64))


def long_ray_on(n):
    """The ``ray`` fixture's ray on an ``n``-sample uniform grid."""
    rig = GrazingRig(
        wall_amplitude=10.0, wall_steepness=40.0, wall_depth=1.0, angles=np.array([0.7])
    )
    grid = make_uniform_grid(RaySegment(0.0, 4.0), n)
    raw, colors = sample_field(rig.ray_field(0.7, 0.05), grid)
    return grid, apply_far_convention(floor_opacity(raw), FarConvention.OPAQUE_FAR), colors


def peak_units(call) -> float:
    """Peak traced memory of ``call()`` in (N + 2)-float arrays; one call
    first, so lazy imports and first-use set-up are not counted."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / UNIT
    finally:
        tracemalloc.stop()


class TestBitIdentity:
    @pytest.mark.parametrize("model", MODELS)
    def test_interval_pmf(self, ray, model):
        # The raw trace and the opaque-far one.
        _, grid, raw, tau, _ = ray
        for t in (raw.values, tau.values):
            dist = interval_pmf(model, grid, OpacityTrace(t))
            want = plain_interval_pmf(model, grid.widths, t)
            got = (dist.log_transmittance, dist.transmittance, dist.pmf, dist.cumulative)
            for g, w in zip(got, want):
                assert same_bits(g, w)
        if model is ModelKind.CONSTANT:
            # The zero near opacity of the opaque far plane gives a zero first
            # step, which log-transmittance keeps as -0.0.
            assert same_bits(dist.log_transmittance[:2], np.array([0.0, -0.0]))
        mids = 0.5 * (grid.points[:-1] + grid.points[1:])
        # One dot product per block of _BLOCK intervals, added in order.
        blocks = [slice(i, i + _BLOCK) for i in range(0, mids.size, _BLOCK)]
        assert expected_depth(dist, grid) == sum(float(dist.pmf[b] @ mids[b]) for b in blocks)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("per_row", [False, True], ids=["shared-widths", "row-widths"])
    def test_distributions_of_a_stack(self, ray, model, per_row):
        # Raw, opaque-far and floored rows; each row gets its one-ray formulas' bits.
        _, grid, raw, tau, _ = ray
        rows = np.stack([raw.values, tau.values, floor_opacity(raw).values])
        widths = grid.widths
        if per_row:
            widths = np.stack([grid.widths, 1.5 * grid.widths, grid.widths[::-1]])
        got = _distributions(model, widths, rows)
        for r, t in enumerate(rows):
            want = plain_interval_pmf(model, widths if widths.ndim == 1 else widths[r], t)
            for g, w in zip(got, want):
                assert same_bits(g[r], w)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_weighted_sum_of_a_long_row_stacked_and_alone(self, channels):
        # 65,537 intervals: eight full blocks of _BLOCK and a last one of one interval.
        rng = np.random.default_rng(channels)
        pmf, v = rng.random((3, 65_537)), rng.random((3, 65_537, channels))
        stacked = _weighted_sums(pmf, v)
        for row in range(3):
            assert np.array_equal(stacked[row], _weighted_sums(pmf[row], v[row]))

    @pytest.mark.parametrize("model", MODELS)
    def test_gradients(self, ray, model):
        _, grid, _, tau, colors = ray
        trans = interval_pmf(model, grid, tau).transmittance
        got = grad_render_wrt_tau(model, grid, tau, colors)
        assert np.array_equal(got, plain_grad_render(model, grid, trans, colors.values[:, 0]))
        assert np.array_equal(
            grad_render_wrt_tau(model, grid, tau, grid.points[1:]),
            plain_grad_render(model, grid, trans, grid.points[1:]),
        )

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("intervals", [8191, 8192, 8193, 16385])
    def test_blocked_gradients(self, model, intervals):
        # One block, one full block, a full block and one interval, two full
        # blocks and one.  Under the opaque far plane the last interval's term
        # is -c * 0.0 = -0.0, which a carry of +0.0 would turn to +0.0.
        grid, tau, colors = long_ray_on(intervals - 1)
        trans = interval_pmf(model, grid, tau).transmittance
        c = colors.values[:, 0]
        assert same_bits(grad_render_wrt_tau(model, grid, tau, colors), plain_grad_render(model, grid, trans, c))
        # Weights with runs of equal values give exact zero terms in every block.
        weights = np.round(grid.points[1:], 1)
        got = grad_render_wrt_tau(model, grid, tau, weights)
        assert same_bits(got, plain_grad_render(model, grid, trans, weights))

    def test_sample_gradient(self, ray):
        _, grid, _, tau, _ = ray
        cdf = ContinuousRayCdf(grid, tau)
        u = 0.5 * cdf.cumulative[-1]
        k, delta, q, root, denom, _ = cdf._invert(u)
        t = tau.values
        a = t[k + 1] - t[k]
        dt_da = -2.0 * q * q / (delta * root * denom * denom)
        dt_dq = 2.0 / denom - 2.0 * q * a / (delta * root * denom * denom)
        dt_dtau_direct = -2.0 * q * (1.0 + t[k] / root) / (denom * denom)
        d_log_t = np.zeros(grid.n + 2)
        d_log_t[:k] -= 0.5 * grid.widths[:k]
        d_log_t[1 : k + 1] -= 0.5 * grid.widths[:k]
        want = dt_dq * d_log_t
        want[k] += dt_dtau_direct - dt_da
        want[k + 1] += dt_da
        got = grad_sample_wrt_tau(cdf, u)
        assert got.bin == k
        assert np.array_equal(got.d_tau, want)

    @pytest.mark.parametrize("model", MODELS)
    def test_hierarchical_samples(self, ray, model):
        _, grid, _, tau, _ = ray
        if model is ModelKind.LINEAR:
            cdf = ContinuousRayCdf(grid, tau)
        else:
            cdf = DiscreteRayCdf(grid, interval_pmf(model, grid, tau))
        fine = hierarchical_samples(cdf, 1024, 7)
        assert same_bits(fine.points, plain_merge(cdf, 1024, 7))

    @pytest.mark.parametrize(
        "interior, pmf",
        [([5e-13, 0.5], [0.997, 1e-3, 1e-3]), ([0.5, 1.0 - 5e-13], [1e-3, 1e-3, 0.997])],
        ids=["near", "far"],
    )
    def test_merge_drops_collisions(self, interior, pmf):
        # Nearly all the mass in a bin narrower than MERGE_TOL at one bound:
        # the fine samples collide with each other, the bin's grid point
        # and that bound.
        grid = SampleGrid(np.array(interior), RaySegment(0.0, 1.0))
        cumulative = np.concatenate(([0.0], np.cumsum(pmf)))
        trans = 1.0 - cumulative
        dist = hand_distribution(grid, np.log(trans), trans, pmf, cumulative)
        cdf = DiscreteRayCdf(grid, dist)
        fine = hierarchical_samples(cdf, 64, 3)
        assert fine.n < grid.n + 64
        assert np.array_equal(fine.points, plain_merge(cdf, 64, 3))

    @pytest.mark.parametrize("n", [7, N])
    def test_merge_of_duplicated_draws(self, n):
        # Monotone draws, each twice, half of them on interior grid points:
        # the two sorted runs merge with every tie and collision dropped.
        grid = make_uniform_grid(RaySegment(0.0, 4.0), n)
        interior = grid.interior
        on_points = interior[:: max(1, n // 512)]
        between = 0.5 * (on_points[:-1] + on_points[1:]) + 1e-3 / n
        draws = np.repeat(np.sort(np.concatenate((on_points, between))), 2)

        class FixedDraws(DiscreteRayCdf):
            def surrogate_sample(self, u):
                return draws.copy()

        tau = OpacityTrace(np.ones(n + 2))
        cdf = FixedDraws(grid, interval_pmf(ModelKind.CONSTANT, grid, tau))
        fine = hierarchical_samples(cdf, draws.size, 0)
        assert same_bits(fine.points, plain_merge(cdf, draws.size, 0))
        assert fine.n == n + between.size

    @pytest.mark.parametrize("near", [0.0, 1.0])
    def test_merge_drops_draws_at_the_bounds(self, near):
        # Draws at near, at far and one ulp past far; plain_merge clips
        # them inside the segment first, the merge does not.
        seg = RaySegment(near, near + 1.0)
        grid = make_uniform_grid(seg, 7)
        draws = np.array(
            [seg.near, seg.far, np.nextafter(seg.far, np.inf), near + 3e-12, near + 0.3, seg.far - 3e-12]
        )

        class FixedDraws(DiscreteRayCdf):
            def surrogate_sample(self, u):
                return draws.copy()

        cdf = FixedDraws(grid, interval_pmf(ModelKind.CONSTANT, grid, OpacityTrace(np.ones(9))))
        fine = hierarchical_samples(cdf, draws.size, 0)
        assert np.array_equal(fine.points, plain_merge(cdf, draws.size, 0))
        assert fine.n == grid.n + 3

    def test_grids_and_conventions(self, ray):
        field, grid, raw, _, _ = ray
        seg = grid.segment
        assert np.array_equal(grid.points, np.linspace(seg.near, seg.far, N + 2))
        shifts, shifted, _, _ = shift_sweep(field, seg, N, 4)
        assert np.array_equal(shifted[:, 1:-1], grid.interior + shifts[:, None])
        assert (shifted[:, 0] == seg.near).all() and (shifted[:, -1] == seg.far).all()

        floored = np.array(raw.values)
        floored[1:-1] = np.maximum(floored[1:-1], EPS_OPACITY)
        assert same_bits(floor_opacity(raw).values, floored)
        far = np.array(raw.values)
        far[0], far[-1] = 0.0, OPAQUE
        assert same_bits(apply_far_convention(raw, FarConvention.OPAQUE_FAR).values, far)

    def test_logistic_step_on_the_ray(self, ray):
        field, grid, _, _, _ = ray
        assert np.array_equal(field.density.tau(grid.points), plain_tau(field.density, grid.points))

    def test_gathered_logistic_steps(self):
        # Mixed-sign arguments, z = 0 at each center, and |z| up to 1e4,
        # where exp(-|z|) underflows.
        rng = np.random.default_rng(5)
        centers = [-1.0, 0.0, 2.0, 4.5]
        steps = [
            LogisticStep(amplitude=a, steepness=k, center=c)
            for a, k, c in zip([0.0, 1.0, 10.0, 3.5], [0.5, 40.0, 1e3, 7.0], centers)
        ]
        x = np.concatenate((centers, rng.uniform(-8.0, 8.0, 4096)))
        which = np.concatenate((np.arange(len(steps)), rng.integers(0, len(steps), 4096)))
        got = _by_ray(steps, "tau")(x, which)
        want = np.empty_like(x)
        for r, step in enumerate(steps):
            want[which == r] = plain_tau(step, x[which == r])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("s", [0.3, np.float64(-2.0), np.array(1.7), [0.2, 0.9]])
    def test_logistic_step_keeps_its_return_type(self, s):
        step = LogisticStep(amplitude=2.0, steepness=3.0, center=0.5)
        got, want = step.tau(s), plain_tau(step, s)
        assert type(got) is type(want)
        assert np.array_equal(got, want)


class TestAllocationGuard:
    @pytest.mark.parametrize("model", MODELS)
    def test_interval_pmf(self, ray, model):
        # The four arrays it keeps, plus the finite checks' masks.
        _, grid, _, tau, _ = ray
        fresh = iter([OpacityTrace(tau.values) for _ in range(2)])
        assert peak_units(lambda: interval_pmf(model, grid, next(fresh))) <= 5.0

    def test_conventions(self, ray):
        _, _, raw, _, _ = ray
        assert peak_units(lambda: floor_opacity(raw)) <= 1.2
        assert peak_units(lambda: apply_far_convention(raw, FarConvention.OPAQUE_FAR)) <= 1.2

    def test_field_sampling(self, ray):
        field, grid, _, _, _ = ray
        assert peak_units(lambda: field.density.tau(grid.points)) <= 3.2
        assert peak_units(lambda: sample_field(field, grid)) <= 3.2

    def test_uniform_grid(self, ray):
        _, grid, _, _, _ = ray
        assert peak_units(lambda: make_uniform_grid(grid.segment, N)) <= 2.2

    @pytest.mark.parametrize("model", MODELS)
    def test_hierarchical_samples(self, ray, model):
        # The merged points, which the grid adopts when no sample is dropped,
        # and their widths; not a masked copy of them.
        _, grid, _, tau, _ = ray
        if model is ModelKind.LINEAR:
            cdf = ContinuousRayCdf(grid, tau)
        else:
            cdf = DiscreteRayCdf(grid, interval_pmf(model, grid, tau))
        assert hierarchical_samples(cdf, 1024, 7).n == N + 1024
        assert peak_units(lambda: hierarchical_samples(cdf, 1024, 7)) <= 2.4

    @pytest.mark.parametrize("model", MODELS)
    def test_render_gradient(self, ray, model):
        # The result, plus one block of scratch (and one of linear steps), not
        # the full-length rows of one pass.
        _, grid, _, tau, colors = ray
        assert peak_units(lambda: grad_render_wrt_tau(model, grid, tau, colors)) <= 1.3

    def test_sample_gradient(self, ray):
        # The result, plus the half-widths of the bins before the draw's,
        # which on this ray's median draw are about 0.38 N entries.
        _, grid, _, tau, _ = ray
        cdf = ContinuousRayCdf(grid, tau)
        assert peak_units(lambda: grad_sample_wrt_tau(cdf, 0.5 * cdf.cumulative[-1])) <= 1.5
