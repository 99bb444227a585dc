import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rayquad import (
    OPAQUE,
    ContinuousRayCdf,
    DiscreteRayCdf,
    FarConvention,
    ModelKind,
    OpacityTrace,
    RaySegment,
    SampleGrid,
    hierarchical_samples,
    interval_pmf,
    ks_critical,
    ks_statistic,
    make_uniform_grid,
)
from rayquad import cli, fixtures, sampling
from rayquad.fields import opaque_trace
from rayquad.quadrature import _distributions
from rayquad.rays import _BLOCK
from rayquad.sampling import (
    EPS_UNIT,
    MERGE_TOL,
    _precise_rows,
    _stratified_unit_samples,
)

from conftest import hand_distribution, random_instance


def wall_distribution(model, grid):
    """Opaque-far distribution of the shift-scene wall on ``grid``."""
    tau, _ = opaque_trace(fixtures.shift_scene(), grid)
    return interval_pmf(model, grid, tau), tau


def rect_distribution():
    """Two equal-mass bins over [0, 1] and [1, 2].

    The far bound is opaque: its transmittance is zero and its finite
    log-transmittance is of the size ``interval_pmf`` gives under the
    opaque-far convention, since stored arrays must be finite.
    """
    grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
    pmf = np.array([0.5, 0.5])
    dist = hand_distribution(
        grid,
        log_transmittance=np.array([0.0, np.log(0.5), np.log(0.5) - OPAQUE]),
        transmittance=np.array([1.0, 0.5, 0.0]),
        pmf=pmf,
        cumulative=np.array([0.0, 0.5, 1.0]),
    )
    return DiscreteRayCdf(grid, dist)


class TestSurrogateSampler:
    def test_interpolates_within_bin(self):
        cdf = rect_distribution()
        assert cdf.surrogate_sample(0.25) == pytest.approx(0.5)

    def test_zero_draw_returns_first_positive_bin_edge(self):
        grid = SampleGrid(np.array([1.0, 1.5]), RaySegment(0.0, 2.0))
        dist = hand_distribution(
            grid,
            log_transmittance=np.array([0.0, 0.0, np.log(0.5), np.log(0.5) - OPAQUE]),
            transmittance=np.array([1.0, 1.0, 0.5, 0.0]),
            pmf=np.array([0.0, 0.5, 0.5]),
            cumulative=np.array([0.0, 0.0, 0.5, 1.0]),
        )
        cdf = DiscreteRayCdf(grid, dist)
        assert cdf.surrogate_sample(0.0) == pytest.approx(1.0)

    def test_rejects_another_grid_of_equal_size(self):
        # On b, a's distribution once drew ten times as deep, silently.
        a, b = (make_uniform_grid(RaySegment(0.0, far), 32) for far in (0.5, 5.0))
        dist = interval_pmf(ModelKind.LINEAR, a, OpacityTrace(np.full(34, 2.0)))
        with pytest.raises(ValueError, match="another grid"):
            DiscreteRayCdf(b, dist)
        twin = make_uniform_grid(RaySegment(0.0, 0.5), 32)  # equal points, another object
        u = np.array([0.1, 0.25, 0.5])
        assert np.array_equal(
            DiscreteRayCdf(twin, dist).surrogate_sample(u), DiscreteRayCdf(a, dist).surrogate_sample(u)
        )

    def test_draw_at_cumulative_value_returns_grid_point(self):
        cdf = rect_distribution()
        assert cdf.surrogate_sample(0.5) == pytest.approx(1.0)

    def test_rejects_draws_outside_unit_interval(self):
        cdf = rect_distribution()
        with pytest.raises(ValueError):
            cdf.surrogate_sample(-0.1)
        with pytest.raises(ValueError):
            cdf.surrogate_sample(1.0)
        with pytest.raises(ValueError, match="lie in"):
            cdf.surrogate_sample(np.nan)

    def test_monotone_in_draw(self, rng):
        grid, tau = random_instance(rng, convention=FarConvention.OPAQUE_FAR)
        cdf = DiscreteRayCdf(grid, interval_pmf(ModelKind.CONSTANT, grid, tau))
        u = np.sort(rng.random(500) * cdf.cumulative[-1] * (1 - 1e-12))
        s = cdf.surrogate_sample(u)
        assert np.all(np.diff(s) >= 0)

    def test_piecewise_linear_in_draw_within_bin(self):
        cdf = rect_distribution()
        u = np.array([0.1, 0.2, 0.3])
        s = cdf.surrogate_sample(u)
        assert s[1] - s[0] == pytest.approx(s[2] - s[1], rel=1e-12)


def linear_cdf_simple():
    grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
    tau = OpacityTrace(np.array([1.0, 3.0, 5.0]))
    return ContinuousRayCdf(grid, tau)


class TestCdfEval:
    def test_grid_points_hit_cumulative_values(self, rng):
        grid, tau = random_instance(rng, convention=FarConvention.OPAQUE_FAR)
        cdf = ContinuousRayCdf(grid, tau)
        np.testing.assert_allclose(
            cdf.cdf_eval(grid.points), cdf.cumulative, rtol=0, atol=1e-12
        )

    def test_far_bound_has_unit_mass_under_opaque_far(self, rng):
        grid, tau = random_instance(rng, convention=FarConvention.OPAQUE_FAR)
        cdf = ContinuousRayCdf(grid, tau)
        assert cdf.cdf_eval(grid.segment.far) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_in_bin_cumulative(self):
        cdf = linear_cdf_simple()
        t = (np.sqrt(5.0) - 1.0) / 2.0  # in-bin opacity integral equals 1
        assert cdf.cdf_eval(t) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
        assert cdf.cdf_eval(0.618034) == pytest.approx(0.6321206, abs=1e-5)

    def test_rejects_points_outside_segment(self):
        cdf = linear_cdf_simple()
        with pytest.raises(ValueError):
            cdf.cdf_eval(-0.01)
        with pytest.raises(ValueError):
            cdf.cdf_eval(2.01)
        with pytest.raises(ValueError, match="outside the ray segment"):
            cdf.cdf_eval(np.nan)


class TestPreciseSampler:
    def test_golden_ratio_inverse(self):
        cdf = linear_cdf_simple()
        u = 1.0 - np.exp(-1.0)
        assert cdf.precise_sample(u) == pytest.approx(
            (np.sqrt(5.0) - 1.0) / 2.0, abs=1e-12
        )

    def test_draw_at_bin_edge_returns_grid_point(self, rng):
        grid, tau = random_instance(rng, convention=FarConvention.OPAQUE_FAR)
        cdf = ContinuousRayCdf(grid, tau)
        k = grid.n // 2
        u = float(cdf.cumulative[k])
        assert cdf.precise_sample(u) == pytest.approx(grid.points[k], abs=1e-12)

    def test_flat_bin_matches_exponential_inverse(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        tau = OpacityTrace(np.array([2.0, 2.0, 2.0]))
        cdf = ContinuousRayCdf(grid, tau)
        u = 0.3
        expected = -np.log1p(-u) / 2.0
        assert cdf.precise_sample(u) == pytest.approx(expected, rel=1e-13)

    def test_roundtrip_inversion(self, rng):
        for _ in range(20):
            grid, tau = random_instance(rng, convention=FarConvention.OPAQUE_FAR)
            cdf = ContinuousRayCdf(grid, tau)
            u = rng.random(200) * (1.0 - 1e-9)
            s = cdf.precise_sample(u)
            np.testing.assert_allclose(cdf.cdf_eval(s), u, rtol=0, atol=1e-9)

    def test_monotone_in_draw(self, rng):
        grid, tau = random_instance(rng, convention=FarConvention.OPAQUE_FAR)
        cdf = ContinuousRayCdf(grid, tau)
        u = np.sort(rng.random(500))
        s = cdf.precise_sample(np.minimum(u, 1 - 1e-9))
        assert np.all(np.diff(s) >= 0)

    def test_samples_stay_in_located_bin(self, rng):
        for _ in range(10):
            grid, tau = random_instance(rng, convention=FarConvention.OPAQUE_FAR)
            cdf = ContinuousRayCdf(grid, tau)
            u = rng.random(300) * (1.0 - 1e-9)
            s = cdf.precise_sample(u)
            k = np.minimum(
                np.searchsorted(cdf.cumulative[1:], u, side="right"), grid.n
            )
            pts = grid.points
            assert np.all(s >= pts[k] - 1e-12)
            assert np.all(s <= pts[k + 1] + 1e-12)

    def test_near_unit_draw_clamps_to_far(self):
        # The opaque far plane gives the steep ray unit mass, so only the
        # ``1 - EPS_UNIT`` bound clamps its draw below 1.
        steep = ContinuousRayCdf(*fixtures.steep_sampler_fixture())
        for cdf in (linear_cdf_simple(), steep):
            for u in (1.0 - 1e-13, 1.0):
                assert cdf.precise_sample(u) == cdf.grid.segment.far
            np.testing.assert_array_equal(
                cdf.precise_sample(np.array([1.0 - 1e-13, 1.0])), cdf.grid.segment.far
            )

    def test_rejects_invalid_draws(self):
        cdf = linear_cdf_simple()
        with pytest.raises(ValueError):
            cdf.precise_sample(-0.2)
        with pytest.raises(ValueError):
            cdf.precise_sample(1.2)
        # NaN fails at the boundary, not inside the inverse; 1.0 is valid.
        for u in (np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                cdf.precise_sample(u)

    def test_requires_floored_opacity(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        with pytest.raises(ValueError):
            ContinuousRayCdf(grid, OpacityTrace(np.array([1.0, 0.0, 1.0])))

    def test_continuous_in_draw_and_opacity(self):
        cdf = linear_cdf_simple()
        u = 0.4
        base = cdf.precise_sample(u)
        assert abs(cdf.precise_sample(u + 1e-9) - base) < 1e-7
        bumped = ContinuousRayCdf(
            cdf.grid, OpacityTrace(np.array([1.0, 3.0 + 1e-9, 5.0]))
        )
        assert abs(bumped.precise_sample(u) - base) < 1e-7


class TestDistributionalCorrectness:
    def test_precise_samples_pass_ks(self, rng):
        grid, tau = random_instance(rng, n_max=16, convention=FarConvention.OPAQUE_FAR)
        cdf = ContinuousRayCdf(grid, tau)
        n = 100_000
        s = np.sort(cdf.precise_sample(rng.random(n)))
        assert ks_statistic(s, cdf.cdf_eval) < ks_critical(n)

    def test_surrogate_uniform_within_bin(self):
        grid, tau = fixtures.steep_sampler_fixture()
        _, surrogate = fixtures.precise_and_surrogate(grid, tau)
        rng = np.random.default_rng(4)
        k = 2
        n = 50_000
        c = surrogate.cumulative
        u = c[k] + (c[k + 1] - c[k]) * rng.random(n)
        s = np.sort(surrogate.surrogate_sample(u))
        lo, hi = grid.points[k], grid.points[k + 1]
        stat = ks_statistic(s, lambda x: (x - lo) / (hi - lo))
        assert stat < ks_critical(n)

    def test_surrogate_fails_against_continuous_cdf_on_steep_instance(self):
        grid, tau = fixtures.steep_sampler_fixture()
        continuous, surrogate = fixtures.precise_and_surrogate(grid, tau)
        rng = np.random.default_rng(4)
        n = 50_000
        u = rng.random(n) * surrogate.cumulative[-1] * (1 - 1e-12)
        s = np.sort(surrogate.surrogate_sample(u))
        assert ks_statistic(s, continuous.cdf_eval) > ks_critical(n)

    def test_true_in_bin_density_nonuniform_when_tau_varies(self):
        grid, tau = fixtures.steep_sampler_fixture()
        continuous, _ = fixtures.precise_and_surrogate(grid, tau)
        k = 2
        c = continuous.cumulative
        lo, hi = grid.points[k], grid.points[k + 1]
        mid_mass = (continuous.cdf_eval(0.5 * (lo + hi)) - c[k]) / (c[k + 1] - c[k])
        assert abs(mid_mass - 0.5) > 0.05


class TestHierarchicalSampling:
    def test_default_budget_bounds_merged_size(self):
        grid = make_uniform_grid(fixtures.SHIFT_SEGMENT, 128)
        _, tau = wall_distribution(ModelKind.LINEAR, grid)
        cdf = ContinuousRayCdf(grid, tau)
        merged = hierarchical_samples(cdf, 64, seed=3)
        assert merged.n <= 192
        assert np.all(np.diff(merged.points) > 0)

    def test_deterministic_per_seed(self):
        grid = make_uniform_grid(fixtures.SHIFT_SEGMENT, 32)
        _, tau = wall_distribution(ModelKind.LINEAR, grid)
        cdf = ContinuousRayCdf(grid, tau)
        a = hierarchical_samples(cdf, 16, seed=5)
        b = hierarchical_samples(cdf, 16, seed=5)
        np.testing.assert_array_equal(a.interior, b.interior)

    def test_other_cdf_type_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown cdf type str"):
            hierarchical_samples("x", 4, 0)

    def test_fine_samples_concentrate_in_heavy_bin(self):
        # steep middle trace puts nearly all mass in [0.8, 1.2]
        grid = SampleGrid(np.array([0.8, 1.2]), RaySegment(0.0, 2.0))
        steep = OpacityTrace(np.array([1e-6, 1e-6, 5e3, 1e-6]))
        cdf = ContinuousRayCdf(grid, steep)
        merged = hierarchical_samples(cdf, 32, seed=1)
        fine = np.setdiff1d(merged.interior, grid.interior)
        assert np.all((fine >= 0.8) & (fine <= 1.2))

    def test_surrogate_mode_uses_discrete_cdf(self):
        grid = make_uniform_grid(fixtures.SHIFT_SEGMENT, 32)
        dist, _ = wall_distribution(ModelKind.CONSTANT, grid)
        merged = hierarchical_samples(DiscreteRayCdf(grid, dist), 16, seed=2)
        assert merged.n <= 48

    def test_rejects_zero_fine_samples(self):
        grid = make_uniform_grid(fixtures.SHIFT_SEGMENT, 8)
        dist, _ = wall_distribution(ModelKind.CONSTANT, grid)
        with pytest.raises(ValueError):
            hierarchical_samples(DiscreteRayCdf(grid, dist), 0, seed=2)

    def test_stratified_unit_samples_cover_strata(self):
        u = _stratified_unit_samples(64, seed=8)
        assert np.all((u >= np.arange(64) / 64) & (u < (np.arange(64) + 1) / 64))


class TestNearBoundMerge:
    """The gap test alone drops every sample within MERGE_TOL of near."""

    @staticmethod
    def with_near_test(cdf, n_fine, seed):
        """The merge as it was written with its own near-bound test."""
        u = np.minimum(_stratified_unit_samples(n_fine, seed), cdf.cumulative[-1] * (1.0 - 1e-15))
        fine = cdf.precise_sample(u) if isinstance(cdf, ContinuousRayCdf) else cdf.surrogate_sample(u)
        seg = cdf.grid.segment
        samples = np.sort(np.concatenate([cdf.grid.interior, fine]))
        previous = np.concatenate([[seg.near], samples[:-1]])
        keep = (samples - previous > MERGE_TOL) & (samples - seg.near > MERGE_TOL)
        keep &= seg.far - samples > MERGE_TOL
        return np.concatenate([[seg.near], samples[keep], [seg.far]])

    @pytest.mark.parametrize("first", [5e-13, 1e-12, 3e-12])
    @pytest.mark.parametrize("kind", ["continuous", "discrete"])
    def test_draws_near_the_near_bound_are_dropped(self, first, kind):
        # Most of the mass lies in the first bin, [0, first]: most draws land within MERGE_TOL of near.
        grid = SampleGrid(np.array([first, 1.0]), RaySegment(0.0, 2.0))
        tau = OpacityTrace(np.array([0.0, 5.0 / first, 1.0, OPAQUE]))
        cdf = ContinuousRayCdf(grid, tau)
        if kind == "discrete":
            cdf = DiscreteRayCdf(grid, cdf.dist)
        for seed in range(4):
            merged = hierarchical_samples(cdf, 32, seed)
            assert np.all(merged.interior > MERGE_TOL)
            assert np.array_equal(merged.points, self.with_near_test(cdf, 32, seed))

    def test_random_rays_match_the_near_test(self, rng):
        for _ in range(30):
            grid, tau = random_instance(rng, n_max=16)
            cdf = ContinuousRayCdf(grid, tau)
            seed = int(rng.integers(0, 1000))
            assert np.array_equal(hierarchical_samples(cdf, 24, seed).points, self.with_near_test(cdf, 24, seed))


def _row_instance():
    """Opacity rows on one grid with a one-ulp bin (ties in the cumulative), an
    opaque wall (zero-mass bins after it), and a row without the far convention."""
    interior = np.array([0.5, np.nextafter(0.5, 1.0), 1.0, 1.5, 2.5, 3.0])
    grid = SampleGrid(interior, RaySegment(0.0, 4.0))
    rng = np.random.default_rng(3)
    rows = [np.concatenate([[0.0], rng.uniform(1e-6, 3.0, 6), [OPAQUE]]) for _ in range(3)]
    rows.append(np.array([0.0, 0.2, 1e-6, 0.4, 1e8, 0.1, 0.3, OPAQUE]))
    rows.append(np.array([0.3, 0.1, 0.2, 1e-6, 0.05, 0.1, 0.2, 0.1]))
    return grid, np.array(rows)


class TestRowInverse:
    """Each row of the row inverse equals its one-ray ``ContinuousRayCdf``, bit for bit."""

    @staticmethod
    def draws(cdf, rng):
        c = cdf.cumulative
        return np.concatenate(
            [
                c,  # on every bin edge, ties among them
                np.nextafter(c, -np.inf).clip(0.0, 1.0),
                np.nextafter(c, np.inf).clip(0.0, 1.0),
                [0.0, 1.0 - EPS_UNIT, np.nextafter(1.0 - EPS_UNIT, 0.0), 1.0],  # clamped and not
                rng.uniform(0.0, 1.0, 20),
            ]
        )

    def test_rows_equal_one_ray(self, rng):
        grid, tau = _row_instance()
        cdfs = [ContinuousRayCdf(grid, OpacityTrace(row)) for row in tau]
        u = np.array([self.draws(cdf, rng) for cdf in cdfs])
        samples = _precise_rows(grid, tau, u)
        assert any(np.any(np.diff(cdf.cumulative) == 0.0) for cdf in cdfs)  # ties and zero-mass bins
        assert any(cdf.cumulative[-1] < 1.0 for cdf in cdfs)  # draws past the total mass clamp
        for r, cdf in enumerate(cdfs):
            assert np.array_equal(samples[r], cdf.precise_sample(u[r]))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        grid, trace = random_instance(rng, n_max=32)
        tau = np.array([trace.values * f for f in rng.uniform(0.5, 2.0, 4)])
        u = np.stack([self.draws(ContinuousRayCdf(grid, OpacityTrace(row)), rng) for row in tau])
        samples = _precise_rows(grid, tau, u)
        for r, row in enumerate(tau):
            assert np.array_equal(samples[r], ContinuousRayCdf(grid, OpacityTrace(row)).precise_sample(u[r]))

    def test_rejects_what_the_one_ray_path_rejects(self):
        grid, tau = _row_instance()
        bad = tau.copy()
        bad[1, 3] = 0.0
        with pytest.raises(ValueError, match="floored positive") as one_ray:
            ContinuousRayCdf(grid, OpacityTrace(bad[1]))
        with pytest.raises(ValueError) as rows:
            _precise_rows(grid, bad, np.full((5, 1), 0.5))
        assert str(rows.value) == str(one_ray.value)
        cdf = ContinuousRayCdf(grid, OpacityTrace(tau[0]))
        for u in (-0.1, 1.5, np.nan):
            with pytest.raises(ValueError) as one_ray:
                cdf.precise_sample(np.array([u]))
            with pytest.raises(ValueError) as rows:
                _precise_rows(grid, tau, np.full((5, 1), u))
            assert str(rows.value) == str(one_ray.value)


def sampler_pairs():
    """(continuous, surrogate) over the steep fixture, whose mass is one, and
    over a shallow ray without the far convention, whose mass stays below one."""
    shallow = (
        SampleGrid(np.array([0.5, 1.0, 1.5]), RaySegment(0.0, 2.0)),
        OpacityTrace(np.array([0.5, 1.0, 2.0, 0.3, 0.2])),
    )
    return [fixtures.precise_and_surrogate(*inst) for inst in (fixtures.steep_sampler_fixture(), shallow)]


# Sizes either side of one and two block edges, and the size of sampler-test.
BLOCK_SIZES = [8191, 8192, 8193, 16385, 100_001]


def spy_locator(monkeypatch):
    """Record each draw kernel's ``_interval`` call as ``(caller, points, runs)``:
    ``runs`` when it answered with runs of sorted points, not bin indices."""
    calls = []
    locate = sampling._interval

    def spy(edges, x, runs=False):
        got = locate(edges, x, runs=runs)
        calls.append((sys._getframe(1).f_code.co_name, np.size(x), isinstance(got, list)))
        return got

    monkeypatch.setattr(sampling, "_interval", spy)
    return calls


class TestBlockedEvaluation:
    """Long inputs run in blocks of ``_BLOCK``; each output equals the unblocked one bit for bit."""

    @staticmethod
    def by_slices(method, x):
        return np.concatenate([method(x[i : i + 1000]) for i in range(0, x.size, 1000)])

    @staticmethod
    def with_specials(x, specials):
        """A copy of ``x`` per special value, placed at indices 8191 and 8192 (where they
        exist: either side of the first block edge) and at the last index; then each
        copy sorted, whose blocks the kernels run bin by bin."""
        copies = []
        for value in specials:
            y = x.copy()
            y[8191:8193] = value
            y[-1] = value
            copies.append(y)
        return copies + [np.sort(y) for y in copies]

    @staticmethod
    def assert_matches_slices(method, x, calls):
        """``method`` on all of ``x`` equals it on 1000-point slices, which locate point by
        point; a sorted ``x`` locates each full block of ``_BLOCK`` by runs."""
        calls.clear()
        whole = method(x)
        if (x[1:] >= x[:-1]).all():
            assert all(runs for _, size, runs in calls if size >= _BLOCK)
            assert any(runs for _, _, runs in calls) == (x.size >= _BLOCK)
        calls.clear()
        assert np.array_equal(whole, TestBlockedEvaluation.by_slices(method, x))
        assert not any(runs for _, _, runs in calls)

    def test_block_is_the_documented_size(self):
        # BLOCK_SIZES and the special indices straddle block edges only at this size.
        assert _BLOCK == 8192

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_precise_sample_matches_slices(self, monkeypatch, n):
        calls = spy_locator(monkeypatch)
        rng = np.random.default_rng(n)
        for continuous, _ in sampler_pairs():
            c = continuous.cumulative
            # A bin edge, the total mass, a clamped draw, and both ends of [0, 1].
            specials = [c[2], c[-1], 1.0 - EPS_UNIT, 0.0, 1.0]
            for u in self.with_specials(rng.random(n), specials):
                self.assert_matches_slices(continuous.precise_sample, u, calls)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_surrogate_sample_matches_slices(self, monkeypatch, n):
        calls = spy_locator(monkeypatch)
        rng = np.random.default_rng(n)
        # The last surrogate repeats cumulative edges: its zero-mass bins.
        surrogates = [s for _, s in sampler_pairs()]
        surrogates.append(zero_span_surrogate(fixtures.steep_sampler_fixture()[0]))
        for surrogate in surrogates:
            c = surrogate.cumulative
            specials = [v for v in (c[2], c[-1], 1.0 - EPS_UNIT, 0.0) if v < 1.0 and v <= c[-1]]
            for u in self.with_specials(rng.random(n) * c[-1], specials):
                self.assert_matches_slices(surrogate.surrogate_sample, u, calls)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_cdf_eval_matches_slices(self, monkeypatch, n):
        calls = spy_locator(monkeypatch)
        rng = np.random.default_rng(n)
        for continuous, _ in sampler_pairs():
            seg = continuous.grid.segment
            specials = [continuous.grid.points[2], seg.near, seg.far]
            for t in self.with_specials(seg.near + seg.span * rng.random(n), specials):
                self.assert_matches_slices(continuous.cdf_eval, t, calls)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 5000)], ids=["one-block", "three-blocks"])
    def test_scalar_is_a_float_and_an_array_keeps_its_shape(self, shape):
        # A 0-d input is one element returned as a Python float with the bits of a
        # one-element call; any other input keeps its shape, one block or several.
        draws = np.random.default_rng(3).random(shape) * (1 - EPS_UNIT)
        for continuous, surrogate in sampler_pairs():
            seg = continuous.grid.segment
            for method, x in (
                (continuous.precise_sample, draws),
                (surrogate.surrogate_sample, draws * surrogate.cumulative[-1]),
                (continuous.cdf_eval, seg.near + seg.span * draws),
            ):
                out = method(x)
                assert out.shape == shape and same_bits(out.ravel(), method(x.ravel()))
                for value in x.ravel()[:3]:
                    one = method(np.array([value]))[0]
                    for scalar in (float(value), np.float64(value), np.array(value)):
                        got = method(scalar)
                        assert type(got) is float and same_bits(got, one)

    @pytest.mark.parametrize("n", BLOCK_SIZES + [1, 64])
    def test_kernel_runs_once_per_block(self, monkeypatch, n):
        sizes = []
        kernel = ContinuousRayCdf._precise

        def counted(self, u):
            sizes.append(u.size)
            return kernel(self, u)

        monkeypatch.setattr(ContinuousRayCdf, "_precise", counted)
        sampler_pairs()[0][0].precise_sample(np.full(n, 0.5))
        assert sizes == [min(_BLOCK, n - start) for start in range(0, n, _BLOCK)]

    @pytest.mark.parametrize("bad", [np.nan, -0.25, 1.5])
    def test_bad_value_in_last_block_raises_before_any_block(self, monkeypatch, bad):
        calls = []
        for cls, kernel in (
            (ContinuousRayCdf, "_precise"),
            (ContinuousRayCdf, "_cdf"),
            (DiscreteRayCdf, "_surrogate"),
        ):
            monkeypatch.setattr(cls, kernel, lambda self, x: calls.append(x.size))
        continuous, surrogate = sampler_pairs()[1]
        x = np.full(100_001, 0.5)
        x[-1] = bad
        with pytest.raises(ValueError, match=r"^draws must lie in \[0, 1\]$"):
            continuous.precise_sample(x)
        with pytest.raises(ValueError, match=r"^surrogate draws must lie in \[0, 1\)$"):
            surrogate.surrogate_sample(x)
        with pytest.raises(ValueError, match="^evaluation point outside the ray segment$"):
            continuous.cdf_eval(x * 4.0)
        x[-1] = np.nextafter(surrogate.cumulative[-1], 1.0)
        with pytest.raises(ValueError, match="^draw exceeds the total probability mass of the ray$"):
            surrogate.surrogate_sample(x)
        assert calls == []


class TestRunPath:
    """Sorted input runs the draw kernels bin by bin; other input locates point by point."""

    def test_sampler_test_runs_every_long_block_by_bins(self, monkeypatch, tmp_path):
        calls = spy_locator(monkeypatch)
        assert cli.main(["sampler-test", "--out", str(tmp_path)]) == 0
        # Each 100,000-point call has 12 full blocks and a shorter last one.
        blocks = 100_000 // _BLOCK
        assert 100_000 % _BLOCK > 0
        runs = Counter(caller for caller, _, by_runs in calls if by_runs)
        # Four KS statistics' CDFs, two exact and two surrogate samplers.
        assert runs == {"_cdf": 4 * blocks, "_sample_rows": 2 * blocks, "_surrogate": 2 * blocks}
        assert all(by_runs for _, size, by_runs in calls if size >= _BLOCK)

    def test_unsorted_input_of_the_same_size_locates_by_point(self, monkeypatch):
        calls = spy_locator(monkeypatch)
        continuous, surrogate = fixtures.precise_and_surrogate(*fixtures.steep_sampler_fixture())
        u = np.random.default_rng(9).random(100_000)
        seg = continuous.grid.segment
        continuous.precise_sample(u)
        surrogate.surrogate_sample(np.minimum(u, surrogate.cumulative[-1] * (1 - 1e-12)))
        continuous.cdf_eval(seg.near + seg.span * u)
        assert len(calls) == 3 * -(-100_000 // _BLOCK)
        assert not any(by_runs for _, _, by_runs in calls)


class TestWorkingSet:
    """A 100,000-draw call stays within a few blocks' worth of temporaries.

    numpy reports its buffers to ``tracemalloc``, so the traced peak counts
    the output and every temporary; unlike fault counts, it does not depend
    on the allocator's history.
    """

    @pytest.mark.parametrize("name", ["precise_sample", "surrogate_sample", "cdf_eval", "ks_statistic"])
    def test_peak_traced_memory_below_2_mb(self, name):
        continuous, surrogate = fixtures.precise_and_surrogate(*fixtures.steep_sampler_fixture())
        u = np.random.default_rng(5).random(100_000)
        draws = np.minimum(u, surrogate.cumulative[-1] * (1 - 1e-12))
        samples = np.sort(continuous.precise_sample(u))
        call = {
            "precise_sample": lambda: continuous.precise_sample(u),
            "surrogate_sample": lambda: surrogate.surrogate_sample(draws),
            "cdf_eval": lambda: continuous.cdf_eval(samples),
            "ks_statistic": lambda: ks_statistic(samples, continuous.cdf_eval),
        }[name]
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2_000_000


# The kernels' first formulas, one numpy expression per step, kept as references:
# the block-vs-slice tests compare a kernel with itself and cannot see it drift.


def _search(edges, x):
    """The interval of each point, by one ``searchsorted`` per row of edges."""
    if edges.ndim == 1:
        return edges[1:-1].searchsorted(x, side="right")
    return np.stack([_search(row, x_row) for row, x_row in zip(edges, x)])


def _gather(rows, k):
    return rows[k] if rows.ndim == 1 else np.take_along_axis(rows, k, axis=-1)


def reference_invert(grid, tau, log_t, cumulative, u):
    clamped = (u >= 1.0 - EPS_UNIT) | (u >= cumulative[..., -1:])
    u = np.where(clamped, 0.0, u)
    k = _search(cumulative, u)
    q = _gather(log_t, k) - np.log1p(-u)
    tau_k = _gather(tau, k)
    delta = grid.widths[k]
    disc = tau_k * tau_k + 2.0 * (_gather(tau, k + 1) - tau_k) * q / delta
    root = np.sqrt(np.maximum(disc, 0.0))
    return k, delta, q, root, tau_k + root, clamped


def reference_sample(grid, tau, log_t, cumulative, u):
    k, delta, q, _, denom, clamped = reference_invert(grid, tau, log_t, cumulative, u)
    t = np.where(denom > 0.0, 2.0 * q / np.where(denom > 0.0, denom, 1.0), 0.0)
    t = np.clip(t, 0.0, delta)
    s = grid.points[k] + t
    return np.where(clamped, grid.segment.far, s)


def reference_surrogate(cdf, u):
    c = cdf.cumulative
    k = _search(c, u)
    pts = cdf.grid.points
    span = c[k + 1] - c[k]
    frac = np.where(span > 0.0, (u - c[k]) / np.where(span > 0.0, span, 1.0), 0.0)
    s = pts[k] + frac * (pts[k + 1] - pts[k])
    return np.minimum(s, cdf.grid.segment.far)


def reference_cdf(cdf, t):
    pts = cdf.grid.points
    k = _search(pts, t)
    tp = t - pts[k]
    delta = cdf.grid.widths[k]
    tau = cdf.tau.values
    depth = (tau[k + 1] - tau[k]) * tp * tp / (2.0 * delta) + tau[k] * tp
    trans = cdf.dist.transmittance
    f = cdf.cumulative[k] + trans[k] * -np.expm1(-depth)
    return np.clip(f, 0.0, 1.0)


def reference_ks(samples, cdf):
    n = samples.size
    d_plus = d_minus = -np.inf
    for start in range(0, n, _BLOCK):
        f = cdf(samples[start : start + _BLOCK])
        i = np.arange(start + 1, min(start + _BLOCK, n) + 1)
        d_plus = max(d_plus, np.max(i / n - f))
        d_minus = max(d_minus, np.max(f - (i - 1) / n))
    return float(max(d_plus, d_minus))


def same_bits(got, want):
    """Equal dtype, shape and bytes: ``np.array_equal``, and the sign of every zero."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_rows(n):
    """Opacity rows on a uniform ``n``-sample grid: two random opaque-far rows, one
    with an opaque wall (zero-mass bins after it), and a row without the far
    convention (mass below one)."""
    rng = np.random.default_rng(n)
    grid = make_uniform_grid(RaySegment(0.5, 3.0), n)
    rows = [np.concatenate([[0.0], rng.uniform(1e-6, 3.0, n), [OPAQUE]]) for _ in range(2)]
    wall = rows[0].copy()
    wall[1 + n // 2] = 1e8
    rows += [wall, rng.uniform(1e-6, 0.3, n + 2)]
    return grid, np.array(rows)


def edge_draws(cumulative, rng, extra):
    """Every cumulative value and one ulp either side of it, the clamp threshold
    and both ends of [0, 1], then ``extra`` uniform draws."""
    c = cumulative
    special = [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]
    special.append([0.0, 1.0 - EPS_UNIT, np.nextafter(1.0 - EPS_UNIT, 0.0), 1.0])
    return rng.permutation(np.concatenate([*special, rng.random(extra)]).clip(0.0, 1.0))


def zero_span_surrogate(grid):
    """A surrogate whose odd bins, the last among them, carry no mass; its total is 0.5,
    so a draw of 0.5 lands in the last bin with zero span."""
    pmf = (np.arange(grid.n + 1) % 2 == 0).astype(float)
    pmf[-1] = 0.0
    pmf *= 0.5 / pmf.sum()
    cumulative = np.concatenate([[0.0], np.cumsum(pmf)])
    trans = 1.0 - cumulative
    dist = hand_distribution(grid, np.log(trans), trans, pmf, cumulative)
    return DiscreteRayCdf(grid, dist)


# Few draws take the locator's search, many its count on the small grids.
DRAW_EXTRAS = [0, 3000]


class TestReferenceFormulas:
    """Each kernel equals its reference formula above bit for bit."""

    @pytest.mark.parametrize("extra", DRAW_EXTRAS)
    @pytest.mark.parametrize("n", [1, 3, 130])
    def test_exact_inverse(self, n, extra):
        grid, tau = reference_rows(n)
        log_t, _, _, cumulative = _distributions(ModelKind.LINEAR, grid.widths, tau)
        rng = np.random.default_rng(extra)
        u = np.stack([edge_draws(c, rng, extra) for c in cumulative])
        want = reference_invert(grid, tau, log_t, cumulative, u)
        samples = reference_sample(grid, tau, log_t, cumulative, u)
        assert same_bits(_precise_rows(grid, tau, u), samples)
        for r, row in enumerate(tau):
            cdf = ContinuousRayCdf(grid, OpacityTrace(row))
            assert same_bits(cdf._precise(u[r]), samples[r])
            assert same_bits(cdf.precise_sample(u[r]), samples[r])
        _, _, _, _, denom, clamped = want
        # Clamped draws, zero-mass bins, and draws of 0 on the zero near opacity.
        assert clamped.any() and (np.diff(cumulative) == 0.0).any() and (denom <= 0.0).any()

    @pytest.mark.parametrize("n", [1, 3, 130])
    def test_one_draw_inverse(self, n):
        # The gradient's steps at one draw, on every bin edge, one ulp either side,
        # the clamp threshold and both ends of [0, 1].
        grid, tau = reference_rows(n)
        log_t, _, _, cumulative = _distributions(ModelKind.LINEAR, grid.widths, tau)
        rng = np.random.default_rng(n)
        steps = []
        for r, row in enumerate(tau):
            cdf = ContinuousRayCdf(grid, OpacityTrace(row))
            for u in edge_draws(cumulative[r], rng, 0).tolist():
                want = [w[0] for w in reference_invert(grid, row, log_t[r], cumulative[r], np.array([u]))]
                got = cdf._invert(u)
                assert len(got) == 6 and all(same_bits(g, w) for g, w in zip(got, want))
                steps.append(want)
        _, _, _, _, denom, clamped = np.array(steps).T
        # Clamped draws, zero-mass bins, and draws of 0 on the zero near opacity.
        assert clamped.any() and (np.diff(cumulative) == 0.0).any() and (denom <= 0.0).any()

    @pytest.mark.parametrize("extra", DRAW_EXTRAS)
    @pytest.mark.parametrize("n", [1, 3, 130])
    def test_surrogate(self, n, extra):
        grid, tau = reference_rows(n)
        rng = np.random.default_rng(extra)
        cdfs = [DiscreteRayCdf(grid, interval_pmf(ModelKind.CONSTANT, grid, OpacityTrace(row))) for row in tau]
        spans = 0
        for cdf in [*cdfs, zero_span_surrogate(grid)]:
            c = cdf.cumulative
            u = edge_draws(c, rng, extra)
            u = u[(u < 1.0) & (u <= c[-1])]
            want = reference_surrogate(cdf, u)
            assert same_bits(cdf._surrogate(u), want)
            assert same_bits(cdf.surrogate_sample(u), want)
            k = _search(c, u)
            spans += np.count_nonzero(c[k + 1] == c[k])
        assert spans > 0

    @pytest.mark.parametrize("extra", DRAW_EXTRAS)
    @pytest.mark.parametrize("n", [1, 3, 130])
    def test_cdf(self, n, extra):
        grid, tau = reference_rows(n)
        rng = np.random.default_rng(extra)
        seg = grid.segment
        pts = grid.points
        t = np.concatenate([pts, np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf)])
        t = np.concatenate([t, seg.near + seg.span * rng.random(extra)]).clip(seg.near, seg.far)
        for row in tau:
            cdf = ContinuousRayCdf(grid, OpacityTrace(row))
            want = reference_cdf(cdf, t)
            assert same_bits(cdf._cdf(t), want)
            assert same_bits(cdf.cdf_eval(t), want)

    @pytest.mark.parametrize("n", [1, 500, 8193, 20_000])
    def test_ks_statistic(self, n):
        continuous, _ = fixtures.precise_and_surrogate(*fixtures.steep_sampler_fixture())
        samples = np.sort(continuous.precise_sample(np.random.default_rng(n).random(n)))
        for cdf in (continuous.cdf_eval, lambda v: v, lambda v: np.clip(v - 0.5, 0.0, 1.0)):
            assert ks_statistic(samples, cdf) == reference_ks(samples, cdf)


def read_only(array):
    array = np.array(array, dtype=np.float64)
    array.setflags(write=False)
    return array


class TestNoAliasing:
    """No kernel writes into the caller's draws, nor into what a ``cdf`` returns:
    each input here is read-only, so such a write raises."""

    @pytest.mark.parametrize("n", [100, 3000, 20_000])
    def test_draws_are_read_only(self, n):
        continuous, surrogate = fixtures.precise_and_surrogate(*fixtures.steep_sampler_fixture())
        u = np.random.default_rng(n).random(n)
        draws = read_only(u)
        assert same_bits(continuous.precise_sample(draws), continuous.precise_sample(u.copy()))
        capped = read_only(np.minimum(u, surrogate.cumulative[-1] * (1 - 1e-12)))
        assert same_bits(surrogate.surrogate_sample(capped), surrogate.surrogate_sample(capped.copy()))
        seg = continuous.grid.segment
        points = read_only(seg.near + seg.span * u)
        assert same_bits(continuous.cdf_eval(points), continuous.cdf_eval(points.copy()))
        grid, tau = _row_instance()
        rows = read_only(np.resize(u, (tau.shape[0], n)))
        assert same_bits(_precise_rows(grid, tau, rows), _precise_rows(grid, tau, rows.copy()))

    @pytest.mark.parametrize("n", [100, 20_000])
    def test_ks_identity_cdf_returns_the_samples(self, n):
        samples = read_only(np.sort(np.random.default_rng(n).random(n)))
        assert ks_statistic(samples, lambda v: v) == reference_ks(samples, lambda v: v)
