import numpy as np
import pytest

from rayquad import (
    OPAQUE,
    ColorTrace,
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
    opaque_trace,
    render,
    shift_sweep,
    true_mean_termination,
)
from rayquad import quadrature
from rayquad.fields import AnalyticField, GaussianBump, UniformColor
from rayquad import fixtures

from conftest import random_instance


def two_interval_setup():
    grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
    tau = OpacityTrace(np.array([1.0, 2.0, 0.0]))
    return grid, tau


def transmittance(model, grid, tau):
    return interval_pmf(model, grid, tau).transmittance


def count_builds(monkeypatch) -> list:
    """Every ``RayDistribution`` that ``interval_pmf`` builds from now on."""
    builds = []
    build = quadrature.RayDistribution

    def counted(**fields):
        builds.append(build(**fields))
        return builds[-1]

    monkeypatch.setattr(quadrature, "RayDistribution", counted)
    return builds


class TestTransmittanceConstant:
    def test_unit_interval_products(self):
        grid, tau = two_interval_setup()
        np.testing.assert_allclose(
            transmittance(ModelKind.CONSTANT, grid, tau),
            [1.0, 0.3678794411714423, 0.049787068367863944],
            rtol=1e-12,
        )

    def test_vanishing_opacity_keeps_transmittance_one(self):
        grid = make_uniform_grid(RaySegment(0.0, 0.01), 3)
        tau = OpacityTrace(np.full(5, 1e-6))
        np.testing.assert_allclose(transmittance(ModelKind.CONSTANT, grid, tau), 1.0, atol=1e-5)

    def test_single_factor(self):
        grid = SampleGrid(np.array([0.75]), RaySegment(0.0, 2.0))
        tau = OpacityTrace(np.array([1.7, 0.3, 0.0]))
        trans = transmittance(ModelKind.CONSTANT, grid, tau)
        assert trans[1] == pytest.approx(np.exp(-1.7 * 0.75), rel=1e-14)

    def test_length_mismatch_rejected(self):
        grid, _ = two_interval_setup()
        with pytest.raises(ValueError):
            transmittance(ModelKind.CONSTANT, grid, OpacityTrace(np.array([1.0, 2.0, 3.0, 4.0])))


class TestTransmittanceLinear:
    def test_trapezoid_exponent(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        tau = OpacityTrace(np.array([1.0, 3.0, 0.0]))
        trans = transmittance(ModelKind.LINEAR, grid, tau)
        assert trans[1] == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_uniform_tau_matches_constant(self, rng):
        for _ in range(20):
            grid, _ = random_instance(rng, n_max=16)
            c = float(rng.uniform(0.1, 5.0))
            tau = OpacityTrace(np.full(grid.n + 2, c))
            np.testing.assert_allclose(
                transmittance(ModelKind.LINEAR, grid, tau),
                transmittance(ModelKind.CONSTANT, grid, tau),
                rtol=0,
                atol=1e-12,
            )

    def test_zero_endpoints_give_unit_factor(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        tau = OpacityTrace(np.array([0.0, 0.0, 4.0]))
        trans = transmittance(ModelKind.LINEAR, grid, tau)
        assert trans[1] == 1.0


class TestIntervalPmf:
    def test_constant_hand_values(self):
        grid, tau = two_interval_setup()
        dist = interval_pmf(ModelKind.CONSTANT, grid, tau)
        np.testing.assert_allclose(
            dist.pmf, [0.6321205588285577, 0.3180923728035784], rtol=1e-12
        )

    def test_linear_single_interval(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        tau = OpacityTrace(np.array([1.0, 3.0, 0.0]))
        dist = interval_pmf(ModelKind.LINEAR, grid, tau)
        assert dist.pmf[0] == pytest.approx(1.0 - np.exp(-2.0), rel=1e-14)

    def test_opaque_far_mass_sums_to_one(self, rng):
        for _ in range(50):
            grid, tau = random_instance(rng, convention=FarConvention.OPAQUE_FAR)
            for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
                dist = interval_pmf(model, grid, tau)
                assert abs(dist.pmf.sum() - 1.0) < 1e-12

    def test_telescoping_identity(self, rng):
        for _ in range(100):
            convention = (
                FarConvention.OPAQUE_FAR if rng.random() < 0.5 else None
            )
            grid, tau = random_instance(rng, convention=convention)
            for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
                dist = interval_pmf(model, grid, tau)
                np.testing.assert_allclose(
                    dist.cumulative + dist.transmittance, 1.0, rtol=0, atol=1e-12
                )

    def test_direct_formula_matches_telescoped(self, rng):
        for _ in range(50):
            grid, tau = random_instance(rng)
            for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
                dist = interval_pmf(model, grid, tau)
                np.testing.assert_allclose(
                    dist.pmf,
                    dist.transmittance[:-1] - dist.transmittance[1:],
                    rtol=0,
                    atol=1e-12,
                )

    def test_linear_reduces_to_constant_for_uniform_tau(self, rng):
        grid, _ = random_instance(rng, n_max=16)
        tau = OpacityTrace(np.full(grid.n + 2, 1.7))
        a = interval_pmf(ModelKind.CONSTANT, grid, tau)
        b = interval_pmf(ModelKind.LINEAR, grid, tau)
        for field in ("transmittance", "pmf", "cumulative"):
            np.testing.assert_allclose(
                getattr(a, field), getattr(b, field), rtol=0, atol=1e-12
            )

    def test_monotone_response_to_single_tau_increase(self, rng):
        for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
            for _ in range(20):
                grid, tau = random_instance(rng, n_max=12)
                k = int(rng.integers(1, grid.n + 1))
                bumped = np.array(tau.values)
                bumped[k] += 0.5
                t0 = interval_pmf(model, grid, tau).transmittance
                t1 = interval_pmf(model, grid, OpacityTrace(bumped)).transmittance
                assert np.all(t1[k:] <= t0[k:] + 1e-15)

    def test_quadratic_model_rejected(self):
        grid, tau = two_interval_setup()
        with pytest.raises(ValueError):
            interval_pmf("quadratic", grid, tau)

    @pytest.mark.parametrize("values", [[-5.0, 1.0, 1.0], [1.0, 1.0, -1e-300]])
    def test_negative_opacity_rejected(self, values):
        # The trace itself accepts negatives (floor_opacity clamps them);
        # a distribution built from one would not be a probability.
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        tau = OpacityTrace(np.array(values))
        # Twice over: a failed build must not be kept for the repeat call.
        for _ in range(2):
            for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
                with pytest.raises(ValueError, match="nonnegative"):
                    interval_pmf(model, grid, tau)
            with pytest.raises(ValueError, match="nonnegative"):
                ContinuousRayCdf(grid, tau)


class TestOneBuilder:
    def test_transmittance_is_exp_of_log_transmittance(self, rng):
        for _ in range(50):
            grid, tau = random_instance(rng)
            for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
                dist = interval_pmf(model, grid, tau)
                assert dist.log_transmittance[0] == 0.0
                np.testing.assert_array_equal(
                    np.exp(dist.log_transmittance), dist.transmittance
                )

    def test_continuous_cdf_holds_the_linear_distribution(self, rng):
        for _ in range(20):
            grid, tau = random_instance(rng, convention=FarConvention.OPAQUE_FAR)
            built = ContinuousRayCdf(grid, tau).dist
            direct = interval_pmf(ModelKind.LINEAR, grid, tau)
            assert built.model is direct.model
            for name in ("log_transmittance", "transmittance", "pmf", "cumulative"):
                np.testing.assert_array_equal(getattr(built, name), getattr(direct, name))

    def test_trace_keeps_one_distribution_per_model_and_grid(self, rng):
        grid, tau = random_instance(rng, convention=FarConvention.OPAQUE_FAR)
        linear = interval_pmf(ModelKind.LINEAR, grid, tau)
        constant = interval_pmf(ModelKind.CONSTANT, grid, tau)
        assert constant is not linear
        assert ContinuousRayCdf(grid, tau).dist is linear
        assert interval_pmf(ModelKind.LINEAR, grid, tau) is linear
        assert interval_pmf(ModelKind.CONSTANT, grid, tau) is constant

    def test_equal_grid_builds_its_own_distribution(self, rng, monkeypatch):
        grid, tau = random_instance(rng)
        twin = SampleGrid(grid.interior, grid.segment)
        builds = count_builds(monkeypatch)
        first = interval_pmf(ModelKind.LINEAR, grid, tau)
        second = interval_pmf(ModelKind.LINEAR, twin, tau)
        assert len(builds) == 2 and second is not first
        np.testing.assert_array_equal(second.pmf, first.pmf)
        assert interval_pmf(ModelKind.LINEAR, grid, tau) is first
        assert interval_pmf(ModelKind.LINEAR, twin, tau) is second
        assert len(builds) == 2

    def test_two_pass_op_builds_four_distributions(self, monkeypatch):
        # The paper's two-pass render of one ray, as the benchmark's ray
        # workloads run it: each model's coarse pass renders a distribution
        # that its sampler and its render gradient read again.
        field = GrazingRig(10.0, 40.0, 1.0, np.array([0.7])).ray_field(0.7, 0.05)
        grid = make_uniform_grid(RaySegment(0.0, 4.0), 128)
        tau, colors = opaque_trace(field, grid)
        builds = count_builds(monkeypatch)
        for model in (ModelKind.LINEAR, ModelKind.CONSTANT):
            dist = interval_pmf(model, grid, tau)
            render(dist, colors)
            expected_depth(dist, grid)
            if model is ModelKind.LINEAR:
                cdf = ContinuousRayCdf(grid, tau)
                grad_sample_wrt_tau(cdf, 0.4 * cdf.cumulative[-1])
            else:
                cdf = DiscreteRayCdf(grid, dist)
            fine = hierarchical_samples(cdf, 64, seed=11)
            fine_tau, fine_colors = opaque_trace(field, fine)
            fine_dist = interval_pmf(model, fine, fine_tau)
            render(fine_dist, fine_colors)
            expected_depth(fine_dist, fine)
            grad_render_wrt_tau(model, grid, tau, colors)
        assert len(builds) == 4

    @pytest.mark.parametrize("gap, raises", [(np.nan, True), (2e-12, True), (5e-13, False)])
    def test_crosscheck_tolerance(self, monkeypatch, gap, raises):
        # Shift the direct P_0 = T_0 * -expm1(-depth_0), with T_0 = 1, by
        # ``gap`` while the telescoped form stays put.
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 3)
        tau = OpacityTrace(np.full(5, 0.5))
        expm1 = np.expm1

        def shifted(x, out=None):
            out = expm1(x, out=out)
            out[0] = np.nan if np.isnan(gap) else out[0] - gap
            return out

        monkeypatch.setattr(quadrature.np, "expm1", shifted)
        if raises:
            # The failed build is not kept, so the repeat call fails too.
            for _ in range(2):
                with pytest.raises(ArithmeticError, match="disagree"):
                    interval_pmf(ModelKind.LINEAR, grid, tau)
        else:
            dist = interval_pmf(ModelKind.LINEAR, grid, tau)
            assert dist.pmf[0] - (dist.transmittance[0] - dist.transmittance[1]) > 0.0


def random_grid(rng, n):
    pts = np.cumsum(rng.uniform(0.01, 0.1, n + 1))
    return SampleGrid(pts[:-1], RaySegment(0.0, float(pts[-1])))


class TestBatchedKernel:
    """``_distributions`` on a stack of rays gives each row the bits of its one-ray build."""

    @staticmethod
    def stack(rng, r, n):
        t = 10.0 ** rng.uniform(-6, 1, (r, n + 2))
        # A mix of rows with and without the far sentinel: the first row
        # has it, and the last one of two or more does not.
        opaque = rng.random(r) < 0.5
        opaque[-1] = False
        opaque[0] = True
        t[opaque, -1] = OPAQUE
        return t

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-widths", "row-widths"])
    @pytest.mark.parametrize("model", [ModelKind.CONSTANT, ModelKind.LINEAR])
    def test_rows_equal_one_ray_builds(self, rng, model, shared):
        for _ in range(12):
            r, n = int(rng.integers(1, 9)), int(rng.integers(1, 300))
            grids = [random_grid(rng, n)] * r if shared else [random_grid(rng, n) for _ in range(r)]
            widths = grids[0].widths if shared else np.stack([g.widths for g in grids])
            t = self.stack(rng, r, n)
            batch = quadrature._distributions(model, widths, t)
            for i, grid in enumerate(grids):
                dist = interval_pmf(model, grid, OpacityTrace(t[i]))
                one = (dist.log_transmittance, dist.transmittance, dist.pmf, dist.cumulative)
                for got, want in zip(batch, one):
                    assert np.array_equal(got[i], want)

    @pytest.mark.parametrize("model", [ModelKind.CONSTANT, ModelKind.LINEAR])
    def test_negative_entry_in_one_row_fails_the_batch(self, rng, model):
        grid = random_grid(rng, 20)
        for row in range(5):
            t = self.stack(rng, 5, 20)
            t[row, int(rng.integers(0, 22))] = -1e-300
            with pytest.raises(ValueError, match="nonnegative"):
                quadrature._distributions(model, grid.widths, t)


class TestExtremeInputs:
    @pytest.mark.parametrize("model", [ModelKind.CONSTANT, ModelKind.LINEAR])
    def test_million_samples_telescope(self, rng, model):
        grid = make_uniform_grid(RaySegment(0.0, 4.0), 10**6)
        raw = OpacityTrace(10.0 ** rng.uniform(-6.0, 1.0, grid.n + 2))
        tau = apply_far_convention(floor_opacity(raw), FarConvention.OPAQUE_FAR)
        dist = interval_pmf(model, grid, tau)
        assert abs(dist.pmf.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(dist.cumulative + dist.transmittance - 1.0)) <= 1e-12

    @pytest.mark.parametrize("exponent_lo", [8.0, -6.0])
    def test_opacity_up_to_1e8(self, rng, exponent_lo):
        # Every opacity 1e8, or log-uniform from 1e-6 up to 1e8.
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 16)
        raw = OpacityTrace(10.0 ** rng.uniform(exponent_lo, 8.0, grid.n + 2))
        tau = apply_far_convention(floor_opacity(raw), FarConvention.OPAQUE_FAR)
        for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
            assert interval_pmf(model, grid, tau).pmf.sum() == pytest.approx(1.0, abs=1e-12)
        cdf = ContinuousRayCdf(grid, tau)
        s = cdf.precise_sample(np.linspace(0.01, 0.99, 99))
        assert np.isfinite(s).all()
        assert (s >= 0.0).all() and (s <= 2.0).all()
        for u in (0.05, 0.5, 0.95):
            assert np.isfinite(grad_sample_wrt_tau(cdf, u).d_tau).all()


class TestRender:
    def test_dot_product(self):
        grid, tau = two_interval_setup()
        dist = interval_pmf(ModelKind.CONSTANT, grid, tau)
        colors = ColorTrace(np.array([1.0, 0.0]))
        assert render(dist, colors)[0] == pytest.approx(0.6321205588285577, rel=1e-12)

    def test_equal_colors_factor_out(self, rng):
        grid, tau = random_instance(rng, n_max=8)
        dist = interval_pmf(ModelKind.LINEAR, grid, tau)
        c = 0.625
        colors = ColorTrace(np.full(grid.n + 1, c))
        assert render(dist, colors)[0] == pytest.approx(c * dist.pmf.sum(), rel=1e-13)

    def test_zero_mass_renders_zero(self):
        grid = make_uniform_grid(RaySegment(0.0, 1e-9), 1)
        tau = OpacityTrace(np.full(3, 1e-6))
        dist = interval_pmf(ModelKind.CONSTANT, grid, tau)
        colors = ColorTrace(np.array([1.0, 1.0]))
        assert render(dist, colors)[0] == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        grid, tau = two_interval_setup()
        dist = interval_pmf(ModelKind.CONSTANT, grid, tau)
        with pytest.raises(ValueError):
            render(dist, ColorTrace(np.array([1.0, 0.5, 0.25])))

    def test_rgb_colors_render_per_channel(self):
        grid, tau = two_interval_setup()
        dist = interval_pmf(ModelKind.CONSTANT, grid, tau)
        rgb = ColorTrace(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
        out = render(dist, rgb)
        assert out.shape == (3,)
        np.testing.assert_allclose(out[0], dist.pmf[0], rtol=1e-14)
        np.testing.assert_allclose(out[1], dist.pmf[1], rtol=1e-14)
        np.testing.assert_allclose(out[2], 0.5 * dist.pmf.sum(), rtol=1e-14)


class TestExpectedDepth:
    def test_concentrated_mass_returns_midpoint(self):
        grid = SampleGrid(np.array([2.0, 3.0]), RaySegment(0.0, 4.0))
        tau = OpacityTrace(np.array([1e-9, 1e-9, 1e-9, 1e-9]))
        dist = interval_pmf(ModelKind.CONSTANT, grid, tau)
        forced = np.zeros_like(dist.pmf)
        forced[1] = 1.0
        from rayquad.quadrature import RayDistribution

        concentrated = RayDistribution(
            model=ModelKind.CONSTANT,
            log_transmittance=dist.log_transmittance,
            transmittance=dist.transmittance,
            pmf=forced,
            cumulative=np.concatenate(([0.0], np.cumsum(forced))),
        )
        assert expected_depth(concentrated, grid) == pytest.approx(2.5)

    def test_symmetric_pmf_returns_center(self):
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 3)
        tau = OpacityTrace(np.full(5, 0.5))
        dist = interval_pmf(ModelKind.CONSTANT, grid, tau)
        from rayquad.quadrature import RayDistribution

        sym = 0.5 * (dist.pmf + dist.pmf[::-1])
        sym_dist = RayDistribution(
            model=ModelKind.CONSTANT,
            log_transmittance=dist.log_transmittance,
            transmittance=dist.transmittance,
            pmf=sym,
            cumulative=np.concatenate(([0.0], np.cumsum(sym))),
        )
        assert expected_depth(sym_dist, grid) == pytest.approx(
            1.0 * sym.sum(), rel=1e-12
        )

    def test_grid_size_mismatch_rejected(self):
        grid, tau = two_interval_setup()
        dist = interval_pmf(ModelKind.CONSTANT, grid, tau)
        with pytest.raises(ValueError, match="^2 interval probabilities for 4 intervals$"):
            expected_depth(dist, make_uniform_grid(grid.segment, 3))

    def test_monte_carlo_matches_oracle_mean(self):
        field = AnalyticField(GaussianBump(3.0, 0.6, 0.25), UniformColor(np.array([1.0])))
        segment = RaySegment(0.0, 2.0)
        grid = make_uniform_grid(segment, 128)
        tau, _ = opaque_trace(field, grid)
        n = 100_000
        u = np.random.default_rng(11).random(n)
        mc = float(np.mean(ContinuousRayCdf(grid, tau).precise_sample(u)))
        truth = true_mean_termination(field, segment, 1e-10)
        # spread of the termination distribution bounds the standard error
        se = 0.45 / np.sqrt(n)
        assert abs(mc - truth) < 3 * se + 2e-3  # quadrature bias at N=128 is tiny


def _offset_sweep(model, n, offsets=16):
    sweep = shift_sweep(fixtures.shift_scene(), fixtures.SHIFT_SEGMENT, n, offsets)
    return [float(render(interval_pmf(model, g, tau), colors)[0]) for _, g, tau, colors in sweep]


class TestShiftSensitivityOrdering:
    def test_constant_spread_exceeds_linear_on_wall(self):
        spreads = {}
        for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
            values = _offset_sweep(model, 32)
            spreads[model] = max(values) - min(values)
        assert spreads[ModelKind.CONSTANT] > spreads[ModelKind.LINEAR]

    def test_zero_offset_row_equals_unshifted_render(self):
        values = _offset_sweep(ModelKind.LINEAR, 32, offsets=4)
        unshifted = _offset_sweep(ModelKind.LINEAR, 32, offsets=1)[0]
        assert values[0] == unshifted

    def test_spreads_shrink_with_refinement_on_average(self):
        # not strictly monotone per step, but refinement wins overall
        for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
            spreads = []
            for n in (16, 64, 256):
                values = _offset_sweep(model, n, offsets=8)
                spreads.append(max(values) - min(values))
            assert spreads[-1] < spreads[0]
            assert spreads[-1] < 0.5 * spreads[0]
