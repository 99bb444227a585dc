import re

import numpy as np
import pytest

from rayquad import (
    AnalyticField,
    ColorTrace,
    ConstantSlab,
    ContinuousRayCdf,
    DiscreteRayCdf,
    FarConvention,
    GradReport,
    LogisticStep,
    ModelKind,
    OpacityTrace,
    RaySegment,
    SampleGrid,
    finite_diff_check,
    grad_render_wrt_tau,
    grad_sample_wrt_tau,
    interval_pmf,
    make_uniform_grid,
    sample_field,
)
from rayquad import fixtures

from conftest import random_instance


def scalar_render(model, grid, colors):
    def f(rows):
        return [float(interval_pmf(model, grid, OpacityTrace(x)).pmf @ colors) for x in rows]

    return f


def moderate_instance(rng, n_max=12):
    """Short, moderately opaque instances keep every partial FD-resolvable."""
    grid, tau = random_instance(rng, n_max=n_max, tau_lo=0.05, tau_hi=4.0)
    if grid.segment.span > 1.5:
        scale = 1.5 / grid.segment.span
        seg = RaySegment(grid.segment.near * scale, grid.segment.far * scale)
        grid = SampleGrid(grid.interior * scale, seg)
    colors = rng.uniform(0.1, 0.9, grid.n + 1)
    return grid, tau, colors


class TestRenderGradient:
    def test_single_interval_hand_formula(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        tau = OpacityTrace(np.array([1.0, 3.0, 0.5]))
        colors = np.array([1.0, 0.0])
        grad = grad_render_wrt_tau(ModelKind.LINEAR, grid, tau, colors)
        expected = 0.5 * np.exp(-2.0)  # (width/2) * exp(-trapezoid depth)
        assert grad[1] == pytest.approx(expected, rel=1e-13)
        assert grad[0] == pytest.approx(expected, rel=1e-13)

    def test_equal_colors_under_opaque_far_have_zero_gradient(self, rng):
        grid, tau = random_instance(rng, n_max=8, convention=FarConvention.OPAQUE_FAR)
        colors = np.full(grid.n + 1, 0.4)
        for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
            grad = grad_render_wrt_tau(model, grid, tau, colors)
            np.testing.assert_array_equal(grad, 0.0)

    def test_constant_model_far_bound_gradient_is_zero(self, rng):
        grid, tau, colors = moderate_instance(rng)
        grad = grad_render_wrt_tau(ModelKind.CONSTANT, grid, tau, colors)
        assert grad[-1] == 0.0

    @pytest.mark.parametrize("model", [ModelKind.CONSTANT, ModelKind.LINEAR])
    def test_matches_central_differences(self, model, rng):
        worst = 0.0
        for _ in range(25):
            grid, tau, colors = moderate_instance(rng)
            analytic = grad_render_wrt_tau(model, grid, tau, colors)
            report = finite_diff_check(
                scalar_render(model, grid, colors),
                np.array(tau.values),
                analytic,
                h=1e-4,
            )
            worst = max(worst, report.max_rel_err)
        assert worst < 1e-5

    def test_color_channel_requirements(self, rng):
        grid, tau, colors = moderate_instance(rng)
        with pytest.raises(ValueError):
            grad_render_wrt_tau(
                ModelKind.LINEAR, grid, tau, ColorTrace(np.tile(colors[:, None], (1, 3)))
            )
        with pytest.raises(ValueError):
            grad_render_wrt_tau(ModelKind.LINEAR, grid, tau, colors[:-1])

    def test_colors_of_another_grid_rejected(self):
        field = AnalyticField(ConstantSlab(2.0, 0.0, 5.0))
        a, b = (make_uniform_grid(RaySegment(0.0, far), 8) for far in (0.5, 5.0))
        tau, colors = sample_field(field, a)
        _, other = sample_field(field, b)
        for model in ModelKind:
            with pytest.raises(ValueError, match="another grid"):
                grad_render_wrt_tau(model, a, tau, other)
            assert np.array_equal(
                grad_render_wrt_tau(model, a, tau, colors),
                grad_render_wrt_tau(model, a, tau, colors.values[:, 0]),
            )

    def test_array_colors_must_be_finite(self, rng):
        grid, tau, colors = moderate_instance(rng)
        for bad in (np.nan, np.inf):
            colors[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                grad_render_wrt_tau(ModelKind.LINEAR, grid, tau, colors)

    @pytest.mark.parametrize("shape", ["column", "row", "scalar"])
    def test_array_colors_must_be_one_per_interval_on_one_axis(self, rng, shape):
        # Numpy would broadcast a column or a row into the kernel's output and fail
        # with its own message; the check names the shape instead.
        grid, tau, colors = moderate_instance(rng)
        bad = {"column": colors[:, None], "row": colors[None, :], "scalar": colors[0]}[shape]
        shown = re.escape(str(np.shape(bad)))
        with pytest.raises(ValueError, match=rf"^got colors of shape {shown}, need \({colors.size},\)"):
            grad_render_wrt_tau(ModelKind.LINEAR, grid, tau, bad)

    def test_array_colors_may_be_any_finite_weights(self, rng):
        # Interval midpoints as weights give the gradient of the expected depth.
        grid, tau, _ = moderate_instance(rng)
        midpoints = 0.5 * (grid.points[:-1] + grid.points[1:]) + 5.0
        grad = grad_render_wrt_tau(ModelKind.LINEAR, grid, tau, midpoints)
        assert np.isfinite(grad).all()


class TestSampleGradient:
    def test_matches_central_differences(self, rng):
        worst = 0.0
        for _ in range(40):
            grid, tau, _ = moderate_instance(rng)
            cdf = ContinuousRayCdf(grid, tau)
            u = float(rng.uniform(0.1, 0.9)) * float(cdf.cumulative[-1])
            sg = grad_sample_wrt_tau(cdf, u)
            report = finite_diff_check(
                lambda X: [ContinuousRayCdf(grid, OpacityTrace(x)).precise_sample(u) for x in X],
                np.array(tau.values),
                sg.d_tau,
                h=1e-5,
            )
            worst = max(worst, report.max_rel_err)
        assert worst < 1e-5

    def test_dense_gradient_structure(self):
        # widths of 0.25 are exact, so the prefix weights are exact halves
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 7)
        tau = OpacityTrace(np.linspace(0.4, 1.2, 9))
        cdf = ContinuousRayCdf(grid, tau)
        sg = grad_sample_wrt_tau(cdf, 0.6 * float(cdf.cumulative[-1]))
        k = sg.bin
        assert 2 <= k <= grid.n - 1
        assert sg.d_tau.shape == (grid.n + 2,)
        np.testing.assert_array_equal(sg.d_tau[1:k], 2.0 * sg.d_tau[0])
        assert sg.d_tau[0] < 0.0
        np.testing.assert_array_equal(sg.d_tau[k + 2 :], 0.0)
        assert sg.d_tau_left == sg.d_tau[k] and sg.d_tau_right == sg.d_tau[k + 1]

    def test_clamped_draw_rejected(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        # total mass 1 - exp(-0.2) = 0.181: precise_sample clamps u = 0.5
        cdf = ContinuousRayCdf(grid, OpacityTrace(np.full(3, 0.1)))
        assert cdf.precise_sample(0.5) == 2.0
        with pytest.raises(ValueError, match="clamped"):
            grad_sample_wrt_tau(cdf, 0.5)
        # a nearly opaque ray: the draw is below the total mass but above 1 - EPS_UNIT
        opaque = ContinuousRayCdf(grid, OpacityTrace(np.full(3, 40.0)))
        u = 1.0 - 1e-13
        assert u < opaque.cumulative[-1] and opaque.precise_sample(u) == 2.0
        with pytest.raises(ValueError, match="clamped"):
            grad_sample_wrt_tau(opaque, u)

    @pytest.mark.parametrize("u", [1e-250, 1e-300, 5e-324])
    def test_underflowing_draw_raises(self, u):
        # Near opacity 0: q * q and the root's curvature both underflow, a 0 / 0.
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        cdf = ContinuousRayCdf(grid, OpacityTrace(np.array([0.0, 0.5, 1.0])))
        with pytest.raises(ArithmeticError, match="too small"):
            grad_sample_wrt_tau(cdf, u)

    def test_tiny_draw_above_underflow_keeps_its_gradient(self):
        # q * q underflows to 0 here, but the curvature does not: dt/da is exactly 0.
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        cdf = ContinuousRayCdf(grid, OpacityTrace(np.array([0.0, 0.5, 1.0])))
        sg = grad_sample_wrt_tau(cdf, 1e-200)
        assert sg.bin == 0
        assert sg.d_tau.tolist() == [-2.0, 0.0, 0.0]

    def test_flat_bin_limit_holding_mass_fixed(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        tau_value = 2.0
        cdf = ContinuousRayCdf(grid, OpacityTrace(np.full(3, tau_value)))
        u = 0.55
        q = -np.log1p(-u)
        sg = grad_sample_wrt_tau(cdf, u)
        # moving both endpoint opacities together reproduces d(q/tau)/dtau
        assert sg.d_tau_left + sg.d_tau_right == pytest.approx(
            -q / tau_value**2, rel=1e-12
        )

    def test_right_partial_vanishes_at_bin_start(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        cdf = ContinuousRayCdf(grid, OpacityTrace(np.array([1.0, 3.0, 5.0])))
        k = 1
        eps_list = [1e-4, 1e-6, 1e-8]
        rights = []
        for eps in eps_list:
            u = float(cdf.cumulative[k]) + eps
            rights.append(abs(grad_sample_wrt_tau(cdf, u).d_tau_right))
        assert rights[2] < rights[1] < rights[0]
        assert rights[2] < 1e-8

    @pytest.mark.parametrize("u", ["0.5", True, None, np.nan])
    def test_non_real_draw_rejected(self, u):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        cdf = ContinuousRayCdf(grid, OpacityTrace(np.array([1.0, 3.0, 5.0])))
        with pytest.raises(ValueError, match="draw must be a real number"):
            grad_sample_wrt_tau(cdf, u)

    def test_discrete_cdf_is_a_type_error(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        tau = OpacityTrace(np.array([1.0, 3.0, 5.0]))
        cdf = DiscreteRayCdf(grid, interval_pmf(ModelKind.CONSTANT, grid, tau))
        with pytest.raises(TypeError, match="need a ContinuousRayCdf, got DiscreteRayCdf"):
            grad_sample_wrt_tau(cdf, 0.5)

    def test_bin_edge_draw_rejected(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        cdf = ContinuousRayCdf(grid, OpacityTrace(np.array([1.0, 3.0, 5.0])))
        with pytest.raises(ValueError):
            grad_sample_wrt_tau(cdf, float(cdf.cumulative[1]))


class TestFiniteDiffCheck:
    def test_polynomial(self):
        report = finite_diff_check(
            lambda X: [float(x[0] ** 2) for x in X], np.array([3.0]), np.array([6.0]), h=1e-5
        )
        assert report.numeric[0] == pytest.approx(6.0, abs=1e-9)
        assert report.max_rel_err < 1e-9

    def test_linear_function_is_exact(self):
        report = finite_diff_check(
            lambda X: [float(2.0 * x[0] - 3.0 * x[1]) for x in X],
            np.array([1.0, 2.0]),
            np.array([2.0, -3.0]),
            h=1e-3,
        )
        assert report.max_rel_err < 1e-12

    def test_detects_corrupted_partials(self):
        report = finite_diff_check(
            lambda X: [float(x[0] ** 2) for x in X], np.array([3.0]), np.array([6.5]), h=1e-5
        )
        assert report.max_rel_err > 1e-2

    def test_rejects_bad_step_and_nonfinite(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda X: [0.0 for x in X], np.array([1.0]), np.array([0.0]), h=0.0)
        with pytest.raises(ValueError):
            finite_diff_check(
                lambda X: [float("nan") for x in X], np.array([1.0]), np.array([0.0]), h=1e-6
            )

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_step_outside_positive_reals(self, h, engine_guard):
        with pytest.raises(ValueError, match="step size must be positive and finite"):
            finite_diff_check(
                lambda X: [float(x[0]) for x in X], np.array([1.0]), np.array([1.0]), h=h
            )

    def test_calls_f_once_on_the_stacked_rows(self):
        x, h = np.array([0.5, -1.25, 3.0]), 1e-3
        seen = []

        def f(rows):
            seen.append(rows.copy())
            return rows.sum(axis=1)

        finite_diff_check(f, x, np.ones(3), h=h)
        assert len(seen) == 1 and seen[0].shape == (6, 3)
        off_diagonal = ~np.eye(3, dtype=bool)
        for rows, sign in ((seen[0][:3], 1.0), (seen[0][3:], -1.0)):
            np.testing.assert_array_equal(np.diag(rows), x + sign * h)
            np.testing.assert_array_equal(rows[off_diagonal], np.tile(x, (3, 1))[off_diagonal])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_check_point(self, bad):
        with pytest.raises(ValueError, match="check point must be finite"):
            finite_diff_check(lambda X: X.sum(axis=1), np.array([1.0, bad]), np.zeros(2))

    def test_rejects_one_value_for_the_whole_stack(self):
        with pytest.raises(ValueError, match="one value per row"):
            finite_diff_check(lambda X: float(X.sum()), np.array([1.0, 2.0]), np.ones(2))

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            GradReport(np.zeros(2), np.zeros(3), 0.0)


class TestSurrogateInvariance:
    def test_cumulative_preserving_perturbation(self):
        grid, base, perturbed = fixtures.surrogate_invariance_instance()
        dist_a = interval_pmf(ModelKind.LINEAR, grid, base)
        dist_b = interval_pmf(ModelKind.LINEAR, grid, perturbed)
        np.testing.assert_array_equal(dist_a.cumulative, dist_b.cumulative)

        u = np.random.default_rng(17).random(512) * float(dist_a.cumulative[-1]) * (1 - 1e-12)
        sur_a = DiscreteRayCdf(grid, dist_a).surrogate_sample(u)
        sur_b = DiscreteRayCdf(grid, dist_b).surrogate_sample(u)
        np.testing.assert_array_equal(sur_a, sur_b)

        prec_a = ContinuousRayCdf(grid, base).precise_sample(u)
        prec_b = ContinuousRayCdf(grid, perturbed).precise_sample(u)
        assert np.max(np.abs(prec_a - prec_b)) > 1e-3


class TestPositionalSensitivity:
    def test_linear_gradient_continuous_in_sample_positions(self):
        field = AnalyticField(LogisticStep(10.0, 40.0, 1.0))
        seg = RaySegment(0.0, 2.0)
        grid = make_uniform_grid(seg, 9)
        colors = np.linspace(0.1, 0.9, 10)

        def grad_at(delta):
            g = SampleGrid(grid.interior + delta, seg)
            tau, _ = sample_field(field, g)
            return grad_render_wrt_tau(ModelKind.LINEAR, g, tau, colors)

        base = grad_at(0.0)
        drift_small = np.max(np.abs(grad_at(1e-7) - base))
        drift_large = np.max(np.abs(grad_at(1e-3) - base))
        assert drift_small < 1e-4
        assert drift_small < drift_large

    def test_constant_model_slope_jumps_at_slab_edge(self):
        # Sweep one sample across a slab edge; the rendered value's slope
        # w.r.t. that sample position jumps for the constant model (the
        # sample owns its whole interval) but not for the linear model
        # (the trapezoid weights cancel the local value's contribution).
        slab = AnalyticField(ConstantSlab(1.0, 1.0, 3.0))
        seg = RaySegment(0.0, 4.0)
        edge = 1.0
        others = np.array([0.4, 0.7, 1.6, 2.2, 2.8])
        colors = np.full(7, 1.0)
        h = 1e-4

        def log_trans(model, pos):
            # log survival at the far bound, the accumulated optical depth;
            # normalizes away the value jump both models share when the
            # sampled opacity snaps across the edge
            interior = np.sort(np.append(others, pos))
            g = SampleGrid(interior, seg)
            tau, _ = sample_field(slab, g)
            dist = interval_pmf(model, g, tau)
            return float(np.log1p(-dist.pmf @ colors))

        def one_sided_slopes(model):
            left = (log_trans(model, edge - h) - log_trans(model, edge - 2 * h)) / h
            right = (log_trans(model, edge + 2 * h) - log_trans(model, edge + h)) / h
            return left, right

        c_left, c_right = one_sided_slopes(ModelKind.CONSTANT)
        l_left, l_right = one_sided_slopes(ModelKind.LINEAR)
        assert abs(c_right - c_left) > 0.9  # jump of order the slab opacity
        assert abs(l_right - l_left) < 1e-6  # trapezoid weights cancel it
