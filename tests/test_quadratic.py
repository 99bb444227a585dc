import numpy as np
import pytest

from rayquad import (
    PATHOLOGICAL_PATCH,
    ModelKind,
    OpacityTrace,
    QuadraticPatch,
    RaySegment,
    SampleGrid,
    instability_threshold,
    integrate_adaptive,
    interval_pmf,
    make_uniform_grid,
    quad_eval,
    quad_integral_left,
    quad_integral_right,
    transmittance_quadratic,
)


def parabola_patch():
    """Knots on tau(s) = s^2."""
    return QuadraticPatch(knots=np.array([0.0, 1.0, 2.0]), taus=np.array([0.0, 1.0, 4.0]))


def random_patch(rng):
    k0 = float(rng.uniform(0.0, 2.0))
    a = float(rng.uniform(0.05, 1.5))
    b = float(rng.uniform(0.05, 1.5))
    taus = rng.uniform(0.0, 5.0, 3)
    return QuadraticPatch(knots=np.array([k0, k0 + a, k0 + a + b]), taus=taus)


class TestQuadEval:
    def test_reproduces_parabola(self):
        patch = parabola_patch()
        assert quad_eval(patch, 1.5) == pytest.approx(2.25, abs=1e-13)

    def test_constant_taus_give_constant(self):
        patch = QuadraticPatch(np.array([0.0, 0.7, 1.0]), np.array([2.5, 2.5, 2.5]))
        s = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(quad_eval(patch, s), 2.5, atol=1e-13)

    def test_interpolates_all_knots(self, rng):
        for _ in range(20):
            patch = random_patch(rng)
            np.testing.assert_allclose(
                quad_eval(patch, patch.knots), patch.taus, atol=1e-12
            )

    def test_rejects_points_outside_patch(self):
        patch = parabola_patch()
        with pytest.raises(ValueError):
            quad_eval(patch, -0.1)
        with pytest.raises(ValueError):
            quad_eval(patch, 2.1)
        with pytest.raises(ValueError, match="outside the patch"):
            quad_eval(PATHOLOGICAL_PATCH, np.nan)


class TestSubintervalIntegrals:
    def test_parabola_exact_values(self):
        patch = parabola_patch()
        assert quad_integral_left(patch) == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert quad_integral_right(patch) == pytest.approx(7.0 / 3.0, abs=1e-13)

    def test_constant_tau_recovers_width_products(self):
        patch = QuadraticPatch(np.array([0.0, 0.4, 1.3]), np.array([2.0, 2.0, 2.0]))
        assert quad_integral_left(patch) == pytest.approx(2.0 * 0.4, rel=1e-13)
        assert quad_integral_right(patch) == pytest.approx(2.0 * 0.9, rel=1e-13)

    def test_fixture_left_integral_negative(self):
        left = quad_integral_left(PATHOLOGICAL_PATCH)
        assert left == pytest.approx(-15.501650165016502, rel=1e-10)
        numeric = integrate_adaptive(
            lambda s: quad_eval(PATHOLOGICAL_PATCH, s), 0.0, 1.0, 1e-12
        ).value
        assert left == pytest.approx(numeric, rel=1e-10)

    def test_random_patches_match_numeric_integration(self, rng):
        for _ in range(30):
            patch = random_patch(rng)
            total = quad_integral_left(patch) + quad_integral_right(patch)
            numeric = integrate_adaptive(
                lambda s: quad_eval(patch, s),
                float(patch.knots[0]),
                float(patch.knots[2]),
                1e-12,
            ).value
            assert total == pytest.approx(numeric, rel=1e-10, abs=1e-12)

    def test_collinear_taus_match_trapezoid(self, rng):
        for _ in range(20):
            patch = random_patch(rng)
            slope = float(rng.uniform(-1.0, 2.0))
            base = float(rng.uniform(1.0, 3.0))
            taus = base + slope * (patch.knots - patch.knots[0])
            if np.any(taus < 0):
                continue
            lin = QuadraticPatch(patch.knots, taus)
            trap_left = 0.5 * (taus[0] + taus[1]) * lin.alpha
            trap_right = 0.5 * (taus[1] + taus[2]) * lin.beta
            assert quad_integral_left(lin) == pytest.approx(trap_left, abs=1e-12)
            assert quad_integral_right(lin) == pytest.approx(trap_right, abs=1e-12)


class TestTransmittanceQuadratic:
    def test_parabola_grid_total(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        tau = OpacityTrace(np.array([0.0, 1.0, 4.0]))
        trans = transmittance_quadratic(grid, tau)
        assert trans[0] == 1.0
        assert trans[-1] == pytest.approx(np.exp(-8.0 / 3.0), rel=1e-12)

    def test_constant_tau_matches_other_models(self):
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 5)
        tau = OpacityTrace(np.full(7, 1.3))
        quad = transmittance_quadratic(grid, tau)
        for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
            other = interval_pmf(model, grid, tau).transmittance
            np.testing.assert_allclose(quad, other, atol=1e-12)

    def test_pathological_factor_exceeds_one(self):
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 1.01))
        tau = OpacityTrace(np.array(PATHOLOGICAL_PATCH.taus))
        trans = transmittance_quadratic(grid, tau)
        assert trans[1] > 1.0  # exp of a negative "integral" of opacity

    def test_even_interior_count_rejected(self):
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 4)
        tau = OpacityTrace(np.full(6, 1.0))
        with pytest.raises(ValueError):
            transmittance_quadratic(grid, tau)


class TestInstabilityThreshold:
    def test_reference_value(self):
        assert instability_threshold(1.0, 1.0, 1.0) == 6.0

    def test_homogeneous_in_opacity_scale(self, rng):
        for _ in range(10):
            tau_j, tau_j1 = rng.uniform(0.1, 5.0, 2)
            alpha = float(rng.uniform(0.1, 2.0))
            lam = float(rng.uniform(0.5, 4.0))
            assert instability_threshold(lam * tau_j, lam * tau_j1, alpha) == pytest.approx(
                lam * instability_threshold(tau_j, tau_j1, alpha), rel=1e-13
            )

    def test_fixture_slope_exceeds_threshold(self):
        patch = PATHOLOGICAL_PATCH
        slope = (patch.taus[2] - patch.taus[1]) / patch.beta
        threshold = instability_threshold(patch.taus[0], patch.taus[1], patch.alpha)
        assert slope == pytest.approx(100.0)
        assert slope > threshold
        assert quad_integral_left(patch) < 0.0

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            instability_threshold(1.0, 1.0, 0.0)


class TestPatchValidation:
    def test_rejects_unordered_knots(self):
        with pytest.raises(ValueError):
            QuadraticPatch(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))

    def test_gap_aliases(self):
        patch = QuadraticPatch(np.array([0.0, 0.4, 1.0]), np.array([1.0, 1.0, 1.0]))
        assert patch.alpha == pytest.approx(0.4)
        assert patch.beta == pytest.approx(0.6)
        assert patch.gamma == pytest.approx(1.0)
