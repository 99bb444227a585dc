"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line with its runtime and enforces
both the numeric tolerance and the runtime budget.  Seeds are fixed:
these are regression anchors, not statistical experiments.
"""

import time

import numpy as np

from rayquad import (
    AnalyticField,
    ColorTrace,
    ContinuousRayCdf,
    DiscreteRayCdf,
    FarConvention,
    ModelKind,
    OpacityTrace,
    PATHOLOGICAL_PATCH,
    QuadraticPatch,
    convergence_slope,
    expected_depth,
    finite_diff_check,
    floor_opacity,
    grad_render_wrt_tau,
    grad_sample_wrt_tau,
    instability_threshold,
    integrate_adaptive,
    interval_pmf,
    ks_critical,
    ks_statistic,
    make_uniform_grid,
    quad_eval,
    quad_integral_left,
    quad_integral_right,
    render,
    sample_field,
    true_interval_probabilities,
    true_mean_termination,
    true_render,
)
from rayquad import fixtures
from rayquad.fields import PiecewiseConstantColor, SampledDensity

from conftest import random_instance, sweep_traces


def report(number, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number} ({name}): {detail} [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


class TestAcceptance:
    def test_1_model_exactness(self):
        start = time.time()
        rng = np.random.default_rng(1001)
        worst = {ModelKind.LINEAR: 0.0, ModelKind.CONSTANT: 0.0}
        for _ in range(200):
            grid, tau = random_instance(rng, n_max=64)
            colors = rng.uniform(0.0, 1.0, grid.n + 1)
            for model, degree in ((ModelKind.LINEAR, 1), (ModelKind.CONSTANT, 0)):
                field = AnalyticField(
                    SampledDensity(grid.points, tau.values, degree=degree),
                    PiecewiseConstantColor(grid.points, colors[:, None]),
                )
                dist = interval_pmf(model, grid, tau)
                pmf_true = true_interval_probabilities(
                    field, grid.segment, grid.points, rtol=1e-12
                )
                rel = np.max(
                    np.abs(dist.pmf - pmf_true) / np.maximum(np.abs(pmf_true), 1e-300)
                )
                y = float(render(dist, ColorTrace(colors))[0])
                y_true = float(pmf_true @ colors)
                rel_y = abs(y - y_true) / max(abs(y_true), 1e-300)
                worst[model] = max(worst[model], rel, rel_y)
        elapsed = time.time() - start
        ok = all(v < 1e-9 for v in worst.values())
        report(
            1,
            "model exactness",
            ok,
            elapsed,
            10.0,
            f"worst rel err linear {worst[ModelKind.LINEAR]:.2e}, "
            f"constant {worst[ModelKind.CONSTANT]:.2e}",
        )

    def test_2_telescoping_identity(self):
        start = time.time()
        rng = np.random.default_rng(1002)
        worst = 0.0
        for i in range(1000):
            convention = (
                FarConvention.OPAQUE_FAR if i % 2 == 0 else None
            )
            grid, tau = random_instance(rng, n_max=64, convention=convention)
            for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
                dist = interval_pmf(model, grid, tau)
                worst = max(
                    worst, float(np.max(np.abs(dist.cumulative + dist.transmittance - 1.0)))
                )
        elapsed = time.time() - start
        report(2, "telescoping identity", worst < 1e-12, elapsed, 5.0, f"worst |C+T-1| {worst:.2e}")

    def test_3_sampling_inversion(self):
        start = time.time()
        rng = np.random.default_rng(1003)
        worst = 0.0
        pairs = 0
        while pairs < 10_000:
            grid, tau = random_instance(rng, n_max=64, convention=FarConvention.OPAQUE_FAR)
            values = np.array(tau.values)
            # exercise the stable root on near-degenerate bins
            flat = rng.random(grid.n + 1) < 0.3
            for j in np.nonzero(flat)[0]:
                if 1 <= j + 1 <= grid.n:
                    values[j + 1] = values[j] + rng.uniform(-1.0, 1.0) * 1e-10
            trace = floor_opacity(OpacityTrace(values))
            cdf = ContinuousRayCdf(grid, trace)
            u = rng.random(100) * (1.0 - 1e-9)
            s = cdf.precise_sample(u)
            worst = max(worst, float(np.max(np.abs(cdf.cdf_eval(s) - u))))
            pairs += u.size
        elapsed = time.time() - start
        report(3, "sampling inversion", worst < 1e-9, elapsed, 10.0, f"worst |F(s)-u| {worst:.2e}")

    def test_4_distributional_correctness(self):
        start = time.time()
        rng = np.random.default_rng(202)
        n = 100_000
        crit = ks_critical(n)
        worst = 0.0
        for _ in range(10):
            grid, tau = random_instance(rng, n_max=32, convention=FarConvention.OPAQUE_FAR)
            cdf = ContinuousRayCdf(grid, tau)
            s = np.sort(cdf.precise_sample(rng.random(n)))
            worst = max(worst, ks_statistic(s, cdf.cdf_eval))
        grid, tau = fixtures.steep_sampler_fixture()
        continuous, surrogate = fixtures.precise_and_surrogate(grid, tau)
        u = rng.random(n) * float(surrogate.cumulative[-1]) * (1 - 1e-12)
        surrogate_stat = ks_statistic(
            np.sort(surrogate.surrogate_sample(u)), continuous.cdf_eval
        )
        elapsed = time.time() - start
        ok = worst < crit and surrogate_stat > crit
        report(
            4,
            "distributional correctness",
            ok,
            elapsed,
            30.0,
            f"precise max KS {worst:.4f} < {crit:.4f}; surrogate KS {surrogate_stat:.3f}",
        )

    def test_5_convergence_ordering(self):
        start = time.time()
        scene = fixtures.convergence_scene()
        segment = fixtures.CONVERGENCE_SEGMENT
        truth = true_render(scene, segment, 1e-12)
        slopes = {}
        for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
            errors = []
            for n in (8, 16, 32, 64, 128, 256):
                grid = make_uniform_grid(segment, n)
                tau, colors = sample_field(scene, grid)
                dist = interval_pmf(model, grid, tau)
                errors.append((n, float(np.max(np.abs(render(dist, colors) - truth)))))
            slopes[model] = convergence_slope(errors)
        elapsed = time.time() - start
        ok = slopes[ModelKind.LINEAR] <= -1.7 and -1.3 <= slopes[ModelKind.CONSTANT] <= -0.7
        report(
            5,
            "convergence ordering",
            ok,
            elapsed,
            30.0,
            f"slopes linear {slopes[ModelKind.LINEAR]:+.2f}, "
            f"constant {slopes[ModelKind.CONSTANT]:+.2f}",
        )

    def test_6_quadrature_instability(self):
        start = time.time()
        scene = fixtures.shift_scene()
        segment = fixtures.SHIFT_SEGMENT
        sweep = sweep_traces(scene, segment, fixtures.SHIFT_N, 32)
        spreads = {}
        for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
            values = [
                float(render(interval_pmf(model, g, tau), colors)[0])
                for g, tau, colors in sweep
            ]
            spreads[model] = max(values) - min(values)
        ratio = spreads[ModelKind.CONSTANT] / spreads[ModelKind.LINEAR]
        elapsed = time.time() - start
        report(
            6,
            "quadrature instability",
            ratio >= fixtures.SHIFT_RATIO_THRESHOLD,
            elapsed,
            20.0,
            f"spread ratio constant/linear {ratio:.2f} >= {fixtures.SHIFT_RATIO_THRESHOLD}",
        )

    def test_7_gradient_fidelity(self):
        start = time.time()
        rng = np.random.default_rng(1007)
        worst_render = 0.0
        worst_sample = 0.0
        for _ in range(100):
            grid, tauv, colors = fixtures.gradient_instance(rng)
            tau = OpacityTrace(tauv)

            for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
                analytic = grad_render_wrt_tau(model, grid, tau, colors)

                def f(X, model=model):
                    dists = [interval_pmf(model, grid, OpacityTrace(x)) for x in X]
                    return [float(dist.pmf @ colors) for dist in dists]

                rep = finite_diff_check(f, tauv, analytic, h=1e-4)
                worst_render = max(worst_render, rep.max_rel_err)

            cdf = ContinuousRayCdf(grid, tau)
            u = float(rng.uniform(0.1, 0.9)) * float(cdf.cumulative[-1])
            sg = grad_sample_wrt_tau(cdf, u)
            rep = finite_diff_check(
                lambda X: [ContinuousRayCdf(grid, OpacityTrace(x)).precise_sample(u) for x in X],
                tauv,
                sg.d_tau,
                h=1e-5,
            )
            worst_sample = max(worst_sample, rep.max_rel_err)

        grid, base, perturbed = fixtures.surrogate_invariance_instance()
        dist_a = interval_pmf(ModelKind.LINEAR, grid, base)
        dist_b = interval_pmf(ModelKind.LINEAR, grid, perturbed)
        u = rng.random(512) * float(dist_a.cumulative[-1]) * (1 - 1e-12)
        invariant = np.array_equal(
            DiscreteRayCdf(grid, dist_a).surrogate_sample(u),
            DiscreteRayCdf(grid, dist_b).surrogate_sample(u),
        )
        moved = (
            np.max(
                np.abs(
                    ContinuousRayCdf(grid, base).precise_sample(u)
                    - ContinuousRayCdf(grid, perturbed).precise_sample(u)
                )
            )
            > 1e-3
        )
        elapsed = time.time() - start
        ok = worst_render < 1e-5 and worst_sample < 1e-5 and invariant and moved
        report(
            7,
            "gradient fidelity",
            ok,
            elapsed,
            20.0,
            f"worst rel err render {worst_render:.2e}, sample {worst_sample:.2e}, "
            f"surrogate invariant {invariant}",
        )

    def test_8_quadratic_pathology(self):
        start = time.time()
        rng = np.random.default_rng(1008)
        worst = 0.0
        for _ in range(200):
            k0 = float(rng.uniform(0.0, 2.0))
            a = float(rng.uniform(0.02, 1.5))
            b = float(rng.uniform(0.02, 1.5))
            patch = QuadraticPatch(
                knots=np.array([k0, k0 + a, k0 + a + b]), taus=rng.uniform(0.0, 5.0, 3)
            )
            for lo, hi, formula in (
                (patch.knots[0], patch.knots[1], quad_integral_left(patch)),
                (patch.knots[1], patch.knots[2], quad_integral_right(patch)),
            ):
                numeric = integrate_adaptive(
                    lambda s: quad_eval(patch, s), float(lo), float(hi), 1e-13
                ).value
                worst = max(worst, abs(formula - numeric) / max(abs(numeric), 1e-10))
        left = quad_integral_left(PATHOLOGICAL_PATCH)
        factor = float(np.exp(-left))
        threshold = instability_threshold(1.0, 1.0, 1.0)
        elapsed = time.time() - start
        ok = worst < 1e-10 and left < 0.0 and factor > 1.0 and threshold == 6.0
        report(
            8,
            "quadratic pathology",
            ok,
            elapsed,
            10.0,
            f"worst rel err {worst:.2e}; fixture left {left:.3f}, factor {factor:.3g}, "
            f"threshold {threshold}",
        )

    def test_9_depth_ordering(self):
        start = time.time()
        scene = fixtures.shift_scene()
        segment = fixtures.SHIFT_SEGMENT
        truth = true_mean_termination(scene, segment, 1e-10)
        sweep = sweep_traces(scene, segment, 32, 32)
        rmse = {}
        for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
            errs = [
                expected_depth(interval_pmf(model, g, tau), g) - truth
                for g, tau, _ in sweep
            ]
            rmse[model] = float(np.sqrt(np.mean(np.square(errs))))
        elapsed = time.time() - start
        ok = rmse[ModelKind.LINEAR] <= rmse[ModelKind.CONSTANT]
        report(
            9,
            "depth ordering",
            ok,
            elapsed,
            10.0,
            f"RMSE linear {rmse[ModelKind.LINEAR]:.5f} <= constant {rmse[ModelKind.CONSTANT]:.5f}",
        )
