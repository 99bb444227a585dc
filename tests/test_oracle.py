import ast
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from rayquad import (
    AnalyticField,
    ColorTrace,
    ConstantSlab,
    GaussianBump,
    IntegrationResult,
    LinearRamp,
    LogisticStep,
    ModelKind,
    NoConvergenceError,
    RaySegment,
    UniformColor,
    convergence_slope,
    integrate_adaptive,
    interval_pmf,
    ks_critical,
    ks_statistic,
    make_uniform_grid,
    oracle,
    render,
    sample_field,
    true_interval_probabilities,
    true_mean_termination,
    true_render,
    true_render_batch,
)
from rayquad.cli import _RENDER_TOL
from rayquad.fields import (
    DensityProfile,
    GradientColor,
    GrazingRig,
    PiecewiseConstantColor,
    SampledDensity,
    TwoToneColor,
    load_scene,
)
from rayquad.oracle import (
    _adaptive_simpson,
    _base,
    _flat_cumulative,
    _render_bases,
    _render_rays,
    _tabulate,
)
from rayquad.rays import _BLOCK

from conftest import random_instance

SCENES = Path(__file__).resolve().parent.parent / "scenes"

# A tolerance must lie in (0, inf); NaN must fail like the others.
BAD_TOLERANCES = [np.nan, np.inf, 0.0, -1.0]


def _rows(densities, segment, n_sub=64):
    """The tables of ``densities`` on the first one's base, in one build."""
    return _tabulate(densities, segment, _base(densities[0], segment), n_sub)


class TestIntegrateAdaptive:
    def test_polynomial_exact(self):
        result = integrate_adaptive(lambda s: s * s, 0.0, 1.0, 1e-12)
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert result.evaluations >= 3

    def test_sine_textbook_value(self):
        result = integrate_adaptive(np.sin, 0.0, np.pi, 1e-10)
        assert result.value == pytest.approx(2.0, abs=1e-10)

    def test_empty_interval_is_zero(self):
        result = integrate_adaptive(np.exp, 1.5, 1.5, 1e-10)
        assert result.value == 0.0

    def test_rejects_reversed_bounds_and_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 1.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 0.0, 1.0, 0.0)

    def test_nonfinite_integrand_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            integrate_adaptive(lambda s: np.log(s), 0.0, 1.0, 1e-10)

    def test_kink_converges_at_tight_tolerance(self):
        truth = 2.0 / 3.0 * (0.37**1.5 + 0.63**1.5)
        result = integrate_adaptive(lambda s: np.sqrt(abs(s - 0.37)), 0.0, 1.0, 1e-12)
        assert result.value == pytest.approx(truth, abs=1e-11)

    def test_depth_limit_raises_with_partial_result(self, monkeypatch):
        f = lambda s: np.sqrt(abs(s - 0.37))
        truth = 2.0 / 3.0 * (0.37**1.5 + 0.63**1.5)
        monkeypatch.setattr(oracle, "_MAX_DEPTH", 4)
        with pytest.raises(NoConvergenceError) as err:
            integrate_adaptive(f, 0.0, 1.0, 1e-15)
        assert err.value.partial.value == pytest.approx(truth, abs=1e-3)


STEP_RAY = AnalyticField(LogisticStep(10.0, 40.0, 1.0))
STEP_SEGMENT = RaySegment(0.0, 2.0)


@pytest.mark.usefixtures("engine_guard")
class TestToleranceBounds:
    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda tol: integrate_adaptive(lambda s: s, 0.0, 1.0, tol), id="integrate"),
            pytest.param(lambda tol: true_render(STEP_RAY, STEP_SEGMENT, tol), id="render"),
            pytest.param(
                lambda tol: true_render_batch([STEP_RAY] * 2, STEP_SEGMENT, tol), id="render-batch"
            ),
            pytest.param(
                lambda tol: true_mean_termination(STEP_RAY, STEP_SEGMENT, tol), id="mean-termination"
            ),
            pytest.param(
                lambda tol: true_interval_probabilities(STEP_RAY, STEP_SEGMENT, [0.0, 1.0, 2.0], tol),
                id="interval-probabilities",
            ),
        ],
    )
    def test_rejected_before_the_engine_runs(self, call, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            call(tol)

    def test_guard_stops_a_valid_call(self):
        # The guard is what keeps a regressed check from running the engine.
        with pytest.raises(AssertionError, match="engine was reached"):
            true_render(STEP_RAY, STEP_SEGMENT, 1e-6)


class TestSimpsonEngine:
    def test_batched_depth_limit_flags_only_the_failing_task(self, monkeypatch):
        fs = [lambda s: s * s, lambda s: np.sqrt(abs(s - 0.37)), np.sin, np.exp]
        a = np.array([0.0, 0.0, 0.0, 1.5])
        b = np.array([1.0, 1.0, np.pi, 1.5])
        tol = np.array([1e-12, 1e-15, 1e-6, 1e-10])

        def f(x, task):
            return [fs[k](xi) for xi, k in zip(x.tolist(), task.tolist())]

        monkeypatch.setattr(oracle, "_MAX_DEPTH", 4)
        value, error, evals, failed = _adaptive_simpson(f, a, b, tol)
        assert failed.tolist() == [False, True, False, False]
        for k in range(4):
            if failed[k]:
                with pytest.raises(NoConvergenceError) as err:
                    integrate_adaptive(fs[k], a[k], b[k], tol[k])
                alone = err.value.partial
            else:
                alone = integrate_adaptive(fs[k], a[k], b[k], tol[k])
            assert (value[k], error[k], evals[k]) == (
                alone.value,
                alone.error_estimate,
                alone.evaluations,
            )


class _UnresolvedCusp(DensityProfile):
    """sqrt(|s - 0.7371|) with its cusp unreported, so tabulation never settles."""

    def tau(self, s):
        return np.sqrt(np.abs(np.asarray(s, dtype=np.float64) - 0.7371))


class TestFailurePartials:
    """An unstable tabulation reports the last pass, not a placeholder."""

    field = AnalyticField(_UnresolvedCusp(), UniformColor(np.array([0.5])))
    segment = RaySegment(0.0, 2.0)

    def _last_rows(self):
        # The ninth round's tables: 64 sub-panels doubled eight times.
        return _rows([self.field.density], self.segment, 64 << 8)

    def test_true_render_partial_is_last_pass(self):
        with pytest.raises(NoConvergenceError) as err:
            true_render(self.field, self.segment, 1e-10)
        bases = _render_bases([self.field], self.segment)
        value, error, evals = _render_rays([self.field], self.segment, self._last_rows(), bases, 1e-10)[0]
        assert err.value.partial == IntegrationResult(float(value[0]), error, evals)
        assert np.isfinite(err.value.partial.error_estimate)
        assert err.value.partial.evaluations > 3

    def test_mean_termination_partial_is_last_pass(self):
        with pytest.raises(NoConvergenceError) as err:
            true_mean_termination(self.field, self.segment, 1e-10)
        rows = self._last_rows()
        unit = AnalyticField(self.field.density, UniformColor(np.array([1.0])))
        bases = _render_bases([unit], self.segment)
        value, error, evals = _render_rays([unit], self.segment, rows, bases, 1e-10, weight=lambda x: x)[0]
        mean = float(value[0]) + self.segment.far * np.exp(-rows.cumulative[0, -1])
        assert err.value.partial == IntegrationResult(mean, error, evals)


class _UnreportedJump(DensityProfile):
    """0.5 before s = 0.7371 and 3.0 after, the jump not reported as a
    breakpoint; counts the points it is evaluated at."""

    def __init__(self):
        self.points = 0

    def tau(self, s):
        self.points += np.size(s)
        return np.where(np.asarray(s, dtype=np.float64) < 0.7371, 0.5, 3.0)


class TestIntervalProbabilityPartial:
    def test_partial_sums_latest_estimates(self):
        density, segment = _UnreportedJump(), RaySegment(0.0, 2.0)
        edges = np.linspace(0.0, 2.0, 5)
        with pytest.raises(NoConvergenceError) as err:
            true_interval_probabilities(AnalyticField(density), segment, edges)
        partial = err.value.partial
        # Each opacity table evaluates five points per sub-panel, from 64
        # sub-panels per base panel, doubling; every other point was spent on
        # the interval integrals.
        jump = _UnreportedJump()
        base = _base(jump, segment, edges[1:-1])
        rows = _tabulate([jump], segment, base, 64)
        table_points = 5 * rows.widths.size
        while rows.tab_error[0] > 1e-12 / 8.0 and (
            rows.n_sub < 8192 or 2 * rows.widths.size <= oracle._MAX_SUB_PANELS
        ):
            rows = _tabulate([jump], segment, base, 2 * rows.n_sub)
            table_points += 5 * rows.widths.size
        assert partial.evaluations == density.points - table_points
        truth = 1.0 - np.exp(-(0.5 * 0.7371 + 3.0 * (2.0 - 0.7371)))
        assert np.isfinite(partial.error_estimate)
        assert abs(partial.value - truth) <= partial.error_estimate


class TestIntervalProbabilities:
    segment = RaySegment(0.0, 2.0)

    @pytest.mark.parametrize(
        "edges",
        [[-1.0, 1.0, 2.0], [0.0, 1.0, 3.0], [0.0, 1.5, 1.0, 2.0], [0.0, 1.0, 1.0, 2.0],
         [1.0], [[0.0, 1.0], [1.0, 2.0]]],
        ids=["below-near", "beyond-far", "unsorted", "repeated", "one-edge", "two-dim"],
    )
    def test_bad_edges_rejected(self, edges):
        field = AnalyticField(LinearRamp(1.0, 3.0, 0.0, 2.0))
        with pytest.raises(ValueError):
            true_interval_probabilities(field, self.segment, edges)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_smooth_density_matches_softplus_closed_form(self, n):
        # O(s) = (a / k) * (softplus(k (s - c)) - softplus(-k c)) for the logistic step.
        density = LogisticStep(10.0, 8.0, 1.0)
        edges = np.linspace(0.0, 2.0, n + 1)
        depth = 10.0 / 8.0 * (np.logaddexp(0.0, 8.0 * (edges - 1.0)) - np.logaddexp(0.0, -8.0))
        truth = np.exp(-depth[:-1]) * -np.expm1(-np.diff(depth))
        probs = true_interval_probabilities(AnalyticField(density), self.segment, edges)
        assert np.max(np.abs(probs - truth) / truth) <= 1e-11

    def test_deep_wall_ray_on_one_base_panel_reaches_default_rtol(self):
        # One interval, so one base panel: the table error falls 16x per
        # doubling and first drops below rtol / 8 at 16384 sub-panels.
        rig = GrazingRig(10.0, 40.0, 1.0, angles=[0.5])
        field = rig.ray_field(0.8877039854146296, 0.11047222768823231)
        step = field.density
        segment, edges = RaySegment(0.0, 4.0), np.array([0.0, 4.0])
        probs = true_interval_probabilities(field, segment, edges)
        k, c = step.steepness, step.center
        depth = step.amplitude / k * (np.logaddexp(0.0, k * (edges - c)) - np.logaddexp(0.0, -k * c))
        truth = np.exp(-depth[:-1]) * -np.expm1(-np.diff(depth))
        assert np.max(np.abs(probs - truth) / truth) <= 1e-11

    @pytest.mark.parametrize("n_edges, n_sub", [(2, 65536), (5, 16384), (33, 8192)])
    def test_untabulated_table_stops_within_its_cap(self, n_edges, n_sub):
        # Past 8192 sub-panels per base panel a table doubles only while it stays
        # within _MAX_SUB_PANELS in all, so many edges take no more memory than at 8192.
        edges = np.linspace(0.0, 2.0, n_edges)
        with pytest.raises(NoConvergenceError, match=f"at {n_sub} sub-panels$"):
            true_interval_probabilities(AnalyticField(_UnreportedJump()), self.segment, edges)

    def test_depth_limit_raises(self):
        # Claims the exact class, so the tabulation is trusted and the
        # unreported singularity reaches the engine's depth limit.
        class Spike(DensityProfile):
            polynomial_degree = 1

            def tau(self, s):
                return np.abs(np.asarray(s, dtype=np.float64) - 0.7371) ** -0.5

        with pytest.raises(NoConvergenceError, match="1 of 4 intervals") as err:
            true_interval_probabilities(AnalyticField(Spike()), self.segment, np.linspace(0.0, 2.0, 5))
        assert np.isfinite(err.value.partial.error_estimate)


def _render_command_rays():
    """The 96 ray fields of the ``render`` command, row by row."""
    angles = np.linspace(0.12, np.pi / 2, 8)
    rig = GrazingRig(wall_amplitude=10.0, wall_steepness=40.0, wall_depth=1.0, angles=angles)
    offsets = np.linspace(0.0, 0.12, 12, endpoint=False)
    return [rig.ray_field(float(a), float(o)) for a in angles for o in offsets]


class TestTrueRenderBatch:
    segment = RaySegment(0.0, 4.0)

    def test_rows_equal_single_ray_runs_bit_for_bit(self):
        # Exact densities (slab, ramp) stop after one pass; the rest refine.
        scenes = [load_scene(path)[0] for path in sorted(SCENES.glob("*.json"))]
        rays = _render_command_rays()
        fields = scenes[:2] + rays[:48] + scenes[2:] + rays[48:]
        batch = true_render_batch(fields, self.segment, 1e-6)
        assert batch.shape == (100, 1)
        for row, field in zip(batch, fields):
            assert row.tolist() == true_render(field, self.segment, 1e-6).tolist()

    def test_mixed_profile_classes_equal_single_ray_runs(self):
        # Knot-class profiles are groups of one next to the gathered classes.
        knots = np.linspace(0.0, 4.0, 7)
        step0 = SampledDensity(knots, [0.2, 1.5, 0.0, 3.0, 0.7, 2.0, 1.0], degree=0)
        ramp1 = SampledDensity(knots, [0.1, 0.9, 2.5, 0.4, 0.0, 1.2, 3.0], degree=1)
        gray = PiecewiseConstantColor(knots, [[0.1], [0.9], [0.4], [0.6], [0.2], [0.8]])
        rays = _render_command_rays()
        one_channel = [
            AnalyticField(step0, gray),
            AnalyticField(ramp1),
            rays[3],
            AnalyticField(GaussianBump(3.0, 0.6, 0.25), gray),
            AnalyticField(ramp1, TwoToneColor(np.array([0.2]), np.array([0.8]), 1.3)),
            rays[40],
            AnalyticField(step0, gray),
        ]
        rgb = lambda *v: np.array(v)
        three_channel = [
            AnalyticField(
                GaussianBump(3.0, 0.6, 0.25), GradientColor(rgb(0.1, 0.5, 0.9), rgb(0.9, 0.2, 0.4), 0.3, 1.5)
            ),
            AnalyticField(ramp1, GradientColor(rgb(0.3, 0.3, 0.0), rgb(1.0, 0.1, 0.7), 0.5, 3.5)),
            AnalyticField(
                LogisticStep(10.0, 40.0, 1.1), GradientColor(rgb(0.0, 1.0, 0.5), rgb(0.6, 0.4, 0.2), 0.8, 2.0)
            ),
            AnalyticField(
                ConstantSlab(2.0, 1.0, 3.0), PiecewiseConstantColor(knots, np.linspace(0.0, 1.0, 18).reshape(6, 3))
            ),
            AnalyticField(step0, UniformColor(rgb(0.2, 0.4, 0.6))),
        ]
        for fields in (one_channel, three_channel):
            batch = true_render_batch(fields, self.segment, 1e-8)
            for row, field in zip(batch, fields):
                assert row.tolist() == true_render(field, self.segment, 1e-8).tolist()

    def test_channels_accumulate_per_ray(self):
        color = GradientColor(np.array([0.1, 0.5, 0.9]), np.array([0.9, 0.2, 0.4]), 0.3, 1.5)
        fields = [
            AnalyticField(GaussianBump(3.0, 0.6, 0.25), color),
            AnalyticField(ConstantSlab(2.0, 1.0, 3.0), color),
        ]
        batch = true_render_batch(fields, self.segment, 1e-8)
        for row, field in zip(batch, fields):
            assert row.tolist() == true_render(field, self.segment, 1e-8).tolist()

    def test_failing_ray_raises_its_single_ray_partial(self):
        segment = TestFailurePartials.segment
        cusp = TestFailurePartials.field
        slab = AnalyticField(ConstantSlab(2.0, 0.5, 1.5))
        with pytest.raises(NoConvergenceError) as alone:
            true_render(cusp, segment, 1e-10)
        with pytest.raises(NoConvergenceError) as err:
            true_render_batch([slab, _render_command_rays()[5], cusp, slab, cusp], segment, 1e-10)
        assert err.value.partial == alone.value.partial
        assert "ray 2" in str(err.value)

    def test_batch_of_the_first_ray_fails_first(self):
        # Rays 0 and 2 are one batch, which runs before ray 1's; both
        # failing rays exhaust their tabulation rounds.
        segment = TestFailurePartials.segment
        steep = AnalyticField(LogisticStep(3.0, 1e15, 0.7371))
        fields = [AnalyticField(LogisticStep(3.0, 40.0, 0.7371)), TestFailurePartials.field, steep]
        with pytest.raises(NoConvergenceError) as alone:
            true_render(steep, segment, 1e-10)
        with pytest.raises(NoConvergenceError, match="for ray 2$") as err:
            true_render_batch(fields, segment, 1e-10)
        assert err.value.partial == alone.value.partial

    def test_render_rays_are_one_batch_per_round(self, monkeypatch):
        # The ``render`` command's rays have no breakpoints, so each round
        # tabulates every ray that runs it on one grid.  All 96 run in the first
        # pass, rounds 0 to 2, with one engine call; 79 of them need round 2.
        builds, calls = [], []
        tabulate, engine = oracle._tabulate, oracle._adaptive_simpson

        def counted(densities, segment, base, n_sub):
            builds.append((len(densities), n_sub))
            return tabulate(densities, segment, base, n_sub)

        monkeypatch.setattr(oracle, "_tabulate", counted)
        monkeypatch.setattr(oracle, "_adaptive_simpson", lambda *args: calls.append(1) or engine(*args))
        true_render_batch(_render_command_rays(), self.segment, _RENDER_TOL)
        assert builds == [(96, 64), (96, 128), (96, 256)]
        assert len(calls) == 1

    def test_render_panels_are_built_once_per_ray(self, monkeypatch):
        # One base per ray to batch it, one per ray for its render panels (serving
        # all three refinement passes) and one for the batch's tables.
        calls = []
        base = oracle._base
        monkeypatch.setattr(oracle, "_base", lambda *args: calls.append(args) or base(*args))
        true_render_batch(_render_command_rays(), self.segment, _RENDER_TOL)
        assert len(calls) == 96 + 96 + 1

    def test_rows_of_unequal_panel_counts_match_their_own_runs(self):
        # Two-tone boundaries inside and outside the segment give rows of two and one
        # render panels: each row's padded sums are its own run's, bit for bit.
        rgb = np.array([0.2, 0.5, 0.9]), np.array([0.7, 0.1, 0.4])
        fields = [
            AnalyticField(GaussianBump(2.0, 1.0 + 0.5 * i, 0.4), TwoToneColor(*rgb, boundary))
            for i, boundary in enumerate([1.3, 5.0, 2.9, -1.0])
        ]
        densities, bases = [f.density for f in fields], _render_bases(fields, self.segment)
        assert [b.size - 1 for b in bases] == [2, 1, 2, 1]
        tables = [_rows(densities, self.segment, 64), _rows(densities[1:3], self.segment, 128)]
        wave = oracle._nest(tables, [np.arange(4), np.array([1, 2])])
        batch = _render_rays(fields, self.segment, wave, bases, 1e-8)
        for (value, error, evals), r, n_sub in zip(batch, [0, 1, 2, 3, 1, 2], [64] * 4 + [128] * 2):
            rows = _rows([densities[r]], self.segment, n_sub)
            alone = _render_rays([fields[r]], self.segment, rows, [bases[r]], 1e-8)[0]
            assert (value.tolist(), error, evals) == (alone[0].tolist(), alone[1], alone[2])

    def test_render_rays_hold_no_row_loop(self):
        # Each row's sums, counts and failure are array operations over every row at once.
        tree = ast.parse(inspect.getsource(oracle._render_rays))
        loops = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.For, ast.AsyncFor))]
        assert loops == [], loops

    def test_rejects_empty_and_mixed_channel_batches(self):
        with pytest.raises(ValueError):
            true_render_batch([], self.segment)
        rgb = AnalyticField(ConstantSlab(1.0, 1.0, 2.0), UniformColor(np.array([0.2, 0.4, 0.6])))
        with pytest.raises(ValueError):
            true_render_batch([_render_command_rays()[0], rgb], self.segment)


class TestBatchedTabulation:
    """Each row of one build for many rays equals that ray's own table bit for bit."""

    segment = RaySegment(0.0, 4.0)

    @pytest.mark.parametrize("n_sub", [64, 128, 256])
    def test_equals_per_ray_tables(self, n_sub):
        # One build per class and base; every group holds several rays.
        # Exact densities (slab, ramp) get one sub-panel per base panel.
        densities = [f.density for f in _render_command_rays()] + [
            load_scene(path)[0].density for path in sorted(SCENES.glob("*.json"))
        ]
        densities += [
            ConstantSlab(0.5, 1.0, 3.0),
            ConstantSlab(1.0, 0.5, 2.5),
            ConstantSlab(2.0, 0.5, 2.5),
            LinearRamp(2.0, 0.5, 0.0, 1.0),
            LinearRamp(0.5, 2.0, 1.0, 3.0),
            LinearRamp(3.0, 1.0, 1.0, 3.0),
            GaussianBump(1.0, 2.0, 0.5),
        ]
        groups = {}
        for density in densities:
            key = type(density), _base(density, self.segment).tobytes()
            groups.setdefault(key, []).append(density)
        assert all(len(group) > 1 for group in groups.values())
        for group in groups.values():
            rows = _rows(group, self.segment, n_sub)
            for r, density in enumerate(group):
                one = _rows([density], self.segment, n_sub)
                assert rows.n_sub == one.n_sub
                for a, b in [(rows.edges, one.edges), (rows.widths, one.widths)]:
                    assert a.shape == b.shape and np.array_equal(a, b)
                for name in ("cumulative", "d0", "a2", "a3", "tab_error"):
                    a, b = getattr(rows, name)[r], getattr(one, name)[0]
                    assert a.shape == b.shape and np.array_equal(a, b)


class TestPanelBuilder:
    """``_base`` equals the ``np.unique`` build it replaced, bit for bit."""

    @staticmethod
    def reference(density, segment, extra=None):
        breaks = density.breakpoints()
        if extra is not None:
            breaks = np.concatenate([breaks, np.asarray(extra, dtype=np.float64)])
        breaks = breaks[(breaks > segment.near) & (breaks < segment.far)]
        return np.unique(np.concatenate(([segment.near], breaks, [segment.far])))

    @pytest.mark.parametrize(
        "density, segment, extra",
        [
            # Duplicates among and across the density's and the extra breakpoints.
            (SampledDensity([0.5, 1.0, 2.0, 3.5], [1.0, 2.0, 0.5, 1.0]), RaySegment(0.0, 4.0), [2.0, 1.0, 2.0, 3.0]),
            # Breakpoints outside the segment and on its bounds.
            (ConstantSlab(1.0, -1.0, 5.0), RaySegment(0.5, 4.0), [0.5, 4.0, -3.0, 7.0, 2.5]),
            (LinearRamp(1.0, 2.0, 1.0, 3.0), RaySegment(1.0, 3.0), None),
            # A -0.0 near bound keeps its sign; a 0.0 breakpoint is not inside.
            (ConstantSlab(1.0, 0.0, 1.0), RaySegment(-0.0, 2.0), [0.0, -0.0, 1.0, 0.25]),
            (LogisticStep(10.0, 40.0, 1.0), RaySegment(-0.0, 4.0), np.empty(0)),
        ],
    )
    def test_equals_unique(self, density, segment, extra):
        got, want = _base(density, segment, extra), self.reference(density, segment, extra)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_unique_on_random_breaks(self, seed):
        rng = np.random.default_rng(seed)
        knots = np.unique(rng.choice(np.linspace(-1.0, 5.0, 13), 6))
        density = SampledDensity(knots, rng.uniform(0.0, 2.0, knots.size))
        segment = RaySegment(float(rng.choice([-0.0, 0.0, 0.5])), float(rng.choice([3.0, 4.0])))
        extra = rng.choice(np.concatenate([knots, [-0.0, 0.0, 3.0, 4.0]]), 8)
        got, want = _base(density, segment, extra), self.reference(density, segment, extra)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestFlatCumulative:
    """The batched lookup equals each row's own search and Hermite piece, bit for bit."""

    segment = RaySegment(0.0, 4.0)

    @pytest.mark.parametrize("refinements", [0, 1, 2])
    def test_shared_edges(self, refinements):
        n_sub = 64 << refinements
        for densities in (
            [LogisticStep(10.0, 40.0, c) for c in (0.5, 1.0, 2.5, 3.9)],
            [GaussianBump(a, 2.0, 0.5) for a in (0.5, 1.0, 3.0)],
            # Breakpoints on the segment's ends and inside it, shared by the rays.
            [ConstantSlab(tau, 0.0, 4.0) for tau in (0.5, 1.0, 3.0)],
            [LinearRamp(a, b, 0.5, 2.5) for a, b in ((0.5, 2.0), (2.0, 0.0), (1.0, 1.0))],
        ):
            self._assert_rows_match_their_own_pieces(densities, n_sub)

    def _assert_rows_match_their_own_pieces(self, densities, n_sub):
        rows = _rows(densities, self.segment, n_sub)
        edges = rows.edges
        x = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [self.segment.near - 1.0, self.segment.far + 1.0],
                np.linspace(self.segment.near, self.segment.far, 97),
            ]
        )
        cumulative = _flat_cumulative(rows)
        # The search and Hermite piece of each row on its own.
        idx = edges[1:-1].searchsorted(x, side="right")
        t = x - edges[idx]
        expected = []
        for r, density in enumerate(densities):
            row = rows.cumulative[r], rows.d0[r], rows.a2[r], rows.a3[r]
            cum, d0, a2, a3 = (a[idx] for a in row)
            expected.append(cum + t * (d0 + t * (a2 + t * a3)))
            assert np.array_equal(cumulative(x, np.full(x.size, r)), expected[r]), r
            alone = _flat_cumulative(_rows([density], self.segment, n_sub))
            assert np.array_equal(alone(x, 0), expected[r]), r
        # Points of every ray interleaved in one call.
        ray = np.arange(x.size) % len(densities)
        assert np.array_equal(cumulative(x, ray), np.array(expected)[ray, np.arange(x.size)])

    @pytest.mark.parametrize(
        "densities",
        [
            # Breakpoints inside, straddling and on the segment's ends; the
            # last ray shares the first one's.
            [
                ConstantSlab(1.0, 0.5, 2.5),
                ConstantSlab(2.0, 1.0, 3.0),
                ConstantSlab(0.5, -1.0, 6.0),
                ConstantSlab(3.0, 3.5, 4.0),
                ConstantSlab(0.7, 0.5, 2.5),
            ],
            [
                LinearRamp(0.5, 2.0, 1.0, 3.0),
                LinearRamp(1.0, 0.0, 0.25, 0.75),
                LinearRamp(2.0, 1.0, -1.0, 2.0),
                LinearRamp(0.0, 4.0, 0.0, 4.0),
                LinearRamp(1.5, 0.5, 1.0, 3.0),
            ],
        ],
        ids=["slab", "ramp"],
    )
    def test_breakpoints_differ_from_ray_to_ray(self, densities, monkeypatch):
        # Rays whose breakpoints differ share no lookup: each base is its own batch.
        builds = []
        tabulate = oracle._tabulate

        def counted(densities, segment, base, n_sub):
            builds.append((len(densities), base.tolist()))
            return tabulate(densities, segment, base, n_sub)

        monkeypatch.setattr(oracle, "_tabulate", counted)
        color = TwoToneColor(np.array([0.2]), np.array([0.8]), 1.3)
        fields = [AnalyticField(density, color) for density in densities]
        batch = true_render_batch(fields, self.segment, 1e-8)
        # Exact densities settle in one round: one build per distinct base, in first-ray order.
        bases = [_base(d, self.segment).tolist() for d in densities[:4]]
        assert builds == [(2, bases[0]), (1, bases[1]), (1, bases[2]), (1, bases[3])]
        for row, field in zip(batch, fields):
            assert row.tolist() == true_render(field, self.segment, 1e-8).tolist()


class TestTrueRender:
    def test_slab_closed_form(self):
        field = AnalyticField(ConstantSlab(2.0, 1.0, 3.0), UniformColor(np.array([0.7])))
        value = true_render(field, RaySegment(0.0, 4.0), 1e-12)
        assert value[0] == pytest.approx(0.7 * (1.0 - np.exp(-4.0)), abs=1e-11)

    def test_zero_field_renders_zero(self):
        field = AnalyticField(ConstantSlab(0.0, 1.0, 3.0), UniformColor(np.array([1.0])))
        assert true_render(field, RaySegment(0.0, 4.0), 1e-12)[0] == pytest.approx(0.0, abs=1e-12)

    def test_ramp_closed_form(self):
        field = AnalyticField(LinearRamp(1.0, 3.0, 0.0, 1.0), UniformColor(np.array([1.0])))
        value = true_render(field, RaySegment(0.0, 1.0), 1e-12)
        assert value[0] == pytest.approx(1.0 - np.exp(-2.0), abs=1e-11)

    def test_ramp_matches_single_interval_linear_quadrature(self):
        # the linear model is exact for its own class even at one interval
        field = AnalyticField(LinearRamp(1.0, 3.0, 0.0, 1.0), UniformColor(np.array([1.0])))
        grid = make_uniform_grid(RaySegment(0.0, 1.0), 1)
        tau, colors = sample_field(field, grid)
        dist = interval_pmf(ModelKind.LINEAR, grid, tau)
        quad = render(dist, colors)[0]
        truth = true_render(field, RaySegment(0.0, 1.0), 1e-12)[0]
        assert quad == pytest.approx(truth, abs=1e-10)

    def test_model_class_exactness_invariant(self, rng):
        tol = 1e-11
        for degree, model in ((1, ModelKind.LINEAR), (0, ModelKind.CONSTANT)):
            grid, tau = random_instance(rng, n_max=24)
            colors = rng.uniform(0.0, 1.0, grid.n + 1)
            field = AnalyticField(
                SampledDensity(grid.points, tau.values, degree=degree),
                PiecewiseConstantColor(grid.points, colors[:, None]),
            )
            quad = render(interval_pmf(model, grid, tau), ColorTrace(colors))[0]
            truth = true_render(field, grid.segment, tol)[0]
            assert abs(quad - truth) <= 10 * tol + 1e-12 * abs(truth)

    def test_interval_probabilities_relative_accuracy(self, rng):
        grid, tau = random_instance(rng, n_max=32)
        field = AnalyticField(SampledDensity(grid.points, tau.values, degree=1))
        dist = interval_pmf(ModelKind.LINEAR, grid, tau)
        oracle = true_interval_probabilities(field, grid.segment, grid.points, rtol=1e-12)
        rel = np.abs(dist.pmf - oracle) / np.maximum(np.abs(oracle), 1e-300)
        assert rel.max() < 1e-9


def slab_transmittance(slab, segment, s):
    """Closed-form transmittance for a constant slab: exp(-tau0 * overlap)."""
    s = np.asarray(s, dtype=np.float64)
    overlap = np.clip(np.minimum(s, slab.end) - max(segment.near, slab.start), 0.0, None)
    return np.exp(-slab.tau0 * overlap)


def ramp_transmittance(ramp, segment, s):
    """Closed-form transmittance for a linear ramp spanning the segment.

    Valid when [near, s] lies inside the ramp's [start, end] range, where
    the cumulative opacity is the exact trapezoid.
    """
    s = np.asarray(s, dtype=np.float64)
    if not (segment.near >= ramp.start and (s <= ramp.end).all()):
        raise ValueError("closed form requires the query range inside the ramp")
    depth = 0.5 * (ramp.tau(segment.near) + ramp.tau(s)) * (s - segment.near)
    return np.exp(-depth)


class TestClosedFormTransmittances:
    def test_slab_against_table(self):
        slab = ConstantSlab(2.0, 1.0, 3.0)
        segment = RaySegment(0.0, 4.0)
        s = np.linspace(0.0, 4.0, 33)
        cumulative = _flat_cumulative(_rows([slab], segment))
        np.testing.assert_allclose(
            np.exp(-cumulative(s, 0)), slab_transmittance(slab, segment, s), atol=1e-13
        )

    def test_ramp_against_table(self):
        ramp = LinearRamp(1.0, 3.0, 0.0, 1.0)
        segment = RaySegment(0.0, 1.0)
        s = np.linspace(0.0, 1.0, 17)
        cumulative = _flat_cumulative(_rows([ramp], segment))
        np.testing.assert_allclose(
            np.exp(-cumulative(s, 0)), ramp_transmittance(ramp, segment, s), atol=1e-13
        )

    def test_ramp_rejects_queries_outside_the_ramp(self):
        ramp = LinearRamp(1.0, 3.0, 0.0, 1.0)
        for s in (1.5, np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="inside the ramp"):
                ramp_transmittance(ramp, RaySegment(0.0, 1.0), s)

    def test_smooth_fields_integrate_to_tight_tolerance(self):
        for density in (GaussianBump(3.0, 0.6, 0.25), LogisticStep(10.0, 40.0, 1.0)):
            segment = RaySegment(0.0, 2.0)
            direct = integrate_adaptive(lambda s: float(density.tau(s)), 0.0, 2.0, 1e-12)
            cumulative = _flat_cumulative(_rows([density], segment, 512))
            assert cumulative(np.array(2.0), 0) == pytest.approx(direct.value, abs=1e-10)


class TestMeanTermination:
    def test_opaque_slab_concentrates_at_entry(self):
        # a very dense slab stops the ray essentially at its front face
        field = AnalyticField(ConstantSlab(500.0, 1.0, 3.0))
        mean = true_mean_termination(field, RaySegment(0.0, 4.0), 1e-10)
        assert mean == pytest.approx(1.0 + 1.0 / 500.0, abs=1e-6)

    def test_transparent_ray_terminates_at_far_plane(self):
        field = AnalyticField(ConstantSlab(1e-9, 0.5, 1.0))
        mean = true_mean_termination(field, RaySegment(0.0, 4.0), 1e-10)
        assert mean == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("near", [1e4, 1e6, 1e9])
    def test_settles_far_from_the_origin(self, near):
        # From 1e6 on a distance's ulp is above the default tol; measured from the
        # near bound, the integral is the one at the origin, shifted.
        def mean(near):
            field = AnalyticField(GaussianBump(3.0, near + 0.6, 0.25))
            return true_mean_termination(field, RaySegment(near, near + 2.0))

        assert abs(mean(near) - (near + mean(0.0))) <= 1e-8


class TestKsStatistic:
    def test_matches_scipy_on_uniform_sample(self, rng):
        x = np.sort(rng.random(500))
        ours = ks_statistic(x, lambda v: v)
        theirs = scipy.stats.kstest(x, "uniform").statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_samples_from_cdf_pass(self, rng):
        n = 100_000
        x = np.sort(rng.random(n) ** 2)  # CDF sqrt(x)
        assert ks_statistic(x, np.sqrt) < ks_critical(n)

    def test_mismatched_cdf_fails_loudly(self, rng):
        n = 10_000
        x = np.sort(rng.random(n))
        steep = lambda v: np.clip(v * 10.0, 0.0, 1.0)
        assert ks_statistic(x, steep) > 10 * ks_critical(n)

    def test_single_sample_at_median(self):
        assert ks_statistic(np.array([0.5]), lambda v: v) == pytest.approx(0.5)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            ks_statistic(np.array([0.3, 0.1]), lambda v: v)

    @pytest.mark.parametrize("samples", [[0.1, np.nan], [np.nan, 0.1], [0.3, np.inf, 0.1]])
    def test_finiteness_is_checked_before_order(self, samples):
        # A NaN compares false, so an order check first would call it unsorted.
        with pytest.raises(ValueError, match="^samples must be finite$"):
            ks_statistic(np.array(samples), lambda v: v)

    def test_rejects_non_finite_samples(self):
        # One sample gives the sort check no pair to compare.
        for samples in ([np.nan], [np.inf], [0.2, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                ks_statistic(np.array(samples), lambda v: v)

    @pytest.mark.parametrize(
        "cdf",
        [lambda v: v[:, None], lambda v: 0.5, lambda v: v[:1]],
        ids=["column", "scalar", "first-value"],
    )
    def test_rejects_a_cdf_without_one_value_per_sample(self, cdf):
        # Each broadcasts against the ranks: the column into a 3000 x 3000 gap
        # (72 MB), the others into a statistic of nothing.  The check comes first.
        x = np.sort(np.random.default_rng(4).random(3000))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            with pytest.raises(ValueError, match=r"^cdf must return one value per sample: 3000 gave "):
                ks_statistic(x, cdf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 1_000_000

    def test_rejects_non_finite_cdf_values(self):
        with pytest.raises(ValueError, match="finite"):
            ks_statistic(np.array([0.2, 0.4]), lambda v: np.full_like(v, np.nan))

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 16385, 100_001])
    def test_blocked_statistic_equals_whole_array_formula(self, n):
        x = np.sort(np.random.default_rng(n).random(n) ** 2)
        i = np.arange(1, n + 1)
        # sqrt is the sample's own CDF; the stretched one peaks its gap in the last block.
        for law in (np.sqrt, lambda v: np.sqrt(np.minimum(v * 1.01, 1.0))):
            sizes = []

            def cdf(v):
                sizes.append(v.size)
                return law(v)

            f = law(x)
            whole = max(np.max(i / n - f), np.max(f - (i - 1) / n))
            assert ks_statistic(x, cdf) == whole
            # ``cdf`` sees consecutive slices of at most one block each.
            assert sizes == [min(_BLOCK, n - start) for start in range(0, n, _BLOCK)]

    @pytest.mark.parametrize("bad, message", [(np.nan, "^samples must be finite$"), (0.0, "sorted")])
    def test_bad_sample_in_last_block_raises_before_any_cdf_call(self, bad, message):
        x = np.linspace(0.1, 0.9, 100_001)
        x[-1] = bad
        calls = []
        with pytest.raises(ValueError, match=message):
            ks_statistic(x, lambda v: calls.append(v.size) or v)
        assert calls == []

    def test_non_finite_cdf_value_in_last_block_raises(self):
        x = np.linspace(0.1, 0.9, 100_001)
        with pytest.raises(ValueError, match="^CDF values must be finite$"):
            ks_statistic(x, lambda v: np.where(v == 0.9, np.nan, v))

    def test_critical_value_formula(self):
        assert ks_critical(100_000) == pytest.approx(1.36 / np.sqrt(100_000))
        with pytest.raises(ValueError):
            ks_critical(4)


class TestConvergenceSlope:
    def test_exact_power_laws(self):
        n = np.array([8.0, 16.0, 32.0, 64.0])
        assert convergence_slope(np.c_[n, 3.0 / n]) == pytest.approx(-1.0, abs=1e-6)
        assert convergence_slope(np.c_[n, 3.0 / n**2]) == pytest.approx(-2.0, abs=1e-6)
        assert convergence_slope(np.c_[n, np.full(4, 0.7)]) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_input(self):
        n = np.array([8.0, 16.0, 32.0])
        with pytest.raises(ValueError):
            convergence_slope(np.c_[n, 1.0 / n])  # too few points
        with pytest.raises(ValueError):
            convergence_slope(np.array([[8.0, 0.0], [16.0, 1.0], [32.0, 1.0], [64.0, 1.0]]))
        with pytest.raises(ValueError, match="positive"):
            convergence_slope(np.array([[8.0, 1.0], [16.0, np.nan], [32.0, 1.0], [64.0, 1.0]]))
        # An infinite error passes a positivity check; a NaN count must fail too.
        infinite_error = [[8, 1], [16, np.inf], [32, 1], [64, 1]]
        for pairs in (infinite_error, [[8, 1], [np.nan, 1], [32, 1], [64, 1]]):
            with pytest.raises(ValueError, match="finite"):
                convergence_slope(pairs)
