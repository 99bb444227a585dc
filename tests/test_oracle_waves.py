"""The oracle's refinement waves against the loop they replaced, one round per pass.

``one_round_refine`` is that loop: each round tabulates every unsettled ray and
runs one engine pass over them.  The waves must give the same values, settle
the same rays and raise the same error with the same partial, bit for bit,
also when a round past a ray's settling round fails.
"""

import numpy as np
import pytest

from rayquad import (
    AnalyticField,
    ConstantSlab,
    GaussianBump,
    IntegrationResult,
    LogisticStep,
    NoConvergenceError,
    RaySegment,
    UniformColor,
    fixtures,
    oracle,
    true_interval_probabilities,
    true_mean_termination,
    true_render,
    true_render_batch,
)
from rayquad.cli import _RENDER_TOL, main
from rayquad.fields import GradientColor, TwoToneColor

from test_oracle import _render_command_rays, _rows, _UnresolvedCusp

RENDER_SEGMENT = RaySegment(0.0, 4.0)


def one_round_refine(densities, segment, tol, run_pass, ids):
    """``oracle._refine_until_stable`` run one round per engine pass."""
    base, exact = oracle._base(densities[0], segment), oracle._is_exact_class(densities[0])
    values, live = {}, list(range(len(ids)))
    for round_ in range(9):
        rows = oracle._tabulate([densities[p] for p in live], segment, base, 64 << round_)
        results = run_pass([ids[p] for p in live], oracle._nest([rows], [np.arange(len(live))]))
        failed = [result for result in results if isinstance(result, NoConvergenceError)]
        if failed:
            raise failed[0]
        unsettled = []
        for p, (value, err, evals) in zip(live, results):
            settled = np.max(np.abs(value - values[p])) <= 3.0 * tol if round_ else exact
            values[p] = value
            if not settled:
                unsettled.append((p, err, evals))
        live = [p for p, *_ in unsettled]
        if not live:
            return np.array([values[p] for p in range(len(ids))])
    p, err, evals = unsettled[0]
    raise NoConvergenceError(
        f"cumulative opacity tabulation did not stabilize for ray {ids[p]}",
        partial=IntegrationResult(float(values[p][0]), err, evals),
    )


def outcome(call):
    """What ``call()`` gives: its values as a list, or its error's type, message and partial."""
    try:
        return np.asarray(call()).tolist()
    except (NoConvergenceError, ValueError) as err:
        return type(err), str(err), getattr(err, "partial", None)


def assert_waves_match_one_round(monkeypatch, call):
    """``call()`` gives the same outcome in waves as one round at a time; returns it."""
    waves = outcome(call)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_refine_until_stable", one_round_refine)
        assert outcome(call) == waves
    return waves


def convergence(tol):
    return lambda: true_render(fixtures.convergence_scene(), fixtures.CONVERGENCE_SEGMENT, tol)


def shift(tol):
    return lambda: true_mean_termination(fixtures.shift_scene(), fixtures.SHIFT_SEGMENT, tol)


def render_batch(rays):
    return lambda: true_render_batch(rays, RENDER_SEGMENT, _RENDER_TOL)


def count_engine_calls(monkeypatch):
    calls = []
    engine = oracle._adaptive_simpson
    monkeypatch.setattr(oracle, "_adaptive_simpson", lambda *args: calls.append(1) or engine(*args))
    return calls


class TestWavesEqualOneRoundAtATime:
    def test_render_command_rays(self, monkeypatch):
        rays = _render_command_rays()
        assert_waves_match_one_round(monkeypatch, render_batch(rays))

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("call", [convergence, shift], ids=["convergence", "shift"])
    def test_paper_scenes(self, monkeypatch, call, tol):
        assert_waves_match_one_round(monkeypatch, call(tol))

    @pytest.mark.parametrize(
        "field",
        [
            AnalyticField(
                GaussianBump(3.0, 0.6, 0.25),
                GradientColor(np.array([0.1, 0.5, 0.9]), np.array([0.9, 0.2, 0.4]), 0.3, 1.5),
            ),
            AnalyticField(ConstantSlab(2.0, 1.0, 3.0), UniformColor(np.array([0.7]))),
            # The color breakpoint splits the render base; the table base stays whole.
            AnalyticField(
                LogisticStep(10.0, 40.0, 1.3), TwoToneColor(np.array([0.2]), np.array([0.8]), 2.1)
            ),
        ],
        ids=["three-channel", "exact-class", "color-breakpoint"],
    )
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_fields(self, monkeypatch, field, tol):
        for call in (true_render, true_mean_termination):
            assert_waves_match_one_round(monkeypatch, lambda: call(field, RENDER_SEGMENT, tol))

    def test_field_that_never_stabilizes(self, monkeypatch):
        field, segment = AnalyticField(_UnresolvedCusp(), UniformColor(np.array([0.5]))), RaySegment(0.0, 2.0)
        kind, message, partial = assert_waves_match_one_round(
            monkeypatch, lambda: true_render(field, segment, 1e-10)
        )
        assert kind is NoConvergenceError and message.endswith("did not stabilize for ray 0")
        assert partial.evaluations > 3
        batch = [_render_command_rays()[5], field, AnalyticField(GaussianBump(1.0, 2.0, 0.5)), field]
        _, message, _ = assert_waves_match_one_round(
            monkeypatch, lambda: true_render_batch(batch, segment, 1e-10)
        )
        assert message.endswith("for ray 1")


def fail_from(monkeypatch, n_sub):
    """Make the engine report a depth-limit failure on every task of a table row
    with at least ``n_sub`` sub-panels per base panel: a count, or a function of
    the row's field giving one."""
    render_rays, engine, pending = oracle._render_rays, oracle._adaptive_simpson, []

    def tracked(fields, segment, rows, bases, tol, weight=None, ids=None):
        wave = oracle._as_wave(rows)
        tasks = [fields[0].color.channels * (bases[r].size - 1) for r in wave.ray]
        limits = [n_sub(fields[r]) if callable(n_sub) else n_sub for r in wave.ray]
        pending.append(np.repeat((wave.n_sub >> wave.shift) >= limits, tasks))
        return render_rays(fields, segment, rows, bases, tol, weight, ids)

    def failing(f, a, b, tol):
        value, error, evals, failed = engine(f, a, b, tol)
        return value, error, evals, failed | pending.pop()

    monkeypatch.setattr(oracle, "_render_rays", tracked)
    monkeypatch.setattr(oracle, "_adaptive_simpson", failing)


def refuse_tables_from(monkeypatch, n_sub):
    """Make every table of at least ``n_sub`` sub-panels per base panel fail to build."""
    tabulate = oracle._tabulate

    def refusing(densities, segment, base, n):
        if n >= n_sub:
            raise ValueError(f"no table at {n} sub-panels")
        return tabulate(densities, segment, base, n)

    monkeypatch.setattr(oracle, "_tabulate", refusing)


def edit_tables_at(monkeypatch, n_sub, edit):
    """Pass every table of ``n_sub`` sub-panels per base panel through ``edit``."""
    tabulate = oracle._tabulate

    def edited(densities, segment, base, n):
        rows = tabulate(densities, segment, base, n)
        return edit(rows) if n == n_sub else rows

    monkeypatch.setattr(oracle, "_tabulate", edited)


def drift(monkeypatch, target):
    """Add ``3**-k`` to the value of each round-``k`` table row of the ray of field
    ``target``: its differences fall threefold per round, so a wave predicts it
    settles past round 8, and it is still unsettled there."""
    render_rays = oracle._render_rays

    def drifting(fields, segment, rows, bases, tol, weight=None, ids=None):
        wave = oracle._as_wave(rows)
        results = render_rays(fields, segment, rows, bases, tol, weight, ids)
        rounds = [(wave.n_sub >> s).bit_length() - 7 for s in wave.shift.tolist()]
        return [
            (value + 3.0**-k, err, evals) if fields[r] is target else (value, err, evals)
            for (value, err, evals), r, k in zip(results, wave.ray.tolist(), rounds)
        ]

    monkeypatch.setattr(oracle, "_render_rays", drifting)


BREAKS = [fail_from, refuse_tables_from]


class TestRoundsPastSettling:
    """Wave 1 runs rounds 0 to 2.  At 1e-6 the paper scenes settle at round 1, so
    their round 2 is past settling; at 1e-10 they need it."""

    @pytest.mark.parametrize("call", [convergence, shift], ids=["convergence", "shift"])
    @pytest.mark.parametrize("break_round", BREAKS, ids=["depth-limit", "no-table"])
    def test_failure_past_settling_is_harmless(self, monkeypatch, call, break_round):
        value = outcome(call(1e-6))
        break_round(monkeypatch, 256)
        assert assert_waves_match_one_round(monkeypatch, call(1e-6)) == value

    @pytest.mark.parametrize("call", [convergence, shift], ids=["convergence", "shift"])
    @pytest.mark.parametrize("break_round", BREAKS, ids=["depth-limit", "no-table"])
    def test_first_reached_failure_raises(self, monkeypatch, call, break_round):
        break_round(monkeypatch, 256)
        kind, message, partial = assert_waves_match_one_round(monkeypatch, call(1e-10))
        if break_round is fail_from:
            assert kind is NoConvergenceError and "did not converge for ray 0" in message
            assert partial.evaluations > 3
        else:
            assert (kind, message, partial) == (ValueError, "no table at 256 sub-panels", None)

    @pytest.mark.parametrize("n_sub", [128, 256, 512])
    def test_render_rays_fail_from_a_round(self, monkeypatch, n_sub):
        # 17 of the 96 rays settle at round 1 and the rest at round 2.
        rays = _render_command_rays()
        values = outcome(render_batch(rays))
        fail_from(monkeypatch, n_sub)
        got = assert_waves_match_one_round(monkeypatch, render_batch(rays))
        assert (got == values) == (n_sub == 512)

    def test_earlier_round_fails_first_across_rays(self, monkeypatch):
        # Ray 1 fails from round 2 and ray 2 from round 1, so ray 2's failure is met
        # first; ray 0 settles at round 1, before its failing round 2.
        rays = _render_command_rays()
        batch = [rays[0], rays[20], rays[40]]
        first_failing = {id(rays[0]): 256, id(rays[20]): 256, id(rays[40]): 128}
        fail_from(monkeypatch, lambda field: first_failing[id(field)])
        kind, message, _ = assert_waves_match_one_round(monkeypatch, render_batch(batch))
        assert kind is NoConvergenceError and "did not converge for ray 2 " in message

    def test_narrow_segment_whose_round_2_table_cannot_be_built(self, monkeypatch):
        # On [1e15, 1e15 + 16], where the ulp is 0.125, 128 sub-panels fit and 256
        # collide.  The ray settles at round 1, so wave 1's round 2 must not raise.
        near = 1e15
        field, segment = AnalyticField(GaussianBump(1.0, near + 8.0, 100.0)), RaySegment(near, near + 16.0)
        with pytest.raises(ValueError, match="at 256 sub-panels"):
            oracle._tabulate([field.density], segment, np.array([near, near + 16.0]), 256)
        got = assert_waves_match_one_round(monkeypatch, lambda: true_render(field, segment, 1e-6))
        assert not isinstance(got, tuple)

    def test_edges_that_do_not_nest_replay(self, monkeypatch):
        # Round 2's third edge, round 1's second, moved by one ulp: round 2 cannot
        # share the coarser rounds' search, so wave 1 is dropped before its pass.
        def moved(rows):
            edges = rows.edges.copy()
            edges[2] = np.nextafter(edges[2], np.inf)
            return rows._replace(edges=edges)

        edit_tables_at(monkeypatch, 256, moved)
        calls = count_engine_calls(monkeypatch)
        outcome(convergence(1e-10))
        assert len(calls) == 4  # rounds 0, 1, 2 and 3, one per pass
        assert_waves_match_one_round(monkeypatch, convergence(1e-10))

    def test_non_finite_row_past_settling_replays(self, monkeypatch):
        edit_tables_at(monkeypatch, 256, lambda rows: rows._replace(a2=np.full_like(rows.a2, np.nan)))
        calls = count_engine_calls(monkeypatch)
        outcome(convergence(1e-6))
        # Rounds 0-2 raise and are dropped; round 0, then round 1, which settles.
        assert len(calls) == 3
        for call in (convergence(1e-6), convergence(1e-10)):
            assert_waves_match_one_round(monkeypatch, call)
        kind, message, _ = outcome(convergence(1e-10))
        assert kind is ValueError and message.startswith("integrand is not finite at ")

    def test_dropped_wave_changes_no_ray(self, monkeypatch):
        # Wave 2 runs rounds 3 to 8 of all four rays: rays 0, 1 and 3 settle at
        # round 6 and ray 2 is unsettled at round 8, so the wave is dropped.  Had
        # ray 2 kept that wave's round-8 value, its replayed round 8 would settle.
        batch = [
            AnalyticField(LogisticStep(10.0, 40.0, c), UniformColor(np.array([0.5])))
            for c in (0.5, 1.0, 1.3, 2.5)
        ]
        drift(monkeypatch, batch[2])
        plans = []
        wave_tables = oracle._wave_tables
        monkeypatch.setattr(
            oracle, "_wave_tables", lambda *args: plans.append(dict(args[-1])) or wave_tables(*args)
        )
        kind, message, _ = assert_waves_match_one_round(
            monkeypatch, lambda: true_render_batch(batch, RENDER_SEGMENT, 1e-10)
        )
        assert kind is NoConvergenceError and message.endswith("did not stabilize for ray 2")
        assert plans[1] == dict.fromkeys(range(4), (3, 8))
        assert plans[2] == dict.fromkeys(range(4), (3, 3))


class TestWaveStructure:
    @pytest.mark.parametrize("command, most", [("convergence", 2), ("depth", 2), ("render", 1)])
    def test_engine_calls_at_command_defaults(self, monkeypatch, tmp_path, command, most):
        # One engine call per round before the waves: 4, 5 and 3.
        calls = count_engine_calls(monkeypatch)
        assert main([command, "--out", str(tmp_path)]) == 0
        assert 0 < len(calls) <= most

    def test_predicted_rounds(self):
        # Fewer than two differences: up to round 2.  Then rounds until the last
        # difference, falling at its last rate, reaches 3 * tol, and one round below rate 2.
        assert oracle._wave_end(1, [1.0], 1e-10) == 2
        assert oracle._wave_end(3, [6.84e-8, 4.27e-9], 1e-10) == 3
        assert oracle._wave_end(3, [1.03e-7, 6.47e-9], 1e-10) == 4
        assert oracle._wave_end(5, [1.0, 0.6], 1e-10) == 5
        assert oracle._wave_end(3, [1.0, 0.5], 1e-10) == 8


class TestNestedEdges:
    """A doubled table's edges taken every other one are the coarser table's, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_doubled_edges_nest(self, seed):
        rng = np.random.default_rng(seed)
        density = GaussianBump(1.0, 0.0, 1.0)
        for _ in range(25):
            scale = 10.0 ** rng.uniform(-12, 15)
            base = np.unique(rng.uniform(0.0, scale, rng.integers(2, 6)))
            tables = [
                oracle._tabulate([density], RaySegment(base[0], base[-1]), base, 64 << k)
                for k in range(0, 7, 3)
            ]
            finest = tables[-1].edges
            for k, table in zip(range(0, 7, 3), tables):
                assert np.array_equal(finest[:: 1 << (6 - k)], table.edges)

    def test_wave_rows_equal_their_own_tables(self):
        # Each row of a wave over rounds 0-2 evaluates as its own table does, bit for bit.
        densities = [LogisticStep(10.0, 40.0, c) for c in (0.5, 1.0, 2.5)]
        tables = [_rows(densities[: 3 - k], RENDER_SEGMENT, 64 << k) for k in range(3)]
        wave = oracle._nest(tables, [np.arange(3 - k) for k in range(3)])
        edges = tables[-1].edges
        x = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [-1.0, 5.0, np.nan]]
        )
        cumulative = oracle._flat_cumulative(wave)
        row = 0
        for k, table in enumerate(tables):
            alone = oracle._flat_cumulative(table)
            for i in range(table.d0.shape[0]):
                got, want = cumulative(x, np.full(x.size, row)), alone(x, i)
                assert np.array_equal(got, want, equal_nan=True), (k, i)
                assert wave.far[row] == table.cumulative[i, -1]
                row += 1


class TestTooNarrowToTabulate:
    def test_mean_termination_on_a_narrow_segment_raises(self):
        segment = RaySegment(1e15, 1.000000000000001e15)
        message = r"cannot tabulate \[1000000000000000.0, 1000000000000001.0\] at 64 sub-panels"
        with pytest.raises(ValueError, match=message):
            true_mean_termination(fixtures.shift_scene(), segment)

    def test_interval_probabilities_on_edges_one_ulp_apart_raise(self):
        edges = np.array([0.0, 1.0, np.nextafter(1.0, 2.0), 2.0])
        with pytest.raises(ValueError, match=r"collide in base panel \[1.0, 1.0000000000000002\]"):
            true_interval_probabilities(fixtures.convergence_scene(), RaySegment(0.0, 2.0), edges)
