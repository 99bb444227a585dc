import numpy as np
import pytest
from hypothesis import given, strategies as st

from rayquad import (
    EPS_OPACITY,
    OPAQUE,
    ColorTrace,
    FarConvention,
    OpacityTrace,
    RaySegment,
    SampleGrid,
    apply_far_convention,
    floor_opacity,
    make_uniform_grid,
)
from rayquad.quadrature import RayDistribution
from rayquad.rays import _BLOCK, _FEW_EDGES, _Adopted, _interval

from conftest import hand_distribution


class TestRaySegment:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            RaySegment(1.0, 1.0)

    def test_rejects_reversed_and_nonfinite(self):
        with pytest.raises(ValueError):
            RaySegment(2.0, 1.0)
        with pytest.raises(ValueError):
            RaySegment(0.0, np.inf)
        with pytest.raises(ValueError):
            RaySegment(-0.5, 1.0)


class TestUniformGrid:
    def test_equal_spacing(self):
        grid = make_uniform_grid(RaySegment(0.0, 4.0), 3)
        np.testing.assert_allclose(grid.interior, [1.0, 2.0, 3.0])

    def test_single_sample_is_midpoint(self):
        grid = make_uniform_grid(RaySegment(0.0, 1.0), 1)
        np.testing.assert_allclose(grid.interior, [0.5])

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_grid(RaySegment(0.0, 1.0), 0)

    def test_too_narrow_segment_names_itself_and_n(self):
        # Neighbouring points of a grid on [1e15, 1e15 + 1] round onto one float.
        message = r"segment \[1000000000000000.0, 1000000000000001.0\] is too narrow for n=8 "
        with pytest.raises(ValueError, match=message):
            make_uniform_grid(RaySegment(1e15, 1.000000000000001e15), 8)
        assert make_uniform_grid(RaySegment(1e15, 1.000000000000001e15), 1).interior.tolist() == [1e15 + 0.5]

    def test_points_include_bounds(self):
        grid = make_uniform_grid(RaySegment(0.5, 2.5), 3)
        assert grid.points[0] == 0.5 and grid.points[-1] == 2.5
        assert grid.n == 3 and grid.widths.size == 4


class TestGridArrays:
    def test_points_built_once_and_read_only(self):
        grid = SampleGrid([0.5, 1.0, 1.75], RaySegment(0.25, 2.0))
        assert grid.points is grid.points
        np.testing.assert_array_equal(grid.points, [0.25, 0.5, 1.0, 1.75, 2.0])
        np.testing.assert_array_equal(grid.interior, grid.points[1:-1])
        np.testing.assert_array_equal(grid.widths, np.diff(grid.points))
        for arr in (grid.points, grid.interior, grid.widths):
            assert arr.dtype == np.float64
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_interior_copied_from_caller(self):
        interior = np.array([1.0, 2.0])
        grid = SampleGrid(interior, RaySegment(0.0, 3.0))
        interior[0] = 1.5
        assert grid.interior[0] == 1.0


SEGMENT = RaySegment(0.0, 2.0)


class TestAdoptPath:
    """A library-built array is stored frozen in place, not copied, and
    meets the same checks as a caller's array."""

    def test_stored_in_place_and_frozen(self):
        values = np.array([0.5, 1.0, 2.0])
        points = np.array([9.0, 0.5, 1.5, 9.0])
        trace = OpacityTrace(_Adopted(values))
        grid = SampleGrid(_Adopted(points), SEGMENT)
        assert trace.values is values and grid.points is points
        np.testing.assert_array_equal(points, [0.0, 0.5, 1.5, 2.0])
        for arr in (values, points):
            assert not arr.flags.writeable

    @pytest.mark.parametrize(
        "build",
        [
            lambda: OpacityTrace(_Adopted(np.array([0.5, np.nan, 2.0]))),
            lambda: OpacityTrace(_Adopted(np.array([0.5, 1.0]))),
            lambda: SampleGrid(_Adopted(np.array([0.0, 1.5, 0.5, 0.0])), SEGMENT),
            lambda: SampleGrid(_Adopted(np.array([0.0, np.nan, 0.0])), SEGMENT),
            lambda: SampleGrid(_Adopted(np.zeros(2)), SEGMENT),
            lambda: hand_distribution(None, [0.0, -np.inf], [1.0, 0.0], [1.0], [0.0, 1.0]),
        ],
        ids=["trace-nan", "trace-short", "grid-order", "grid-nan", "grid-empty", "dist-inf"],
    )
    def test_checks_still_run(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("adopted", [(), ("pmf",)], ids=["caller", "mixed"])
    def test_distribution_refuses_caller_arrays(self, adopted):
        # Only ``interval_pmf`` makes a distribution, so a caller's arrays,
        # here a pmf with a negative entry, never pass for a probability.
        names = ("log_transmittance", "transmittance", "pmf", "cumulative")
        arrays = (np.zeros(3), np.ones(3), np.array([2.0, -1.0]), np.array([0.0, 2.0, 1.0]))
        fields = {n: _Adopted(a) if n in adopted else a for n, a in zip(names, arrays)}
        with pytest.raises(TypeError, match="interval_pmf"):
            RayDistribution(**fields, grid=None)


class TestGridValidation:
    def test_rejects_non_increasing(self):
        seg = RaySegment(0.0, 2.0)
        with pytest.raises(ValueError):
            SampleGrid(np.array([0.5, 0.5]), seg)
        with pytest.raises(ValueError):
            SampleGrid(np.array([1.5, 1.0]), seg)

    def test_rejects_samples_on_bounds(self):
        seg = RaySegment(0.0, 2.0)
        with pytest.raises(ValueError):
            SampleGrid(np.array([0.0, 1.0]), seg)
        with pytest.raises(ValueError):
            SampleGrid(np.array([1.0, 2.0]), seg)

    def test_accepted_grid_strictly_increasing_everywhere(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 20))
            interior = np.sort(rng.uniform(0.01, 1.99, n))
            if np.any(np.diff(interior) <= 0):
                continue
            grid = SampleGrid(interior, RaySegment(0.0, 2.0))
            assert np.all(np.diff(grid.points) > 0)


class TestFloorOpacity:
    def test_floors_interior_only(self):
        trace = OpacityTrace(np.array([0.0, 0.0, 5.0, 0.0]))
        out = floor_opacity(trace)
        np.testing.assert_array_equal(out.interior, [EPS_OPACITY, 5.0])
        assert out.values[0] == 0.0 and out.values[-1] == 0.0

    def test_identity_when_already_floored(self):
        trace = OpacityTrace(np.array([0.0, 0.5, 5.0, 0.0]))
        np.testing.assert_array_equal(floor_opacity(trace).values, trace.values)

    def test_negative_interior_clamped(self):
        out = floor_opacity(OpacityTrace(np.array([0.0, -3.0, 1.0, 0.0])))
        assert out.interior[0] == EPS_OPACITY

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=3,
            max_size=12,
        )
    )
    def test_idempotent(self, values):
        once = floor_opacity(OpacityTrace(np.array(values)))
        twice = floor_opacity(once)
        np.testing.assert_array_equal(once.values, twice.values)


class TestFarConvention:
    def test_opaque_far_overrides_bounds(self):
        trace = OpacityTrace(np.array([2.0, 3.0, 4.0, 5.0]))
        out = apply_far_convention(trace, FarConvention.OPAQUE_FAR)
        assert out.values[0] == 0.0
        assert out.values[-1] == OPAQUE
        np.testing.assert_array_equal(out.values[1:-1], [3.0, 4.0])

    @pytest.mark.parametrize("convention", ["bogus", None, "opaque_far"])
    def test_rejects_anything_but_opaque_far(self, convention):
        trace = OpacityTrace(np.array([0.5, 1.0, 2.0]))
        with pytest.raises(ValueError, match="far convention"):
            apply_far_convention(trace, convention)


class TestColorTrace:
    def test_rejects_out_of_range_channels(self):
        with pytest.raises(ValueError):
            ColorTrace(np.array([[0.5], [1.5]]))
        with pytest.raises(ValueError):
            ColorTrace(np.array([[-0.1], [0.5]]))

    def test_scalar_colors_get_channel_axis(self):
        trace = ColorTrace(np.array([0.25, 0.75]))
        assert trace.values.shape == (2, 1)
        assert trace.channels == 1

    def test_grid_needs_one_interval_per_color(self):
        grid = make_uniform_grid(RaySegment(0.0, 1.0), 2)
        assert ColorTrace([0.1, 0.2, 0.3]).grid is None
        assert ColorTrace([0.1, 0.2, 0.3], grid).grid is grid
        for bad in (make_uniform_grid(RaySegment(0.0, 1.0), 3), grid.points):
            with pytest.raises(ValueError, match="^ColorTrace.grid must be a SampleGrid of 2 samples$"):
                ColorTrace([0.1, 0.2, 0.3], bad)


def _probe_points(edges):
    """Every edge, one ulp either side of it, points past both ends, and a
    spread of points in between."""
    pad = 1.0 + np.abs(edges).max()
    return np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [edges[0] - pad, edges[-1] + pad, -np.inf, np.inf],
            np.linspace(edges[0] - 0.1, edges[-1] + 0.1, 101),
        ]
    )


class TestIntervalLocator:
    """``_interval`` equals the formulas it replaced, bit for bit."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_formulas_it_replaced(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 24))
        # Drawn from a few values with replacement, so most arrays repeat an
        # edge: the zero-mass bins of a cumulative.
        pool = rng.uniform(-2.0, 3.0, int(rng.integers(1, size + 1)))
        edges = np.sort(rng.choice(pool, size))
        x = _probe_points(edges)
        got = _interval(edges, x)
        # Grids, knots and table edges: one search minus one, clipped to the ends.
        clipped = np.clip(np.searchsorted(edges, x, "right") - 1, 0, edges.size - 2)
        # Cumulatives: a search past the first value, capped at the last interval.
        capped = np.minimum(np.searchsorted(edges[1:], x, "right"), edges.size - 2)
        assert np.array_equal(got, clipped)
        assert np.array_equal(got, capped)

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_equal_one_row_searches(self, seed):
        # Rows repeat edges (ties) and hold points on, beside and past them.
        rng = np.random.default_rng(seed)
        pool = rng.uniform(-2.0, 3.0, 5)
        edges = np.sort(rng.choice(pool, (4, 9)), axis=1)
        x = np.stack([rng.permutation(_probe_points(row))[:40] for row in edges])
        got = _interval(edges, x)
        assert got.shape == x.shape
        for row, (row_edges, row_x) in enumerate(zip(edges, x)):
            assert np.array_equal(got[row], _interval(row_edges, row_x))

    # Interior-edge counts either side of the runs' limit, and point counts either
    # side of their least size: each run holds exactly the points the search
    # places in its interval.
    @pytest.mark.parametrize("inner", range(1, 17))
    def test_count_path_equals_search(self, inner):
        assert 1 <= _FEW_EDGES < 16
        rng = np.random.default_rng(inner)
        # Few values drawn with replacement: most rows repeat an edge.
        pool = rng.uniform(-2.0, 3.0, max(2, inner // 2))
        edges = np.sort(rng.choice(pool, inner + 2))
        for size in (_BLOCK - 1, _BLOCK, 3 * _BLOCK):
            # On, beside and past the edges, and both infinities, in order.
            x = np.sort(np.resize(_probe_points(edges), size))
            want = edges[1:-1].searchsorted(x, side="right")
            got = _interval(edges, x, runs=True)
            if inner <= _FEW_EDGES and size >= _BLOCK:
                ks = [k for k, _ in got]
                assert ks == sorted(set(ks))
                # Nonempty runs that tile the points in order.
                bounds = [(run.start, run.stop) for _, run in got]
                assert all(a < b for a, b in bounds)
                assert [a for a, _ in bounds] == [0, *(b for _, b in bounds[:-1])]
                assert bounds[-1][1] == size
                for k, run in got:
                    assert (want[run] == k).all()
            else:
                assert got.dtype == np.intp
                assert np.array_equal(got, want)
            # NaN, unsorted or 2-D input falls back to an index array.
            nan = np.sort(np.append(x[1:], np.nan))
            for other in (nan, rng.permutation(x), x[None, :]):
                got = _interval(edges, other, runs=True)
                assert isinstance(got, np.ndarray) and got.dtype == np.intp
                assert np.array_equal(got, edges[1:-1].searchsorted(other, side="right"))

    def test_edge_rule(self):
        edges = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        x = [-5.0, 0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, 2.0, 3.0, 7.0]
        # On an edge: the last interval starting there; past an end: that end's.
        assert _interval(edges, np.array(x)).tolist() == [0, 0, 0, 0, 2, 3, 3, 3]
        assert _interval(edges, 1.0) == 2
