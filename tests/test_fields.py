import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from rayquad import (
    EPS_OPACITY,
    OPAQUE,
    AnalyticField,
    ConstantSlab,
    GaussianBump,
    GradientColor,
    GrazingRig,
    LinearRamp,
    LogisticStep,
    RaySegment,
    SampleGrid,
    TwoToneColor,
    UniformColor,
    apply_far_convention,
    floor_opacity,
    load_scene,
    make_uniform_grid,
    opaque_trace,
    sample_field,
    shift_sweep,
)
from rayquad.fields import (
    _GATHERABLE,
    ColorProfile,
    DensityProfile,
    PiecewiseConstantColor,
    SampledDensity,
    _by_ray,
    _gather,
    _stack,
    _trace_rows,
)
from rayquad.rays import FarConvention


class TestDensityProfiles:
    def test_slab_indicator(self):
        slab = ConstantSlab(2.0, 1.0, 3.0)
        assert slab.tau(2.0) == 2.0
        assert slab.tau(0.5) == 0.0
        np.testing.assert_array_equal(slab.tau(np.array([0.0, 1.0, 3.0, 4.0])), [0, 2, 2, 0])

    def test_logistic_midpoint_is_half_amplitude(self):
        step = LogisticStep(10.0, 40.0, 1.0)
        assert step.tau(1.0) == pytest.approx(5.0)

    def test_gaussian_peak(self):
        bump = GaussianBump(3.0, 1.0, 0.2)
        assert bump.tau(1.0) == pytest.approx(3.0)

    def test_ramp_clamps_outside_range(self):
        ramp = LinearRamp(1.0, 3.0, 0.0, 1.0)
        assert ramp.tau(-1.0) == 1.0
        assert ramp.tau(2.0) == 3.0
        assert ramp.tau(0.5) == pytest.approx(2.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GaussianBump(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            LogisticStep(1.0, -3.0, 0.0)
        with pytest.raises(ValueError):
            ConstantSlab(-1.0, 0.0, 1.0)


class TestSampleField:
    def test_slab_interior_constant(self):
        field = AnalyticField(ConstantSlab(2.0, 0.0, 4.0))
        grid = make_uniform_grid(RaySegment(0.5, 3.5), 5)
        tau, _ = sample_field(field, grid)
        assert np.all(tau.values == 2.0)

    def test_refinement_keeps_original_samples(self):
        field = AnalyticField(LogisticStep(10.0, 40.0, 1.0))
        seg = RaySegment(0.0, 2.0)
        coarse = make_uniform_grid(seg, 3)
        fine = make_uniform_grid(seg, 7)  # contains the coarse points
        tau_c, _ = sample_field(field, coarse)
        tau_f, _ = sample_field(field, fine)
        np.testing.assert_array_equal(tau_f.values[::2][1:-1], tau_c.values[1:-1])

    def test_logistic_trace_nondecreasing(self):
        field = AnalyticField(LogisticStep(10.0, 40.0, 1.0))
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 17)
        tau, _ = sample_field(field, grid)
        assert np.all(np.diff(tau.values) >= 0)

    def test_left_sample_color_convention(self):
        field = AnalyticField(
            ConstantSlab(1.0, 0.0, 2.0),
            GradientColor(np.array([0.0]), np.array([1.0]), 0.0, 2.0),
        )
        grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
        _, colors = sample_field(field, grid)
        np.testing.assert_allclose(colors.values[:, 0], [0.0, 0.5])


class TestOpaqueTrace:
    def test_floors_interior_and_closes_far_plane(self):
        field = AnalyticField(
            ConstantSlab(2.0, 1.0, 3.0),
            GradientColor(np.array([0.0]), np.array([1.0]), 0.0, 2.0),
        )
        grid = SampleGrid(np.array([0.5, 1.0, 1.5]), RaySegment(0.0, 2.0))
        tau, colors = opaque_trace(field, grid)
        np.testing.assert_array_equal(tau.values, [0.0, EPS_OPACITY, 2.0, 2.0, OPAQUE])
        np.testing.assert_array_equal(colors.values, sample_field(field, grid)[1].values)


class TestShiftedGrid:
    field = AnalyticField(LogisticStep(10.0, 40.0, 1.0))
    segment = RaySegment(0.0, 2.0)
    # One ulp at 1e15 is 0.125, so the grid's gaps there round to multiples of it.
    far_field = AnalyticField(LogisticStep(10.0, 40.0, 1e15 + 0.5))
    far_segment = RaySegment(1e15, 1e15 + 1)

    def test_zero_offset_is_identity(self):
        shifts, points, _, _ = shift_sweep(self.field, self.segment, 7, 1)
        assert shifts.tolist() == [0.0]
        assert np.array_equal(points[0], make_uniform_grid(self.segment, 7).points)

    def test_half_gap_gives_midpoints(self):
        shifts, points, _, _ = shift_sweep(self.field, self.segment, 3, 2)
        assert shifts.tolist() == [0.0, 0.25]  # half of the gap 0.5
        assert np.array_equal(points[1, 1:-1], make_uniform_grid(self.segment, 3).interior + 0.25)
        assert (points[1, 0], points[1, -1]) == (0.0, 2.0)

    def test_sweep_produces_distinct_valid_grids(self):
        _, points, _, _ = shift_sweep(self.field, self.segment, 31, 32)
        assert np.all(np.diff(points, axis=1) > 0)
        assert len({round(float(row[1]), 15) for row in points}) == 32

    def test_rejects_out_of_range_offsets(self):
        # Shifts step by 1 / 7 / 32; the 29th, 28 / 224 = 0.125, reaches the least gap.
        with pytest.raises(ValueError, match=r"^offset 0.125 outside \[0, min gap 0.125\)$"):
            shift_sweep(self.far_field, self.far_segment, 6, 32)

    def test_rejects_samples_pushed_onto_far_bound(self):
        with pytest.raises(ValueError, match="^shifted samples must stay inside the segment$"):
            shift_sweep(self.far_field, self.far_segment, 3, 4)


class TestGrazingRig:
    def test_stretch_identity(self):
        rig = GrazingRig(
            wall_amplitude=10.0, wall_steepness=40.0, wall_depth=1.0,
            angles=np.array([np.pi / 6, np.pi / 2]),
        )
        wall = LogisticStep(10.0, 40.0, 1.0)
        s = np.linspace(0.0, 4.0, 64)
        for angle in rig.angles:
            ray = rig.ray_field(float(angle), offset=0.2)
            depth = 0.2 + s * np.sin(angle)
            np.testing.assert_allclose(ray.density.tau(s), wall.tau(depth), rtol=1e-12)

    def test_perpendicular_ray_matches_wall_profile(self):
        rig = GrazingRig(10.0, 40.0, 1.0, angles=np.array([np.pi / 2]))
        ray = rig.ray_field(np.pi / 2)
        wall = LogisticStep(10.0, 40.0, 1.0)
        s = np.linspace(0.0, 3.0, 32)
        np.testing.assert_allclose(ray.density.tau(s), wall.tau(s), rtol=1e-12)

    def test_rejects_empty_or_invalid_angles(self):
        with pytest.raises(ValueError):
            GrazingRig(1.0, 1.0, 1.0, angles=np.array([]))
        with pytest.raises(ValueError):
            GrazingRig(1.0, 1.0, 1.0, angles=np.array([0.0]))

    @pytest.mark.parametrize("angle", [np.pi, 3.0, 0.0, -0.1, np.nan])
    def test_ray_field_rejects_angles_outside_the_rig_range(self, angle):
        rig = GrazingRig(10.0, 40.0, 1.0, angles=np.array([0.5]))
        with pytest.raises(ValueError, match="outside"):
            rig.ray_field(angle)

    @pytest.mark.parametrize("offset", [1e308, -1e308, np.float64(-1e308)], ids=["max", "min", "min64"])
    def test_ray_field_names_an_offset_that_overflows_the_center(self, offset):
        # Finite on its own, but divided by sin(0.001) the center overflows.
        rig = GrazingRig(10.0, 40.0, 1.0, angles=np.array([0.5]))
        with pytest.raises(ValueError, match=r"^offset=.*1e\+308\)? overflows the wall center at angle=0\.001$") as err:
            rig.ray_field(0.001, offset)
        assert "LogisticStep" not in str(err.value)

    def test_ray_field_names_a_wall_steepness_that_underflows(self):
        rig = GrazingRig(10.0, 5e-324, 1.0, angles=np.array([0.5]))
        with pytest.raises(ValueError, match=r"^wall_steepness=5e-324 underflows at angle=0\.5$"):
            rig.ray_field(0.5)
        # A steepness that stays positive still builds the ray.
        assert GrazingRig(10.0, 1e-300, 1.0, angles=np.array([0.5])).ray_field(0.5).density.steepness > 0


class TestSampledDensity:
    def test_linear_interpolation(self):
        dens = SampledDensity(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
        assert dens.tau(0.5) == pytest.approx(1.0)

    def test_left_hold_for_degree_zero(self):
        dens = SampledDensity(
            np.array([0.0, 1.0, 2.0]), np.array([3.0, 5.0, 9.0]), degree=0
        )
        assert dens.tau(0.999) == 3.0
        assert dens.tau(1.0) == 5.0

    @pytest.mark.parametrize(
        "degree", [True, False, 1.0, 0.0, 2, np.int64(2)], ids=["True", "False", "1.0", "0.0", "2", "int64-2"]
    )
    def test_degree_must_be_int_zero_or_one(self, degree):
        with pytest.raises(ValueError, match="degree"):
            SampledDensity(np.array([0.0, 1.0]), np.array([1.0, 2.0]), degree=degree)

    @pytest.mark.parametrize("degree", [np.int64(1), np.int64(0), np.int16(1)], ids=["int64", "int64-0", "int16"])
    def test_numpy_integer_degree_is_accepted(self, degree):
        # Counts accept numpy integers everywhere (``rays._is_count``); a bool is no count.
        dens = SampledDensity(np.array([0.0, 1.0]), np.array([1.0, 2.0]), degree=degree)
        assert dens.polynomial_degree == degree
        assert dens.tau(0.5) == (1.5 if degree else 1.0)

    def test_piecewise_color_left_hold(self):
        color = PiecewiseConstantColor(
            np.array([0.0, 1.0, 2.0]), np.array([[0.2], [0.8]])
        )
        np.testing.assert_allclose(
            color.color(np.array([0.5, 1.5]))[:, 0], [0.2, 0.8]
        )


class TestSceneFiles:
    def test_round_trip_from_disk(self, tmp_path):
        spec = {
            "field": {"kind": "logistic_step", "amplitude": 40.0, "steepness": 40.0, "center": 0.25},
            "segment": {"near": 0.0, "far": 0.5},
            "color": {"kind": "gradient", "start_value": [0.0], "end_value": [1.0], "start": 0.0, "end": 0.5},
        }
        path = tmp_path / "wall.json"
        path.write_text(json.dumps(spec))
        field, segment = load_scene(path)
        assert isinstance(field.density, LogisticStep)
        assert segment.far == 0.5
        assert field.density.tau(0.25) == pytest.approx(20.0)

    def test_shipped_scenes_load(self):
        from pathlib import Path

        scenes = sorted((Path(__file__).parent.parent / "scenes").glob("*.json"))
        assert scenes, "no scene files shipped"
        for path in scenes:
            field, segment = load_scene(path)
            assert segment.near < segment.far
            assert np.all(field.density.tau(np.linspace(segment.near, segment.far, 16)) >= 0)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"field": {"kind": "cube"}, "segment": {"near": 0, "far": 1}}))
        with pytest.raises(ValueError, match="unknown field kind 'cube'"):
            load_scene(path)
        slab = {"kind": "constant_slab", "tau": 1.0, "start": 0.2, "end": 0.8}
        path.write_text(json.dumps({"field": slab, "segment": {"near": 0, "far": 1}, "color": {"kind": "plaid"}}))
        with pytest.raises(ValueError, match="unknown color kind 'plaid'"):
            load_scene(path)

    @staticmethod
    def _load(tmp_path, spec):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec))
        return load_scene(path)

    BUMP = {"kind": "gaussian_bump", "amplitude": 1.0, "center": 0.5, "width": 0.1}
    SEGMENT = {"near": 0.0, "far": 1.0}

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"field": BUMP, "segment": SEGMENT, "colour": {"kind": "uniform", "value": [0.2]}},
                "scene: unknown key 'colour'",
            ),
            (
                {"field": {**BUMP, "widht": 0.3}, "segment": SEGMENT},
                "scene field: unknown key 'widht'",
            ),
            (
                {"field": BUMP, "segment": {**SEGMENT, "farr": 2.0}},
                "scene segment: unknown key 'farr'",
            ),
            (
                {"field": {k: v for k, v in BUMP.items() if k != "width"}, "segment": SEGMENT},
                "scene field: missing key 'width'",
            ),
        ],
        ids=["misspelled-color", "misspelled-parameter", "misspelled-bound", "missing-parameter"],
    )
    def test_misspelled_or_missing_keys_rejected(self, tmp_path, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self._load(tmp_path, spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"field": BUMP}, "scene: missing key 'segment'"),
            ({"field": BUMP, "segment": {"near": 0.0}}, "scene segment: missing key 'far'"),
            ({"field": BUMP, "segment": [0.0, 1.0]}, "scene segment must be an object"),
            ([BUMP, SEGMENT], "scene must be an object"),
            # The scene key is ``tau``, not the parameter name ``tau0``.
            (
                {"field": {"kind": "constant_slab", "tau0": 1.0, "start": 0.2, "end": 0.8}, "segment": SEGMENT},
                "scene field: unknown key 'tau0'",
            ),
            (
                {"field": BUMP, "segment": SEGMENT, "color": {"kind": "two_tone", "before": [0.1], "after": [0.9]}},
                "scene color: missing key 'boundary'",
            ),
            ({"field": {"amplitude": 1.0}, "segment": SEGMENT}, "unknown field kind None"),
        ],
    )
    def test_every_object_needs_exactly_its_keys(self, tmp_path, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self._load(tmp_path, spec)

    SLAB = {"kind": "constant_slab", "tau": 1.0, "start": 0.2, "end": 0.8}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"field": {**SLAB, "tau": True}, "segment": SEGMENT}, "scene field: 'tau' must be a number"),
            ({"field": {**SLAB, "tau": "2"}, "segment": SEGMENT}, "scene field: 'tau' must be a number"),
            ({"field": BUMP, "segment": {**SEGMENT, "near": "0"}}, "scene segment: 'near' must be a number"),
            ({"field": BUMP, "segment": {**SEGMENT, "far": None}}, "scene segment: 'far' must be a number"),
            (
                {"field": BUMP, "segment": SEGMENT, "color": {"kind": "uniform", "value": ["0.2"]}},
                "scene color: 'value' must be a non-empty list of numbers",
            ),
            (
                {"field": BUMP, "segment": SEGMENT, "color": {"kind": "uniform", "value": [True]}},
                "scene color: 'value' must be a non-empty list of numbers",
            ),
            (
                {"field": BUMP, "segment": SEGMENT, "color": {"kind": "uniform", "value": 0.2}},
                "scene color: 'value' must be a non-empty list of numbers",
            ),
            (
                {"field": BUMP, "segment": SEGMENT, "color": {"kind": "uniform", "value": []}},
                "scene color: 'value' must be a non-empty list of numbers",
            ),
            (
                {
                    "field": BUMP,
                    "segment": SEGMENT,
                    "color": {"kind": "two_tone", "before": [0.1], "after": [0.9], "boundary": [0.5]},
                },
                "scene color: 'boundary' must be a number",
            ),
        ],
        ids=[
            "bool-scalar",
            "string-scalar",
            "string-near",
            "null-far",
            "string-channel",
            "bool-channel",
            "bare-number-color",
            "empty-color",
            "list-scalar",
        ],
    )
    def test_wrongly_typed_values_rejected(self, tmp_path, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self._load(tmp_path, spec)

    def test_scene_parameters_are_numbers_or_arrays(self):
        # The loader tells scalar from array parameters by the field's annotation.
        from rayquad.fields import _COLOR_KINDS, _DENSITY_KINDS

        classes = [*_DENSITY_KINDS.values(), *_COLOR_KINDS.values(), RaySegment]
        types = {f.type for cls in classes for f in dataclasses.fields(cls)}
        assert types == {"float", "np.ndarray"}

    def test_shipped_scenes_load_to_the_profiles_they_name(self):
        # The rules the loader had before it checked keys, written out.
        build = {
            "constant_slab": lambda p: ConstantSlab(p["tau"], p["start"], p["end"]),
            "linear_ramp": lambda p: LinearRamp(p["tau_start"], p["tau_end"], p["start"], p["end"]),
            "gaussian_bump": lambda p: GaussianBump(p["amplitude"], p["center"], p["width"]),
            "logistic_step": lambda p: LogisticStep(p["amplitude"], p["steepness"], p["center"]),
            "uniform": lambda p: UniformColor(p["value"]),
            "gradient": lambda p: GradientColor(p["start_value"], p["end_value"], p["start"], p["end"]),
            "two_tone": lambda p: TwoToneColor(p["before"], p["after"], p["boundary"]),
        }
        scenes = sorted((Path(__file__).parent.parent / "scenes").glob("*.json"))
        assert len(scenes) == 4
        for path in scenes:
            spec = json.loads(path.read_text())
            field, segment = load_scene(path)
            assert segment == RaySegment(spec["segment"]["near"], spec["segment"]["far"])
            for profile, part in ((field.density, spec["field"]), (field.color, spec["color"])):
                expected = build[part["kind"]](part)
                assert type(profile) is type(expected)
                for f in dataclasses.fields(expected):
                    a, b = getattr(profile, f.name), getattr(expected, f.name)
                    assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype, f.name

    def test_default_color_is_unit_uniform(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(
            json.dumps(
                {
                    "field": {"kind": "gaussian_bump", "amplitude": 1.0, "center": 0.5, "width": 0.1},
                    "segment": {"near": 0.0, "far": 1.0},
                }
            )
        )
        field, _ = load_scene(path)
        assert isinstance(field.color, UniformColor)
        np.testing.assert_array_equal(field.color.color(0.3), [[1.0]])


class TestColorProfiles:
    def test_two_tone_switches_at_boundary(self):
        color = TwoToneColor(np.array([0.1]), np.array([0.9]), 1.0)
        np.testing.assert_allclose(
            color.color(np.array([0.5, 1.0, 1.5]))[:, 0], [0.1, 0.9, 0.9]
        )

    def test_uniform_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            UniformColor(np.array([1.5]))


class TestParameterValidation:
    """Every parameter is finite and every color channel lies in [0, 1]."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: LogisticStep(np.nan, 1.0, 1.0), id="step-nan-amplitude"),
            pytest.param(lambda: ConstantSlab(np.nan, 0.0, 1.0), id="slab-nan-opacity"),
            pytest.param(lambda: GaussianBump(1.0, np.nan, 1.0), id="bump-nan-center"),
            pytest.param(lambda: LinearRamp(1.0, 2.0, 0.0, np.inf), id="ramp-infinite-end"),
            pytest.param(lambda: TwoToneColor([2.0], [0.5], 1.0), id="two-tone-channel-above-one"),
            pytest.param(lambda: GradientColor([0.1], [3.0], 0.0, 1.0), id="gradient-channel-above-one"),
            pytest.param(lambda: TwoToneColor([0.1], [0.5], np.nan), id="two-tone-nan-boundary"),
            pytest.param(
                lambda: PiecewiseConstantColor([0.0, 1.0, 2.0], [[0.5], [7.0]]),
                id="piecewise-channel-above-one",
            ),
            pytest.param(
                lambda: PiecewiseConstantColor([0.0, 2.0, 1.0], [[0.5], [0.7]]),
                id="piecewise-unsorted-knots",
            ),
            pytest.param(lambda: UniformColor(np.array([np.nan])), id="uniform-nan-channel"),
            pytest.param(
                lambda: SampledDensity([0.0, 1.0], [1.0, np.nan]), id="sampled-nan-opacity"
            ),
        ],
    )
    def test_rejected(self, make):
        with pytest.raises(ValueError):
            make()


GATHERABLE = (
    ConstantSlab,
    LinearRamp,
    GaussianBump,
    LogisticStep,
    UniformColor,
    GradientColor,
    TwoToneColor,
)


def _draw(cls, rng):
    """One ``cls`` profile with random valid parameters."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    start = u(0.0, 2.0)
    end = start + u(0.1, 2.0)
    rgb = lambda: rng.uniform(0.0, 1.0, 3)
    return {
        ConstantSlab: lambda: ConstantSlab(u(0.0, 5.0), start, end),
        LinearRamp: lambda: LinearRamp(u(0.0, 5.0), u(0.0, 5.0), start, end),
        GaussianBump: lambda: GaussianBump(u(0.0, 5.0), u(0.0, 4.0), u(0.05, 1.0)),
        LogisticStep: lambda: LogisticStep(u(0.0, 10.0), u(1.0, 50.0), u(0.0, 4.0)),
        UniformColor: lambda: UniformColor(rgb()),
        GradientColor: lambda: GradientColor(rgb(), rgb(), start, end),
        TwoToneColor: lambda: TwoToneColor(rgb(), rgb(), u(0.0, 4.0)),
    }[cls]()


def _method(profile) -> str:
    return "tau" if isinstance(profile, DensityProfile) else "color"


class TestGatheredEvaluation:
    """A gathered instance gives each point its own profile's value, bit for bit."""

    def test_gatherable_classes(self):
        assert _GATHERABLE == set(GATHERABLE)

    @pytest.mark.parametrize("cls", GATHERABLE, ids=lambda c: c.__name__)
    def test_gathered_equals_each_profile(self, cls, rng):
        profiles = [_draw(cls, rng) for _ in range(6)]
        xs, rows = [], []
        for k, p in enumerate(profiles):
            # Every scalar parameter, breakpoints and boundaries among them,
            # exactly and one ulp to either side, plus points around them.
            own = np.array([v for v in vars(p).values() if isinstance(v, float)])
            pts = np.concatenate(
                [own, np.nextafter(own, -np.inf), np.nextafter(own, np.inf), rng.uniform(-1, 5, 20)]
            )
            xs.append(pts)
            rows.append(np.full(pts.size, k))
        order = rng.permutation(sum(x.size for x in xs))
        x, rows = np.concatenate(xs)[order], np.concatenate(rows)[order]
        method = _method(profiles[0])
        got = getattr(_gather(cls, _stack(profiles), rows), method)(x)
        for k, p in enumerate(profiles):
            want = getattr(p, method)(x[rows == k])
            assert got[rows == k].shape == want.shape
            assert np.array_equal(got[rows == k], want)

    def test_rejects_mixed_classes(self, rng):
        knots = np.linspace(0.0, 4.0, 6)
        steps = [_draw(LogisticStep, rng), _draw(LogisticStep, rng)]
        for profiles in (
            steps + [_draw(GaussianBump, rng)],
            [_draw(GradientColor, rng), _draw(TwoToneColor, rng)],
            [SampledDensity(knots, rng.uniform(0, 3, 6)), SampledDensity(knots, rng.uniform(0, 3, 6))],
        ):
            with pytest.raises(ValueError, match="one class"):
                _by_ray(profiles, _method(profiles[0]))


def _one_ray(field, grid):
    """``opaque_trace`` spelled out in the public one-ray steps: opacities and colors."""
    tau, colors = sample_field(field, grid)
    return apply_far_convention(floor_opacity(tau), FarConvention.OPAQUE_FAR).values, colors.values


class _Kept(DensityProfile):
    """A user density that keeps the array it returns, and can poison it later."""

    def __init__(self, bad=None):
        self.out, self.bad = None, bad

    def tau(self, s):
        self.out = np.full(np.shape(s), 2.0)
        if self.bad is not None:
            self.out.flat[self.out.size // 2] = self.bad
        return self.out


class _KeptColor(ColorProfile):
    """A user color that keeps the array it returns."""

    def __init__(self, value=0.5):
        self.out, self.value = None, value

    def color(self, s):
        self.out = np.full((np.size(s), 1), self.value)
        return self.out


class TestTraceRows:
    """Each row of a stacked trace equals its one-ray trace, bit for bit."""

    segment = RaySegment(0.0, 4.0)

    @pytest.mark.parametrize("n", [1, 128])
    @pytest.mark.parametrize(
        "density, color",
        [(cls, TwoToneColor) for cls in GATHERABLE[:4]] + [(LogisticStep, cls) for cls in GATHERABLE[4:]],
        ids=lambda c: c.__name__,
    )
    def test_same_class_fields_on_one_grid(self, density, color, n, rng):
        fields = [AnalyticField(_draw(density, rng), _draw(color, rng)) for _ in range(7)]
        grid = make_uniform_grid(self.segment, n)
        tau, colors = _trace_rows(fields, grid.points)
        assert tau.shape == (7, n + 2) and colors.shape == (7, n + 1, fields[0].color.channels)
        for r, field in enumerate(fields):
            want_tau, want_colors = _one_ray(field, grid)
            got_tau, got_colors = opaque_trace(field, grid)
            for got in (tau[r], got_tau.values):
                assert np.array_equal(got, want_tau)
            for got in (colors[r], got_colors.values):
                assert np.array_equal(got, want_colors)

    @pytest.mark.parametrize("n", [1, 128])
    @pytest.mark.parametrize("density", [*GATHERABLE[:4], SampledDensity], ids=lambda c: c.__name__)
    def test_one_field_on_shifted_grids(self, density, n, rng):
        if density is SampledDensity:
            knots = np.linspace(0.0, 4.0, 9)
            profile = SampledDensity(knots, rng.uniform(0.0, 3.0, 9), degree=1)
        else:
            profile = _draw(density, rng)
        field = AnalyticField(profile, _draw(GradientColor, rng))
        offsets, points, tau, colors = shift_sweep(field, self.segment, n, 5)
        assert offsets.tolist() == np.linspace(0.0, self.segment.span / (n + 1), 5, endpoint=False).tolist()
        grid0 = make_uniform_grid(self.segment, n)
        for r, off in enumerate(offsets):
            grid = SampleGrid(grid0.interior + off, self.segment)
            assert np.array_equal(points[r], grid.points)
            want_tau, want_colors = _one_ray(field, grid)
            got_tau, got_colors = opaque_trace(field, grid)
            for got in (tau[r], got_tau.values):
                assert np.array_equal(got, want_tau)
            for got in (colors[r], got_colors.values):
                assert np.array_equal(got, want_colors)

    def test_mixed_classes_raise(self, rng):
        fields = [AnalyticField(_draw(LogisticStep, rng)), AnalyticField(_draw(GaussianBump, rng))]
        with pytest.raises(ValueError, match="one class"):
            _trace_rows(fields, make_uniform_grid(self.segment, 4).points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_opacity_raises_the_one_ray_message(self, bad):
        grid = make_uniform_grid(self.segment, 6)
        field = AnalyticField(_Kept(bad))
        with pytest.raises(ValueError) as one_ray:
            sample_field(field, grid)
        assert str(one_ray.value) == "OpacityTrace.values must be finite"
        for call in (
            lambda: opaque_trace(field, grid),
            lambda: shift_sweep(field, self.segment, 6, 3),
        ):
            with pytest.raises(ValueError) as rows:
                call()
            assert str(rows.value) == str(one_ray.value)

    @pytest.mark.parametrize("value, message", [(np.nan, "must be finite"), (1.5, "must lie in \\[0, 1\\]")])
    def test_bad_color_raises_the_one_ray_message(self, value, message):
        grid = make_uniform_grid(self.segment, 6)
        field = AnalyticField(ConstantSlab(1.0, 1.0, 2.0), _KeptColor(value))
        with pytest.raises(ValueError, match=message) as one_ray:
            sample_field(field, grid)
        for call in (lambda: opaque_trace(field, grid), lambda: shift_sweep(field, self.segment, 6, 3)):
            with pytest.raises(ValueError) as rows:
                call()
            assert str(rows.value) == str(one_ray.value)


class TestProfileOutputAdoption:
    """Traces adopt the library's own profile outputs and copy any other profile's."""

    grid = make_uniform_grid(RaySegment(0.0, 4.0), 16)

    @pytest.mark.parametrize(
        "profile",
        [
            LogisticStep(10.0, 40.0, 2.0),
            SampledDensity(np.linspace(0.0, 4.0, 5), np.arange(5.0), degree=0),
            TwoToneColor([0.1], [0.9], 2.0),
            PiecewiseConstantColor(np.linspace(0.0, 4.0, 5), [[0.1], [0.2], [0.3], [0.4]]),
        ],
        ids=lambda p: type(p).__name__,
    )
    def test_library_outputs_are_adopted(self, profile, monkeypatch):
        method = _method(profile)
        returned, call = [], getattr(type(profile), method)
        monkeypatch.setattr(type(profile), method, lambda self, s: returned.append(call(self, s)) or returned[-1])
        density = profile if method == "tau" else ConstantSlab(1.0, 1.0, 2.0)
        field = AnalyticField(density, profile) if method == "color" else AnalyticField(density)
        tau, colors = sample_field(field, self.grid)
        trace = tau if method == "tau" else colors
        assert trace.values is returned[0] or trace.values.base is returned[0]
        assert not trace.values.flags.writeable

    def test_user_profile_cannot_edit_a_trace(self):
        density, color = _Kept(), _KeptColor()
        field = AnalyticField(density, color)
        sampled = sample_field(field, self.grid)
        kept = [density.out, color.out]
        opaque = opaque_trace(field, self.grid)
        kept += [density.out, color.out]
        _, _, *rows = shift_sweep(field, RaySegment(0.0, 4.0), 16, 2)
        kept += [density.out, color.out]
        before = [np.array(a.values) for a in (*sampled, *opaque)] + [np.array(a) for a in rows]
        for array in kept:
            array[...] = 0.25
        after = [a.values for a in (*sampled, *opaque)] + rows
        for a, b in zip(before, after):
            assert np.array_equal(a, b)
