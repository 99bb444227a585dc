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
    load_scene,
    make_uniform_grid,
    opaque_trace,
    sample_field,
    shift_sweep,
)
from rayquad.fields import (
    _GATHERABLE,
    DensityProfile,
    PiecewiseConstantColor,
    SampledDensity,
    _by_ray,
    _gather,
    _shifted_grid,
    _stack,
)


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

    def test_shift_sweep_traces_each_shifted_grid(self):
        field = AnalyticField(LogisticStep(10.0, 40.0, 1.0))
        segment = RaySegment(0.0, 2.0)
        sweep = shift_sweep(field, segment, 7, 4)
        offsets = np.linspace(0.0, segment.span / 8, 4, endpoint=False)
        assert [off for off, *_ in sweep] == offsets.tolist()
        grid0 = make_uniform_grid(segment, 7)
        for off, grid, tau, colors in sweep:
            np.testing.assert_array_equal(grid.points, _shifted_grid(grid0, off).points)
            expected_tau, expected_colors = opaque_trace(field, grid)
            np.testing.assert_array_equal(tau.values, expected_tau.values)
            np.testing.assert_array_equal(colors.values, expected_colors.values)


class TestShiftedGrid:
    def test_zero_offset_is_identity(self):
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 7)
        assert _shifted_grid(grid, 0.0) is grid

    def test_half_gap_gives_midpoints(self):
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 3)
        h = 0.5
        out = _shifted_grid(grid, h / 2)
        np.testing.assert_allclose(out.interior, grid.interior + 0.25)

    def test_sweep_produces_distinct_valid_grids(self):
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 31)
        h = 2.0 / 32
        seen = set()
        for off in np.linspace(0.0, h, 32, endpoint=False):
            g = _shifted_grid(grid, float(off))
            assert np.all(np.diff(g.points) > 0)
            seen.add(round(float(g.interior[0]), 15))
        assert len(seen) == 32

    def test_rejects_out_of_range_offsets(self):
        grid = make_uniform_grid(RaySegment(0.0, 2.0), 3)
        with pytest.raises(ValueError):
            _shifted_grid(grid, 0.5)  # equal to the gap
        with pytest.raises(ValueError):
            _shifted_grid(grid, -0.1)


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
            np.testing.assert_allclose(ray.tau(s), wall.tau(depth), rtol=1e-12)

    def test_perpendicular_ray_matches_wall_profile(self):
        rig = GrazingRig(10.0, 40.0, 1.0, angles=np.array([np.pi / 2]))
        ray = rig.ray_field(np.pi / 2)
        wall = LogisticStep(10.0, 40.0, 1.0)
        s = np.linspace(0.0, 3.0, 32)
        np.testing.assert_allclose(ray.tau(s), wall.tau(s), rtol=1e-12)

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
        "degree", [True, False, 1.0, 0.0, 2, np.int64(1)], ids=["True", "False", "1.0", "0.0", "2", "int64"]
    )
    def test_degree_must_be_int_zero_or_one(self, degree):
        with pytest.raises(ValueError, match="degree"):
            SampledDensity(np.array([0.0, 1.0]), np.array([1.0, 2.0]), degree=degree)

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
        assert field.tau(0.25) == pytest.approx(20.0)

    def test_shipped_scenes_load(self):
        from pathlib import Path

        scenes = sorted((Path(__file__).parent.parent / "scenes").glob("*.json"))
        assert scenes, "no scene files shipped"
        for path in scenes:
            field, segment = load_scene(path)
            assert segment.near < segment.far
            assert np.all(field.tau(np.linspace(segment.near, segment.far, 16)) >= 0)

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
        np.testing.assert_array_equal(field.color_at(0.3), [[1.0]])


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
