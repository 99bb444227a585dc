"""Every immutable value stores a read-only, finite float64 copy of each
array its caller hands over, and never freezes or shares the caller's own;
each scalar it takes is stored as a finite float, and the scene loader
accepts a number exactly when a constructor would.  Every scalar argument
of a public function meets the same rule, a count as an integer."""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import re

import numpy as np
import pytest

import rayquad
from rayquad import (
    AnalyticField,
    ColorTrace,
    ContinuousRayCdf,
    GradReport,
    IntegrationResult,
    OpacityTrace,
    QuadraticPatch,
    RaySegment,
    finite_diff_check,
    grad_sample_wrt_tau,
    hierarchical_samples,
    instability_threshold,
    integrate_adaptive,
    ks_critical,
    load_scene,
    make_uniform_grid,
    quad_eval,
    shift_sweep,
    true_interval_probabilities,
    true_mean_termination,
    true_render,
    true_render_batch,
)
from rayquad.cli import ExperimentSpec
from rayquad.fields import (
    ConstantSlab,
    GaussianBump,
    GradientColor,
    GrazingRig,
    LinearRamp,
    LogisticStep,
    PiecewiseConstantColor,
    SampledDensity,
    TwoToneColor,
    UniformColor,
)

S = np.linspace(0.0, 2.0, 9)

# (constructor, valid array arguments, other arguments, a reading of the value)
CONSTRUCTORS = {
    "OpacityTrace": (OpacityTrace, {"values": [0.5, 1.0, 2.0]}, {}, lambda v: v.values),
    "ColorTrace": (ColorTrace, {"values": [[0.2], [0.4]]}, {}, lambda v: v.values),
    "ColorTrace-1d": (ColorTrace, {"values": [0.2, 0.4]}, {}, lambda v: v.values),
    "SampledDensity": (
        SampledDensity,
        {"knots": [0.0, 1.0, 2.0], "values": [1.0, 2.0, 3.0]},
        {},
        lambda v: v.tau(S),
    ),
    "UniformColor": (UniformColor, {"value": [0.5]}, {}, lambda v: v.color(S)),
    "GradientColor": (
        GradientColor,
        {"start_value": [0.1, 0.2], "end_value": [0.8, 0.9]},
        {"start": 0.5, "end": 1.5},
        lambda v: v.color(S),
    ),
    "TwoToneColor": (
        TwoToneColor,
        {"before": [0.1], "after": [0.9]},
        {"boundary": 1.0},
        lambda v: v.color(S),
    ),
    "PiecewiseConstantColor": (
        PiecewiseConstantColor,
        {"knots": [0.0, 1.0, 2.0], "values": [[0.1], [0.9]]},
        {},
        lambda v: v.color(S),
    ),
    "GrazingRig": (
        GrazingRig,
        {"angles": [0.3, 0.7]},
        {"wall_amplitude": 10.0, "wall_steepness": 40.0, "wall_depth": 1.0},
        lambda v: np.array([v.ray_field(float(a)).density.tau(S) for a in v.angles]),
    ),
    "QuadraticPatch": (
        QuadraticPatch,
        {"knots": [0.0, 1.0, 2.0], "taus": [1.0, 2.0, 1.5]},
        {},
        lambda v: quad_eval(v, S),
    ),
}

CASES = [
    pytest.param(key, name, id=f"{key}.{name}")
    for key, (_, arrays, _, _) in CONSTRUCTORS.items()
    for name in arrays
]


def build(key, name, array):
    """The value ``key`` with ``array`` as its field ``name``."""
    cls, arrays, scalars, _ = CONSTRUCTORS[key]
    return cls(**{**{k: np.array(v) for k, v in arrays.items()}, name: array, **scalars})


@pytest.mark.parametrize("key, name", CASES)
def test_caller_array_stays_writeable_and_unshared(key, name):
    read = CONSTRUCTORS[key][3]
    array = np.array(CONSTRUCTORS[key][1][name])
    value = build(key, name, array)
    stored = getattr(value, name)
    assert array.flags.writeable
    assert not np.shares_memory(array, stored)
    assert stored.dtype == np.float64 and not stored.flags.writeable

    before = read(value).copy()
    array[...] = -5.0
    np.testing.assert_array_equal(read(value), before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key, name", CASES)
def test_non_finite_entry_rejected(key, name, bad):
    array = np.array(CONSTRUCTORS[key][1][name], dtype=np.float64)
    array.flat[-1] = bad
    cls = CONSTRUCTORS[key][0]
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must be finite"):
        build(key, name, array)


# Valid arguments of every public frozen dataclass with a ``float`` field.  Each
# float is integral, so an ``int`` of the same value is valid too.
SCALAR_CONSTRUCTORS = {
    RaySegment: {"near": 0.0, "far": 4.0},
    ConstantSlab: {"tau0": 1.0, "start": 1.0, "end": 3.0},
    LinearRamp: {"tau_start": 1.0, "tau_end": 2.0, "start": 1.0, "end": 3.0},
    GaussianBump: {"amplitude": 1.0, "center": 2.0, "width": 1.0},
    LogisticStep: {"amplitude": 10.0, "steepness": 40.0, "center": 1.0},
    GradientColor: {"start_value": [0.1], "end_value": [0.9], "start": 1.0, "end": 3.0},
    TwoToneColor: {"before": [0.1], "after": [0.9], "boundary": 2.0},
    GrazingRig: {"wall_amplitude": 10.0, "wall_steepness": 40.0, "wall_depth": 1.0, "angles": [0.5]},
}
# Records the library fills in itself; a caller never hands them a scalar.
RESULTS = {GradReport, IntegrationResult}


def _float_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if f.type == "float"]


SCALAR_CASES = [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}")
    for cls in SCALAR_CONSTRUCTORS
    for name in _float_fields(cls)
]


def test_scalar_table_covers_every_public_frozen_dataclass():
    public = {
        obj
        for obj in vars(rayquad).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen
    }
    assert {cls for cls in public if _float_fields(cls)} == set(SCALAR_CONSTRUCTORS) | RESULTS


@pytest.mark.parametrize("bad", ["1", None, True, np.True_, 10**400, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls, name", SCALAR_CASES)
def test_non_real_scalar_rejected(cls, name, bad):
    with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} must be a finite real number$"):
        cls(**{**SCALAR_CONSTRUCTORS[cls], name: bad})


# A field value of the wrong sign, and the sign the field must have.
SIGNED_FIELDS = [
    (RaySegment, "near", -0.5, "nonnegative"),
    (ConstantSlab, "tau0", -1.0, "nonnegative"),
    (LinearRamp, "tau_start", -1.0, "nonnegative"),
    (LinearRamp, "tau_end", -1.0, "nonnegative"),
    (GaussianBump, "amplitude", -1.0, "nonnegative"),
    (GaussianBump, "width", 0.0, "positive"),
    (LogisticStep, "amplitude", -1.0, "nonnegative"),
    (LogisticStep, "steepness", -0.0, "positive"),
    (GrazingRig, "wall_amplitude", -1.0, "nonnegative"),
    (GrazingRig, "wall_steepness", 0, "positive"),
]


@pytest.mark.parametrize(
    "cls, name, bad, sign",
    [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}") for case in SIGNED_FIELDS],
)
def test_field_sign_rule(cls, name, bad, sign):
    with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} must be {sign}, got {bad!r}$"):
        cls(**{**SCALAR_CONSTRUCTORS[cls], name: bad})
    # The least value of the sign passes: zero, or the least positive float.
    least = 0.0 if sign == "nonnegative" else 5e-324
    assert getattr(cls(**{**SCALAR_CONSTRUCTORS[cls], name: least}), name) == least


@pytest.mark.parametrize("cls, name", SCALAR_CASES)
def test_int_scalar_stored_as_float(cls, name):
    valid = SCALAR_CONSTRUCTORS[cls][name]
    value = getattr(cls(**{**SCALAR_CONSTRUCTORS[cls], name: int(valid)}), name)
    assert type(value) is float and value == valid


# A record's range check rejects every value outside the range, NaN too.
RESULT_RANGES = {
    "GradReport.max_rel_err": (
        lambda v: GradReport(np.zeros(2), np.zeros(2), v), r"relative error must be nonnegative, got "
    ),
    "IntegrationResult.error_estimate": (
        lambda v: IntegrationResult(1.0, v, 3), r"error estimate must be nonnegative, got "
    ),
    "IntegrationResult.evaluations": (
        lambda v: IntegrationResult(1.0, 0.0, v), r"a Simpson estimate needs at least three evaluations"
    ),
}


@pytest.mark.parametrize("bad", [np.nan, -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("build, message", RESULT_RANGES.values(), ids=list(RESULT_RANGES))
def test_result_out_of_range_rejected(build, message, bad):
    with pytest.raises(ValueError, match=rf"^{message}"):
        build(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_analytic_partial_rejected(bad):
    # A NaN partial would make ``max_rel_err`` NaN, which no threshold reads as a failure.
    with pytest.raises(ValueError, match=r"^analytic partials must be finite$"):
        finite_diff_check(lambda x: x.sum(axis=1), np.ones(2), np.array([1.0, bad]))


SCENE = {
    "field": {"kind": "constant_slab", "tau": 1.0, "start": 0.2, "end": 0.8},
    "segment": {"near": 0.0, "far": 1.0},
    "color": {"kind": "uniform", "value": [0.5]},
}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1" + "0" * 400], ids=["NaN", "Infinity", "401-digit"])
@pytest.mark.parametrize(
    "part, key, wrap, message",
    [
        ("field", "tau", lambda v: v, "scene field: 'tau' must be a number"),
        ("color", "value", lambda v: [0.5, v], "scene color: 'value' must be a non-empty list of numbers"),
    ],
    ids=["scalar", "color-list"],
)
def test_scene_number_out_of_float_range_rejected(tmp_path, part, key, wrap, message, literal):
    text = json.dumps({**SCENE, part: {**SCENE[part], key: wrap("BAD")}})
    path = tmp_path / "scene.json"
    path.write_text(text.replace('"BAD"', literal))
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_scene(path)


@pytest.mark.parametrize("size", [1, 7, 8, 1000])
@pytest.mark.parametrize("bad", [-1e-300, np.nextafter(1.0, 2.0)])
def test_channel_outside_unit_interval_rejected(size, bad):
    # ``rays._unit`` compares a few channels in Python and reduces many in numpy.
    value = np.tile([0.0, 1.0], size)[:size]
    UniformColor(value)
    value[size // 2] = bad
    with pytest.raises(ValueError, match=r"^UniformColor\.value: color channels must lie in \[0, 1\]$"):
        UniformColor(value)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: UniformColor(np.array([])), "UniformColor.value"),
        (lambda: GradientColor([], [], 1.0, 3.0), "GradientColor.start_value"),
        (lambda: TwoToneColor([], [], 0.5), "TwoToneColor.before"),
        (lambda: PiecewiseConstantColor([0.0, 1.0], np.zeros((1, 0))), "PiecewiseConstantColor.values"),
        (lambda: ColorTrace(np.zeros((4, 0))), "ColorTrace.values"),
        (
            lambda: ColorTrace(np.zeros((4, 0)), make_uniform_grid(RaySegment(0.0, 1.0), 3)),
            "ColorTrace.values",
        ),
    ],
    ids=["uniform", "gradient", "two-tone", "piecewise", "trace", "trace-on-grid"],
)
def test_color_without_channels_rejected(build, field):
    # A color of no channels would render to an empty array, not to a color.
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} needs at least one color channel$"):
        build()


SEGMENT = RaySegment(0.0, 2.0)
FIELD = AnalyticField(ConstantSlab(1.0, 0.5, 1.5))
RIG = GrazingRig(10.0, 40.0, 1.0, angles=[0.5])
CDF = ContinuousRayCdf(make_uniform_grid(SEGMENT, 3), OpacityTrace([1.0, 1.0, 2.0, 3.0, 4.0]))

# Every scalar argument of a public function, keyed by (function, parameter):
# (a call with the argument set to a value, a valid value, the least count the
# argument takes, or None for a real number).
ARGUMENTS = {
    ("integrate_adaptive", "a"): (lambda v: integrate_adaptive(np.cos, v, 1.0), 0.0, None),
    ("integrate_adaptive", "b"): (lambda v: integrate_adaptive(np.cos, 0.0, v), 1.0, None),
    ("integrate_adaptive", "tol"): (lambda v: integrate_adaptive(np.cos, 0.0, 1.0, v), 1e-6, None),
    ("true_render", "tol"): (lambda v: true_render(FIELD, SEGMENT, v), 1e-6, None),
    ("true_render_batch", "tol"): (lambda v: true_render_batch([FIELD] * 2, SEGMENT, v), 1e-6, None),
    ("true_mean_termination", "tol"): (lambda v: true_mean_termination(FIELD, SEGMENT, v), 1e-6, None),
    ("true_interval_probabilities", "rtol"): (
        lambda v: true_interval_probabilities(FIELD, SEGMENT, [0.0, 1.0, 2.0], v),
        1e-9,
        None,
    ),
    ("ks_critical", "n"): (ks_critical, 8, 8),
    ("finite_diff_check", "h"): (
        lambda v: finite_diff_check(lambda x: x.sum(axis=1), np.ones(2), np.ones(2), v),
        1e-6,
        None,
    ),
    ("grad_sample_wrt_tau", "u"): (lambda v: grad_sample_wrt_tau(CDF, v), 0.3, None),
    ("make_uniform_grid", "n"): (lambda v: make_uniform_grid(SEGMENT, v), 3, 1),
    ("hierarchical_samples", "n_fine"): (lambda v: hierarchical_samples(CDF, v, 0), 4, 1),
    ("hierarchical_samples", "seed"): (lambda v: hierarchical_samples(CDF, 4, v), 0, 0),
    ("shift_sweep", "n"): (lambda v: shift_sweep(FIELD, SEGMENT, v, 2), 3, 1),
    ("shift_sweep", "offsets"): (lambda v: shift_sweep(FIELD, SEGMENT, 3, v), 2, 1),
    ("GrazingRig.ray_field", "angle"): (lambda v: RIG.ray_field(v), 0.5, None),
    ("GrazingRig.ray_field", "offset"): (lambda v: RIG.ray_field(0.5, v), 0.0, None),
    ("instability_threshold", "tau_j"): (lambda v: instability_threshold(v, 1.0, 1.0), 1.0, None),
    ("instability_threshold", "tau_j1"): (lambda v: instability_threshold(1.0, v, 1.0), 1.0, None),
    ("instability_threshold", "alpha"): (lambda v: instability_threshold(1.0, 1.0, v), 1.0, None),
    ("ExperimentSpec", "n_coarse"): (lambda v: ExperimentSpec(n_coarse=v), 128, 1),
    ("ExperimentSpec", "offsets"): (lambda v: ExperimentSpec(offsets=v), 32, 1),
    ("ExperimentSpec", "seed"): (lambda v: ExperimentSpec(seed=v), 0, 0),
    ("ExperimentSpec", "tol"): (lambda v: ExperimentSpec(tol=v), 1e-10, None),
}

NOT_SCALARS = {"str": "1", "None": None, "True": True, "np.True_": np.True_}
NOT_SCALARS.update({"nan": np.nan, "inf": np.inf, "-inf": -np.inf})


def _bad_values(least):
    """What every argument rejects, then a huge int for a real, or fractions and
    ``least - 1`` for a count: ``least + 0.5`` is a fraction past the minimum."""
    if least is None:
        return {**NOT_SCALARS, "10**400": 10**400}
    return {**NOT_SCALARS, "2.5": 2.5, "least+0.5": least + 0.5, "least-1": least - 1}


BAD_ARGUMENTS = [
    pytest.param(call, name, bad, id=f"{owner}.{name}-{label}")
    for (owner, name), (call, _, least) in ARGUMENTS.items()
    for label, bad in _bad_values(least).items()
]


@pytest.mark.parametrize("call, name, bad", BAD_ARGUMENTS)
def test_bad_argument_rejected_naming_it(call, name, bad, engine_guard):
    # The engine guard makes a check that let the value through fail loudly.
    with pytest.raises(ValueError, match=rf"\b{name}={re.escape(repr(bad))}"):
        call(bad)


@pytest.mark.parametrize(
    "call, valid, least",
    [pytest.param(*entry, id=f"{owner}.{name}") for (owner, name), entry in ARGUMENTS.items()],
)
def test_numpy_scalar_argument_accepted(call, valid, least):
    call(np.float64(valid) if least is None else np.int64(valid))


def _public_callables():
    """(name, function) of every public function and method of the package, and
    of the constructor of each public class that is not a frozen dataclass."""
    for info in pkgutil.iter_modules(rayquad.__path__):
        module = importlib.import_module(f"rayquad.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield name, obj
            elif inspect.isclass(obj):
                frozen = dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen
                for attr, member in vars(obj).items():
                    if attr == "__init__" and not frozen:
                        yield name, member
                    elif inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{name}.{attr}", member


def test_argument_table_covers_every_scalar_parameter():
    annotated = {
        (name, p.name)
        for name, function in _public_callables()
        for p in inspect.signature(function).parameters.values()
        if p.annotation in ("float", "int", float, int)
    }
    assert annotated == set(ARGUMENTS)
