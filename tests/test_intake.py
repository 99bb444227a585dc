"""Every immutable value stores a read-only, finite float64 copy of each
array its caller hands over, and never freezes or shares the caller's own;
each scalar it takes is stored as a finite float, and the scene loader
accepts a number exactly when a constructor would."""

import dataclasses
import json

import numpy as np
import pytest

import rayquad
from rayquad import (
    ColorTrace,
    GradReport,
    IntegrationResult,
    ModelKind,
    OpacityTrace,
    QuadraticPatch,
    RayDistribution,
    RaySegment,
    load_scene,
    quad_eval,
)
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
        lambda v: np.array([v.ray_field(float(a)).tau(S) for a in v.angles]),
    ),
    "RayDistribution": (
        RayDistribution,
        {
            "log_transmittance": [0.0, -0.5, -1.0],
            "transmittance": [1.0, 0.6, 0.4],
            "pmf": [0.4, 0.2],
            "cumulative": [0.0, 0.4, 0.6],
        },
        {"model": ModelKind.LINEAR},
        lambda v: np.concatenate([v.log_transmittance, v.transmittance, v.pmf, v.cumulative]),
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


@pytest.mark.parametrize("cls, name", SCALAR_CASES)
def test_int_scalar_stored_as_float(cls, name):
    valid = SCALAR_CONSTRUCTORS[cls][name]
    value = getattr(cls(**{**SCALAR_CONSTRUCTORS[cls], name: int(valid)}), name)
    assert type(value) is float and value == valid


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
