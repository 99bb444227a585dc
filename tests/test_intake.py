"""Every immutable value stores a read-only, finite float64 copy of each
array its caller hands over, and never freezes or shares the caller's own."""

import numpy as np
import pytest

from rayquad import (
    ColorTrace,
    ModelKind,
    OpacityTrace,
    QuadraticPatch,
    RayDistribution,
    quad_eval,
)
from rayquad.fields import (
    GradientColor,
    GrazingRig,
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
