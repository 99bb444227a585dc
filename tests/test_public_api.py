"""The public surface that the benchmark drives and instruments.

The benchmark's workloads call these names on the package, and its span
tracer patches the listed methods and properties by name on their
classes.  The names are listed here rather than read from the benchmark,
so a deletion or rename fails this test instead of a benchmark run.
"""

import inspect

import pytest

import rayquad
import rayquad.cli

# Names the ray and suite workloads call on ``rayquad``.
WORKLOAD_NAMES = (
    "ContinuousRayCdf",
    "DiscreteRayCdf",
    "FarConvention",
    "GrazingRig",
    "ModelKind",
    "RaySegment",
    "apply_far_convention",
    "expected_depth",
    "floor_opacity",
    "grad_render_wrt_tau",
    "grad_sample_wrt_tau",
    "hierarchical_samples",
    "interval_pmf",
    "make_uniform_grid",
    "render",
    "sample_field",
)

# (class, attribute) pairs the tracer wraps on the class.
TRACED_METHODS = (
    (rayquad.GrazingRig, "ray_field"),
    (rayquad.ContinuousRayCdf, "precise_sample"),
    (rayquad.ContinuousRayCdf, "cdf_eval"),
    (rayquad.DiscreteRayCdf, "surrogate_sample"),
    (rayquad.CumulativeOpacityTable, "refined"),
)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_names_exist(name):
    assert callable(getattr(rayquad, name))


@pytest.mark.parametrize(
    "owner, name",
    [
        (rayquad.FarConvention, "OPAQUE_FAR"),
        (rayquad.ModelKind, "LINEAR"),
        (rayquad.ModelKind, "CONSTANT"),
        (rayquad.cli, "main"),
    ],
)
def test_workload_members_exist(owner, name):
    assert hasattr(owner, name)


@pytest.mark.parametrize("name", ["points", "widths"])
def test_grid_arrays_are_class_properties(name):
    assert isinstance(inspect.getattr_static(rayquad.SampleGrid, name), property)


@pytest.mark.parametrize("cls, name", TRACED_METHODS)
def test_traced_methods_exist(cls, name):
    assert inspect.isfunction(inspect.getattr_static(cls, name))



def test_opacity_table_surface():
    # The oracle pins and the tracer build, refine and read tables through these.
    table_cls = rayquad.CumulativeOpacityTable
    params = inspect.signature(table_cls).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("density", inspect.Parameter.empty),
        ("segment", inspect.Parameter.empty),
        ("extra_breaks", None),
        ("n_sub", 64),
    ]
    for name in ("__init__", "cumulative", "refined"):
        assert inspect.isfunction(inspect.getattr_static(table_cls, name))
    assert isinstance(inspect.getattr_static(table_cls, "total"), property)
    table = table_cls(rayquad.LogisticStep(10.0, 40.0, 1.0), rayquad.RaySegment(0.0, 4.0))
    assert isinstance(table.tab_error, float)
    assert isinstance(table.total, float)
    assert isinstance(table.refined(), table_cls)
