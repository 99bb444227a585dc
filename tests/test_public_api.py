"""The public surface that the benchmark drives and instruments.

The benchmark's workloads call these names on the package, and its span
tracer patches the listed methods and properties by name on their
classes.  The names are listed here rather than read from the benchmark,
so a deletion or rename fails this test instead of a benchmark run.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import rayquad
import rayquad.cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "rayquad"

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
    # The oracle pins build tables through the constructor, the tracer wraps
    # ``refined``, and the oracle's mean termination reads ``total`` and ``tab_error``.
    table_cls = rayquad.CumulativeOpacityTable
    params = inspect.signature(table_cls).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("density", inspect.Parameter.empty),
        ("segment", inspect.Parameter.empty),
        ("extra_breaks", None),
    ]
    for name in ("__init__", "refined"):
        assert inspect.isfunction(inspect.getattr_static(table_cls, name))
    assert isinstance(inspect.getattr_static(table_cls, "total"), property)
    table = table_cls(rayquad.LogisticStep(10.0, 40.0, 1.0), rayquad.RaySegment(0.0, 4.0))
    assert isinstance(table.tab_error, float)
    assert isinstance(table.total, float)
    assert isinstance(table.refined(), table_cls)


def _module_level_definitions(tree):
    """Public functions, classes and constants a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _public_definitions():
    for path in sorted(SOURCES.glob("*.py")):
        for name in _module_level_definitions(ast.parse(path.read_text())):
            yield pytest.param(path, name, id=f"{path.stem}.{name}")


@pytest.mark.parametrize("module, name", _public_definitions())
def test_public_name_is_used_outside_tests(module, name):
    # A public name that only tests reach belongs in the tests.  Its own
    # module counts by the code that reads it; every other library module,
    # the benchmark, the demos and the docs count by any mention.  The
    # package's re-exports in __init__.py do not count: they name every
    # public name, used or not.
    loads = (n for n in ast.walk(ast.parse(module.read_text())) if isinstance(n, ast.Name))
    if any(n.id == name and isinstance(n.ctx, ast.Load) for n in loads):
        return
    skip = (module, SOURCES / "__init__.py")
    texts = [p.read_text() for p in sorted(SOURCES.glob("*.py")) if p not in skip]
    for pattern in ("bench/*.py", "demos/*.py", "README.md", "docs/**/*"):
        texts += [p.read_text() for p in sorted(ROOT.glob(pattern)) if p.is_file()]
    word = re.compile(rf"\b{re.escape(name)}\b")
    assert any(word.search(text) for text in texts), f"{module.stem}.{name} is used only by tests"


def _searchsorted_sites(path):
    """``file:line`` of every ``searchsorted`` a module names, except inside
    ``rays._interval``, the one interval locator."""
    tree = ast.parse(path.read_text())
    allowed = set()
    if path.name == "rays.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "_interval":
                allowed = {id(n) for n in ast.walk(node)}
    for node in ast.walk(tree):
        # Attribute, Name, and import alias or definition spellings alike.
        named = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
        if named == "searchsorted" and id(node) not in allowed:
            yield f"{path.name}:{node.lineno}"


def test_one_interval_locator():
    # Grids, samplers, profiles and the oracle's tables find a point's
    # interval only through ``rays._interval``, so the edge rule cannot fork.
    sites = [site for path in sorted(SOURCES.glob("*.py")) for site in _searchsorted_sites(path)]
    assert sites == []


def test_one_scalar_rule():
    # Profiles judge a caller's scalar only through ``rays._real`` (and the scene
    # loader through ``rays._is_real``), so the finiteness rule cannot fork.
    tree = ast.parse((SOURCES / "fields.py").read_text())
    named = [getattr(n, "attr", None) or getattr(n, "id", None) or getattr(n, "name", None) for n in ast.walk(tree)]
    assert "isfinite" not in named
