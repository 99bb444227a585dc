"""The public surface that the benchmark drives and instruments.

The benchmark's workloads call these names on the package, and its span
tracer patches the listed methods and properties by name on their
classes.  The names are listed here rather than read from the benchmark,
so a deletion or rename fails this test instead of a benchmark run.
"""

import ast
import copy
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import rayquad
import rayquad.cli
from rayquad import fields

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


def _read_outside_own_definition(tree, name) -> bool:
    """Whether a module loads ``name`` outside the function or class that
    defines it: a method naming its own class is no use."""
    own = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            own |= {id(n) for n in ast.walk(node)}
    return any(
        isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load) and id(n) not in own
        for n in ast.walk(tree)
    )


@pytest.mark.parametrize("module, name", _public_definitions())
def test_public_name_is_used_outside_tests(module, name):
    # A public name that only tests reach belongs in the tests.  Its own
    # module counts by the code that reads it outside the name's own
    # definition; every other library module, the benchmark, the demos and
    # the docs count by any mention.  The package's re-exports in
    # __init__.py do not count: they name every public name, used or not.
    # Nor does the benchmark's span tracer, which lists the names it wraps.
    if _read_outside_own_definition(ast.parse(module.read_text()), name):
        return
    skip = (module, SOURCES / "__init__.py", ROOT / "bench" / "tracer.py")
    texts = [p.read_text() for p in sorted(SOURCES.glob("*.py")) if p not in skip]
    for pattern in ("bench/*.py", "demos/*.py", "README.md", "docs/**/*"):
        texts += [p.read_text() for p in sorted(ROOT.glob(pattern)) if p.is_file() and p not in skip]
    word = re.compile(rf"\b{re.escape(name)}\b")
    assert any(word.search(text) for text in texts), f"{module.stem}.{name} is used only by tests"


def _named(node):
    # Attribute, Name, and import alias or definition spellings alike.
    return getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)


def _sites_outside(kernel, found):
    """``file:line`` of every node ``found`` accepts in the library, except
    inside ``kernel``, a ``module.function`` name."""
    home, function = kernel.split(".")
    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.stem == home:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == function:
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if found(node) and id(node) not in allowed:
                yield f"{path.name}:{node.lineno}"


def test_one_interval_locator():
    # Grids, samplers, profiles and the oracle's tables find a point's
    # interval only through ``rays._interval``, so the edge rule cannot fork.
    sites = _sites_outside("rays._interval", lambda node: _named(node) == "searchsorted")
    assert list(sites) == []


def test_one_weighted_sum():
    # ``render``, ``expected_depth`` and the commands' stacked rays take a
    # pmf-weighted sum only through ``quadrature._weighted_sums``, so a
    # stacked row cannot drift from its one-ray bits.
    def found(node):
        product = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        return product or _named(node) in ("matmul", "dot")

    assert list(_sites_outside("quadrature._weighted_sums", found)) == []


def test_one_distribution_maker():
    # Only the kernel's telescoped arrays make a ``RayDistribution``, so no
    # library path can hand a sampler or a render a non-probability.
    def found(node):
        return isinstance(node, ast.Call) and _named(node.func) == "RayDistribution"

    assert list(_sites_outside("quadrature.interval_pmf", found)) == []


def _cumsum_into_an_output(path):
    """``file:line`` of every ``cumsum`` call with an ``out`` keyword."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and _named(node.func) == "cumsum":
            if any(keyword.arg == "out" for keyword in node.keywords):
                yield f"{path.name}:{node.lineno}"


def test_no_cumsum_into_an_output():
    # ``np.cumsum(x, out=...)`` runs ``np.add.accumulate``'s loop, bit for bit, after
    # about 3 us more of argument handling, so a prefix sum into a made array
    # calls ``np.add.accumulate`` itself.
    assert [site for path in sorted(SOURCES.glob("*.py")) for site in _cumsum_into_an_output(path)] == []


def _private_rayquad_names(tree):
    """``line: name`` of each ``_``-name a module imports from ``rayquad``, or reads
    as an attribute of a name it imported from there."""
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            pairs = [(f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]
        else:
            continue
        for path, local in pairs:
            if path.split(".")[0] == "rayquad":
                bound.add(local)
                if any(part.startswith("_") for part in path.split(".")):
                    found.append(f"{node.lineno}: {path}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from rayquad.fields import _trace_rows",
        "from rayquad._hidden import render",
        "import rayquad.fields as f\nf._sweep = 1",
        "import rayquad\nrayquad.fields._trace_rows([], None)",
        "from rayquad import fixtures\nprint(fixtures._cache)",
    ],
)
def test_private_name_finder_flags(source):
    assert len(_private_rayquad_names(ast.parse(source))) == 1


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_reads_only_public_names(demo):
    # A demo shows the library as a user sees it, so it reaches no ``_``-name
    # of ``rayquad``; one that needs a private helper shows a missing public name.
    assert _private_rayquad_names(ast.parse(demo.read_text())) == []


def _library_dataclasses():
    for path in sorted(SOURCES.glob("*.py")):
        module = importlib.import_module(f"rayquad.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, type) and dataclasses.is_dataclass(value):
                if value.__module__ == module.__name__:
                    yield value


# Dataclasses with an array field, as ``fields._from_scene`` reads the annotation.
ARRAY_HOLDERS = [
    cls
    for cls in _library_dataclasses()
    if any(f.type == "np.ndarray" for f in dataclasses.fields(cls))
]


def _one_of_each():
    """One instance of each array-holding dataclass, by class name."""
    grid = rayquad.make_uniform_grid(rayquad.RaySegment(0.0, 2.0), 2)
    tau = rayquad.OpacityTrace([0.0, 1.0, 2.0, 1.0])
    values = [
        grid,
        tau,
        rayquad.ColorTrace([0.2, 0.4, 0.6]),
        rayquad.interval_pmf(rayquad.ModelKind.LINEAR, grid, tau),
        fields.SampledDensity([0.0, 1.0], [1.0, 2.0]),
        fields.UniformColor([0.5]),
        fields.GradientColor([0.1], [0.9], start=0.0, end=1.0),
        fields.TwoToneColor([0.1], [0.9], boundary=1.0),
        fields.PiecewiseConstantColor([0.0, 1.0, 2.0], [[0.1], [0.9]]),
        rayquad.GrazingRig(10.0, 40.0, 1.0, angles=[0.3]),
        rayquad.QuadraticPatch([0.0, 1.0, 2.0], [1.0, 2.0, 1.5]),
        rayquad.finite_diff_check(lambda x: x.sum(axis=1), np.ones(2), np.ones(2)),
        rayquad.grad_sample_wrt_tau(rayquad.ContinuousRayCdf(grid, tau), 0.5),
    ]
    return {type(v).__name__: v for v in values}


@pytest.mark.parametrize("cls", ARRAY_HOLDERS, ids=lambda cls: cls.__name__)
def test_array_holder_compares_by_identity(cls):
    # A generated ``__eq__`` compares array fields with numpy's elementwise
    # ``==`` and raises, and its ``__hash__`` hashes an unhashable array;
    # ``eq=False`` gives identity equality and hash instead.
    assert not cls.__dataclass_params__.eq, f"{cls.__name__} must be declared eq=False"
    value = _one_of_each()[cls.__name__]
    assert value == value and value != copy.copy(value)
    assert hash(value) == hash(value) and value in {value}


def _inf_comparisons(path):
    """``file:line`` of every comparison with an ``inf`` attribute (``np.inf``,
    ``-np.inf``) as an operand."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                operand = operand.operand if isinstance(operand, ast.UnaryOp) else operand
                if isinstance(operand, ast.Attribute) and operand.attr == "inf":
                    yield f"{path.name}:{node.lineno}"


def test_no_hand_written_finite_bound():
    # ``0.0 < x < np.inf`` lets ``True`` and a huge ``int`` through and fails on a
    # string with a TypeError; a scalar's range goes through ``rays._is_real`` or
    # ``rays._is_count`` of a sign instead, so only ``rays.py`` states the float range.
    sites = [
        site
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "rays.py"
        for site in _inf_comparisons(path)
    ]
    assert sites == []


def test_one_scalar_rule():
    # Profiles judge a caller's scalar only through ``rays._real`` (and the scene
    # loader through ``rays._is_real``), so the finiteness rule cannot fork.
    tree = ast.parse((SOURCES / "fields.py").read_text())
    named = [getattr(n, "attr", None) or getattr(n, "id", None) or getattr(n, "name", None) for n in ast.walk(tree)]
    assert "isfinite" not in named
