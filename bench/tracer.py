"""In-memory span tracer that instruments rayquad from the outside.

Every public function of a layer is wrapped at each place it is bound:
its defining module, the package namespace and any module that imported
it by name (``rayquad.cli`` does so for most of them).  Calls made from
one layer into another therefore nest as child spans.  Classes are never
replaced, because ``hierarchical_samples`` dispatches on ``isinstance``;
constructors are timed through ``__post_init__`` (or ``__init__`` where
the class has no dataclass hook), and methods and properties are patched
on the class.  ``install`` and ``uninstall`` swap the patches in and out,
so untraced code runs unmodified.

A span is (name, start, end, parent, op).  Self time is a span's duration
minus the durations of its direct children.  Counts are recorded by the
same wrappers: density ``tau`` calls and points, adaptive-Simpson calls
and evaluations, and merge results of ``hierarchical_samples``.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("rays", "fields", "quadrature", "sampling", "gradients", "oracle")

# Span names that the per-layer metrics read; every other span still
# counts towards its layer's self time.
GROUPS = {
    "rays.SampleGrid.init": "rays.grid",
    "rays.OpacityTrace.init": "rays.trace",
    "rays.ColorTrace.init": "rays.trace",
    "rays.floor_opacity": "rays.convention",
    "rays.apply_far_convention": "rays.convention",
    "rays.SampleGrid.points": "rays.points",
    "rays.SampleGrid.widths": "rays.points",
    "fields.sample_field": "fields.sample_field",
    "fields.tau": "fields.tau",
    "quadrature.interval_pmf": "quadrature.interval_pmf",
    "quadrature.render": "quadrature.render",
    "quadrature.expected_depth": "quadrature.expected_depth",
    "sampling.ContinuousRayCdf.init": "sampling.cdf_build",
    "sampling.ContinuousRayCdf.precise_sample": "sampling.precise_sample",
    "sampling.DiscreteRayCdf.surrogate_sample": "sampling.surrogate_sample",
    "sampling.hierarchical_samples": "sampling.hierarchical",
    "gradients.grad_render_wrt_tau": "gradients.grad_render",
    "gradients.grad_sample_wrt_tau": "gradients.grad_sample",
    "gradients.finite_diff_check": "gradients.finite_diff",
    "oracle.true_render": "oracle.true_render",
    "oracle.true_mean_termination": "oracle.true_mean_termination",
    "oracle.ks_statistic": "oracle.ks",
}

# Methods patched on classes, by layer module; ``tau`` and ``color`` are
# patched on every subclass that defines them.
METHODS = {
    "rays": {"SampleGrid": ("points", "widths")},
    "fields": {"GrazingRig": ("ray_field",)},
    "sampling": {
        "ContinuousRayCdf": ("precise_sample", "cdf_eval"),
        "DiscreteRayCdf": ("surrogate_sample",),
    },
    "oracle": {"CumulativeOpacityTable": ("refined",)},
}

# Functions that only count; they are not spans, so their time stays in
# the calling oracle span and ``true_render`` keeps its own cost.
COUNT_ONLY = {("oracle", "integrate_adaptive")}


class Tracer:
    """Spans and counters for one traced block of operations."""

    def __init__(self, rq_modules: dict):
        self.modules = rq_modules
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [-1]
        self.op = -1
        self._patches = self._plan()

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened at a call site (operations, commands)."""
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, after=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(sid)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- counters ----------------------------------------------------------

    def _count_tau(self, args, kwargs, out):
        self.counts["fields.tau_calls"] += 1
        self.counts["fields.tau_points"] += int(np.size(out))

    def _count_merge(self, args, kwargs, out):
        cdf = args[0] if args else kwargs["cdf"]
        n_fine = args[1] if len(args) > 1 else kwargs["n_fine"]
        self.counts["sampling.merge_kept"] += out.n
        self.counts["sampling.merge_offered"] += cdf.grid.n + n_fine

    def _counting_adaptive(self, fn):
        tracer = self
        NoConvergence = self.modules["oracle"].NoConvergenceError

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts["oracle.adaptive_calls"] += 1
            try:
                res = fn(*args, **kwargs)
            except NoConvergence as exc:
                tracer.counts["oracle.adaptive_evals"] += exc.partial.evaluations
                raise
            tracer.counts["oracle.adaptive_evals"] += res.evaluations
            return res

        return counted

    # -- patch plan ----------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every patch."""
        patches = []
        wrappers = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if (layer, attr) in COUNT_ONLY:
                        wrappers[obj] = self._counting_adaptive(obj)
                    else:
                        after = self._count_merge if attr == "hierarchical_samples" else None
                        wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", after)
                elif inspect.isclass(obj):
                    patches += self._class_patches(layer, obj)
        # Every binding site of a wrapped function, across the package.
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj, wrappers[obj]))
        return patches

    def _class_patches(self, layer: str, cls) -> list:
        patches = []
        own = vars(cls)
        if not issubclass(cls, (BaseException, enum.Enum)):
            for hook in ("__post_init__", "__init__"):
                if inspect.isfunction(own.get(hook)):
                    fn = own[hook]
                    name = f"{layer}.{cls.__name__}.init"
                    patches.append((cls, hook, fn, self._wrap(fn, name)))
                    break
        for attr in METHODS.get(layer, {}).get(cls.__name__, ()):
            orig = own[attr]
            if isinstance(orig, property):
                new = property(self._wrap(orig.fget, f"{layer}.{cls.__name__}.{attr}"))
            else:
                new = self._wrap(orig, f"{layer}.{cls.__name__}.{attr}")
            patches.append((cls, attr, orig, new))
        if layer == "fields":
            fields = self.modules["fields"]
            for base, method, after in (
                (fields.DensityProfile, "tau", self._count_tau),
                (fields.ColorProfile, "color", None),
            ):
                fn = own.get(method)
                if issubclass(cls, base) and cls is not base and inspect.isfunction(fn):
                    name = f"fields.{method}"
                    patches.append((cls, method, fn, self._wrap(fn, name, after)))
        return patches

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span name ids and self times in seconds."""
        dur = np.array(self.span_end) - np.array(self.span_start)
        parent = np.array(self.span_parent)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return np.array(self.span_name), dur - child

    def write(self, path: Path) -> None:
        """Dump all spans as one compressed array file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.array(self.span_name),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            parent=np.array(self.span_parent),
            op=np.array(self.span_op),
        )

