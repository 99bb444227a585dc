"""Core ray-domain types: segments, sample grids, and sampled optical traces.

Grids carry the boundary convention that the first grid point is the near
bound and the last is the far bound, so a grid with ``n`` interior samples
has ``n + 2`` points and ``n + 1`` intervals.  A grid builds its points and
widths once; ``interior`` is a view of the points.  All values are float64
and all containers are immutable after construction; one that holds an
array compares and hashes by identity (``eq=False``).

``_frozen`` is the one intake of a caller's array into an immutable value:
it copies the array, so the caller's own is never shared or frozen, rejects
any non-finite entry, and stores the copy read-only.  An array the library
has just built is passed as ``_Adopted(array)`` and frozen in place after
the same checks; a profile's output is copied, as the profile may keep it.
``_unit`` is the same intake for color channels, which must lie in [0, 1],
and ``_real`` the intake of a caller's scalar, stored as a finite float.
A scalar field or argument passes ``_is_real``, or ``_is_count`` for an
integer, of the sign stated at the call; each class and function checks
its own shape, order and range beyond the sign.
``_interval`` is the one rule for which interval of sorted edges holds a
point: samplers, profiles and the oracle's tables all locate through it,
and rows of edges locate rows of points one row at a time.  It evaluates
the rule in two ways that place each point alike: a binary search, or, for
many points in order on few edges when the caller takes runs, their run in
each interval; sizes and order choose.
``_check`` is the one finite (and color range) test: ``_frozen`` runs it on
each array it stores, and a stack of traces runs it once for all rows.
Color channels meet the range test first: NaN fails every comparison, so
channels in [0, 1] are finite, and the finite scan runs only to word a
failure.  ``_unit`` then refuses an array with no channel.  Shape, order
and size checks sit in each class's ``__post_init__``; a grid's order
check is its ``widths > 0``, and ``make_uniform_grid`` tests its points'
order before that to name a segment too narrow for them.
``_floored`` and ``_opaque_far`` apply the opacity floor and the opaque-far
convention in place to one trace or to every row of a stack;
``floor_opacity`` writes the floor into one fresh array instead.
``_blocks`` is the one rule for long elementwise work: the draw kernels, the
KS statistic, the weighted sums and the render gradient run over consecutive
slices of at most ``_BLOCK`` values.
A slice is a view of the caller's array, so a kernel writes only into
arrays it has made.
"""

from __future__ import annotations

import enum
import numbers
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Interior opacities below this floor make the continuous CDF non-invertible.
EPS_OPACITY = 1e-6

# Opacity assigned to the far bound under the opaque-far convention; large
# enough that the final interval absorbs all remaining probability mass.
OPAQUE = 1e10


class ModelKind(enum.Enum):
    """Per-interval opacity model used by the quadrature formulas."""

    CONSTANT = "constant"
    LINEAR = "linear"


class FarConvention(enum.Enum):
    """Boundary handling at the segment ends.

    OPAQUE_FAR zeroes the near-bound opacity and assigns ``OPAQUE`` at the
    far bound, which normalizes the interval probabilities to sum to one.
    A trace that skips ``apply_far_convention`` keeps its sampled boundary
    values, the raw integral over the segment that convergence studies use.
    """

    OPAQUE_FAR = "opaque_far"


class _Adopted(NamedTuple):
    """A float64 array the library has just built and gives up."""

    array: np.ndarray


def _check(out: np.ndarray, owner: type, name: str, unit: bool = False) -> np.ndarray:
    """``out``, unless an entry is NaN or infinite or, for ``unit`` color channels, outside
    [0, 1]: then ValueError naming field ``name`` of class ``owner``."""
    if unit:
        # NaN fails every comparison, so channels in [0, 1] are finite: the range
        # test alone passes them, and the finite scan below only words a failure.
        # Python checks a few channels in a third of numpy's time; min/max allocate
        # no temporaries, and an empty array takes the Python path.
        channels = out.ravel().tolist() if out.size < 8 else (out.min(), out.max())
        if all(0.0 <= c <= 1.0 for c in channels):
            return out
    # count_nonzero: half the cost of ``.all()`` on a short ray.
    if np.count_nonzero(np.isfinite(out)) != out.size:
        raise ValueError(f"{owner.__name__}.{name} must be finite")
    if unit:
        raise ValueError(f"{owner.__name__}.{name}: color channels must lie in [0, 1]")
    return out


def _frozen(owner, name: str, ndmin: int = 1, unit: bool = False) -> np.ndarray:
    """Store array field ``name`` of the frozen dataclass ``owner`` read-only: a
    float64 copy with at least ``ndmin`` axes, or an ``_Adopted`` array as is.

    Raises ValueError naming the field if it fails ``_check``.
    """
    out = getattr(owner, name)
    out = out.array if isinstance(out, _Adopted) else np.array(out, dtype=np.float64, ndmin=ndmin)
    _check(out, type(owner), name, unit)
    out.setflags(write=False)
    object.__setattr__(owner, name, out)
    return out


def _unit(owner, name: str, ndmin: int = 1) -> np.ndarray:
    """``_frozen`` of color channels, each of which must lie in [0, 1]; an empty
    array, which has no channel, raises ValueError naming the field."""
    out = _frozen(owner, name, ndmin, unit=True)
    if out.size == 0:
        raise ValueError(f"{type(owner).__name__}.{name} needs at least one color channel")
    return out


# Least value of each sign; 5e-324, the least positive float, starts a positive count at 1.
_LEAST = {"any": -sys.float_info.max, "nonnegative": 0.0, "positive": 5e-324}


def _is_real(value, sign: str = "any") -> bool:
    """A real number of ``sign``, not a ``bool``, in the float range: NaN, ±inf, 10**400 fail."""
    # ``float`` first: the ``numbers.Real`` check alone costs about 0.4 us.
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and _LEAST[sign] <= value <= sys.float_info.max


def _is_count(value, sign: str = "any") -> bool:
    """An integer of ``sign``, not a ``bool``; numpy integers count."""
    # ``int`` first: the ``numbers.Integral`` check alone costs about 0.6 us.
    integer = type(value) is int or isinstance(value, numbers.Integral) and type(value) is not bool
    return integer and value >= _LEAST[sign]


def _real(owner, *names: str, **signs: str) -> None:
    """Store each named scalar field as a float; ValueError names any that is not
    ``_is_real`` of its sign: "any" for ``names``, the keyword's for ``signs``."""
    for name, sign in {**dict.fromkeys(names, "any"), **signs}.items():
        if not _is_real(value := getattr(owner, name), sign):
            rule = f"{sign}, got {value!r}" if _is_real(value) else "a finite real number"
            raise ValueError(f"{type(owner).__name__}.{name} must be {rule}")
        object.__setattr__(owner, name, float(value))


# Long draw inputs run in blocks of this many values: 64 KiB per float64
# temporary, inside L2 and below glibc's default mmap threshold (128 KiB), so
# a block's temporaries are reused from the heap instead of mapped afresh.
_BLOCK = 8192

# ``_interval`` answers with runs only on at most this many interior edges
# and a block of at least ``_BLOCK`` points.  Each run is one formula call on
# scalar entries, about 10 us of fixed cost on a 2-vCPU x86 VM, so runs pay
# only when they are few and long: on 8192 sorted points ``ContinuousRayCdf._cdf``
# took 73-136 us by runs against 120-159 us by search on 1 to 8 interior edges,
# but 227 against 148 us on 16; on 2048 and 4096 points the search took 45-79
# us against 70-185 us by runs on 4 and 8 interior edges.
_FEW_EDGES = 8


def _interval(edges: np.ndarray, x, runs: bool = False):
    """Index in [0, edges.size - 2] of the interval of the sorted ``edges`` holding
    each ``x``: a point on an edge, even a repeated one, lies in the last interval
    starting there, and a point past either end lies in that end's interval.

    The rule has two evaluations that place each point alike.  A row of edges
    answers with ``searchsorted(side="right")`` of its interior edges.  With
    ``runs``, a row of at most ``_FEW_EDGES`` interior edges and a non-decreasing
    1-D ``x`` of at least ``_BLOCK`` points answer instead with ``(k, run)``
    per nonempty run ``x[run]`` of interval ``k``, from its first point not below
    edge ``k``; NaN, unsorted, short or 2-D input gets the search.

    Rows of ``edges``, shape (R, M), locate the rows of ``x``, shape (R, S), one
    search per row, so each row's indices are its one-row search's exactly.
    """
    if edges.ndim == 1:
        inner = edges[1:-1]
        few = inner.size <= _FEW_EDGES and np.size(x) >= _BLOCK
        if few and runs and x.ndim == 1 and (x[1:] >= x[:-1]).all():
            bounds = [0, *x.searchsorted(inner, side="left").tolist(), x.size]
            return [(k, slice(a, b)) for k, (a, b) in enumerate(zip(bounds, bounds[1:])) if a < b]
        return inner.searchsorted(x, side="right")
    out = np.empty(np.shape(x), dtype=np.intp)
    for row, row_edges in enumerate(edges):
        out[row] = _interval(row_edges, x[row])
    return out


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``_BLOCK`` covering ``range(n)``; one when ``n`` fits."""
    return [slice(i, i + _BLOCK) for i in range(0, n, _BLOCK)]


def _blockwise(kernel, x: np.ndarray) -> np.ndarray | float:
    """``kernel(x)`` of an elementwise float64 ``kernel``, bit for bit: one call when
    ``x`` fits one block, else one call per block of ``_blocks`` into one output.
    A 0-d ``x`` runs as one element and returns a Python ``float``.

    Each block is a view of ``x``, which may be the caller's own array, so a
    kernel may not write its input; it writes its steps into arrays it made."""
    if x.ndim == 0:
        return float(kernel(x.reshape(1))[0])
    if x.size <= _BLOCK:
        return kernel(x)
    flat = x.ravel()
    out = np.empty(flat.size)
    for block in _blocks(flat.size):
        out[block] = kernel(flat[block])
    return out.reshape(x.shape)


@dataclass(frozen=True)
class RaySegment:
    """Parameter range of one viewing ray, ``0 <= near < far``."""

    near: float
    far: float

    def __post_init__(self):
        _real(self, "far", near="nonnegative")
        if not self.near < self.far:
            raise ValueError(f"degenerate segment [{self.near}, {self.far}]")

    @property
    def span(self) -> float:
        return self.far - self.near


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Strictly increasing sample distances on a ray segment.

    ``interior`` holds the n free samples; the segment bounds are implicit
    grid points, so ``points`` has length n + 2.  The points and widths are
    built once, read-only, and ``interior`` is the view ``points[1:-1]``.
    """

    interior: np.ndarray
    segment: RaySegment

    def __post_init__(self):
        # Not through ``_frozen``: a caller's interior is copied into fresh points,
        # library code passes whole ``_Adopted`` points (bounds set here), and a
        # NaN fails the strictly-increasing check.
        if isinstance(self.interior, _Adopted):
            pts = self.interior.array
        else:
            interior = np.atleast_1d(np.asarray(self.interior, dtype=np.float64))
            pts = np.concatenate(([0.0], interior, [0.0])) if interior.ndim == 1 else interior
        if pts.ndim != 1 or pts.size < 3:
            raise ValueError("grid needs at least one interior sample")
        pts[0], pts[-1] = self.segment.near, self.segment.far
        widths = pts[1:] - pts[:-1]
        if not (widths > 0).all():
            raise ValueError("grid points must be strictly increasing between near and far")
        pts.setflags(write=False)
        widths.setflags(write=False)
        object.__setattr__(self, "_points", pts)
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "interior", pts[1:-1])

    @property
    def n(self) -> int:
        """Number of interior samples."""
        return int(self.interior.size)

    @property
    def points(self) -> np.ndarray:
        """All grid points including the near and far bounds."""
        return self._points

    @property
    def widths(self) -> np.ndarray:
        """Interval widths, length n + 1."""
        return self._widths


@dataclass(frozen=True, eq=False)
class OpacityTrace:
    """Opacity (1/distance) at every grid point, length n + 2.

    ``quadrature.interval_pmf`` keeps the distributions it builds from this
    trace in a private per-instance memo, keyed on the model and the grid
    itself; it lives and dies with the trace.
    """

    values: np.ndarray
    _dists: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        values = _frozen(self, "values")
        if values.ndim != 1 or values.size < 3:
            raise ValueError("opacity trace needs one value per grid point (>= 3)")

    @property
    def interior(self) -> np.ndarray:
        return self.values[1:-1]


@dataclass(frozen=True, eq=False)
class ColorTrace:
    """Per-interval emitted colors, shape (n + 1, channels), values in [0, 1].

    ``grid`` is the grid the colors were sampled on, as ``sample_field`` and
    ``opaque_trace`` set it, so ``quadrature.render`` can refuse a distribution
    of another grid; a trace built from bare values has none, and only its
    size is checked.  A set grid must have one interval per color.
    """

    values: np.ndarray
    grid: SampleGrid | None = None

    def __post_init__(self):
        values = _unit(self, "values")
        if values.ndim == 1:
            values = values.reshape(-1, 1)
            object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("need one color per interval (>= 2 intervals)")
        grid = self.grid
        if grid is not None and not (isinstance(grid, SampleGrid) and grid.n + 1 == values.shape[0]):
            raise ValueError(f"ColorTrace.grid must be a SampleGrid of {values.shape[0] - 1} samples")

    @property
    def channels(self) -> int:
        return int(self.values.shape[1])


def make_uniform_grid(segment: RaySegment, n: int) -> SampleGrid:
    """Place ``n`` interior samples equally spaced strictly inside the segment."""
    if not _is_count(n, "positive"):
        raise ValueError(f"need a positive integer count of samples, got n={n!r}")
    pts = np.linspace(segment.near, segment.far, n + 2)
    if not (pts[1:] > pts[:-1]).all():
        raise ValueError(
            f"segment [{segment.near}, {segment.far}] is too narrow for n={n} equally "
            "spaced samples: grid points collide"
        )
    return SampleGrid(interior=_Adopted(pts), segment=segment)


def _floored(values: np.ndarray) -> np.ndarray:
    """``values`` with each row's interior opacities clamped up to ``EPS_OPACITY``, in place."""
    np.maximum(values[..., 1:-1], EPS_OPACITY, out=values[..., 1:-1])
    return values


def _opaque_far(values: np.ndarray) -> np.ndarray:
    """``values`` with each row's near opacity zeroed and far opacity ``OPAQUE``, in place."""
    values[..., 0] = 0.0
    values[..., -1] = OPAQUE
    return values


def floor_opacity(trace: OpacityTrace) -> OpacityTrace:
    """Clamp interior opacities up to ``EPS_OPACITY``; boundary entries pass through."""
    # The clamp writes a fresh array, one pass; a copy clamped in place is two.
    values = trace.values
    floored = np.empty_like(values)
    floored[0], floored[-1] = values[0], values[-1]
    np.maximum(values[1:-1], EPS_OPACITY, out=floored[1:-1])
    return OpacityTrace(_Adopted(floored))


def apply_far_convention(
    trace: OpacityTrace, convention: FarConvention
) -> OpacityTrace:
    """Zero the near-bound opacity and set the far bound to ``OPAQUE`` (``OPAQUE_FAR``)."""
    if convention is not FarConvention.OPAQUE_FAR:
        raise ValueError(f"unknown far convention {convention!r}")
    return OpacityTrace(_Adopted(_opaque_far(trace.values.copy())))
