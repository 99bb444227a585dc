"""Core ray-domain types: segments, sample grids, and sampled optical traces.

Grids carry the boundary convention that the first grid point is the near
bound and the last is the far bound, so a grid with ``n`` interior samples
has ``n + 2`` points and ``n + 1`` intervals.  A grid builds its points and
widths once; ``interior`` is a view of the points.  All values are float64
and all containers are immutable after construction.

``_frozen`` is the one intake of a caller's array into an immutable value:
it copies the array, so the caller's own is never shared or frozen, rejects
any non-finite entry, and stores the copy read-only.  An array the library
has just built is passed as ``_Adopted(array)`` and frozen in place after
the same checks; a profile's output is copied, as the profile may keep it.
``_unit`` is the same intake for color channels, which must lie in [0, 1],
and ``_real`` the intake of a caller's scalar, stored as a finite float.
Each class checks its own shape, sign, order and range on either path.
``_interval`` is the one rule for which interval of sorted edges holds a
point: samplers, profiles and the oracle's tables all locate through it.
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


def _frozen(owner, name: str, ndmin: int = 1) -> np.ndarray:
    """Store array field ``name`` of the frozen dataclass ``owner`` read-only: a
    float64 copy with at least ``ndmin`` axes, or an ``_Adopted`` array as is.

    Raises ValueError naming the field if any entry is NaN or infinite.
    """
    out = getattr(owner, name)
    out = out.array if isinstance(out, _Adopted) else np.array(out, dtype=np.float64, ndmin=ndmin)
    # count_nonzero: half the cost of ``.all()`` on a short ray.
    if np.count_nonzero(np.isfinite(out)) != out.size:
        raise ValueError(f"{type(owner).__name__}.{name} must be finite")
    out.setflags(write=False)
    object.__setattr__(owner, name, out)
    return out


def _unit(owner, name: str, ndmin: int = 1) -> np.ndarray:
    """``_frozen``, then ValueError naming the field unless every channel lies in [0, 1]."""
    out = _frozen(owner, name, ndmin)
    # Python checks a few channels in a third of numpy's time; min/max allocate no temporaries.
    channels = out.ravel().tolist() if out.size < 8 else (out.min(), out.max())
    if not all(0.0 <= c <= 1.0 for c in channels):
        raise ValueError(f"{type(owner).__name__}.{name}: color channels must lie in [0, 1]")
    return out


def _is_real(value) -> bool:
    """A real number, not a ``bool``, in the float range: NaN, ±inf and a huge ``int`` fail."""
    # ``float`` first: the ``numbers.Real`` check alone costs about 0.4 us.
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and -sys.float_info.max <= value <= sys.float_info.max


def _real(owner, *names: str) -> None:
    """Store each named scalar field as a float; ValueError names any that is not ``_is_real``."""
    for name in names:
        if not _is_real(value := getattr(owner, name)):
            raise ValueError(f"{type(owner).__name__}.{name} must be a finite real number")
        object.__setattr__(owner, name, float(value))


def _interval(edges: np.ndarray, x):
    """Index in [0, edges.size - 2] of the interval of the sorted ``edges`` holding
    each ``x``: a point on an edge, even a repeated one, lies in the last interval
    starting there, and a point past either end lies in that end's interval."""
    return edges[1:-1].searchsorted(x, side="right")


@dataclass(frozen=True)
class RaySegment:
    """Parameter range of one viewing ray, ``0 <= near < far``."""

    near: float
    far: float

    def __post_init__(self):
        _real(self, "near", "far")
        if self.near < 0:
            raise ValueError(f"near bound must be nonnegative, got {self.near}")
        if not self.near < self.far:
            raise ValueError(f"degenerate segment [{self.near}, {self.far}]")

    @property
    def span(self) -> float:
        return self.far - self.near


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class OpacityTrace:
    """Opacity (1/distance) at every grid point, length n + 2.

    ``quadrature.interval_pmf`` keeps the distributions it builds from this
    trace in a private per-instance memo, keyed on the model and the
    grid's identity; it lives and dies with the trace.
    """

    values: np.ndarray
    _dists: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        values = _frozen(self, "values")
        if values.ndim != 1 or values.size < 3:
            raise ValueError("opacity trace needs one value per grid point (>= 3)")

    @property
    def interior(self) -> np.ndarray:
        return self.values[1:-1]


@dataclass(frozen=True)
class ColorTrace:
    """Per-interval emitted colors, shape (n + 1, channels), values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = _unit(self, "values")
        if values.ndim == 1:
            values = values.reshape(-1, 1)
            object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("need one color per interval (>= 2 intervals)")

    @property
    def channels(self) -> int:
        return int(self.values.shape[1])


def make_uniform_grid(segment: RaySegment, n: int) -> SampleGrid:
    """Place ``n`` interior samples equally spaced strictly inside the segment."""
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    pts = np.linspace(segment.near, segment.far, n + 2)
    return SampleGrid(interior=_Adopted(pts), segment=segment)


def floor_opacity(trace: OpacityTrace) -> OpacityTrace:
    """Clamp interior opacities up to ``EPS_OPACITY``; boundary entries pass through."""
    values = trace.values.copy()
    np.maximum(values[1:-1], EPS_OPACITY, out=values[1:-1])
    return OpacityTrace(_Adopted(values))


def apply_far_convention(
    trace: OpacityTrace, convention: FarConvention
) -> OpacityTrace:
    """Zero the near-bound opacity and set the far bound to ``OPAQUE`` (``OPAQUE_FAR``)."""
    if convention is not FarConvention.OPAQUE_FAR:
        raise ValueError(f"unknown far convention {convention!r}")
    values = trace.values.copy()
    values[0] = 0.0
    values[-1] = OPAQUE
    return OpacityTrace(_Adopted(values))
