"""Closed-form 1D opacity and color fields used as ground truth.

Each field pairs a density profile with a color profile, both plain
functions of distance along the ray.  Profiles report their breakpoints
(jumps or kinks) so numerical integration can split panels there, and
their local polynomial degree when the density is piecewise polynomial,
which lets the integration oracle tabulate it exactly.  Every parameter
is finite and every color channel lies in [0, 1]; constructors reject
anything else.  A scalar enters through ``rays._real`` as a float; arrays
and colors enter through ``rays._frozen`` and ``rays._unit`` as read-only
float64 copies, so a profile never shares or freezes the caller's array.

``opaque_trace`` is the one path from a field to a renderable trace.

The scalar-parameter profiles (``ConstantSlab``, ``LinearRamp``,
``GaussianBump``, ``LogisticStep``, ``UniformColor``, ``GradientColor``
and ``TwoToneColor``) evaluate elementwise in every parameter.  So many
profiles of one such class are evaluated as one: ``_stack`` stacks their
parameters one row per profile, and ``_gather`` picks a row for each
point into one instance whose ``tau``/``color`` gives, bit for bit, what
each point's own profile gives; ``_by_ray`` makes that one call for
profiles of one class and rejects a mixed list.  ``SampledDensity`` and
``PiecewiseConstantColor`` look points up in their own knot arrays,
which differ in length from profile to profile, so they do not gather
and each is called on its own.  Gathered calls serve the oracle engine;
only ``oracle.true_render_batch`` takes rays of mixed classes, and it
splits them into same-class batches first.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rays import (
    ColorTrace,
    FarConvention,
    OpacityTrace,
    RaySegment,
    SampleGrid,
    _Adopted,
    _frozen,
    _interval,
    _is_real,
    _real,
    _unit,
    apply_far_convention,
    floor_opacity,
    make_uniform_grid,
)


class DensityProfile:
    """Nonnegative opacity as a function of distance."""

    #: Local polynomial degree of the profile between breakpoints, or None
    #: when the profile is not piecewise polynomial.
    polynomial_degree: int | None = None

    def tau(self, s):
        raise NotImplementedError

    def breakpoints(self) -> np.ndarray:
        return np.empty(0)


@dataclass(frozen=True)
class ConstantSlab(DensityProfile):
    """Opacity ``tau0`` inside [start, end], zero outside."""

    tau0: float
    start: float
    end: float
    polynomial_degree = 0

    def __post_init__(self):
        _real(self, "tau0", "start", "end")
        if self.tau0 < 0:
            raise ValueError("slab opacity must be nonnegative")
        if not self.start < self.end:
            raise ValueError("slab needs start < end")

    def tau(self, s):
        s = np.asarray(s, dtype=np.float64)
        return np.where((s >= self.start) & (s <= self.end), self.tau0, 0.0)

    def breakpoints(self) -> np.ndarray:
        return np.array([self.start, self.end])


@dataclass(frozen=True)
class LinearRamp(DensityProfile):
    """Opacity varying linearly from (start, tau_start) to (end, tau_end).

    Values are clamped to the endpoint opacities outside [start, end].
    """

    tau_start: float
    tau_end: float
    start: float
    end: float
    polynomial_degree = 1

    def __post_init__(self):
        _real(self, "tau_start", "tau_end", "start", "end")
        if self.tau_start < 0 or self.tau_end < 0:
            raise ValueError("ramp opacities must be nonnegative")
        if not self.start < self.end:
            raise ValueError("ramp needs start < end")

    def tau(self, s):
        s = np.asarray(s, dtype=np.float64)
        frac = np.clip((s - self.start) / (self.end - self.start), 0.0, 1.0)
        return self.tau_start + frac * (self.tau_end - self.tau_start)

    def breakpoints(self) -> np.ndarray:
        return np.array([self.start, self.end])


@dataclass(frozen=True)
class GaussianBump(DensityProfile):
    """Smooth bell of height ``amplitude`` centered at ``center``."""

    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        _real(self, "amplitude", "center", "width")
        if self.width <= 0:
            raise ValueError("bump width must be positive")
        if self.amplitude < 0:
            raise ValueError("bump amplitude must be nonnegative")

    def tau(self, s):
        s = np.asarray(s, dtype=np.float64)
        z = (s - self.center) / self.width
        return self.amplitude * np.exp(-0.5 * z * z)


@dataclass(frozen=True)
class LogisticStep(DensityProfile):
    """Sigmoid rise from 0 to ``amplitude`` around ``center``.

    ``steepness`` is the logistic rate; tau at the center is amplitude/2.
    """

    amplitude: float
    steepness: float
    center: float

    def __post_init__(self):
        _real(self, "amplitude", "steepness", "center")
        if self.steepness <= 0:
            raise ValueError("step steepness must be positive")
        if self.amplitude < 0:
            raise ValueError("step amplitude must be nonnegative")

    def tau(self, s):
        s = np.asarray(s, dtype=np.float64)
        # exp of the negated |argument| only, so large z cannot overflow.  Step
        # for step as amplitude * where(z >= 0, 1 / (1 + e), e / (1 + e)).
        z = np.subtract(s, self.center, out=np.empty(np.broadcast(s, self.center).shape))
        z *= self.steepness
        e = np.abs(z, out=np.empty_like(z))
        np.negative(e, out=e)
        np.exp(e, out=e)
        rising = z >= 0
        denom = np.add(e, 1.0, out=z)
        np.divide(e, denom, out=e)
        np.divide(1.0, denom, out=e, where=rising)
        e *= self.amplitude
        return e if e.ndim else e[()]


@dataclass(frozen=True)
class SampledDensity(DensityProfile):
    """Density reconstructed from opacities at fixed knots.

    ``degree=0`` holds each knot's value until the next knot (left-sample
    rule); ``degree=1`` interpolates linearly between knots.  Outside the
    knot range the first/last value is used.
    """

    knots: np.ndarray
    values: np.ndarray
    degree: int = 1

    def __post_init__(self):
        knots, values = _frozen(self, "knots"), _frozen(self, "values")
        if knots.size != values.size or knots.size < 2:
            raise ValueError("need matching knots and values (>= 2)")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        if type(self.degree) is not int or self.degree not in (0, 1):
            raise ValueError(f"sampled density supports the int degree 0 or 1, got {self.degree!r}")
        if np.any(values < 0):
            raise ValueError("sampled opacities must be nonnegative")

    @property
    def polynomial_degree(self) -> int:
        return self.degree

    def tau(self, s):
        s = np.asarray(s, dtype=np.float64)
        if self.degree == 1:
            return np.interp(s, self.knots, self.values)
        return self.values[_interval(self.knots, s)]

    def breakpoints(self) -> np.ndarray:
        return np.array(self.knots)


class ColorProfile:
    """Emitted color as a function of distance, channels in [0, 1]."""

    channels: int = 1

    def color(self, s) -> np.ndarray:
        """Colors for distances ``s``; shape (len(s), channels)."""
        raise NotImplementedError

    def breakpoints(self) -> np.ndarray:
        return np.empty(0)


@dataclass(frozen=True)
class UniformColor(ColorProfile):
    value: np.ndarray

    def __post_init__(self):
        _unit(self, "value")

    @property
    def channels(self) -> int:
        return int(self.value.size)

    def color(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        return np.broadcast_to(self.value, (s.size, self.value.shape[-1])).copy()


@dataclass(frozen=True)
class GradientColor(ColorProfile):
    """Linear blend from ``start_value`` at start to ``end_value`` at end."""

    start_value: np.ndarray
    end_value: np.ndarray
    start: float
    end: float

    def __post_init__(self):
        if _unit(self, "start_value").size != _unit(self, "end_value").size:
            raise ValueError("gradient endpoints need matching channel counts")
        _real(self, "start", "end")
        if not self.start < self.end:
            raise ValueError("gradient needs start < end")

    @property
    def channels(self) -> int:
        return int(self.start_value.size)

    def color(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        frac = np.clip((s - self.start) / (self.end - self.start), 0.0, 1.0)
        return self.start_value + frac[:, None] * (self.end_value - self.start_value)


@dataclass(frozen=True)
class TwoToneColor(ColorProfile):
    """``before`` color up to the boundary, ``after`` color past it."""

    before: np.ndarray
    after: np.ndarray
    boundary: float

    def __post_init__(self):
        if _unit(self, "before").size != _unit(self, "after").size:
            raise ValueError("two-tone colors need matching channel counts")
        _real(self, "boundary")

    @property
    def channels(self) -> int:
        return int(self.before.size)

    def color(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        mask = (s >= self.boundary)[:, None]
        return np.where(mask, self.after, self.before)

    def breakpoints(self) -> np.ndarray:
        return np.array([self.boundary])


@dataclass(frozen=True)
class PiecewiseConstantColor(ColorProfile):
    """One color per knot interval, held constant (left-sample rule)."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots, values = _frozen(self, "knots"), _unit(self, "values", ndmin=2)
        if values.shape[0] != knots.size - 1:
            raise ValueError("need one color per knot interval")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("color knots must be strictly increasing")

    @property
    def channels(self) -> int:
        return int(self.values.shape[1])

    def color(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        return self.values[_interval(self.knots, s)]

    def breakpoints(self) -> np.ndarray:
        return np.array(self.knots)


# Profiles whose tau/color act elementwise in every parameter.
_GATHERABLE = frozenset(
    {ConstantSlab, LinearRamp, GaussianBump, LogisticStep, UniformColor, GradientColor, TwoToneColor}
)


def _stack(profiles) -> dict[str, np.ndarray]:
    """Each parameter of same-class gatherable profiles, one row per profile."""
    return {
        f.name: np.array([getattr(p, f.name) for p in profiles], dtype=np.float64)
        for f in dataclasses.fields(type(profiles[0]))
    }


def _gather(cls, stacked: dict[str, np.ndarray], rows: np.ndarray):
    """One ``cls`` instance whose point ``i`` sees the profile in row ``rows[i]``.

    Built without its constructor, so its arrays skip ``rays._frozen``:
    every row was validated when its profile was made.
    """
    profile = object.__new__(cls)
    for name, values in stacked.items():
        object.__setattr__(profile, name, values[rows])
    return profile


def _by_ray(profiles, method: str):
    """``f(x, ray)``: ``profiles[ray[i]].<method>`` at ``x[i]`` for every point.

    Many profiles share one class in ``_GATHERABLE`` and are called once,
    as the instance gathered by each point's ray, so each point's value is
    the one its own profile gives, bit for bit; a mixed list raises
    ValueError.  A single profile of any class is called as itself.
    """
    if len(profiles) == 1:
        # Skips stacking and gathering: build plus call 16-18 us, not 32-41 us (2-core Xeon).
        call = getattr(profiles[0], method)
        return lambda x, ray: call(x)
    cls = type(profiles[0])
    if cls not in _GATHERABLE or any(type(p) is not cls for p in profiles):
        raise ValueError("profiles evaluated together need one class in _GATHERABLE")
    stacked = _stack(profiles)
    return lambda x, ray: getattr(_gather(cls, stacked, ray), method)(x)


@dataclass(frozen=True)
class AnalyticField:
    """A density profile paired with a color profile along one ray."""

    density: DensityProfile
    color: ColorProfile = UniformColor(np.array([1.0]))

    def tau(self, s):
        return self.density.tau(s)

    def color_at(self, s) -> np.ndarray:
        return self.color.color(s)


def sample_field(
    field: AnalyticField, grid: SampleGrid
) -> tuple[OpacityTrace, ColorTrace]:
    """Evaluate a field on a grid: opacities at points, colors per interval.

    Each interval takes the color of its left sample, matching the
    classical quadrature's indexing.
    """
    pts = grid.points
    return OpacityTrace(field.tau(pts)), ColorTrace(field.color_at(pts[:-1]))


def opaque_trace(
    field: AnalyticField, grid: SampleGrid
) -> tuple[OpacityTrace, ColorTrace]:
    """Renderable traces of ``field`` on ``grid`` under the opaque far plane.

    Samples the field, floors the interior opacities (``floor_opacity``)
    and applies ``FarConvention.OPAQUE_FAR``, so every distribution built
    from the trace sums to one and its continuous CDF is invertible.
    """
    tau, colors = sample_field(field, grid)
    return apply_far_convention(floor_opacity(tau), FarConvention.OPAQUE_FAR), colors


def _shifted_grid(grid: SampleGrid, offset: float) -> SampleGrid:
    """Translate every interior sample by ``offset`` (used by shift sweeps)."""
    if offset == 0.0:
        return grid
    gaps = grid.widths
    if not 0.0 <= offset < gaps.min():
        raise ValueError(f"offset {offset} outside [0, min gap {gaps.min()})")
    pts = np.empty(grid.points.size)
    np.add(grid.interior, offset, out=pts[1:-1])
    if pts[-2] >= grid.segment.far:
        raise ValueError("shifted samples must stay inside the segment")
    return SampleGrid(interior=_Adopted(pts), segment=grid.segment)


def shift_sweep(
    field: AnalyticField, segment: RaySegment, n: int, offsets: int
) -> list[tuple[float, SampleGrid, OpacityTrace, ColorTrace]]:
    """``opaque_trace`` of ``field`` on a uniform ``n``-sample grid at shifted offsets.

    The ``offsets`` shifts are equally spaced over one grid spacing,
    starting at zero.  Returns ``(offset, grid, tau, colors)`` per shift.
    """
    grid0 = make_uniform_grid(segment, n)
    h = segment.span / (n + 1)
    sweep = []
    for off in np.linspace(0.0, h, offsets, endpoint=False):
        grid = _shifted_grid(grid0, float(off))
        sweep.append((float(off), grid, *opaque_trace(field, grid)))
    return sweep


@dataclass(frozen=True)
class GrazingRig:
    """Rays crossing a planar logistic wall at shallow angles.

    The wall density rises along the perpendicular depth coordinate.  A
    ray at angle ``theta`` to the wall plane advances through depth at
    rate sin(theta), so its 1D profile is the wall profile stretched by
    1/sin(theta).  Building that profile once checks the wall's signs.
    """

    wall_amplitude: float
    wall_steepness: float
    wall_depth: float
    angles: np.ndarray

    def __post_init__(self):
        _real(self, "wall_amplitude", "wall_steepness", "wall_depth")
        LogisticStep(self.wall_amplitude, self.wall_steepness, self.wall_depth)
        angles = _frozen(self, "angles")
        if angles.size == 0:
            raise ValueError("grazing rig needs at least one angle")
        if np.any(angles <= 0) or np.any(angles > np.pi / 2):
            raise ValueError("angles must lie in (0, pi/2]")

    def ray_field(self, angle: float, offset: float = 0.0) -> AnalyticField:
        """Field seen along a ray entering at ``offset`` perpendicular depth.

        ``angle`` must lie in (0, pi/2], as the rig's ``angles`` do.
        """
        if not 0.0 < angle <= np.pi / 2:
            raise ValueError(f"angle {angle} outside (0, pi/2]")
        sin = float(np.sin(angle))
        center = (self.wall_depth - offset) / sin
        density = LogisticStep(self.wall_amplitude, self.wall_steepness * sin, center)
        color = TwoToneColor(before=[0.1], after=[0.9], boundary=center)
        return AnalyticField(density=density, color=color)


_DENSITY_KINDS = {
    "constant_slab": ConstantSlab,
    "linear_ramp": LinearRamp,
    "gaussian_bump": GaussianBump,
    "logistic_step": LogisticStep,
}
_COLOR_KINDS = {"uniform": UniformColor, "gradient": GradientColor, "two_tone": TwoToneColor}
_SCENE_KEYS = {(ConstantSlab, "tau0"): "tau"}  # scene keys unlike the parameter's name


def _checked(spec, keys, what: str) -> dict:
    """``spec`` if it is an object with exactly ``keys``, else ValueError naming the key."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be an object")
    for key in [*spec, *keys]:
        if (key in spec) != (key in keys):
            raise ValueError(f"{what}: {'unknown' if key in spec else 'missing'} key {key!r}")
    return spec


def _from_scene(cls, spec, what: str, extra_keys=()):
    """``cls`` called with the values of its fields' keys in ``spec``, an object with
    exactly ``extra_keys`` and those keys.  An array field takes a non-empty list of
    numbers, any other field a number; a wrong type raises ValueError naming the key."""
    fields = dataclasses.fields(cls)
    keys = [_SCENE_KEYS.get((cls, f.name), f.name) for f in fields]
    _checked(spec, [*extra_keys, *keys], what)
    for key, f in zip(keys, fields):
        value = spec[key]
        if f.type != "np.ndarray":
            if not _is_real(value):
                raise ValueError(f"{what}: {key!r} must be a number")
        elif not (isinstance(value, list) and value and all(map(_is_real, value))):
            raise ValueError(f"{what}: {key!r} must be a non-empty list of numbers")
    return cls(*(spec[key] for key in keys))


def _profile(spec, kinds: dict, what: str):
    """The profile of class ``kinds[spec["kind"]]``, called with the other keys of ``spec``."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return _from_scene(kinds[kind], spec, f"scene {what}", ["kind"])


def load_scene(path: str | Path) -> tuple[AnalyticField, RaySegment]:
    """Read a scene file: JSON with ``field``, ``segment``, optional ``color``.

    Every object must have exactly its schema's keys, and every value must be
    a number a constructor takes (``rays._is_real``: finite, not a bool), or a
    non-empty list of them for a color; an unknown or missing key or a wrongly
    typed value raises ValueError naming the key.  See docs/scene-format.md
    for the schema.
    """
    spec = json.loads(Path(path).read_text())
    if isinstance(spec, dict):
        spec.setdefault("color", {"kind": "uniform", "value": [1.0]})
    _checked(spec, ("field", "segment", "color"), "scene")
    density = _profile(spec["field"], _DENSITY_KINDS, "field")
    color = _profile(spec["color"], _COLOR_KINDS, "color")
    segment = _from_scene(RaySegment, spec["segment"], "scene segment")
    return AnalyticField(density=density, color=color), segment
