"""Walk through the two closed-form opacity models on a single ray.

Shows transmittance, interval probabilities, the telescoping identity
between cumulative mass and survival, and how the two models agree when
opacity is genuinely flat.
"""

import numpy as np

from rayquad import (
    AnalyticField,
    ColorTrace,
    ModelKind,
    OpacityTrace,
    RaySegment,
    SampleGrid,
    interval_pmf,
    opaque_trace,
    render,
)
from rayquad.fields import SampledDensity

# A ray from 0 to 2 with one interior sample at 1: two unit intervals.
grid = SampleGrid(np.array([1.0]), RaySegment(0.0, 2.0))
tau = OpacityTrace(np.array([1.0, 2.0, 3.0]))

print("grid points:", grid.points)
print("opacity at points:", tau.values)

for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
    dist = interval_pmf(model, grid, tau)
    print(f"\n{model.value} model")
    print("  transmittance:", np.round(dist.transmittance, 7))
    print("  interval probabilities:", np.round(dist.pmf, 7))
    print("  cumulative + transmittance (should be all ones):",
          np.round(dist.cumulative + dist.transmittance, 15))

# The constant model reads only the left sample of each interval, so its
# first interval ignores the rise from 1 to 2; the linear model charges
# the average. With a flat profile the two agree to rounding.
flat = OpacityTrace(np.full(3, 2.0))
a = interval_pmf(ModelKind.CONSTANT, grid, flat)
b = interval_pmf(ModelKind.LINEAR, grid, flat)
print("\nflat profile, max |P_const - P_linear|:",
      np.max(np.abs(a.pmf - b.pmf)))

# Rendering composites per-interval colors with those probabilities.
colors = ColorTrace(np.array([0.9, 0.2]))
for model, dist in (("constant", a), ("linear", b)):
    print(f"rendered value ({model}, flat profile):", render(dist, colors)[0])

# opaque_trace samples a field under the opaque-far convention, which
# forces all probability mass onto the segment, as hierarchical samplers
# assume. Here the field interpolates the same three opacities.
opaque, _ = opaque_trace(AnalyticField(SampledDensity(grid.points, tau.values)), grid)
dist = interval_pmf(ModelKind.LINEAR, grid, opaque)
print("\nopaque far: probabilities sum to", dist.pmf.sum())
