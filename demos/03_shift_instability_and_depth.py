"""Sample-shift instability of the left-sample rule, and depth accuracy.

Sweeping a fixed-size grid across a resolved logistic wall leaves the
linear model's output nearly unchanged while the constant model's output
wobbles by an order of magnitude more.  The same wall shows the expected
termination depth biasing late under the constant model.
"""

import numpy as np

from rayquad import (
    ColorTrace,
    ModelKind,
    OpacityTrace,
    SampleGrid,
    expected_depth,
    interval_pmf,
    render,
    shift_sweep,
    true_mean_termination,
)
from rayquad import fixtures

scene = fixtures.shift_scene()
segment = fixtures.SHIFT_SEGMENT
n = fixtures.SHIFT_N
h = segment.span / (n + 1)
# One row per shift; the public constructors make each row a one-ray grid and traces.
_, points, taus, colors = shift_sweep(scene, segment, n, 32)
sweep = [
    (SampleGrid(p[1:-1], segment), OpacityTrace(t), ColorTrace(c))
    for p, t, c in zip(points, taus, colors)
]

print(f"logistic wall on [{segment.near}, {segment.far}], {n} samples, "
      f"sweeping offsets over one spacing h = {h:.4f}")

spreads = {}
for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
    values = [render(interval_pmf(model, g, tau), colors)[0] for g, tau, colors in sweep]
    spreads[model] = max(values) - min(values)
    print(f"  {model.value:8s} rendered-value spread over offsets: {spreads[model]:.3e}")

print(f"spread ratio constant/linear: "
      f"{spreads[ModelKind.CONSTANT] / spreads[ModelKind.LINEAR]:.1f}")

truth = true_mean_termination(scene, segment, 1e-10)
print(f"\noracle mean termination depth: {truth:.6f}")
for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
    errs = [expected_depth(interval_pmf(model, g, tau), g) - truth for g, tau, _ in sweep]
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    print(f"  {model.value:8s} depth RMSE vs oracle: {rmse:.6f}")
