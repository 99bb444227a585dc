"""Analytic derivatives, checked against central differences.

Every gradient in the library is a hand-derived closed form; the
finite-difference checker is the referee.  The last section shows the
optimization-relevant asymmetry between the samplers: the surrogate is
blind to within-bin opacity shape, the exact inverse is not.
"""

import numpy as np

from rayquad import (
    ContinuousRayCdf,
    DiscreteRayCdf,
    ModelKind,
    OpacityTrace,
    RaySegment,
    SampleGrid,
    finite_diff_check,
    grad_render_wrt_tau,
    grad_sample_wrt_tau,
    interval_pmf,
)
from rayquad import fixtures

grid = SampleGrid(np.array([0.5, 1.0, 1.5]), RaySegment(0.0, 2.0))
tau = OpacityTrace(np.array([0.4, 1.2, 2.2, 1.0, 0.6]))
colors = np.array([0.1, 0.3, 0.8, 0.5])

for model in (ModelKind.CONSTANT, ModelKind.LINEAR):
    analytic = grad_render_wrt_tau(model, grid, tau, colors)

    def f(X, model=model):
        return [float(interval_pmf(model, grid, OpacityTrace(x)).pmf @ colors) for x in X]

    report = finite_diff_check(f, np.array(tau.values), analytic, h=1e-4)
    print(f"{model.value} render gradient: {np.round(analytic, 6)}")
    print(f"  max relative error vs central differences: {report.max_rel_err:.2e}")

cdf = ContinuousRayCdf(grid, tau)
u = 0.6 * float(cdf.cumulative[-1])
sg = grad_sample_wrt_tau(cdf, u)
print(f"\nsample gradient at draw u={u:.4f} (bin {sg.bin}):")
print(f"  d sample / d tau_left  = {sg.d_tau_left:+.6f}")
print(f"  d sample / d tau_right = {sg.d_tau_right:+.6f}")
print(f"  d sample / d tau (every opacity) = {np.round(sg.d_tau, 6)}")
print("  the sample moves with every opacity before its bin, through the")
print("  transmittance it must spend first; opacities past the bin do not enter")
report = finite_diff_check(
    lambda X: [ContinuousRayCdf(grid, OpacityTrace(x)).precise_sample(u) for x in X],
    np.array(tau.values),
    sg.d_tau,
    h=1e-5,
)
print(f"  max relative error vs central differences: {report.max_rel_err:.2e}")

# Perturb opacity in a way that preserves every cumulative bin mass: the
# surrogate cannot tell the difference, the exact inverse can.
grid_i, base, perturbed = fixtures.surrogate_invariance_instance()
dist_a = interval_pmf(ModelKind.LINEAR, grid_i, base)
dist_b = interval_pmf(ModelKind.LINEAR, grid_i, perturbed)
u = np.random.default_rng(1).random(8) * float(dist_a.cumulative[-1])
sur_a = DiscreteRayCdf(grid_i, dist_a).surrogate_sample(u)
sur_b = DiscreteRayCdf(grid_i, dist_b).surrogate_sample(u)
prec_a = ContinuousRayCdf(grid_i, base).precise_sample(u)
prec_b = ContinuousRayCdf(grid_i, perturbed).precise_sample(u)
print("\nmass-preserving opacity perturbation:")
print("  surrogate samples moved by:", np.max(np.abs(sur_a - sur_b)), "(bitwise zero)")
print("  precise samples moved by:  ", np.max(np.abs(prec_a - prec_b)))
print("a loss on surrogate samples gets no gradient from within-bin shape")
