"""Quadrature, sampling, and diagnostics for ray termination distributions.

The library evaluates the volume rendering integral along 1D rays under
per-interval opacity models (constant, linear, and a deliberately fragile
quadratic), inverts the linear model's continuous CDF exactly for
importance sampling, and ships an independent numerical-integration
oracle plus distribution and gradient checks to validate all of it.
"""

from .rays import (
    EPS_OPACITY,
    OPAQUE,
    ColorTrace,
    FarConvention,
    ModelKind,
    OpacityTrace,
    RaySegment,
    SampleGrid,
    apply_far_convention,
    floor_opacity,
    make_uniform_grid,
)
from .quadrature import (
    RayDistribution,
    expected_depth,
    interval_pmf,
    render,
)
from .sampling import (
    ContinuousRayCdf,
    DiscreteRayCdf,
    hierarchical_samples,
)
from .fields import (
    AnalyticField,
    ConstantSlab,
    GaussianBump,
    GradientColor,
    GrazingRig,
    LinearRamp,
    LogisticStep,
    PiecewiseConstantColor,
    SampledDensity,
    TwoToneColor,
    UniformColor,
    load_scene,
    opaque_trace,
    sample_field,
    shift_sweep,
)
from .oracle import (
    IntegrationResult,
    NoConvergenceError,
    convergence_slope,
    integrate_adaptive,
    ks_critical,
    ks_statistic,
    true_interval_probabilities,
    true_mean_termination,
    true_render,
    true_render_batch,
)
from .quadratic import (
    PATHOLOGICAL_PATCH,
    QuadraticPatch,
    instability_threshold,
    quad_eval,
    quad_integral_left,
    quad_integral_right,
    transmittance_quadratic,
)
from .gradients import (
    GradReport,
    SampleGradient,
    finite_diff_check,
    grad_render_wrt_tau,
    grad_sample_wrt_tau,
)

__version__ = "0.1.0"
