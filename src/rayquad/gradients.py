"""Hand-derived first derivatives of the quadrature outputs.

The rendered scalar is rewritten by summation by parts as

    y = c_0 + sum_k (c_k - c_{k-1}) T_k - c_N T_{N+1},

so every partial with respect to an opacity value reduces to suffix sums
of (color difference) * T weighted by the sensitivity of log T, which is
just interval widths.  Derivatives of the exact inverse-CDF sample
differentiate the sampler's own stable quadratic root, through the bin
opacities and through the log transmittance at the bin start.  A
central-difference checker keeps the derivations honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .rays import ColorTrace, ModelKind, OpacityTrace, SampleGrid, _is_real
from .sampling import ContinuousRayCdf

# Denominator floor for relative errors, so exact zeros do not blow up.
REL_ERR_FLOOR = 1e-12


@dataclass(frozen=True)
class GradReport:
    """Analytic partials next to their central-difference estimates."""

    analytic: np.ndarray
    numeric: np.ndarray
    max_rel_err: float

    def __post_init__(self):
        if self.analytic.shape != self.numeric.shape:
            raise ValueError("analytic and numeric partials must align")
        if self.max_rel_err < 0:
            raise ValueError("relative error cannot be negative")


def _interval_colors(colors) -> np.ndarray:
    if isinstance(colors, ColorTrace):
        if colors.channels != 1:
            raise ValueError("select a single color channel for gradients")
        return colors.values[:, 0]
    c = np.asarray(colors, dtype=np.float64)
    if not np.isfinite(c).all():
        raise ValueError("colors must be finite")
    return c


def grad_render_wrt_tau(
    model: ModelKind,
    grid: SampleGrid,
    tau: OpacityTrace,
    colors,
) -> np.ndarray:
    """Exact partials of the rendered scalar w.r.t. every opacity value.

    Returns one partial per grid point (length n + 2).  Under the constant
    model the far-bound opacity never enters, so its partial is zero.
    Array ``colors`` may be any finite weights, such as interval midpoints
    for a depth gradient; a NaN or infinite one raises ValueError.  The
    transmittance comes from ``interval_pmf``, which validates the model
    and the trace, and returns the distribution already kept on ``tau`` for
    this model and grid rather than building it again.
    """
    c = _interval_colors(colors)
    if c.size != grid.n + 1:
        raise ValueError(f"{c.size} colors for {grid.n + 1} intervals")

    trans = quadrature.interval_pmf(model, grid, tau).transmittance
    widths = grid.widths
    n_pts = grid.n + 2

    # u[k] = d y / d T_k for k = 1..n+1 (k = 0 has T_0 fixed at 1).
    u = np.empty(n_pts)
    u[0] = 0.0
    np.subtract(c[1:], c[:-1], out=u[1:-1])
    u[1:-1] *= trans[1:-1]
    u[-1] = -c[-1] * trans[-1]

    # suffix[m] = sum_{k >= m} u[k]; suffix[n_pts] = 0.
    suffix = np.zeros(n_pts + 1)
    np.cumsum(u[::-1], out=suffix[-2::-1])

    grad = np.zeros(n_pts)
    if model is ModelKind.CONSTANT:
        # tau_m scales interval m, entering every T_k with k > m.
        np.negative(widths, out=grad[:-1])
        grad[:-1] *= suffix[1:-1]
    else:
        # Linear: tau_m enters interval m-1 (weight width/2) for T_k with
        # k >= m, and interval m (weight width/2) for T_k with k > m.
        step = np.multiply(0.5, widths, out=u[:-1])
        step *= suffix[1:-1]
        grad[1:] -= step
        grad[:-1] -= step
    return grad


@dataclass(frozen=True)
class SampleGradient:
    """Partials of one inverse-CDF sample w.r.t. every opacity value.

    ``d_tau`` has one entry per grid point (length n + 2).  The sample
    depends on the opacities of its bin ``bin`` through the in-bin root,
    and on every opacity up to ``tau[bin]`` through the log transmittance
    at the bin start; entries past ``bin + 1`` are zero.
    """

    bin: int
    d_tau: np.ndarray

    @property
    def d_tau_left(self) -> float:
        return float(self.d_tau[self.bin])

    @property
    def d_tau_right(self) -> float:
        return float(self.d_tau[self.bin + 1])


def grad_sample_wrt_tau(cdf: ContinuousRayCdf, u: float) -> SampleGradient:
    """Differentiate the exact inverse-CDF sample at draw ``u``.

    The bin's two opacities shape the quadratic root; the log mass
    ``q = ln T_k - ln(1 - u)`` adds ``dt/dq * d ln T_k / d tau_j``, where
    ``d ln T_k / d tau_j`` is ``-(w_{j-1} + w_j) / 2`` for ``0 < j < k``,
    ``-w_0 / 2`` for ``j = 0`` and ``-w_{k-1} / 2`` for ``j = k``.  The draw, a
    real number in (0, 1), must fall strictly inside a bin: at a bin edge the
    derivative is only one-sided, and a draw that ``precise_sample`` clamps to
    the far bound has no root to differentiate; both raise.
    """
    if not (_is_real(u) and 0.0 < u < 1.0):
        raise ValueError(f"draw must be a real number strictly inside (0, 1), got {u!r}")
    u = float(u)
    k, delta, q, root, denom, clamped = (v[0] for v in cdf._invert(np.array([u])))
    if clamped:
        raise ValueError(f"draw {u} is clamped to the far bound; no gradient exists")
    c = cdf.cumulative
    if u == c[k] or u == c[k + 1]:
        raise ValueError(f"draw {u} sits on a bin edge; derivative is one-sided")
    if root == 0.0 or denom == 0.0:
        raise ArithmeticError("degenerate bin: opacity not floored positive")

    tau = cdf.tau.values
    tau_l = tau[k]
    a = tau[k + 1] - tau_l
    dt_da = -2.0 * q * q / (delta * root * denom * denom)
    dt_dq = 2.0 / denom - 2.0 * q * a / (delta * root * denom * denom)
    dt_dtau_direct = -2.0 * q * (1.0 + tau_l / root) / (denom * denom)

    widths = cdf.grid.widths
    d_log_t = np.zeros(cdf.grid.n + 2)
    half = 0.5 * widths[:k]
    d_log_t[:k] -= half
    d_log_t[1 : k + 1] -= half
    d_tau = np.multiply(dt_dq, d_log_t, out=d_log_t)
    d_tau[k] += dt_dtau_direct - dt_da
    d_tau[k + 1] += dt_da
    # Built here, so it is frozen in place rather than copied in.
    d_tau.setflags(write=False)
    return SampleGradient(bin=int(k), d_tau=d_tau)


def finite_diff_check(f, x: np.ndarray, analytic: np.ndarray, h: float = 1e-6) -> GradReport:
    """Central-difference check of supplied partials of a scalar function ``f``,
    called once on the ``(2m, m)`` rows ``x + h e_i``, then ``x - h e_i``: one value per row."""
    if not 0.0 < h < np.inf:
        raise ValueError("step size must be positive and finite")
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x.shape:
        raise ValueError("one analytic partial per parameter required")
    if not np.isfinite(x).all():  # the rows reach ``f`` unchecked
        raise ValueError("check point must be finite")

    steps = h * np.eye(x.size)
    values = np.asarray(f(np.concatenate([x + steps, x - steps])), dtype=np.float64)
    if values.shape != (2 * x.size,):
        raise ValueError("f must return one value per row")
    if not np.isfinite(values).all():
        raise ValueError("function is not finite near the check point")
    numeric = (values[: x.size] - values[x.size :]) / (2.0 * h)

    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_ERR_FLOOR)
    max_rel_err = float(np.max(np.abs(analytic - numeric) / scale))
    return GradReport(analytic=analytic, numeric=numeric, max_rel_err=max_rel_err)
