"""Hand-derived first derivatives of the quadrature outputs.

The rendered scalar is rewritten by summation by parts as

    y = c_0 + sum_k (c_k - c_{k-1}) T_k - c_N T_{N+1},

so every partial with respect to an opacity value reduces to suffix sums
of (color difference) * T weighted by the sensitivity of log T, which is
just interval widths.  The suffix sums run from the far end over blocks of
``rays._BLOCK`` intervals, carrying the running sum into the next nearer
block's first addition, so a long ray needs one block of scratch rather
than two full-length rows, and every entry gets the bits of one pass.
Derivatives of the exact inverse-CDF sample differentiate the sampler's own
stable quadratic root, through the bin opacities and through the log
transmittance at the bin start.  A central-difference checker keeps the
derivations honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .rays import _BLOCK, ColorTrace, ModelKind, OpacityTrace, SampleGrid, _blocks, _is_real
from .sampling import ContinuousRayCdf

# Denominator floor for relative errors, so exact zeros do not blow up.
REL_ERR_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class GradReport:
    """Analytic partials next to their central-difference estimates."""

    analytic: np.ndarray
    numeric: np.ndarray
    max_rel_err: float

    def __post_init__(self):
        if self.analytic.shape != self.numeric.shape:
            raise ValueError("analytic and numeric partials must align")
        if not self.max_rel_err >= 0:
            raise ValueError(f"relative error must be nonnegative, got {self.max_rel_err!r}")


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
    Array ``colors`` may be any finite weights, one per interval in one axis,
    such as interval midpoints for a depth gradient; else ValueError, as for
    a ``ColorTrace`` that keeps a grid other than ``grid``.  The
    transmittance comes from ``interval_pmf``, which validates the model
    and the trace, and returns the distribution already kept on ``tau`` for
    this model and grid rather than building it again.

    The intervals run in ``rays._blocks`` from the far end, in one block of
    scratch.  A block adds the farther blocks' running sum to its first term
    before its own cumsum, exactly the addition one cumsum over the row makes
    there; the far-most block adds none, as ``0.0 + -0.0`` would turn a
    ``-0.0`` into ``+0.0``.  Under the linear model a boundary entry takes the
    farther block's step first, ``(0 - step[j]) - step[j-1]``, the same bits
    as one pass's ``(0 - step[j-1]) - step[j]``: either is ``-(x + y)``
    rounded, or ``+0.0`` from two zeros.  A row of at most ``_BLOCK``
    intervals is one block, the one-pass computation itself.
    """
    c = _interval_colors(colors)
    if c.shape != (grid.n + 1,):
        raise ValueError(f"got colors of shape {c.shape}, need ({grid.n + 1},): one per interval")

    dist = quadrature.interval_pmf(model, grid, tau)
    if isinstance(colors, ColorTrace) and colors.grid is not None:
        quadrature._check_grid(dist, colors.grid)
    trans = dist.transmittance
    widths = grid.widths
    n_int = grid.n + 1
    grad = np.zeros(n_int + 1)
    # One block's scratch: u, then its suffix sums in place, and the linear steps.
    u_buf = np.empty(min(n_int, _BLOCK))
    step_buf = np.empty(u_buf.size) if model is ModelKind.LINEAR else None
    carry_sum = None
    for block in reversed(_blocks(n_int)):
        a, b, _ = block.indices(n_int)
        u, far = u_buf[: b - a], carry_sum is None
        # u[m - a] = d y / d T_{m+1} for interval m (T_0 is fixed at 1); the
        # far-most interval has no color step after it.
        inner = b - a - far
        np.subtract(c[a + 1 : a + 1 + inner], c[a : a + inner], out=u[:inner])
        u[:inner] *= trans[a + 1 : a + 1 + inner]
        if far:
            u[-1] = -c[-1] * trans[-1]
        else:
            # The farther blocks' sum enters where one pass would add it next.
            u[-1] += carry_sum
        # In place, u[m - a] = sum_{k > m} d y / d T_k, summed from the far end.
        # cumsum's own loop: np.cumsum adds about 2 us of argument handling per
        # call (2-vCPU x86 VM), a fifth of a 128-sample ray's gradient.
        np.add.accumulate(u[::-1], out=u[::-1])
        carry_sum = float(u[0])

        if model is ModelKind.CONSTANT:
            # tau_m scales interval m, entering every T_k with k > m.
            np.negative(widths[block], out=grad[a:b])
            grad[a:b] *= u
        else:
            # Linear: tau_m enters interval m-1 (weight width/2) for T_k with
            # k >= m, and interval m (weight width/2) for T_k with k > m.
            step = np.multiply(0.5, widths[block], out=step_buf[: b - a])
            step *= u
            # Entry b took the farther block's first step before this block's
            # last: (0 - x) - y and (0 - y) - x are the same bits.
            grad[a + 1 : b + 1] -= step
            grad[a:b] -= step
    return grad


@dataclass(frozen=True, eq=False)
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
    the far bound has no root to differentiate; both raise.  A draw so small that
    the root's derivatives underflow to 0 / 0 raises ArithmeticError.  A ``cdf``
    that is not a ContinuousRayCdf raises TypeError.
    """
    if not isinstance(cdf, ContinuousRayCdf):
        raise TypeError(f"need a ContinuousRayCdf, got {type(cdf).__name__}")
    if not (_is_real(u) and 0.0 < u < 1.0):
        raise ValueError(f"draw must be a real number strictly inside (0, 1), got u={u!r}")
    u = float(u)
    k, delta, q, root, denom, clamped = cdf._invert(u)
    if clamped:
        raise ValueError(f"draw {u} is clamped to the far bound; no gradient exists")
    c = cdf.cumulative
    if u == c[k] or u == c[k + 1]:
        raise ValueError(f"draw {u} sits on a bin edge; derivative is one-sided")
    if root == 0.0 or denom == 0.0:
        raise ArithmeticError("degenerate bin: opacity not floored positive")
    # Checked before the division: a tiny draw in a bin whose near opacity is 0
    # underflows both q * q and this product to 0, and 0 / 0 is no gradient.
    curvature = delta * root * denom * denom
    if curvature == 0.0:
        raise ArithmeticError(f"draw {u} is too small: the root's derivatives underflow")

    tau = cdf.tau.values
    tau_l = tau[k]
    a = tau[k + 1] - tau_l
    dt_da = -2.0 * q * q / curvature
    dt_dq = 2.0 / denom - 2.0 * q * a / curvature
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
    if not _is_real(h, "positive"):
        raise ValueError(f"step size must be positive and finite, got h={h!r}")
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x.shape:
        raise ValueError("one analytic partial per parameter required")
    if not np.isfinite(x).all():  # the rows reach ``f`` unchecked
        raise ValueError("check point must be finite")
    if not np.isfinite(analytic).all():
        raise ValueError("analytic partials must be finite")

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
