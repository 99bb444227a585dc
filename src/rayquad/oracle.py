"""Independent numerical ground truth for the closed-form quadrature.

Nothing in this module uses the per-interval exponential formulas under
test.  The expected color integral

    integral of tau(s) * exp(-O(s)) * c(s) over the segment,
    O(s) = cumulative opacity from the near bound,

is evaluated by (1) tabulating O on a dense grid, one cubic Hermite piece
per sub-panel built from generic Simpson panel integrals, and (2) an
adaptive Simpson rule over the outer integrand, one task per panel
between field breakpoints and per color channel.  For densities that are
piecewise polynomial of degree <= 1 the tabulation is exact (Simpson
integrates cubics exactly and the Hermite piece reproduces the quadratic
antiderivative), so the only error is the outer adaptive tolerance.  For
smooth densities the tabulation is refined by doubling until the result
stabilizes.  The documented error budget of every oracle value is ten
times the requested tolerance.  One adaptive engine serves the render,
the mean termination distance and the interval probabilities.  It grows
all panel trees together, all rays of a batch in one engine call per
refinement pass; each tree and its sums depend only on its own task,
never on the batch it runs in, so a batched ray matches its single-ray
run bit for bit.

Refinement round ``k`` tabulates at ``64 << k`` sub-panels per base
panel (``_refine_until_stable``).  The first pass runs rounds 0 to 2 of
every ray (round 0 alone for an exact class), and a ray whose round-2
table still has an error above the tolerance runs on in it, one table at
a time, to one round past its first table within it (``_wave_tables``);
each later pass runs one round of the unsettled rays at the lowest
round.  The engine's rows are (ray, round) pairs.  A round ``j`` rounds
coarser than the pass's finest has the finest edges taken every
``2**j``-th, so one search of the finest edges finds a point's piece in
every row's table (``_nest``).  Since no row affects another, values and
settling are those of one round at a time, and a row past a ray's
settling round is dropped.  A first pass that meets any failure is
dropped whole, and the call runs one round per pass from round 0, so the
error raised is the one that loop meets first.

Only ``true_render_batch`` takes rays of mixed profiles.  It splits them
into batches of one density class, one color class and one base (the
density's breakpoints inside the segment), and below it every batch holds
one class pair and one base.  A batch makes one ``tau`` and one ``color``
call per engine level (``fields._by_ray``), not one per ray.  Its tables
share one grid, so a point's cumulative opacity is one search of the
shared edges and one lookup in its row (``_flat_cumulative``).
``_base``, the one panel builder, splits the segment at field
breakpoints for tables and render tasks alike, as a sorted set of a few
floats rather than an ``np.unique``.  ``_tabulate``, the one table
builder, makes every table, all rays of a pass that run one refinement
round in one ``(R, points)`` density call with one sub-panel count: each
ray's parameters are an ``(R, 1)`` column broadcast against the shared
points.
Every value is elementwise in its own ray's parameters, and every sum
runs over one ray in the order of a single-ray run, its row padded with
-0.0 (an exact additive identity) and accumulated with all the others.

Field evaluations that land exactly on a panel edge are nudged one ulp
into the panel, so piecewise integrands are integrated with one-sided
limits and jump discontinuities cost no accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import _GATHERABLE, AnalyticField, DensityProfile, _by_ray
from .rays import RaySegment, _blocks, _interval, _is_count, _is_real

_MAX_DEPTH = 48
# ``true_interval_probabilities`` doubles past 8192 sub-panels per base panel only while the
# table stays within this many: a deep ray's one panel needs 16384, many edges cost what 8192 did.
_MAX_SUB_PANELS = 65536


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.error_estimate >= 0:
            raise ValueError(f"error estimate must be nonnegative, got {self.error_estimate!r}")
        if not self.evaluations >= 3:
            raise ValueError("a Simpson estimate needs at least three evaluations")


class NoConvergenceError(RuntimeError):
    """Adaptive integration hit the depth limit; carries the partial result."""

    def __init__(self, message: str, partial: IntegrationResult):
        super().__init__(message)
        self.partial = partial


def _adaptive_simpson(f, a, b, tol):
    """Level-synchronous adaptive Simpson over independent tasks.

    Task ``k`` integrates over [a[k], b[k]] to absolute tolerance tol[k].  ``f(x, task)``
    evaluates the points of every live panel, one call per tree level.  Returns per-task
    value, error estimate, evaluation count (one count of all levels' tasks, after the
    last) and whether a panel still failed at depth ``_MAX_DEPTH``.
    """

    def call(points: list[np.ndarray], task: np.ndarray) -> np.ndarray:
        x = np.concatenate(points)
        y = np.asarray(f(x, np.concatenate([task] * len(points))), dtype=np.float64)
        if not np.all(np.isfinite(y)):
            raise ValueError(f"integrand is not finite at {x[~np.isfinite(y)][0]}")
        return y.reshape(len(points), -1)

    n = a.size
    task = np.arange(n)
    m = 0.5 * (a + b)
    fa, fm, fb = call([a, m, b], task)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # Halving the tolerance per level must stop at rounding scale, or panels
    # whose error estimate is pure float noise can never be accepted.
    floor = np.maximum(1e-300, 0.25 * np.finfo(float).eps * np.abs(whole))
    # Each level keeps only what the reconstruction reads, and its nodes' tasks.
    levels, tasks = [], []
    for depth in range(_MAX_DEPTH + 1):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = call([lm, rm], task)
        tasks.append(task)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        abs_err = np.abs(err)
        ordered = (a < lm) & (lm < m) & (m < rm) & (rm < b)
        split = ~((abs_err <= tol) | (a == b) | ~ordered)
        levels.append((left + right + err, abs_err, split))
        if depth == _MAX_DEPTH or not split.any():
            break
        # Left children, then right children, in split-node order; a
        # child's midpoint is its parent's quarter point, bit for bit.
        half = np.maximum(tol / 2.0, floor)
        halves = np.concatenate(
            [a, m, lm, left, fa, flm, fm, half, floor]
            + [m, b, rm, right, fm, frm, fb, half, floor]
        ).reshape(18, -1)[:, split]
        a, b, m, whole, fa, fm, fb, tol, floor = np.hstack((halves[:9], halves[9:]))
        task = np.concatenate([task[split], task[split]])

    # Three evaluations per task and two per node of its tree; panels still
    # splitting at the last level are accepted as they stand.
    evals = 3 + 2 * np.bincount(np.concatenate(tasks), minlength=n)
    failed = np.bincount(task[split], minlength=n) > 0
    # The children of the i-th split node sit at i and k + i one level down,
    # so each split node's (value, error) is its left plus right child's.
    value, error, _ = levels.pop()
    for node_value, node_error, split in reversed(levels):
        k = value.size // 2
        node_value[split] = value[:k] + value[k:]
        node_error[split] = error[:k] + error[k:]
        value, error = node_value, node_error
    return value, error, evals, failed


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10) -> IntegrationResult:
    """Adaptive Simpson integration of a scalar function on [a, b].

    Panels are split until the Richardson error estimate of each panel
    drops below its share of ``tol``; the extrapolated correction is
    folded into the result.  ``f`` is called once per point.  Raises
    NoConvergenceError with the partial result attached if any panel is
    still failing at depth ``_MAX_DEPTH``.
    """
    if not _is_real(tol, "positive"):
        raise ValueError(f"tolerance must be positive and finite, got tol={tol!r}")
    if not (_is_real(a) and _is_real(b) and a <= b):
        raise ValueError(f"integration bounds must be finite with a <= b, got a={a!r}, b={b!r}")

    value, error, evals, failed = _adaptive_simpson(
        lambda x, _task: [float(f(xi)) for xi in x.tolist()],
        np.array([a], float),
        np.array([b], float),
        np.array([tol]),
    )
    result = IntegrationResult(float(value[0]), float(error[0]), int(evals[0]))
    if failed[0]:
        raise NoConvergenceError(
            f"adaptive Simpson did not converge on [{a}, {b}] at depth {_MAX_DEPTH}",
            partial=result,
        )
    return result


def _is_exact_class(density: DensityProfile) -> bool:
    return density.polynomial_degree is not None and density.polynomial_degree <= 1


def _base(density: DensityProfile, segment: RaySegment, extra_breaks=None) -> np.ndarray:
    """The one panel builder: the segment split at the density's and the extra breakpoints.

    The distinct breakpoints strictly inside the segment, sorted, between its
    bounds: ``np.unique`` of them all, bit for bit, built as a set of a few floats.
    """
    near, far = segment.near, segment.far
    breaks = density.breakpoints().tolist()
    if extra_breaks is not None:
        breaks += np.asarray(extra_breaks, dtype=np.float64).tolist()
    return np.array([near, *sorted({b for b in breaks if near < b < far}), far])


class _Rows(NamedTuple):
    """The tables of R rays on one grid: shared ``edges`` and ``widths``, then one row
    per ray of ``cumulative`` (at the edges), ``d0``, ``a2``, ``a3`` and ``tab_error``."""

    n_sub: int
    edges: np.ndarray
    widths: np.ndarray
    cumulative: np.ndarray
    d0: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    tab_error: np.ndarray


def _tabulate(densities, segment: RaySegment, base: np.ndarray, n_sub: int) -> _Rows:
    """The one table builder: the cumulative opacity of each density over the
    shared ``base`` panels, ``n_sub`` sub-panels per base panel, in one pass.

    The densities share one class (``fields._by_ray``).  Piecewise
    constant/linear densities are tabulated exactly with one sub-panel per
    base panel.  One ``tau`` call covers every row, each ray's parameters
    broadcast against the shared points; each row's cumulative sum and
    error sum run along that row alone, so every row matches its one-ray
    build bit for bit.
    """
    n_sub = 1 if _is_exact_class(densities[0]) else n_sub
    # linspace starts each base panel exactly at its left base edge.
    edges = np.append(np.linspace(base[:-1], base[1:], n_sub + 1)[:-1].T.ravel(), base[-1])
    left, right = edges[:-1], edges[1:]
    widths = right - left
    # a3 divides by the squared widths, so no square may underflow to 0 either.
    square = widths * widths
    for fits, why in (widths > 0, "sub-panel edges collide"), (square > 0, "widths square to 0"):
        if not fits.all():
            k = np.argmin(fits) // n_sub
            raise ValueError(
                f"cannot tabulate [{segment.near}, {segment.far}] at {n_sub} sub-panels per base "
                f"panel: {why} in base panel [{base[k]}, {base[k + 1]}]"
            )

    # One-sided endpoint opacities: one ulp inside each sub-panel.
    points = [np.nextafter(left, np.inf), np.nextafter(right, -np.inf)]
    points += [left + q * widths for q in (0.25, 0.50, 0.75)]
    n_rays, n = len(densities), widths.size
    values = _by_ray(densities, "tau")(np.concatenate(points), np.arange(n_rays)[:, None])
    f0, f1, fq1, fmid, fq3 = values.reshape(n_rays, 5, n).transpose(1, 0, 2)

    coarse = widths / 6.0 * (f0 + 4.0 * fmid + f1)
    fine = widths / 12.0 * (f0 + 4.0 * fq1 + 2.0 * fmid + 4.0 * fq3 + f1)
    err = (fine - coarse) / 15.0
    cumulative = np.zeros((n_rays, n + 1))
    np.add.accumulate(fine + err, axis=1, out=cumulative[:, 1:])
    dO = cumulative[:, 1:] - cumulative[:, :-1]
    # Hermite coefficients h(t) = O0 + d0 t + a2 t^2 + a3 t^3 on [0, w]: d0 = f0, d1 = f1.
    a2 = (3.0 * dO / widths - 2.0 * f0 - f1) / widths
    a3 = (f0 + f1 - 2.0 * dO / widths) / square
    # d0 is a copy, so a kept table does not hold every point value alive.
    return _Rows(n_sub, edges, widths, cumulative, f0.copy(), a2, a3, np.abs(err).sum(axis=1))


class _Wave(NamedTuple):
    """The tables of many engine rows on one set of ``edges``, the finest table's.

    Row ``j`` is a table of ray ``ray[j]`` (an index into the caller's rays).  A
    point in interval ``i`` of ``edges`` reads piece ``start[j] + (i >> shift[j])``
    of the flat ``cumulative`` (at the piece's left edge), ``d0``, ``a2`` and
    ``a3``; ``far[j]`` is the row's opacity at the far bound.  ``n_sub`` is the
    finest table's sub-panel count, so row ``j`` has ``n_sub >> shift[j]``.
    """

    n_sub: int
    edges: np.ndarray
    ray: np.ndarray
    shift: np.ndarray
    start: np.ndarray
    far: np.ndarray
    cumulative: np.ndarray
    d0: np.ndarray
    a2: np.ndarray
    a3: np.ndarray


def _nest(tables, rays) -> _Wave:
    """The rows of ``tables`` (``_Rows`` of one base, coarsest first) as one ``_Wave``,
    row ``i`` of ``tables[k]`` being ray ``rays[k][i]``.

    Each table's edges must be the last one's taken every ``2**shift``-th: then a
    point's interval among the last table's edges, shifted right by ``shift``, is its
    interval in that table, and one search serves every row.  A doubled ``n_sub``
    gives such edges bit for bit (``linspace`` scales its step by a power of two).
    """
    finest = tables[-1]
    counts = [t.d0.shape[0] for t in tables]
    offsets = np.cumsum([0] + [t.d0.size for t in tables])
    start = [o + t.d0.shape[1] * np.arange(c) for o, t, c in zip(offsets, tables, counts)]
    shifts = [(finest.n_sub // t.n_sub).bit_length() - 1 for t in tables]
    pieces = [(t.cumulative[:, :-1], t.d0, t.a2, t.a3) for t in tables]
    return _Wave(
        finest.n_sub,
        finest.edges,
        np.concatenate(rays),
        np.repeat(shifts, counts),
        np.concatenate(start),
        np.concatenate([t.cumulative[:, -1] for t in tables]),
        *(np.concatenate([a.ravel() for a in arrays]) for arrays in zip(*pieces)),
    )


def _as_wave(rows) -> _Wave:
    """``rows`` as a ``_Wave``: row ``r`` of a ``_Rows`` is row ``r``, of ray ``r``."""
    return rows if isinstance(rows, _Wave) else _nest([rows], [np.arange(rows.d0.shape[0])])


def _flat_cumulative(rows):
    """The one table evaluator, ``O(x, row)``: cumulative opacity of each point on
    its own row's table (``_as_wave``), one search of the shared edges for every row."""
    rows = _as_wave(rows)
    edges, shift, start = rows.edges, rows.shift, rows.start
    at_edges, d0, a2, a3 = rows.cumulative, rows.d0, rows.a2, rows.a3

    def cumulative(x: np.ndarray, row) -> np.ndarray:
        s = shift[row]
        idx = _interval(edges, x) >> s
        t, piece = x - edges[idx << s], start[row] + idx
        # The Hermite piece at t past its left edge: O0 + d0 t + a2 t^2 + a3 t^3.
        return at_edges[piece] + t * (d0[piece] + t * (a2[piece] + t * a3[piece]))

    return cumulative


def _render_bases(fields, segment: RaySegment) -> list:
    """Each ray's render panels: the segment split at its density's and color's breakpoints."""
    return [_base(f.density, segment, f.color.breakpoints()) for f in fields]


def _render_rays(
    fields, segment: RaySegment, rows, bases, tol: float, weight=None, ids=None
) -> list:
    """Integrate tau * exp(-O) * c (optionally * weight) for many table rows in one
    engine call, one task per (row, panel, channel).  ``rows`` is a ``_Wave``, whose
    row ``j`` belongs to ray ``rows.ray[j]``, or a ``_Rows``, whose row ``r`` is ray
    ``r``'s; a row of ray ``r`` integrates ``fields[r]`` over its render panels
    ``bases[r]`` (``_render_bases``).  Returns per row (value, error, evaluations),
    each summed in task order along the row's -0.0-padded row of a (rows, tasks)
    matrix, all rows at once; raises, for the first row in row order with a panel
    failing at the depth limit, the NoConvergenceError naming its ray by ``ids``."""
    wave = _as_wave(rows)
    channels = fields[0].color.channels
    # Row j's tasks, in task order, are the ``cells`` of row j of a (rows, panels * channels) grid.
    flat, sizes = np.concatenate(bases), np.array([b.size for b in bases])
    width = np.arange(sizes.max() - 1)
    at = (np.cumsum(sizes) - sizes)[wave.ray, None] + width  # each panel's left edge in flat
    cells = np.repeat(width < sizes[wave.ray, None] - 1, channels, axis=1)
    k = np.repeat(at, channels, axis=1)[cells]
    lo, hi, row = flat[k], flat[k + 1], np.nonzero(cells)[0]
    ray = wave.ray[row]
    channel = np.tile(np.arange(channels), lo.size // channels)
    inner_lo, inner_hi = np.nextafter(lo, hi), np.nextafter(hi, lo)
    tau = _by_ray([f.density for f in fields], "tau")
    color = _by_ray([f.color for f in fields], "color")
    cumulative = _flat_cumulative(wave)

    def integrand(x: np.ndarray, task: np.ndarray) -> np.ndarray:
        x = np.minimum(np.maximum(x, inner_lo[task]), inner_hi[task])
        r = ray[task]
        c = color(x, r)[np.arange(x.size), channel[task]]
        y = tau(x, r) * np.exp(-cumulative(x, row[task])) * c
        return y if weight is None else y * weight(x)

    panel_tol = np.maximum(tol * (hi - lo) / segment.span, 1e-300)
    value, error, evals, failed = _adaptive_simpson(integrand, lo, hi, panel_tol)
    # Each row's tasks, padded with -0.0 (x + -0.0 is x, bit for bit), accumulate in task
    # order; np.sum's pairwise order would change last bits.  Counts sum exactly as floats.
    padded = np.full((3, *cells.shape), -0.0)
    padded[:, cells] = value, error, evals
    out = np.add.accumulate(padded[0].reshape(len(cells), -1, channels), axis=1)[:, -1]
    err_total = np.add.accumulate(padded[1], axis=1)[:, -1].tolist()
    n_evals = padded[2].sum(axis=1).astype(int).tolist()
    if failed.any():
        k = np.argmax(failed)
        j, r = row[k], int(wave.ray[row[k]])
        raise NoConvergenceError(
            f"adaptive Simpson did not converge for ray {r if ids is None else ids[r]} on "
            f"[{lo[k]}, {hi[k]}] at depth {_MAX_DEPTH}",
            partial=IntegrationResult(float(out[j, 0]), err_total[j], n_evals[j]),
        )
    return list(zip(out, err_total, n_evals))


def _wave_tables(densities, segment: RaySegment, base: np.ndarray, rays, first, last, tol):
    """One pass's tables: rounds ``first`` to ``last`` of the rays at positions ``rays``,
    per round one ``_tabulate`` of the rays that run it, coarsest first.  Unless ``tol``
    is None, a ray whose table at ``last`` has an error above it runs on, one round at a
    time, to one round past its first table within ``tol`` (the settle check compares a
    round with the one before), never past round 8.  Returns the ``_Wave`` (``_nest``,
    ray ``i`` being ``rays[i]``) and each row's (round, position).  Raises ValueError for
    a table that cannot be built or whose edges do not nest the coarser ones."""
    # Each ray's last round, and whether it runs past ``last``: its table a round before missed tol.
    ends, above = [last] * len(rays), [False] * len(rays)
    picked, k, tables, index, keys = list(range(len(rays))), first, [], [], []
    while picked:
        rows = _tabulate([densities[rays[i]] for i in picked], segment, base, 64 << k)
        if tables and not np.array_equal(
            rows.edges[:: rows.n_sub // tables[-1].n_sub], tables[-1].edges
        ):
            raise ValueError(f"round {k}'s edges do not nest the wave's coarser rounds")
        tables.append(rows)
        index.append(picked)
        keys += [(k, rays[i]) for i in picked]
        for i, error in zip(picked, rows.tab_error.tolist()):
            if tol is not None and ends[i] == k < 8 and (above[i] or error > tol):
                ends[i], above[i] = k + 1, error > tol
        k += 1
        picked = [i for i in picked if ends[i] >= k]
    return _nest(tables, index), keys


def _refine_until_stable(densities, segment: RaySegment, tol: float, run_pass, ids) -> np.ndarray:
    """Per ray, rerun passes on doubled tabulations until values agree to 3 * tol.

    Round ``k`` tabulates at ``64 << k`` sub-panels per base panel.  A ray settles
    at the first round whose value differs from its previous round's by at most
    3 * tol (an exact-class ray at round 0), and a ray still unsettled after round 8
    raises NoConvergenceError with its last pass as the partial.  The densities
    share one class and one base.

    Each pass is one ``_wave_tables`` and one ``run_pass(rays, wave)``, where ``rays``
    are the ids of the pass's rays and ``wave`` holds its (ray, round) table rows; it
    returns per row (value, error, evaluations), and raises NoConvergenceError for a
    failed row.  The first pass runs rounds 0 to 2 of every ray (round 0 alone for an
    exact class), and a smooth ray whose round-2 table error (``_Rows.tab_error``) is
    above tol runs on to one round past its first table within tol, never past round 8.
    Rows past the round a ray settles at are dropped.  Each later pass runs one round
    of the unsettled rays at the lowest round.  A first pass that meets any failure (a
    ValueError, a failed row or a ray unsettled at round 8) is dropped whole, and the
    call runs one round per pass from round 0, raising the first failure it meets.
    """
    if not _is_real(tol, "positive"):
        raise ValueError(f"tolerance must be positive and finite, got tol={tol!r}")
    base, exact = _base(densities[0], segment), _is_exact_class(densities[0])
    ahead = dict.fromkeys(range(len(ids)), 0)  # each unsettled ray's next round, by position
    values = [None] * len(ids)
    # The first pass's last round and the tol it runs on past; an exact table's error is rounding.
    first_pass = (0, None) if exact else (2, tol)
    while ahead:
        low = min(ahead.values())
        rays = [p for p, k in ahead.items() if k == low]
        try:
            wave, keys = _wave_tables(densities, segment, base, rays, low, *(first_pass or (low, None)))
            results = run_pass([ids[p] for p in rays], wave)
            # Each row's previous round: its ray's row a round down here, else its last value.
            at, now = {key: j for j, key in enumerate(keys)}, np.array([r[0] for r in results])
            before = [now[at[k - 1, p]] if (k - 1, p) in at else values[p] if k else now[j]
                      for j, (k, p) in enumerate(keys)]
            steps = np.max(np.abs(now - np.array(before)), axis=1).tolist()
            for (k, p), (value, err, evals), step in zip(keys, results, steps):
                if p not in ahead:
                    continue  # past the round this ray settled at
                values[p] = value
                if (step <= 3.0 * tol) if k else exact:
                    del ahead[p]
                elif k == 8:
                    raise NoConvergenceError(
                        f"cumulative opacity tabulation did not stabilize for ray {ids[p]}",
                        partial=IntegrationResult(float(value[0]), err, evals),
                    )
                else:
                    ahead[p] = k + 1
        except (ValueError, NoConvergenceError):
            if first_pass is None:
                raise
            # A dropped first pass leaves every ray as it started: at round 0, with no value.
            ahead, values = dict.fromkeys(range(len(ids)), 0), [None] * len(ids)
        first_pass = None
    return np.array(values)


def true_render(
    field: AnalyticField, segment: RaySegment, tol: float = 1e-10
) -> np.ndarray:
    """Expected color of the ray by direct numerical integration.

    The light left at the far bound leaves the ray: the value is the
    integral over the segment alone, with no far-plane term, while
    ``true_mean_termination`` absorbs that light at the far bound.  The
    ``convergence`` command relies on this; with its uniform color an
    absorbing far plane would render exactly 1 for both models.

    The error budget is 10 * tol: the outer adaptive tolerance plus the
    tabulation error of the cumulative opacity, which is driven below tol
    by doubling the tabulation density until the result stabilizes.
    """
    return true_render_batch([field], segment, tol)[0]


def true_render_batch(fields, segment: RaySegment, tol: float = 1e-10) -> np.ndarray:
    """Expected colors of many rays over one segment, shape (R, channels).
    Row ``r`` equals ``true_render(fields[r], segment, tol)`` bit for bit,
    so the light left at the far bound leaves each ray as it does there.

    Rays of one (density class, color class) pair, both classes in
    ``fields._GATHERABLE``, and one base (``_base``: the density's
    breakpoints inside the segment) run as one engine batch on one table
    grid; every other ray runs alone.  Batches run in the order of their
    first ray, and the first failure raises with that ray's single-ray
    partial and its index in ``fields`` in the message.  Each ray's render
    panels (``_render_bases``) are built once and serve every refinement pass.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("need at least one ray")
    if len({f.color.channels for f in fields}) > 1:
        raise ValueError("all rays of a batch need the same channel count")
    batches: dict = {}
    for r, f in enumerate(fields):
        pair = (type(f.density), type(f.color))
        key = (*pair, _base(f.density, segment).tobytes()) if _GATHERABLE.issuperset(pair) else r
        batches.setdefault(key, []).append(r)

    bases = _render_bases(fields, segment)

    def run_pass(rays, wave):
        picked, picked_bases = [fields[r] for r in rays], [bases[r] for r in rays]
        return _render_rays(picked, segment, wave, picked_bases, tol, ids=rays)

    out = np.empty((len(fields), fields[0].color.channels))
    for ids in batches.values():
        densities = [fields[r].density for r in ids]
        out[ids] = _refine_until_stable(densities, segment, tol, run_pass, ids)
    return out


def true_interval_probabilities(
    field: AnalyticField,
    segment: RaySegment,
    edges: np.ndarray,
    rtol: float = 1e-12,
) -> np.ndarray:
    """Termination probability of each interval, accurate in relative terms.

    Interval ``k`` is [edges[k], edges[k+1]]; ``edges`` must increase
    strictly within [near, far], else ValueError.  Each interval integral
    is rescaled by the transmittance at its left edge and is one engine
    task with tolerance ``rtol`` times its tabulated mass 1 - exp(-dO), so
    narrow or deeply occluded intervals keep ``rtol`` relative accuracy
    instead of inheriting an absolute floor.  The one-ulp nudge off each
    edge bounds that accuracy at about ulp * |tau'| / tau.  Raises
    NoConvergenceError if a panel hits the depth limit, or if a density
    outside the piecewise-linear class is still tabulated above rtol / 8
    when doubling stops (``_MAX_SUB_PANELS``); the partial's error adds each
    interval's gap to its tabulated mass and the tabulation error to the engine's estimates.
    """
    if not _is_real(rtol, "positive"):
        raise ValueError(f"relative tolerance must be positive and finite, got rtol={rtol!r}")
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a one-dimensional array of at least two points")
    if not (np.all(np.diff(edges) > 0) and segment.near <= edges[0] and edges[-1] <= segment.far):
        raise ValueError(f"edges must increase strictly within [{segment.near}, {segment.far}]")
    base, exact = _base(field.density, segment, edges[1:-1]), _is_exact_class(field.density)
    rows = _tabulate([field.density], segment, base, 64)
    while not exact and rows.tab_error[0] > rtol / 8.0 and (
        rows.n_sub < 8192 or 2 * rows.widths.size <= _MAX_SUB_PANELS
    ):
        rows = _tabulate([field.density], segment, base, 2 * rows.n_sub)
    tab_error = float(rows.tab_error[0])
    cumulative = _flat_cumulative(rows)
    prefix = cumulative(edges, 0)
    lo, hi = edges[:-1], edges[1:]
    inner_lo, inner_hi = np.nextafter(lo, hi), np.nextafter(hi, lo)
    mass = -np.expm1(-np.diff(prefix))

    def integrand(x: np.ndarray, task: np.ndarray) -> np.ndarray:
        x = np.minimum(np.maximum(x, inner_lo[task]), inner_hi[task])
        return field.density.tau(x) * np.exp(-(cumulative(x, 0) - prefix[task]))

    value, error, evals, failed = _adaptive_simpson(
        integrand, lo, hi, np.maximum(rtol * mass, 1e-300)
    )
    scale = np.exp(-prefix[:-1])
    untabulated = not exact and tab_error > rtol / 8.0
    if failed.any() or untabulated:
        raise NoConvergenceError(
            f"opacity tabulation error {tab_error:.3g} above rtol / 8 at {rows.n_sub} sub-panels"
            if untabulated
            else f"adaptive Simpson did not converge on {failed.sum()} of {lo.size} intervals",
            partial=IntegrationResult(
                float(np.sum(scale * value)),
                float(np.sum(scale * (error + np.abs(value - mass))) + tab_error),
                int(evals.sum()),
            ),
        )
    return scale * value


def true_mean_termination(
    field: AnalyticField,
    segment: RaySegment,
    tol: float = 1e-10,
) -> float:
    """Expected termination distance; an opaque far plane absorbs the rest.

    Unlike ``true_render``, which lets the light left at the far bound leave,
    this counts that light as terminating at ``segment.far``.  The integral
    measures distance from ``segment.near``, which is added back at the end,
    so ``tol`` bounds the same error wherever the segment lies on the ray.
    """
    unit, near, span = AnalyticField(field.density), segment.near, segment.span
    bases = _render_bases([unit], segment)

    def once(rays, wave):
        results = _render_rays(
            [unit], segment, wave, bases, tol, weight=lambda x: x - near, ids=rays
        )
        return [(r[0] + span * np.exp(-far), *r[1:]) for r, far in zip(results, wave.far)]

    return near + float(_refine_until_stable([field.density], segment, tol, once, [0])[0, 0])


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic of sorted samples against cdf.

    ``cdf`` must return one value per sample of the slice it is given, an
    array of the slice's shape, or ValueError is raised before any gap is
    built.  It is called per slice: on consecutive slices of at most
    ``rays._BLOCK`` samples (``rays._blocks``), once when the sample fits
    one block.  ``d_plus`` and ``d_minus`` are maxima, so folding them over
    the slices gives the whole-array statistic bit for bit.  A slice's
    ``i / n`` and ``(i - 1) / n`` are two views of one array of ranks over
    ``n``, and both gaps go through one array the statistic made: ``cdf``
    may return its own input, a view of the caller's samples, which is
    never written.  A non-finite CDF value makes a gap's maximum
    non-finite, which is how it is detected.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size < 1:
        raise ValueError("need a one-dimensional sample array")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    # For finite samples, b >= a exactly when b - a >= 0; no float difference is built.
    if not (samples[1:] >= samples[:-1]).all():
        raise ValueError("samples must be sorted ascending")
    n = samples.size
    d_plus = d_minus = -np.inf
    for block in _blocks(n):
        part = samples[block]
        f = np.asarray(cdf(part), dtype=np.float64)
        if f.shape != part.shape:
            raise ValueError(f"cdf must return one value per sample: {part.size} gave {f.shape}")
        # i / n and (i - 1) / n over the block's ranks i: two views of one array.
        steps = np.arange(block.start, min(block.stop, n) + 1) / n
        gap = np.subtract(steps[1:], f)
        above = gap.max()
        below = np.subtract(f, steps[:-1], out=gap).max()
        # The steps lie in [0, 1], so both maxima are finite exactly when f is.
        if not (np.isfinite(above) and np.isfinite(below)):
            raise ValueError("CDF values must be finite")
        d_plus, d_minus = max(d_plus, above), max(d_minus, below)
    return float(max(d_plus, d_minus))


def ks_critical(n: int) -> float:
    """Asymptotic KS critical value at the 5% level, 1.36 / sqrt(n)."""
    if not (_is_count(n) and n >= 8):
        raise ValueError(f"asymptotic critical values need an integer n >= 8, got n={n!r}")
    return 1.36 / np.sqrt(n)


def convergence_slope(errors) -> float:
    """Least-squares slope of log(error) against log(N)."""
    pairs = np.asarray(errors, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 4:
        raise ValueError("need at least four (N, error) pairs")
    if not ((pairs > 0) & np.isfinite(pairs)).all():
        raise ValueError("sample counts and errors must be positive and finite")
    slope, _ = np.polyfit(np.log(pairs[:, 0]), np.log(pairs[:, 1]), 1)
    return float(slope)
