"""Experiment command line: desk-scale studies emitting CSV and images.

Every command is deterministic for a fixed seed and spec, writes
``<out>/<command>.csv`` (17 significant digits, newline line endings, so
reruns diff byte-identically), and exits 0 if its thresholds pass and 1 if
one fails.  Input the run cannot use (an unread option, a bad option value,
scene or ``--out``, a segment too narrow for the grid, a tolerance the oracle
cannot reach) exits 2 with one ``rayquad: error:`` line, writing nothing.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fixtures, oracle
from .fields import GrazingRig, _trace_rows, load_scene, sample_field, shift_sweep
from .gradients import finite_diff_check, grad_render_wrt_tau, grad_sample_wrt_tau
from .quadratic import (
    PATHOLOGICAL_PATCH,
    instability_threshold,
    quad_eval,
    quad_integral_left,
    quad_integral_right,
)
from .quadrature import _distributions, _weighted_sums, interval_pmf, render
from .rays import ModelKind, OpacityTrace, RaySegment, _is_count, _is_real, make_uniform_grid
from .sampling import ContinuousRayCdf, DiscreteRayCdf, _precise_rows

CONVERGENCE_NS = (8, 16, 32, 64, 128, 256)

# Every command compares these two models, in this order.
_MODELS = (ModelKind.CONSTANT, ModelKind.LINEAR)

# ``render`` image shape: one row per grazing angle, one column per wall offset.
_RENDER_HEIGHT, _RENDER_WIDTH = 8, 12
# ``render``'s oracle tolerance: it reads no ``--tol``; ``render.csv`` is recorded at this one.
_RENDER_TOL = 1e-6


@dataclass
class ExperimentSpec:
    scene: Path | None = None
    n_coarse: int = 128
    offsets: int = 32
    seed: int = 0
    out: Path = field(default_factory=lambda: Path("out"))
    tol: float = 1e-10
    _scene: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        for name in ("n_coarse", "offsets"):
            if not _is_count(value := getattr(self, name), "positive"):
                raise ValueError(f"counts must be positive integers, got {name}={value!r}")
        if not _is_count(self.seed, "nonnegative"):
            raise ValueError(f"seed must be nonnegative and an integer, got seed={self.seed!r}")
        if not _is_real(self.tol, "positive"):
            raise ValueError(f"tolerance must be positive and finite, got tol={self.tol!r}")
        # Read here, so a missing or malformed scene is a usage error before any output.
        if self.scene is not None:
            self._scene = load_scene(self.scene)

    def load_scene_or(self, default_field, default_segment):
        return self._scene or (default_field, default_segment)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    # The common cell types by exact type, each to the string ``_fmt`` gives it;
    # any other type (bool among them) goes through ``_fmt``'s isinstance chain.
    def float17(x):
        return format(float(x), ".17g")

    formats = {float: float17, np.float64: float17, int: str, str: str}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([formats.get(type(v), _fmt)(v) for v in row])


def write_pgm(path: Path, values: np.ndarray) -> None:
    """Plain-text portable graymap of values in [0, 1]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    gray = np.clip(np.rint(np.asarray(values) * 255), 0, 255).astype(int)
    lines = ["P2", f"{gray.shape[1]} {gray.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in gray]
    path.write_text("\n".join(lines) + "\n")


def cmd_convergence(spec: ExperimentSpec) -> bool:
    scene, segment = spec.load_scene_or(
        fixtures.convergence_scene(), fixtures.CONVERGENCE_SEGMENT
    )
    truth = oracle.true_render(scene, segment, spec.tol)
    # Each grid is sampled once; both models read the same traces.
    grids = [make_uniform_grid(segment, n) for n in CONVERGENCE_NS]
    traces = [(grid, *sample_field(scene, grid)) for grid in grids]
    rows = []
    slopes = {}
    exact = {}
    for model in _MODELS:
        errors = []
        for n, (grid, tau, colors) in zip(CONVERGENCE_NS, traces):
            dist = interval_pmf(model, grid, tau)
            err = float(np.max(np.abs(render(dist, colors) - truth)))
            errors.append((n, err))
            rows.append((model.value, n, err))
        # a model integrating its own field class exactly leaves only
        # rounding noise; slope bands are meaningless there
        exact[model] = max(err for _, err in errors) < 1e-9
        slopes[model] = oracle.convergence_slope(errors)
    _write_csv(spec.out / "convergence.csv", ["model", "n", "max_abs_error"], rows)
    _write_csv(
        spec.out / "convergence_slopes.csv",
        ["model", "fitted_slope"],
        [(m.value, s) for m, s in slopes.items()],
    )
    ok = (exact[ModelKind.LINEAR] or slopes[ModelKind.LINEAR] <= -1.7) and (
        exact[ModelKind.CONSTANT] or -1.3 <= slopes[ModelKind.CONSTANT] <= -0.7
    )
    for m, s in slopes.items():
        note = " (model-exact)" if exact[m] else ""
        print(f"convergence: {m.value} slope {s:+.3f}{note}")
    return ok


def cmd_shift_sensitivity(spec: ExperimentSpec) -> bool:
    scene, segment = spec.load_scene_or(fixtures.shift_scene(), fixtures.SHIFT_SEGMENT)
    offsets, points, t, colors = shift_sweep(scene, segment, spec.n_coarse, spec.offsets)
    widths = np.diff(points)
    rows = []
    spreads = {}
    for model in _MODELS:
        values = _weighted_sums(_distributions(model, widths, t)[2], colors)[:, 0]
        rows += [(model.value, off, value) for off, value in zip(offsets, values)]
        spread = values.max() - values.min()
        # A spread at the rounding level of the rendered values is no shift at all.
        spreads[model] = spread if spread >= 1e-12 * np.abs(values).max() else 0.0
    _write_csv(
        spec.out / "shift_sensitivity.csv", ["model", "offset", "rendered_value"], rows
    )
    for m, s in spreads.items():
        print(f"shift-sensitivity: {m.value} spread {s:.6g}")
    constant, linear = spreads[ModelKind.CONSTANT], spreads[ModelKind.LINEAR]
    if not (constant or linear):
        print("shift-sensitivity: both models are shift-stable (no spread above rounding)")
    # A shift-stable linear render divides by zero: inf passes, nan (no spread at all) fails.
    ratio = constant / linear if linear else (np.inf if constant else np.nan)
    print(f"shift-sensitivity: spread ratio constant/linear {ratio:.3f}")
    return ratio >= fixtures.SHIFT_RATIO_THRESHOLD


def cmd_sampler_test(spec: ExperimentSpec) -> bool:
    n = 100_000
    rng = np.random.default_rng(spec.seed)
    crit = oracle.ks_critical(n)
    rows = []
    results = {}

    for name, (grid, tau) in (
        ("steep", fixtures.steep_sampler_fixture()),
        ("single_bin", fixtures.single_bin_fixture()),
    ):
        continuous, surrogate = fixtures.precise_and_surrogate(grid, tau)
        # Draws are sorted, then scaled and clipped in place (800 KB each spared): the
        # steps are monotone, so the kernels run bin by bin and the samples come in order.
        u = rng.random(n)
        u.sort()
        if name == "single_bin":
            # Condition both samplers on the first bin: the in-bin law is
            # what separates them once bin masses agree.
            top_c = continuous.cumulative[1]
            top_s = surrogate.cumulative[1]
            draws = np.multiply(u, top_c)
            draws *= 1 - 1e-12
            precise = continuous.precise_sample(draws)
            u *= top_s
            u *= 1 - 1e-12
            cdf = lambda x: continuous.cdf_eval(x) / top_c
        else:
            precise = continuous.precise_sample(u)
            np.minimum(u, surrogate.cumulative[-1] * (1 - 1e-12), out=u)
            cdf = continuous.cdf_eval
        surro = surrogate.surrogate_sample(u)
        for sampler, samples in (("precise", precise), ("surrogate", surro)):
            if not (samples[1:] >= samples[:-1]).all():
                samples.sort()
            stat = oracle.ks_statistic(samples, cdf)
            passed = stat < crit
            rows.append((sampler, name, n, stat, crit, passed))
            results[(sampler, name)] = passed

    _write_csv(
        spec.out / "sampler_test.csv",
        ["sampler", "instance", "n", "ks_statistic", "critical_value", "passed"],
        rows,
    )
    for (sampler, name), passed in results.items():
        print(f"sampler-test: {sampler} on {name}: {'pass' if passed else 'FAIL'}")
    return (
        results[("precise", "steep")]
        and not results[("surrogate", "steep")]
        and results[("precise", "single_bin")]
        and results[("surrogate", "single_bin")]
    )


def cmd_grad_check(spec: ExperimentSpec) -> bool:
    rng = np.random.default_rng(spec.seed)
    rows = []
    threshold = 1e-5
    worst = {"render_constant": 0.0, "render_linear": 0.0, "sample_linear": 0.0}

    for i in range(20):
        grid, tauv, colors = fixtures.gradient_instance(rng)
        tau = OpacityTrace(tauv)

        for model, key in (
            (ModelKind.CONSTANT, "render_constant"),
            (ModelKind.LINEAR, "render_linear"),
        ):
            analytic = grad_render_wrt_tau(model, grid, tau, colors)

            def f(x, model=model):
                pmf = _distributions(model, grid.widths, x)[2]
                return _weighted_sums(pmf, colors[:, None])[:, 0]

            report = finite_diff_check(f, tauv, analytic, h=1e-4)
            worst[key] = max(worst[key], report.max_rel_err)
            rows.append((key, i, report.max_rel_err))

        cdf = ContinuousRayCdf(grid, tau)
        u = float(rng.uniform(0.05, min(0.95, cdf.cumulative[-1] * 0.98)))
        sg = grad_sample_wrt_tau(cdf, u)
        k = sg.bin

        def sample(y, k=k):
            x = np.repeat(tauv[None], len(y), axis=0)
            x[:, k : k + 2] = y
            return _precise_rows(grid, x, np.full((len(y), 1), u))[:, 0]

        report = finite_diff_check(sample, tauv[k : k + 2], sg.d_tau[k : k + 2], h=1e-5)
        rel = report.max_rel_err
        worst["sample_linear"] = max(worst["sample_linear"], rel)
        rows.append(("sample_linear", i, rel))

    grid, base, perturbed = fixtures.surrogate_invariance_instance()
    # Surrogates over the linear distribution: the perturbation preserves
    # its cumulative values exactly, changing only the within-bin shape.
    sur_base = DiscreteRayCdf(grid, interval_pmf(ModelKind.LINEAR, grid, base))
    sur_pert = DiscreteRayCdf(grid, interval_pmf(ModelKind.LINEAR, grid, perturbed))
    total = min(sur_base.cumulative[-1], sur_pert.cumulative[-1])
    u = np.random.default_rng(spec.seed + 1).random(256) * total * (1 - 1e-12)
    invariant = bool(
        np.array_equal(sur_base.surrogate_sample(u), sur_pert.surrogate_sample(u))
    )
    moved = bool(
        np.max(
            np.abs(
                ContinuousRayCdf(grid, base).precise_sample(u)
                - ContinuousRayCdf(grid, perturbed).precise_sample(u)
            )
        )
        > 1e-6
    )
    rows.append(("surrogate_invariance", 0, 0.0 if invariant else 1.0))
    rows.append(("precise_moves", 0, 0.0 if moved else 1.0))

    _write_csv(spec.out / "grad_check.csv", ["target", "instance", "max_rel_err"], rows)
    for key, value in worst.items():
        print(f"grad-check: {key} worst rel err {value:.3g}")
    print(f"grad-check: surrogate invariant {invariant}, precise moves {moved}")
    return all(v < threshold for v in worst.values()) and invariant and moved


def cmd_quadratic_probe(spec: ExperimentSpec) -> bool:
    patch = PATHOLOGICAL_PATCH
    left = quad_integral_left(patch)
    right = quad_integral_right(patch)
    k0, k1, k2 = patch.knots
    numeric_left = oracle.integrate_adaptive(lambda s: quad_eval(patch, s), k0, k1, 1e-12).value
    numeric_right = oracle.integrate_adaptive(lambda s: quad_eval(patch, s), k1, k2, 1e-12).value
    factor = float(np.exp(-left))

    rows = [
        ("fixture_left_integral", left),
        ("fixture_right_integral", right),
        ("numeric_left_integral", numeric_left),
        ("numeric_right_integral", numeric_right),
        ("fixture_transmittance_factor", factor),
        ("fixture_empirical_slope", (patch.taus[2] - patch.taus[1]) / patch.beta),
    ]
    probes = ((1.0, 1.0, 1.0), (1.0, 1.0, 0.5), (0.5, 2.0, 1.0))  # (tau_j, tau_j1, alpha)
    thresholds = [(*probe, instability_threshold(*probe)) for probe in probes]

    _write_csv(spec.out / "quadratic_probe.csv", ["quantity", "value"], rows)
    _write_csv(
        spec.out / "quadratic_thresholds.csv",
        ["tau_j", "tau_j1", "alpha", "slope_threshold"],
        thresholds,
    )
    ok = (
        left < 0.0
        and factor > 1.0
        and abs(left - numeric_left) < 1e-10 * max(1.0, abs(left))
        and abs(right - numeric_right) < 1e-10 * max(1.0, abs(right))
        and instability_threshold(1.0, 1.0, 1.0) == 6.0
    )
    print(
        f"quadratic-probe: left integral {left:.6g}, transmittance factor {factor:.6g}"
    )
    return ok


def cmd_render(spec: ExperimentSpec) -> bool:
    height, width = _RENDER_HEIGHT, _RENDER_WIDTH
    angles = np.linspace(0.12, np.pi / 2, height)
    rig = GrazingRig(
        wall_amplitude=10.0, wall_steepness=40.0, wall_depth=1.0, angles=angles
    )
    segment = RaySegment(0.0, 4.0)
    wall_offsets = np.linspace(0.0, 0.12, width, endpoint=False)

    rays = [rig.ray_field(float(a), float(off)) for a in angles for off in wall_offsets]
    truths = oracle.true_render_batch(rays, segment, _RENDER_TOL)[:, 0].reshape(height, width)
    grid = make_uniform_grid(segment, spec.n_coarse)
    t, colors = _trace_rows(rays, grid.points)
    images = {
        m: _weighted_sums(_distributions(m, grid.widths, t)[2], colors)[:, 0].reshape(height, width)
        for m in _MODELS
    }
    rows = [
        (m.value, r, c, images[m][r, c], truths[r, c], abs(images[m][r, c] - truths[r, c]))
        for r, c in np.ndindex(height, width)
        for m in _MODELS
    ]

    _write_csv(
        spec.out / "render.csv",
        ["model", "row", "col", "rendered_value", "oracle_value", "abs_diff"],
        rows,
    )
    for m, image in images.items():
        diff = np.abs(image - truths)
        write_pgm(spec.out / f"render_{m.value}.pgm", image)
        write_pgm(spec.out / f"render_diff_{m.value}.pgm", diff)
        print(f"render: {m.value} mean abs diff {np.mean(diff):.6g}")
    return True


def cmd_depth(spec: ExperimentSpec) -> bool:
    scene, segment = spec.load_scene_or(fixtures.shift_scene(), fixtures.SHIFT_SEGMENT)
    truth = oracle.true_mean_termination(scene, segment, spec.tol)
    offsets, points, t, _ = shift_sweep(scene, segment, spec.n_coarse, spec.offsets)
    widths = np.diff(points)
    mids = 0.5 * (points[:, :-1] + points[:, 1:])
    rows = []
    rmse = {}
    for model in _MODELS:
        depths = _weighted_sums(_distributions(model, widths, t)[2], mids[..., None])[:, 0]
        rows += [(model.value, off, d, truth, abs(d - truth)) for off, d in zip(offsets, depths)]
        rmse[model] = float(np.sqrt(np.mean(np.square(depths - truth))))
    _write_csv(
        spec.out / "depth.csv",
        ["model", "offset", "expected_depth", "oracle_mean", "abs_err"],
        rows,
    )
    _write_csv(
        spec.out / "depth_rmse.csv",
        ["model", "rmse"],
        [(m.value, v) for m, v in rmse.items()],
    )
    for m, v in rmse.items():
        print(f"depth: {m.value} RMSE {v:.6g}")
    return rmse[ModelKind.LINEAR] <= rmse[ModelKind.CONSTANT]


# Each command and the options it reads besides ``--out``; any other is a usage error.
COMMANDS = {
    "convergence": (cmd_convergence, ("scene", "tol")),
    "shift-sensitivity": (cmd_shift_sensitivity, ("scene", "n_coarse", "offsets")),
    "sampler-test": (cmd_sampler_test, ("seed",)),
    "grad-check": (cmd_grad_check, ("seed",)),
    "quadratic-probe": (cmd_quadratic_probe, ()),
    "render": (cmd_render, ("n_coarse",)),
    "depth": (cmd_depth, ("scene", "tol", "n_coarse", "offsets")),
}
_OPTIONS = {"scene": Path, "n_coarse": int, "offsets": int, "seed": int, "out": Path, "tol": float}


def build_parser() -> argparse.ArgumentParser:
    """Experiment parser; it sets only the options given, so defaults stay ``ExperimentSpec``'s."""
    parser = argparse.ArgumentParser(
        prog="rayquad",
        description="Volume-rendering quadrature experiments (CSV + PGM output).",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    for name, kind in _OPTIONS.items():
        readers = ", ".join(c for c, (_, reads) in COMMANDS.items() if name in ("out", *reads))
        parser.add_argument(f"--{name.replace('_', '-')}", type=kind, help=f"read by {readers}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    run, reads = COMMANDS[command]
    for name in args:
        if name not in ("out", *reads):
            parser.error(f"{command} does not read --{name.replace('_', '-')}")
    # The library raises ValueError only for a value it rejects, so it, an OSError and an
    # oracle that cannot reach the tolerance are usage errors (exit 2); other faults propagate.
    try:
        passed = run(ExperimentSpec(**args))
    except (ValueError, OSError, oracle.NoConvergenceError) as exc:
        parser.error(str(exc))
    if not passed:
        print(f"{command}: threshold violated", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
