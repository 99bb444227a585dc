"""Experiment command line: desk-scale studies emitting CSV and images.

Every command is deterministic for a fixed seed and spec, writes
``<out>/<command>.csv`` (17 significant digits, newline line endings, so
reruns diff byte-identically), and exits 0 only if its thresholds pass.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fixtures, oracle
from .fields import GrazingRig, load_scene, opaque_trace, sample_field, shift_sweep
from .gradients import finite_diff_check, grad_render_wrt_tau, grad_sample_wrt_tau
from .quadratic import (
    PATHOLOGICAL_PATCH,
    instability_threshold,
    quad_eval,
    quad_integral_left,
    quad_integral_right,
)
from .quadrature import expected_depth, interval_pmf, render
from .rays import ModelKind, OpacityTrace, RaySegment, make_uniform_grid
from .sampling import ContinuousRayCdf, DiscreteRayCdf

CONVERGENCE_NS = (8, 16, 32, 64, 128, 256)

# Every command compares these two models, in this order.
_MODELS = (ModelKind.CONSTANT, ModelKind.LINEAR)

# ``render`` image shape: one row per grazing angle, one column per wall offset.
_RENDER_HEIGHT, _RENDER_WIDTH = 8, 12


@dataclass
class ExperimentSpec:
    scene: Path | None = None
    n_coarse: int = 128
    offsets: int = 32
    seed: int = 0
    out: Path = field(default_factory=lambda: Path("out"))
    tol: float = 1e-10

    def __post_init__(self):
        if min(self.n_coarse, self.offsets) < 1:
            raise ValueError("sample and offset counts must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.scene is not None and not Path(self.scene).exists():
            raise FileNotFoundError(f"scene file {self.scene} does not exist")

    def load_scene_or(self, default_field, default_segment):
        if self.scene is None:
            return default_field, default_segment
        return load_scene(self.scene)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
    rows = []
    slopes = {}
    exact = {}
    for model in _MODELS:
        errors = []
        for n in CONVERGENCE_NS:
            grid = make_uniform_grid(segment, n)
            tau, colors = sample_field(scene, grid)
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
    sweep = shift_sweep(scene, segment, spec.n_coarse, spec.offsets)
    rows = []
    spreads = {}
    for model in _MODELS:
        values = []
        for off, grid, tau, colors in sweep:
            value = float(render(interval_pmf(model, grid, tau), colors)[0])
            values.append(value)
            rows.append((model.value, off, value))
        spreads[model] = max(values) - min(values)
    _write_csv(
        spec.out / "shift_sensitivity.csv", ["model", "offset", "rendered_value"], rows
    )
    for m, s in spreads.items():
        print(f"shift-sensitivity: {m.value} spread {s:.6g}")
    constant, linear = spreads[ModelKind.CONSTANT], spreads[ModelKind.LINEAR]
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
        if name == "single_bin":
            # Condition both samplers on the first bin: the in-bin law is
            # what separates them once bin masses agree.
            top_c = continuous.cumulative[1]
            top_s = surrogate.cumulative[1]
            u = rng.random(n)
            precise = continuous.precise_sample(u * top_c * (1 - 1e-12))
            surro = surrogate.surrogate_sample(u * top_s * (1 - 1e-12))
            cdf = lambda x: continuous.cdf_eval(x) / top_c
        else:
            u = rng.random(n)
            precise = continuous.precise_sample(u)
            surro = surrogate.surrogate_sample(
                np.minimum(u, surrogate.cumulative[-1] * (1 - 1e-12))
            )
            cdf = continuous.cdf_eval
        for sampler, samples in (("precise", precise), ("surrogate", surro)):
            stat = oracle.ks_statistic(np.sort(samples), cdf)
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

        for model, key in (
            (ModelKind.CONSTANT, "render_constant"),
            (ModelKind.LINEAR, "render_linear"),
        ):
            analytic = grad_render_wrt_tau(model, grid, OpacityTrace(tauv), colors)

            def f(x, model=model):
                dist = interval_pmf(model, grid, OpacityTrace(x))
                return float(dist.pmf @ colors)

            report = finite_diff_check(f, tauv, analytic, h=1e-4)
            worst[key] = max(worst[key], report.max_rel_err)
            rows.append((key, i, report.max_rel_err))

        cdf = ContinuousRayCdf(grid, OpacityTrace(tauv))
        u = float(rng.uniform(0.05, min(0.95, cdf.cumulative[-1] * 0.98)))
        sg = grad_sample_wrt_tau(cdf, u)
        k = sg.bin

        def sample(y, k=k):
            x = tauv.copy()
            x[k : k + 2] = y
            return ContinuousRayCdf(grid, OpacityTrace(x)).precise_sample(u)

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
    numeric_left = oracle.integrate_adaptive(
        lambda s: quad_eval(patch, s), float(patch.knots[0]), float(patch.knots[1]), 1e-12
    ).value
    numeric_right = oracle.integrate_adaptive(
        lambda s: quad_eval(patch, s), float(patch.knots[1]), float(patch.knots[2]), 1e-12
    ).value
    factor = float(np.exp(-left))

    rows = [
        ("fixture_left_integral", left),
        ("fixture_right_integral", right),
        ("numeric_left_integral", numeric_left),
        ("numeric_right_integral", numeric_right),
        ("fixture_transmittance_factor", factor),
        ("fixture_empirical_slope", (patch.taus[2] - patch.taus[1]) / patch.beta),
    ]
    thresholds = []
    for tau_j, tau_j1, alpha in ((1.0, 1.0, 1.0), (1.0, 1.0, 0.5), (0.5, 2.0, 1.0)):
        thresholds.append(
            (tau_j, tau_j1, alpha, instability_threshold(tau_j, tau_j1, alpha))
        )

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
    truths = oracle.true_render_batch(rays, segment, 1e-6)[:, 0].reshape(height, width)
    grid = make_uniform_grid(segment, spec.n_coarse)
    images = {m: np.zeros((height, width)) for m in _MODELS}
    rows = []
    for (r, c), ray in zip(np.ndindex(height, width), rays):
        tau, colors = opaque_trace(ray, grid)
        for m in _MODELS:
            value = float(render(interval_pmf(m, grid, tau), colors)[0])
            images[m][r, c] = value
            rows.append((m.value, r, c, value, truths[r, c], abs(value - truths[r, c])))

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
    sweep = shift_sweep(scene, segment, spec.n_coarse, spec.offsets)
    rows = []
    rmse = {}
    for model in _MODELS:
        errs = []
        for off, grid, tau, _ in sweep:
            depth = expected_depth(interval_pmf(model, grid, tau), grid)
            errs.append(depth - truth)
            rows.append((model.value, off, depth, truth, abs(depth - truth)))
        rmse[model] = float(np.sqrt(np.mean(np.square(errs))))
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


COMMANDS = {
    "convergence": cmd_convergence,
    "shift-sensitivity": cmd_shift_sensitivity,
    "sampler-test": cmd_sampler_test,
    "grad-check": cmd_grad_check,
    "quadratic-probe": cmd_quadratic_probe,
    "render": cmd_render,
    "depth": cmd_depth,
}


def build_parser() -> argparse.ArgumentParser:
    """Experiment parser; every option's default is ``ExperimentSpec``'s."""
    defaults = ExperimentSpec()
    parser = argparse.ArgumentParser(
        prog="rayquad",
        description="Volume-rendering quadrature experiments (CSV + PGM output).",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scene", type=Path, default=defaults.scene, help="scene JSON file")
    parser.add_argument("--n-coarse", type=int, default=defaults.n_coarse)
    parser.add_argument("--offsets", type=int, default=defaults.offsets)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--out", type=Path, default=defaults.out)
    parser.add_argument("--tol", type=float, default=defaults.tol)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = ExperimentSpec(**{k: v for k, v in vars(args).items() if k != "command"})
    try:
        passed = COMMANDS[args.command](spec)
    except oracle.NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not passed:
        print(f"{args.command}: threshold violated", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
