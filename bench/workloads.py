"""The benchmark's workloads: per-ray two-pass renders and the CLI suite.

Each workload turns a seed into a sequence of operations, runs one
operation at a time through rayquad's public functions, and checks the
result against golden outputs recorded from the library (see
``record_goldens.py``) plus invariants that hold for any correct code.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"

# Outputs must match the goldens to this relative tolerance; integers and
# strings must match exactly.
REL_TOL = 1e-12
# Invariant tolerance: pmf mass and cumulative + transmittance against 1.
INVARIANT_TOL = 1e-12

# Pool rays are drawn once from this seed; the workload seed only chooses
# the order in which pool rays are rendered.
POOL_SEED = 2310_20685

# GrazingRig of the ``render`` command; angles from 0.3 rad upward keep
# the wall inside the [0, 4] segment, so every ray hits it.
RIG = dict(wall_amplitude=10.0, wall_steepness=40.0, wall_depth=1.0)
SEGMENT = (0.0, 4.0)
ANGLE_RANGE = (0.3, np.pi / 2)
OFFSET_RANGE = (0.0, 0.12)

RAY_WORKLOADS = {
    # name: (coarse samples, fine samples, pool size, rays per pass)
    "coarse-fine": (128, 64, 1024, 96),
    "long-rays": (65536, 1024, 32, 4),
}

# One value per model (linear first, then constant), then the sample gradient.
MODEL_FIELDS = ("render", "depth", "fine_n", "fine_render", "fine_depth", "grad_norm")
RAY_FIELDS = tuple(
    f"{model}.{f}" for model in ("linear", "constant") for f in MODEL_FIELDS
) + ("sample_grad.bin", "sample_grad.d_tau_left", "sample_grad.d_tau_right")

SUITE_COMMANDS = (
    "convergence",
    "shift-sensitivity",
    "sampler-test",
    "grad-check",
    "quadratic-probe",
    "render",
    "depth",
)
# Cheap commands run during set-up; ``render`` and ``depth`` carry most of
# the oracle cost and are left to the timed passes.
SUITE_WARMUP = ("convergence", "shift-sensitivity", "sampler-test", "grad-check", "quadratic-probe")


def close(got, want) -> bool:
    if isinstance(want, int) or isinstance(got, int):
        return got == want
    return got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def ray_pool(size: int) -> list[list[float]]:
    """(angle, wall offset, hierarchical seed, grad draw fraction) per ray."""
    rng = np.random.default_rng(POOL_SEED)
    angles = rng.uniform(*ANGLE_RANGE, size)
    offsets = rng.uniform(*OFFSET_RANGE, size)
    seeds = rng.integers(0, 2**31, size)
    fracs = rng.uniform(0.05, 0.95, size)
    return [
        [float(a), float(o), int(s), float(f)]
        for a, o, s, f in zip(angles, offsets, seeds, fracs)
    ]


class RayWorkload:
    """Coarse pass, exact (or surrogate) resampling and fine pass per ray."""

    def __init__(self, rq, name: str, seed: int, golden: dict | None = None):
        self.rq = rq
        self.n_coarse, self.n_fine, pool_size, self.pass_size = RAY_WORKLOADS[name]
        self.pool = ray_pool(pool_size)
        self.golden = golden
        self.segment = rq.RaySegment(*SEGMENT)
        self.rig = rq.GrazingRig(angles=np.array([p[0] for p in self.pool]), **RIG)
        self.rng = np.random.default_rng(seed)
        self._order: list[int] = []

    def next_pass(self) -> list[int]:
        """Pool indices of the next pass; the pool is walked in seeded permutations."""
        while len(self._order) < self.pass_size:
            self._order += self.rng.permutation(len(self.pool)).tolist()
        ops, self._order = self._order[: self.pass_size], self._order[self.pass_size :]
        return ops

    def run(self, index: int):
        rq = self.rq
        angle, offset, hseed, frac = self.pool[index]
        opaque = rq.FarConvention.OPAQUE_FAR
        field = self.rig.ray_field(angle, offset)
        grid = rq.make_uniform_grid(self.segment, self.n_coarse)
        tau, colors = rq.sample_field(field, grid)
        tau = rq.apply_far_convention(rq.floor_opacity(tau), opaque)
        out = []
        for model in (rq.ModelKind.LINEAR, rq.ModelKind.CONSTANT):
            dist = rq.interval_pmf(model, grid, tau)
            value = rq.render(dist, colors)
            depth = rq.expected_depth(dist, grid)
            if model is rq.ModelKind.LINEAR:
                cdf = rq.ContinuousRayCdf(grid, tau)
                sample_grad = rq.grad_sample_wrt_tau(cdf, frac * cdf.cumulative[-1])
            else:
                cdf = rq.DiscreteRayCdf(grid, dist)
            fine = rq.hierarchical_samples(cdf, self.n_fine, hseed)
            fine_tau, fine_colors = rq.sample_field(field, fine)
            fine_tau = rq.apply_far_convention(rq.floor_opacity(fine_tau), opaque)
            fine_dist = rq.interval_pmf(model, fine, fine_tau)
            fine_value = rq.render(fine_dist, fine_colors)
            fine_depth = rq.expected_depth(fine_dist, fine)
            grad = rq.grad_render_wrt_tau(model, grid, tau, colors)
            out.append((dist, value, depth, fine, fine_dist, fine_value, fine_depth, grad))
        return out, sample_grad

    @staticmethod
    def summarize(result) -> list:
        per_model, sg = result
        values = []
        for _, value, depth, fine, _, fine_value, fine_depth, grad in per_model:
            values += [
                float(value[0]),
                float(depth),
                fine.n,
                float(fine_value[0]),
                float(fine_depth),
                float(np.linalg.norm(grad)),
            ]
        return values + [sg.bin, sg.d_tau_left, sg.d_tau_right]

    def check(self, index: int, result) -> list[str]:
        problems = []
        for name, got, want in zip(RAY_FIELDS, self.summarize(result), self.golden["outputs"][index]):
            if not close(got, want):
                problems.append(f"ray {index} {name}: {got!r} != golden {want!r}")
        near, far = SEGMENT
        for model, (dist, _, _, fine, fine_dist, *_) in zip(("linear", "constant"), result[0]):
            for label, d in (("coarse", dist), ("fine", fine_dist)):
                mass = float(np.sum(d.pmf))
                if abs(mass - 1.0) > INVARIANT_TOL:
                    problems.append(f"ray {index} {model} {label}: pmf sums to {mass!r}")
                gap = float(np.max(np.abs(d.cumulative + d.transmittance - 1.0)))
                if gap > INVARIANT_TOL:
                    problems.append(f"ray {index} {model} {label}: C + T off 1 by {gap:.3g}")
            if not (fine.interior[0] > near and fine.interior[-1] < far):
                problems.append(f"ray {index} {model}: fine samples leave ({near}, {far})")
        return problems


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def compare_csv(name: str, got: list[list[str]], want: list[list[str]]) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, golden has {len(want)}"]
    problems = []
    for r, (grow, wrow) in enumerate(zip(got, want)):
        if len(grow) != len(wrow):
            problems.append(f"{name} row {r}: {len(grow)} cells, golden has {len(wrow)}")
            continue
        for g, w in zip(grow, wrow):
            g, w = _cell(g), _cell(w)
            same = close(g, w) if isinstance(g, float) and isinstance(w, float) else g == w
            if not same:
                problems.append(f"{name} row {r}: {g!r} != golden {w!r}")
    return problems


class SuiteWorkload:
    """The seven experiment commands at their defaults, one command per op."""

    pass_size = len(SUITE_COMMANDS)

    def __init__(self, rq, seed: int, out: Path, golden: dict | None = None):
        self.rq = rq
        self.out = out
        self.golden = golden
        self.rng = np.random.default_rng(seed)

    def next_pass(self) -> list[str]:
        """All seven commands in a seeded order."""
        return [SUITE_COMMANDS[i] for i in self.rng.permutation(self.pass_size)]

    def prepare(self) -> None:
        """Give the next command an empty output directory."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def run(self, command: str) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.rq.cli.main([command, "--out", str(self.out)])

    def check(self, command: str) -> list[str]:
        got = {p.name: read_csv(p) for p in self.out.glob("*.csv")}
        want = self.golden[command]
        if sorted(got) != sorted(want):
            return [f"{command}: wrote {sorted(got)}, golden has {sorted(want)}"]
        problems = []
        for name, rows in got.items():
            problems += compare_csv(name, rows, want[name])
        return problems


def load_ray_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def load_suite_golden() -> dict:
    root = GOLDEN_DIR / "paper-suite"
    files = json.loads((root / "commands.json").read_text())
    return {cmd: {f: read_csv(root / f) for f in names} for cmd, names in files.items()}
