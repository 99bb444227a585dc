"""rayquad benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload coarse-fine --seed 1 --seconds 40 --trace 0

Workloads (see README.md): ``coarse-fine`` and ``long-rays`` render pool
rays through the two-pass coarse -> resample -> fine pipeline at two grid
sizes; ``paper-suite`` runs the seven experiment commands at their
defaults.  The loop is closed: one process, one operation at a time.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes over one fixed,
seed-chosen block of operations and reports per-layer metrics, spans
written to ``bench/out``.  Every operation is checked against the golden
outputs; a mismatch, an exception or a non-zero exit counts as a failed
operation.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import sys

from environment import pin_threads

pin_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import environment  # noqa: E402
import workloads  # noqa: E402
from tracer import GROUPS, LAYERS, Tracer  # noqa: E402

ROOT = workloads.BENCH_DIR.parent
SRC = ROOT / "src"
OUT = workloads.BENCH_DIR / "out"
WORKLOADS = (*workloads.RAY_WORKLOADS, "paper-suite")
SETUP_REPEATS = 5
# Counts that depend only on the seed and the code; they must repeat
# exactly between traced passes and between runs of the same source.
EXACT_COUNTS = (
    "oracle.adaptive_evals",
    "fields.tau_calls",
    "fields.tau_points",
    "quadrature.interval_pmf_calls",
)
MAX_PROBLEMS_SHOWN = 20
# The shared development host switches between a fast and a slow state
# every few seconds to minutes (see README, "Environment and noise").
# A fixed probe is timed before and after every pass and every set-up,
# and the end-to-end times are reported at the probe's nominal speed:
# measured time * PROBE_NOMINAL_S / probe time.  Raw times are recorded.
PROBE_NOMINAL_S = 0.0012


def import_rayquad():
    """Import the package under ``src/`` afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "rayquad" or m.startswith("rayquad.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    rq = importlib.import_module("rayquad")
    importlib.import_module("rayquad.cli")
    if SRC.resolve() not in Path(rq.__file__).resolve().parents:
        raise SystemExit(f"imported rayquad from {rq.__file__}, not from {SRC}")
    return rq


class Runner:
    """Runs, times and checks operations; tallies failures."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.op_times: list[float] = []

    def setup(self):
        """Import, build inputs and run warm-up operations; returns the workload."""
        rq = import_rayquad()
        if self.name == "paper-suite":
            wl = workloads.SuiteWorkload(
                rq, self.seed, OUT / f"suite-{self.seed}", workloads.load_suite_golden()
            )
            warmup = workloads.SUITE_WARMUP
        else:
            wl = workloads.RayWorkload(
                rq, self.name, self.seed, workloads.load_ray_golden(self.name)
            )
            warmup = wl.next_pass()
        for op in warmup:
            self.run_op(wl, op, count=False)
        return wl

    def run_op(self, wl, op, tracer: Tracer | None = None, count: bool = True) -> float:
        suite = self.name == "paper-suite"
        if suite:
            wl.prepare()
        span = tracer.span(f"cli.{op}" if suite else "op") if tracer else contextlib.nullcontext()
        error = None
        start = time.perf_counter()
        try:
            with span:
                result = wl.run(op)
        except Exception as exc:  # an operation that raises is a failed operation
            error = exc
        elapsed = time.perf_counter() - start
        if error is not None:
            problems = [f"{op}: {type(error).__name__}: {error}"]
        else:
            problems = wl.check(op) if suite else wl.check(op, result)
        if problems:
            self.correct = False
            self.problems += problems
        if count:
            self.attempted += 1
            self.failed += bool(problems) or (suite and result != 0)
            self.op_times.append(elapsed)
        return elapsed

    def run_pass(self, wl, ops, tracer: Tracer | None = None) -> float:
        total = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            total += self.run_op(wl, op, tracer)
        return total


def _probe_once() -> float:
    start = time.perf_counter()
    # Many small-array numpy calls, like a coarse ray...
    x = np.linspace(0.0, 4.0, 130)
    for _ in range(40):
        d = np.diff(np.concatenate(([0.0], x, [4.0])))
        c = np.cumsum(d * 0.5)
        e = np.exp(-c)
        p = e[:-1] * -np.expm1(-d[:-1])
        float(p @ e[1:]) + float(x[int(np.searchsorted(c, 0.3)) % x.size])
    # ...scalar Python, like the oracle, and large arrays, like a long ray.
    acc = 0
    for i in range(3000):
        acc += i * i
    a = np.arange(16384.0)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def probe() -> float:
    """Host speed: median of three timings of fixed Python and numpy work."""
    return statistics.median(_probe_once() for _ in range(3))


def timed_at_nominal_speed(fn) -> tuple[object, float, float]:
    """(result, raw seconds, host-speed scale) of ``fn()``, probed on both sides."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    scale = PROBE_NOMINAL_S / (0.5 * (before + probe()))
    return result, raw, scale


def tail_percentile(times: list[float]) -> dict:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(times)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return {"percentile": p, "ms": float(np.percentile(times, p)) * 1e3, "samples": n}
    return {"percentile": None, "ms": None, "samples": n}


def measure(runner: Runner, wl, seconds: float, setup_s: float) -> dict:
    pass_times, scaled = [], []
    deadline = time.perf_counter() + seconds
    while not pass_times or time.perf_counter() < deadline:
        first = len(runner.op_times)
        total, _, scale = timed_at_nominal_speed(lambda: runner.run_pass(wl, wl.next_pass()))
        pass_times.append(total * scale)
        scaled += [t * scale for t in runner.op_times[first:]]
    p50, p90 = np.percentile(scaled, [50, 90]) * 1e3
    return {
        "setup_s": (setup_s, "s"),
        "rays_per_s": (len(scaled) / sum(scaled), "1/s"),
        "ray_p50_ms": (float(p50), "ms"),
        "ray_p90_ms": (float(p90), "ms"),
        "suite_s": (statistics.median(pass_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tracer: Tracer, n_ops: int, traced_s: float) -> dict:
    ids, self_s = tracer.self_times()
    n_names = len(tracer.names)
    self_by_name = np.bincount(ids, weights=self_s, minlength=n_names)
    calls_by_name = np.bincount(ids, minlength=n_names)
    totals: Counter = Counter()
    ncalls: Counter = Counter()
    for name, total, n in zip(tracer.names, self_by_name, calls_by_name):
        for key in {name, GROUPS.get(name, name), name.split(".", 1)[0]}:
            totals[key] += float(total)
            ncalls[key] += int(n)
    counts = tracer.counts
    metrics = {}

    def mean_self(group: str, scale: float) -> float:
        return totals[group] / ncalls[group] * scale if ncalls[group] else 0.0

    def calls(group: str) -> float:
        return ncalls[group] / n_ops

    for layer in (*LAYERS, "cli"):
        metrics[f"{layer}.self_frac"] = (totals[layer] / traced_s, "ratio")

    for group in ("grid", "trace", "convention", "points"):
        metrics[f"rays.{group}_us"] = (mean_self(f"rays.{group}", 1e6), "us")
        if group != "convention":
            metrics[f"rays.{group}_calls"] = (calls(f"rays.{group}"), "count/op")

    tau_calls = counts["fields.tau_calls"]
    metrics["fields.sample_field_us"] = (mean_self("fields.sample_field", 1e6), "us")
    metrics["fields.tau_calls"] = (tau_calls / n_ops, "count/op")
    metrics["fields.tau_points"] = (counts["fields.tau_points"] / n_ops, "count/op")
    metrics["fields.points_per_call"] = (
        counts["fields.tau_points"] / tau_calls if tau_calls else 0.0,
        "points/call",
    )

    metrics["quadrature.interval_pmf_us"] = (mean_self("quadrature.interval_pmf", 1e6), "us")
    metrics["quadrature.interval_pmf_calls"] = (calls("quadrature.interval_pmf"), "count/op")
    metrics["quadrature.render_us"] = (mean_self("quadrature.render", 1e6), "us")
    metrics["quadrature.expected_depth_us"] = (mean_self("quadrature.expected_depth", 1e6), "us")
    quad_errors = sum(v for k, v in tracer.errors.items() if k.startswith("quadrature."))
    metrics["quadrature.errors"] = (float(quad_errors), "count")

    for group in ("cdf_build", "precise_sample", "surrogate_sample", "hierarchical"):
        metrics[f"sampling.{group}_us"] = (mean_self(f"sampling.{group}", 1e6), "us")
    offered = counts["sampling.merge_offered"]
    metrics["sampling.merge_keep_ratio"] = (
        counts["sampling.merge_kept"] / offered if offered else 0.0,
        "ratio",
    )

    metrics["gradients.grad_render_us"] = (mean_self("gradients.grad_render", 1e6), "us")
    metrics["gradients.grad_sample_us"] = (mean_self("gradients.grad_sample", 1e6), "us")
    metrics["gradients.finite_diff_ms"] = (mean_self("gradients.finite_diff", 1e3), "ms")

    metrics["oracle.true_render_ms"] = (mean_self("oracle.true_render", 1e3), "ms")
    metrics["oracle.true_render_calls"] = (calls("oracle.true_render"), "count/op")
    metrics["oracle.true_mean_termination_ms"] = (
        mean_self("oracle.true_mean_termination", 1e3),
        "ms",
    )
    metrics["oracle.adaptive_calls"] = (counts["oracle.adaptive_calls"] / n_ops, "count/op")
    metrics["oracle.adaptive_evals"] = (counts["oracle.adaptive_evals"] / n_ops, "count/op")
    metrics["oracle.ks_us"] = (mean_self("oracle.ks", 1e6), "us")

    for command in workloads.SUITE_COMMANDS:
        metrics[f"cli.{command}_s"] = (mean_self(f"cli.{command}", 1.0), "s")
    return metrics


def trace_run(runner: Runner, wl, seconds: float, rq) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over one fixed block of operations."""
    modules = {"package": rq}
    for name in (*LAYERS, "quadratic", "fixtures", "cli"):
        modules[name] = sys.modules[f"rayquad.{name}"]
    tracer = Tracer(modules)
    pmf_id = tracer.names.index("quadrature.interval_pmf")
    block = wl.next_pass()
    plain_s, traced_s, block_counts = [], [], []
    failed_traced = 0
    deadline = time.perf_counter() + seconds
    while len(traced_s) < 2 or time.perf_counter() < deadline:
        plain_s.append(runner.run_pass(wl, block))
        first_span, failed_before = len(tracer.span_name), runner.failed
        before = Counter(tracer.counts)
        tracer.install()
        try:
            traced_s.append(runner.run_pass(wl, block, tracer))
        finally:
            tracer.uninstall()
        failed_traced += runner.failed - failed_before
        counts = tracer.counts - before
        span_ids = np.array(tracer.span_name[first_span:])
        counts["quadrature.interval_pmf_calls"] = int(np.count_nonzero(span_ids == pmf_id))
        block_counts.append({k: counts.get(k, 0) for k in EXACT_COUNTS})

    if any(c != block_counts[0] for c in block_counts):
        runner.correct = False
        runner.problems.append(f"exact counts differ between traced passes: {block_counts}")

    metrics = layer_metrics(tracer, len(block) * len(traced_s), sum(traced_s))
    suite = runner.name == "paper-suite"
    metrics["cli.failed"] = (failed_traced / len(traced_s) if suite else 0.0, "count/pass")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
        "ratio",
    )
    metrics["fail_frac"] = (runner.failed / runner.attempted, "ratio")
    tracer.write(OUT / f"spans-{runner.name}-seed{runner.seed}.npz")
    return metrics, block_counts[0]


def check_count_history(runner: Runner, counts: dict, digest: str) -> None:
    """Compare exact counts with an earlier run of the same seed and source."""
    path = OUT / "counts" / f"{runner.name}-seed{runner.seed}.json"
    record = {"source_sha256": digest, "counts": counts}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["source_sha256"] == digest and earlier["counts"] != counts:
            runner.correct = False
            runner.problems.append(
                f"exact counts {counts} differ from an earlier run: {earlier['counts']}"
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rayquad" / "__init__.py").is_file():
        print(f"error: no rayquad package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runner = Runner(args.workload, args.seed)
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        wl, raw, scale = timed_at_nominal_speed(runner.setup)
        setups.append(raw * scale)
        raw_setups.append(raw)
    env = environment.describe(ROOT, args.seed)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_s_each": setups,
              "raw_setup_s_each": raw_setups}
    if args.trace:
        metrics, counts = trace_run(runner, wl, args.seconds, sys.modules["rayquad"])
        check_count_history(runner, counts, env["source_sha256"])
        record["exact_counts_per_block"] = counts
    else:
        metrics = measure(runner, wl, args.seconds, statistics.median(setups))
        record["tail"] = tail_percentile(runner.op_times)
        record["raw_rays_per_s"] = len(runner.op_times) / sum(runner.op_times)
    fail_frac = runner.failed / runner.attempted

    for problem in runner.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result, fail_frac=fail_frac, problems=runner.problems[:MAX_PROBLEMS_SHOWN])
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print("env: " + json.dumps(env, sort_keys=True))
    if "tail" in record:
        print("tail: " + json.dumps(record["tail"]))
    if "exact_counts_per_block" in record:
        print("exact counts per block: " + json.dumps(counts, sort_keys=True))
    print(f"fail_frac: {fail_frac:.6g} ({runner.failed}/{runner.attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
