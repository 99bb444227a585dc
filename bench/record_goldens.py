"""Record the golden outputs the benchmark checks every operation against.

    python3 bench/record_goldens.py

Renders every pool ray of the ray workloads and runs every experiment
command at its defaults with the library under ``src/``, then rewrites
``bench/golden/``.  Re-recording changes what the benchmark accepts, so it
belongs in a change to the benchmark, never in a change that claims a gain.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from environment import pin_threads

pin_threads()

import workloads  # noqa: E402

ROOT = workloads.BENCH_DIR.parent


def json_rows(rows: list) -> str:
    """A JSON list with one row per line, so golden diffs stay readable."""
    return "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]"


def record_rays(rq, name: str) -> None:
    wl = workloads.RayWorkload(rq, name, seed=0)
    outputs = []
    for index in range(len(wl.pool)):
        result = wl.run(index)
        outputs.append(wl.summarize(result))
    wl.golden = {"outputs": outputs}
    for index in range(len(wl.pool)):
        problems = wl.check(index, wl.run(index))
        if problems:
            raise SystemExit("\n".join(problems))
    n_coarse, n_fine, _, _ = workloads.RAY_WORKLOADS[name]
    text = (
        "{\n"
        f'"n_coarse": {n_coarse},\n"n_fine": {n_fine},\n'
        f'"fields": {json.dumps(list(workloads.RAY_FIELDS))},\n'
        '"params_fields": ["angle", "wall_offset", "hierarchical_seed", "grad_draw_fraction"],\n'
        f'"params": {json_rows(wl.pool)},\n'
        f'"outputs": {json_rows(outputs)}\n'
        "}\n"
    )
    (workloads.GOLDEN_DIR / f"{name}.json").write_text(text)


def record_suite(rq) -> None:
    root = workloads.GOLDEN_DIR / "paper-suite"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    scratch = workloads.BENCH_DIR / "out" / "record"
    suite = workloads.SuiteWorkload(rq, seed=0, out=scratch)
    files = {}
    for command in workloads.SUITE_COMMANDS:
        suite.prepare()
        code = suite.run(command)
        print(f"{command}: exit {code}")
        files[command] = sorted(p.name for p in scratch.glob("*.csv"))
        for name in files[command]:
            shutil.copyfile(scratch / name, root / name)
    shutil.rmtree(scratch)
    (root / "commands.json").write_text(json.dumps(files, indent=1) + "\n")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import rayquad
    import rayquad.cli  # noqa: F401

    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in workloads.RAY_WORKLOADS:
        record_rays(rayquad, name)
        print(f"{name}: recorded")
    record_suite(rayquad)
    return 0


if __name__ == "__main__":
    sys.exit(main())
