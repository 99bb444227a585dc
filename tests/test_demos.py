"""Every demo script, and the README's library tour, runs to completion
against the library as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_readme_library_tour_runs():
    section = (ROOT / "README.md").read_text().split("## Library tour\n", 1)[1]
    tour = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(tour, "README.md", "exec"), names)
    # The tour's closing claim: the oracle gives ``dist.pmf`` interval by interval.
    assert np.max(np.abs(names["probs"] - names["dist"].pmf)) <= 1e-10
