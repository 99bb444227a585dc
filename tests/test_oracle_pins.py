"""Oracle values pinned bit for bit.

Every number below was recorded from the depth-first recursive adaptive
Simpson that the level-synchronous engine replaced.  The engine builds the
same panel trees with the same arithmetic, so values, error estimates and
evaluation counts must agree exactly, not to a tolerance.  Each render
case pins the final ``true_render`` value and the first pass on the
unrefined opacity table: (value, first-pass value, first-pass error
estimate, first-pass evaluations).
"""

from pathlib import Path

import numpy as np
import pytest

from rayquad import (
    IntegrationResult,
    NoConvergenceError,
    RaySegment,
    fixtures,
    integrate_adaptive,
    oracle,
    true_mean_termination,
    true_render,
)
from rayquad.fields import (
    AnalyticField,
    GaussianBump,
    GradientColor,
    GrazingRig,
    UniformColor,
    load_scene,
)
from rayquad.oracle import _base, _render_bases, _render_rays, _tabulate

SCENES = Path(__file__).resolve().parent.parent / "scenes"

RENDER_PINS = {
    ("constant_slab", 1e-06): ([0.8835159255637176], [0.8835159255637176], 1.4713412113687614e-07, 63),
    ("constant_slab", 1e-10): ([0.8835159250001401], [0.8835159250001401], 1.886895525532913e-11, 523),
    ("gaussian_bump", 1e-06): ([0.8450356738799012], [0.8450356302447443], 4.2338701860229396e-07, 97),
    ("gaussian_bump", 1e-10): ([0.8450356291867965], [0.8450355562857982], 2.7349202212690365e-11, 1101),
    ("linear_ramp", 1e-06): ([0.8646647194487949], [0.8646647194487949], 2.647829377667536e-07, 29),
    ("linear_ramp", 1e-10): ([0.8646647167633954], [0.8646647167633954], 2.7260738978684976e-11, 245),
    ("logistic_wall", 1e-06): ([0.4999773055680533], [0.499977097359923], 3.3952942184388774e-07, 129),
    ("logistic_wall", 1e-10): ([0.49997730003163], [0.49997707970088984], 4.050928859468485e-11, 1189),
    ("three_channel", 1e-06): ([0.20103700748350295, 0.37881794647941214, 0.6876986685298296], [0.20103700223426357, 0.3788178959354067, 0.6876986088491012], 1.1115402902124336e-06, 339),
    ("three_channel", 1e-10): ([0.20103699348416632, 0.3788177781323916, 0.6876986721655455], [0.2010369915239221, 0.3788177396822232, 0.687698603222681], 1.0363723166667074e-10, 2811),
    ("grazing_1_3", 1e-06): ([0.566577196282763], [0.5665697917515482], 3.4110797899990385e-07, 158),
    ("grazing_5_7", 1e-06): ([0.762017457920457], [0.76192579770694], 1.810364095821451e-07, 218),
}

# tol: (value, first-pass value, first-pass error estimate, first-pass evaluations)
MEAN_PINS = {
    1e-06: (0.25001135428231097, [0.2499885525131169], 2.9724471522274837e-07, 117),
    1e-10: (0.25001134998031704, [0.24998853985045377], 2.93199977074514e-11, 1081),
}


def _case(name):
    """Field and segment of a pinned render case."""
    if name == "three_channel":
        color = GradientColor(
            np.array([0.1, 0.5, 0.9]), np.array([0.9, 0.2, 0.4]), 0.3, 1.5
        )
        return AnalyticField(GaussianBump(3.0, 0.6, 0.25), color), RaySegment(0.0, 2.0)
    if name.startswith("grazing_"):
        # The rig and pixel layout of the ``render`` command.
        r, c = (int(v) for v in name.split("_")[1:])
        angles = np.linspace(0.12, np.pi / 2, 8)
        offsets = np.linspace(0.0, 0.12, 12, endpoint=False)
        rig = GrazingRig(
            wall_amplitude=10.0, wall_steepness=40.0, wall_depth=1.0, angles=angles
        )
        return rig.ray_field(float(angles[r]), float(offsets[c])), RaySegment(0.0, 4.0)
    return load_scene(SCENES / f"{name}.json")


@pytest.mark.parametrize("name, tol", sorted(RENDER_PINS))
def test_true_render_pinned(name, tol):
    value, first, err, evals = RENDER_PINS[(name, tol)]
    field, segment = _case(name)
    assert true_render(field, segment, tol).tolist() == value
    rows = _tabulate([field.density], segment, _base(field.density, segment), 64)
    bases = _render_bases([field], segment)
    out, err_total, n_evals = _render_rays([field], segment, rows, bases, tol)[0]
    assert (out.tolist(), err_total, n_evals) == (first, err, evals)


@pytest.mark.parametrize("tol", sorted(MEAN_PINS))
def test_true_mean_termination_pinned(tol):
    value, first, err, evals = MEAN_PINS[tol]
    scene, segment = fixtures.shift_scene(), fixtures.SHIFT_SEGMENT
    assert true_mean_termination(scene, segment, tol) == value
    unit = AnalyticField(scene.density, UniformColor(np.array([1.0])))
    rows = _tabulate([scene.density], segment, _base(scene.density, segment), 64)
    bases = _render_bases([unit], segment)
    out, err_total, n_evals = _render_rays([unit], segment, rows, bases, tol, weight=lambda x: x)[0]
    assert (out.tolist(), err_total, n_evals) == (first, err, evals)


def test_integrate_adaptive_pinned(monkeypatch):
    kink = lambda s: np.sqrt(abs(s - 0.37))
    assert integrate_adaptive(kink, 0.0, 1.0, 1e-12) == IntegrationResult(
        0.4834061409414945, 3.5468915395188263e-13, 4205
    )
    monkeypatch.setattr(oracle, "_MAX_DEPTH", 4)
    with pytest.raises(NoConvergenceError) as err:
        integrate_adaptive(kink, 0.0, 1.0, 1e-15)
    assert err.value.partial == IntegrationResult(
        0.48366640813728373, 2.2565917808817457e-05, 65
    )
