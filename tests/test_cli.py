import ast
import csv
import inspect
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rayquad import cli, gradients, oracle, sampling
from rayquad.cli import COMMANDS, ExperimentSpec, build_parser, main, write_pgm
from rayquad.fields import LogisticStep, TwoToneColor
from rayquad.rays import ModelKind

GOLDEN = Path(__file__).parent.parent / "bench" / "golden" / "paper-suite"
# The segment of the ``narrow`` scene of ``test_bad_value_is_a_usage_error``, as errors print it.
NARROW = "[1000000000000000.0, 1000000000000001.0]"


def run(args):
    return main([str(a) for a in args])


def _try_sites(module):
    """(top-level definition, line) of every ``try`` in ``module``'s source."""
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    tree = ast.parse(inspect.getsource(module))
    return [
        (getattr(top, "name", None), node.lineno)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, tries)
    ]


def _call_sites(module, names):
    """(top-level definition, function) of every call in ``module``'s source of a
    function, bare or an attribute such as ``np.sqrt``, whose name is in ``names``."""
    tree = ast.parse(inspect.getsource(module))
    return [
        (getattr(top, "name", None), name)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "attr", getattr(node.func, "id", None))) in names
    ]


class NonZeroExit(Exception):
    """A command's thresholds failed after it wrote its outputs."""


class TestSpecValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n_coarse=0)
        with pytest.raises(ValueError):
            ExperimentSpec(tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_tolerance_outside_positive_reals(self, tol, tmp_path, capsys, engine_guard):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            ExperimentSpec(tol=tol)
        with pytest.raises(SystemExit) as exit_:
            run(["convergence", "--tol", tol, "--out", tmp_path])
        assert exit_.value.code == 2
        assert "rayquad: error: tolerance must be positive and finite" in capsys.readouterr().err

    def test_parser_defaults_are_spec_defaults(self):
        # The parser sets only the options given; the defaults live in ExperimentSpec.
        assert vars(build_parser().parse_args(["depth"])) == {"command": "depth"}

    def test_rejects_missing_scene(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentSpec(scene=tmp_path / "nope.json")

    def test_rejects_negative_seed(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            ExperimentSpec(seed=-1)
        with pytest.raises(SystemExit) as exit_:
            run(["sampler-test", "--seed", -1, "--out", tmp_path])
        assert exit_.value.code == 2
        assert "rayquad: error: seed must be nonnegative" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args, message",
        [
            (["render", "--n-coarse", "0"], "counts must be positive integers, got n_coarse=0"),
            (["depth", "--offsets", "-3"], "counts must be positive integers, got offsets=-3"),
            (["convergence", "--tol", "-1"], "tolerance must be positive and finite"),
            (["convergence", "--scene", "{tmp}/missing.json"], "No such file or directory"),
            (["depth", "--scene", "{tmp}/not-json"], "scene {tmp}/not-json is not JSON: Expecting value"),
            (["convergence", "--scene", "{tmp}/unknown-key"], "scene segment: unknown key 'depth'"),
            (["depth", "--scene", "{tmp}/not-utf8"], "scene {tmp}/not-utf8 is not JSON: 'utf-8' codec"),
            # A segment so narrow that neighbouring grid points round onto one float; the
            # error names it and the grid's sample count.
            (["convergence", "--scene", "{tmp}/narrow"], f"segment {NARROW} is too narrow for n=8 "),
            (["shift-sensitivity", "--scene", "{tmp}/narrow"], f"segment {NARROW} is too narrow for n=128 "),
            (["depth", "--scene", "{tmp}/narrow"], f"segment {NARROW} is too narrow for n=128 "),
            (["convergence", "--tol", "1e-300"], "cumulative opacity tabulation did not stabilize for ray 0"),
            *(([command, "--out", "{tmp}/a-file"], "File exists: '{tmp}/a-file'") for command in COMMANDS),
        ],
        ids=[
            "n-coarse", "offsets", "tol", "scene-missing", "scene-not-json", "scene-unknown-key",
            "scene-not-utf8", "narrow-convergence", "narrow-shift-sensitivity", "narrow-depth",
            "tol-unreachable", *(f"out-is-a-file-{command}" for command in COMMANDS),
        ],
    )
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, args, message):
        # Exit 1 means a paper threshold failed; input a run cannot use exits 2 before writing.
        scene = json.loads(SCENE.read_text())
        narrow = {**scene, "segment": {"near": 1e15, "far": 1.000000000000001e15}}
        (tmp_path / "narrow").write_text(json.dumps(narrow))
        scene["segment"]["depth"] = 1.0
        (tmp_path / "unknown-key").write_text(json.dumps(scene))
        (tmp_path / "not-json").write_text("segment: [0, 1]\n")
        (tmp_path / "not-utf8").write_bytes(b"\xff\xfe{}")
        (tmp_path / "a-file").write_text("kept\n")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        if "--out" not in args:
            args = [*args, "--out", "{tmp}/out"]
        with pytest.raises(SystemExit) as exit_:
            run([a.format(tmp=tmp_path) for a in args])
        assert exit_.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if "error" in line] == [lines[-1]]
        assert lines[-1].startswith("rayquad: error: ") and message.format(tmp=tmp_path) in lines[-1]
        assert sorted(tmp_path.rglob("*")) == sorted(before)
        assert all(path.read_bytes() == data for path, data in before.items())

    @pytest.mark.parametrize("error", [ArithmeticError, FloatingPointError, TypeError, RuntimeError])
    def test_a_fault_in_a_command_propagates(self, tmp_path, monkeypatch, error):
        # Only input the run cannot use is a usage error; a fault keeps its traceback.
        def fault(spec):
            raise error("a fault, not an input")

        monkeypatch.setitem(COMMANDS, "render", (fault, COMMANDS["render"][1]))
        with pytest.raises(error, match="a fault, not an input"):
            run(["render", "--out", tmp_path])

    def test_main_holds_the_only_try(self):
        # One error route: no command or helper may catch and report an error of its own.
        sites = _try_sites(cli)
        assert [name for name, _ in sites] == ["main"], sites

    def test_oracle_holds_one_try(self):
        # A first pass that meets a failure is dropped and replayed one round per
        # pass; no other oracle path catches an error to emulate that order.
        sites = _try_sites(oracle)
        assert [name for name, _ in sites] == ["_refine_until_stable"], sites

    def test_root_holds_the_inverse_roots(self):
        # The exact inverse's root is written once: the sampler and the sample
        # gradient both reach it through ``sampling._root``.
        roots = {"sqrt", "log1p"}
        assert sorted(_call_sites(sampling, roots)) == [("_root", "log1p"), ("_root", "sqrt")]
        assert _call_sites(gradients, roots) == []


SCENE = Path(__file__).parent.parent / "scenes" / "constant_slab.json"
# An option, its command-line text and the value ExperimentSpec gets from it.
OPTION_VALUES = {
    "scene": ("--scene", SCENE, SCENE),
    "n_coarse": ("--n-coarse", 16, 16),
    "offsets": ("--offsets", 4, 4),
    "seed": ("--seed", 9, 9),
    "tol": ("--tol", "1e-3", 1e-3),
}


def _pairs(read: bool):
    for command, (_, reads) in COMMANDS.items():
        for name in OPTION_VALUES:
            if (name in reads) == read:
                yield pytest.param(command, name, id=f"{command}-{name}")


def _spec_reads(command) -> set:
    """The ``spec`` fields a command's body reads, ``load_scene_or`` counting as
    ``scene``; ``spec`` itself must not leave the body."""
    nodes = list(ast.walk(ast.parse(inspect.getsource(command))))
    reads = [n for n in nodes if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "spec"]
    bare = [n for n in nodes if isinstance(n, ast.Name) and n.id == "spec"]
    assert len(bare) == len(reads), f"{command.__name__} passes spec on"
    return {"scene" if n.attr == "load_scene_or" else n.attr for n in reads}


class TestOptionTable:
    """Each command accepts exactly the options COMMANDS says it reads, plus --out."""

    def test_every_pair_is_read_or_refused(self):
        assert len(list(_pairs(True))) == 12 and len(list(_pairs(False))) == 23

    @pytest.mark.parametrize("command, name", _pairs(False))
    def test_unread_option_is_a_usage_error(self, tmp_path, capsys, command, name):
        flag, text, _ = OPTION_VALUES[name]
        with pytest.raises(SystemExit) as exit_:
            run([command, flag, text, "--out", tmp_path / "out"])
        assert exit_.value.code == 2
        assert f"rayquad: error: {command} does not read {flag}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name", _pairs(True))
    def test_read_option_reaches_the_spec(self, tmp_path, monkeypatch, command, name):
        flag, text, value = OPTION_VALUES[name]
        specs = []

        def record(spec):
            specs.append(spec)
            return True

        monkeypatch.setitem(COMMANDS, command, (record, COMMANDS[command][1]))
        assert run([command, flag, text, "--out", tmp_path]) == 0
        assert specs == [ExperimentSpec(out=tmp_path, **{name: value})]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_table_names_what_the_command_reads(self, command):
        function, reads = COMMANDS[command]
        assert _spec_reads(function) == {"out", *reads}

    def test_every_command_function_is_in_the_table(self):
        functions = {f for name, f in vars(cli).items() if name.startswith("cmd_")}
        assert functions == {f for f, _ in COMMANDS.values()}


class TestCommands:
    def test_convergence_passes_and_writes_csv(self, tmp_path):
        assert run(["convergence", "--out", tmp_path, "--tol", "1e-11"]) == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "model,n,max_abs_error"
        assert len(lines) == 1 + 2 * 6
        slopes = (tmp_path / "convergence_slopes.csv").read_text().splitlines()
        assert slopes[0] == "model,fitted_slope"

    def test_convergence_model_exact_scene_skips_slope_band(self, tmp_path):
        # a piecewise-linear field is integrated exactly by the linear
        # model at any sample count; slopes are noise there and the
        # exactness escape applies instead, while the constant model
        # still has to converge inside its band
        scene = Path(__file__).parent.parent / "scenes" / "linear_ramp.json"
        assert run(["convergence", "--scene", scene, "--out", tmp_path]) == 0
        rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
        errors = [float(r.split(",")[2]) for r in rows if r.startswith("linear,")]
        assert len(errors) == 6
        assert max(errors) < 1e-9

    def test_shift_sensitivity_threshold(self, tmp_path):
        assert run(["shift-sensitivity", "--n-coarse", 32, "--out", tmp_path]) == 0
        lines = (tmp_path / "shift_sensitivity.csv").read_text().splitlines()
        assert lines[0] == "model,offset,rendered_value"
        assert len(lines) == 1 + 2 * 32

    def test_shift_sensitivity_fails_on_unresolved_wall(self, tmp_path):
        # same wall but a 4x longer segment: the wall is no longer
        # resolved at N=32 and the spread ratio collapses below 3
        scene = {
            "field": {"kind": "logistic_step", "amplitude": 10.0, "steepness": 40.0, "center": 1.0},
            "segment": {"near": 0.0, "far": 2.0},
            "color": {"kind": "gradient", "start_value": [0.0], "end_value": [1.0], "start": 0.0, "end": 2.0},
        }
        path = tmp_path / "unresolved.json"
        path.write_text(json.dumps(scene))
        assert run(["shift-sensitivity", "--scene", path, "--n-coarse", 32, "--out", tmp_path]) == 1

    def test_shift_sensitivity_without_any_spread_fails(self, tmp_path, capsys):
        # One offset gives both models a zero spread: the ratio is nan,
        # which misses the threshold instead of dividing by zero.
        assert run(["shift-sensitivity", "--offsets", 1, "--out", tmp_path]) == 1
        out, err = capsys.readouterr()
        assert "spread ratio constant/linear nan" in out
        assert "threshold violated" in err
        assert "Traceback" not in err

    def test_shift_sensitivity_stable_linear_render_passes(self, tmp_path, monkeypatch, capsys):
        # A linear render that no shift moves has spread exactly zero; with
        # a moving constant render the ratio is inf, which passes.  A zero
        # linear pmf renders 0.0 at every offset.
        from rayquad import cli

        def distributions(model, widths, t, _kernel=cli._distributions):
            log_t, trans, pmf, cumulative = _kernel(model, widths, t)
            if model is ModelKind.LINEAR:
                pmf = np.zeros_like(pmf)
            return log_t, trans, pmf, cumulative

        monkeypatch.setattr(cli, "_distributions", distributions)
        assert run(["shift-sensitivity", "--n-coarse", 32, "--offsets", 8, "--out", tmp_path]) == 0
        assert "spread ratio constant/linear inf" in capsys.readouterr().out

    def test_shift_sensitivity_rounding_spread_is_no_spread(self, tmp_path, capsys):
        # On the smooth bump at N=32 both spreads are 4.4e-16, rounding of
        # the rendered values; both count as zero, so the ratio is nan and
        # the command says both models are shift-stable.
        scene = Path(__file__).parent.parent / "scenes" / "gaussian_bump.json"
        assert run(["shift-sensitivity", "--scene", scene, "--n-coarse", 32, "--out", tmp_path]) == 1
        out = capsys.readouterr().out
        assert "constant spread 0\n" in out and "linear spread 0\n" in out
        assert "both models are shift-stable" in out
        assert "spread ratio constant/linear nan" in out

    def test_sampler_test(self, tmp_path):
        assert run(["sampler-test", "--out", tmp_path]) == 0
        lines = (tmp_path / "sampler_test.csv").read_text().splitlines()
        assert lines[0] == "sampler,instance,n,ks_statistic,critical_value,passed"
        surrogate_steep = [l for l in lines if l.startswith("surrogate,steep")]
        assert surrogate_steep[0].endswith("false")

    def test_grad_check(self, tmp_path):
        assert run(["grad-check", "--out", tmp_path]) == 0
        lines = (tmp_path / "grad_check.csv").read_text().splitlines()
        assert lines[0] == "target,instance,max_rel_err"

    def test_quadratic_probe(self, tmp_path):
        assert run(["quadratic-probe", "--out", tmp_path]) == 0
        text = (tmp_path / "quadratic_probe.csv").read_text()
        assert "fixture_left_integral" in text
        thresholds = (tmp_path / "quadratic_thresholds.csv").read_text().splitlines()
        assert thresholds[1].endswith("6")

    def test_depth(self, tmp_path):
        assert run(["depth", "--n-coarse", 32, "--offsets", 8, "--out", tmp_path]) == 0
        rmse = (tmp_path / "depth_rmse.csv").read_text().splitlines()
        values = {r.split(",")[0]: float(r.split(",")[1]) for r in rmse[1:]}
        assert values["linear"] <= values["constant"]

    def test_depth_far_from_the_origin(self, tmp_path):
        # The shipped wall a million units out, where a distance's ulp (1.2e-10)
        # is above the oracle's default tol: its mean still settles, and sits
        # where the wall at the origin puts it.
        scene = json.loads((SCENE.parent / "logistic_wall.json").read_text())
        scene["field"]["center"] += 1e6
        scene["segment"] = {"near": 1e6, "far": 1e6 + 0.5}
        scene["color"] = {"kind": "uniform", "value": [1.0]}
        path = tmp_path / "far_wall.json"
        path.write_text(json.dumps(scene))
        assert run(["depth", "--scene", path, "--out", tmp_path]) == 0
        rows = list(csv.DictReader((tmp_path / "depth.csv").read_text().splitlines()))
        (mean,) = {float(r["oracle_mean"]) for r in rows}
        assert mean == pytest.approx(1e6 + 0.25001135, abs=1e-8)

    def test_render_emits_images(self, tmp_path):
        from rayquad.cli import cmd_render

        spec = ExperimentSpec(n_coarse=48, out=tmp_path)
        assert cmd_render(spec)
        for name in ("render_constant.pgm", "render_linear.pgm", "render_diff_linear.pgm"):
            text = (tmp_path / name).read_text().splitlines()
            assert text[0] == "P2"
            assert text[1] == "12 8"
            assert text[2] == "255"
        lines = (tmp_path / "render.csv").read_text().splitlines()
        assert lines[0] == "model,row,col,rendered_value,oracle_value,abs_diff"
        assert len(lines) == 1 + 2 * 96
        # Each image is write_pgm of its CSV column, pixels in row-major order.
        rows = list(csv.DictReader(lines))
        for model in ("constant", "linear"):
            mine = [r for r in rows if r["model"] == model]
            assert [(int(r["row"]), int(r["col"])) for r in mine] == list(np.ndindex(8, 12))
            for name, column in (("render", "rendered_value"), ("render_diff", "abs_diff")):
                image = f"{name}_{model}.pgm"
                values = np.array([float(r[column]) for r in mine]).reshape(8, 12)
                write_pgm(tmp_path / "csv" / image, values)
                assert (tmp_path / image).read_bytes() == (tmp_path / "csv" / image).read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize(
        "command",
        [
            "convergence",
            pytest.param(
                "shift-sensitivity",
                marks=pytest.mark.xfail(
                    raises=NonZeroExit,
                    strict=True,
                    reason="the default --n-coarse 128 ignores fixtures.SHIFT_N = 32, "
                    "so the spread ratio misses its floor (ROADMAP item 1)",
                ),
            ),
            "sampler-test",
            "grad-check",
            "quadratic-probe",
            "render",
            "depth",
        ],
    )
    def test_defaults_match_benchmark_golden(self, tmp_path, command):
        code = run([command, "--out", tmp_path])
        for name in json.loads((GOLDEN / "commands.json").read_text())[command]:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        if code != 0:
            raise NonZeroExit(f"{command} exited {code}")

    @pytest.mark.parametrize(
        "args",
        [
            ["shift-sensitivity", "--n-coarse", 32, "--offsets", 8],
            ["sampler-test"],
            ["grad-check"],
            ["depth", "--n-coarse", 16, "--offsets", 4],
            ["render"],
        ],
    )
    def test_reruns_are_byte_identical(self, tmp_path, args):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestRenderFieldCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Profile calls of one ``render``, keyed by (inside the oracle, method)."""
        calls, inside = Counter(), [False]
        for cls, name in ((LogisticStep, "tau"), (TwoToneColor, "color")):
            def counted(self, s, _method=getattr(cls, name), _name=name):
                calls[inside[0], _name] += 1
                return _method(self, s)

            monkeypatch.setattr(cls, name, counted)
        batch = oracle.true_render_batch

        def in_oracle(*args, **kwargs):
            inside[0] = True
            try:
                return batch(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(oracle, "true_render_batch", in_oracle)
        return calls

    def test_one_field_call_per_level_and_group(self, tmp_path, calls):
        # The 96 rays share one profile class each, so the oracle makes one
        # call per engine level and per table build; one call per ray made
        # 3024 tau and 2753 color calls.
        assert run(["render", "--out", tmp_path]) == 0
        assert 0 < calls[True, "tau"] <= 59
        assert 0 < calls[True, "color"] <= 59

    def test_one_trace_call_per_ray(self, tmp_path, calls):
        # The 96 rays are traced as one stack: one call per profile class, not one per ray.
        assert run(["render", "--out", tmp_path]) == 0
        assert calls[False, "tau"] == 1
        assert calls[False, "color"] == 1

    def test_rays_run_as_one_engine_batch(self, tmp_path, monkeypatch):
        # The 96 rays share one class pair, so the oracle does not split them.
        batches = []
        refine = oracle._refine_until_stable

        def counted(densities, *args, **kwargs):
            batches.append(len(densities))
            return refine(densities, *args, **kwargs)

        monkeypatch.setattr(oracle, "_refine_until_stable", counted)
        assert run(["render", "--out", tmp_path]) == 0
        assert batches == [96]


class TestBatchedCommands:
    """Multi-ray commands build every ray of a model in one kernel call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from rayquad import cli, quadrature

        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for module in (cli, quadrature):
            monkeypatch.setattr(module, "interval_pmf", counting("interval_pmf", module.interval_pmf))
        monkeypatch.setattr(cli, "_distributions", counting("kernel", cli._distributions))
        return calls

    @pytest.mark.parametrize(
        "args",
        [
            ["render", "--n-coarse", 16],
            ["depth", "--n-coarse", 16, "--offsets", 4],
            ["shift-sensitivity", "--n-coarse", 16, "--offsets", 4],
        ],
        ids=["render", "depth", "shift-sensitivity"],
    )
    def test_one_kernel_call_per_model(self, tmp_path, calls, args):
        run(args + ["--out", tmp_path])
        assert calls == {"kernel": 2}

    def test_grad_check_rows_build_no_continuous_cdf(self, tmp_path, monkeypatch):
        # One ContinuousRayCdf per instance for its analytic gradient, plus the two of the
        # invariance check; the 80 finite-difference rows invert as stacked rows.
        from rayquad.sampling import ContinuousRayCdf

        built, init = [], ContinuousRayCdf.__post_init__
        monkeypatch.setattr(ContinuousRayCdf, "__post_init__", lambda self: built.append(1) or init(self))
        assert run(["grad-check", "--out", tmp_path]) == 0
        assert len(built) == 20 + 2

    def test_convergence_samples_each_grid_once(self, tmp_path, monkeypatch):
        # Both models read the same traces of each grid.
        sampled, sample = [], cli.sample_field
        monkeypatch.setattr(cli, "sample_field", lambda field, grid: sampled.append(grid.n) or sample(field, grid))
        assert run(["convergence", "--out", tmp_path]) == 0
        assert sampled == list(cli.CONVERGENCE_NS)


class TestImageWriters:
    def test_pgm_round_trip(self, tmp_path):
        values = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "img.pgm"
        write_pgm(path, values)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["P2", "2 2", "255"]
        assert lines[3].split() == ["0", "128"]
