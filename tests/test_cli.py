"""CLI subcommands, flag handling, and exit codes."""

import os
import subprocess
import sys

import pytest

import hygrad as hg
from hygrad.cli import cli_main


def _src_dir():
    return os.path.dirname(os.path.dirname(os.path.abspath(hg.__file__)))


def run(argv):
    return cli_main(argv)


def outputs_per_blas_threads(tmp_path, argv, files):
    """The bytes of ``files`` that ``hygrad argv`` writes in a child process,
    run once with BLAS/OpenMP threads pinned to 1 and once to 2.

    Multi-column solves and the SVD reach BLAS matrix kernels, whose
    rounding could depend on the thread count; the pin goes to the child
    only. Each run writes into its own directory.
    """
    src = _src_dir()
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "hygrad.cli"] + argv,
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(cwd / name).read_bytes() for name in files])
    return outputs


@pytest.mark.parametrize("argv", [
    ["decay", "--problem", "scalar", "--steps", "1", "--y-high=inf"],
    ["decay", "--problem", "scalar", "--steps", "1", "--y-low=-1e308", "--y-high=1e308"],
    ["decay", "--problem", "scalar", "--steps", "1", "--step-size", "nan"],
    ["efficiency", "--problem", "scalar", "--trials", "1", "--eps", "nan"],
    ["efficiency", "--problem", "scalar", "--trials", "1", "--eps", "inf"],
    ["compare", "--problem", "linear1d", "--trials", "1", "--precond-scale", "nan"],
    ["compare", "--problem", "linear1d", "--trials", "1", "--precond-scale", "inf"],
], ids=["y-high-inf", "y-width-overflows", "step-size-nan", "eps-nan", "eps-inf",
        "precond-scale-nan", "precond-scale-inf"])
def test_non_finite_numeric_flag_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert run(argv + ["--out", str(out)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["decay", "--problem", "scalar", "--steps", "1"],
    ["efficiency", "--problem", "scalar", "--trials", "1"],
    ["compare", "--problem", "linear1d", "--trials", "1"],
    ["ode1d", "--problem", "linear1d", "--trials", "1"],
], ids=["decay", "efficiency", "compare", "ode1d"])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert run(argv + ["--seed=-1", "--out", str(out)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["decay", "--problem", "scalar", "--steps", "1"],
    ["efficiency", "--problem", "scalar", "--trials", "1"],
], ids=["decay", "efficiency"])
def test_duplicate_strategy_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert run(argv + ["--strategies", "vanilla,vanilla", "--out", str(out)]) == 1
    assert "strategy 'vanilla' is listed twice" in capsys.readouterr().err
    assert not out.exists()


class TestDecayCommand:
    def test_smoke_writes_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run(["decay", "--problem", "scalar", "--strategies",
                    "vanilla,newton", "--steps", "30", "--seed", "1",
                    "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[-1].startswith("newton,")
        assert "strategy,step,inner_error,hypergrad_error" in text

    def test_module_run_writes_nothing_to_stderr(self, tmp_path):
        # Running the module as __main__ must not import it a second time.
        proc = subprocess.run(
            [sys.executable, "-m", "hygrad.cli", "decay", "--problem", "scalar"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=_src_dir()),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_bogus_strategy_exits_one(self, capsys):
        assert run(["decay", "--strategies", "bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self):
        assert run(["decay", "--nope"]) == 1

    def test_flags_it_ignores_are_rejected(self):
        for flag in (["--trials", "3"], ["--eps", "1e-4"]):
            assert run(["decay", "--problem", "scalar"] + flag) == 1

    def test_svg_output(self, tmp_path):
        out = tmp_path / "t.csv"
        svg = tmp_path / "t.svg"
        code = run(["decay", "--problem", "linear1d", "--strategies",
                    "vanilla", "--steps", "10", "--step-size", "0.3",
                    "--out", str(out), "--svg", str(svg)])
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_bytes_independent_of_blas_threads(self, tmp_path, libsvm_dir):
        # Covers the stacked solves of opt and the SVD behind the step size.
        one, two = outputs_per_blas_threads(tmp_path, [
            "decay", "--problem", "logistic",
            "--train", str(libsvm_dir / "cls_train.libsvm"),
            "--val", str(libsvm_dir / "cls_val.libsvm"),
            "--strategies", ",".join(hg.STRATEGIES), "--steps", "20",
            "--y-low", "3", "--y-high", "6", "--seed", "8",
            "--out", "decay.csv", "--svg", "decay.svg"], ["decay.csv", "decay.svg"])
        assert one == two

    def test_missing_train_file_exits_two(self, tmp_path):
        code = run(["decay", "--problem", "ridge",
                    "--train", str(tmp_path / "absent.libsvm"),
                    "--val", str(tmp_path / "absent2.libsvm"),
                    "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_ridge_needs_train_exits_one(self):
        assert run(["decay", "--problem", "ridge"]) == 1

    def test_malformed_data_exits_two(self, tmp_path):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 2:1 1:3\n")
        code = run(["decay", "--problem", "ridge", "--train", str(bad),
                    "--outer", "affine"])
        assert code == 2

    def test_data_flags_on_builtin_problem_exit_one(self, tmp_path, capsys):
        for flag in (["--train", str(tmp_path / "absent.libsvm")],
                     ["--val", str(tmp_path / "absent.libsvm")]):
            assert run(["decay", "--problem", "scalar", "--steps", "3",
                        "--out", str(tmp_path / "o.csv")] + flag) == 1
            assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


class TestEfficiencyCommand:
    def test_row_count(self, tmp_path, libsvm_dir):
        out = tmp_path / "eff.csv"
        code = run(["efficiency", "--problem", "ridge",
                    "--train", str(libsvm_dir / "reg_train.libsvm"),
                    "--outer", "affine", "--strategies", "newton,opt",
                    "--trials", "10", "--seed", "7", "--out", str(out)])
        assert code == 0
        rows = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith(("#", "strategy,"))]
        assert len(rows) == 20

    def test_flags_it_ignores_are_rejected(self):
        for flag in (["--steps", "5"], ["--step-size", "0.1"]):
            assert run(["efficiency", "--problem", "scalar"] + flag) == 1

    def test_step_that_moves_no_coordinate_is_recorded(self, tmp_path):
        # x* is near 0.5, where x* + 1e-17 rounds back to x*: every quotient
        # would read exactly 0, a false super-efficiency.
        out = tmp_path / "eff.csv"
        assert run(["efficiency", "--problem", "scalar", "--eps", "1e-17",
                    "--trials", "2", "--strategies", "vanilla,newton",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        errors = [ln for ln in lines if ln.startswith("# error_")]
        assert len(errors) == 4
        assert all("step 1e-17 does not move coordinate 0" in ln for ln in errors)
        assert [ln.rsplit(",", 1)[1] for ln in lines[-4:]] == ["nan"] * 4

    def test_deterministic_bytes(self, tmp_path):
        args = ["efficiency", "--problem", "scalar", "--strategies",
                "vanilla,newton", "--trials", "3", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_independent_of_blas_threads(self, tmp_path, libsvm_dir):
        one, two = outputs_per_blas_threads(tmp_path, [
            "efficiency", "--problem", "ridge",
            "--train", str(libsvm_dir / "reg_train.libsvm"),
            "--val", str(libsvm_dir / "reg_val.libsvm"),
            "--strategies", ",".join(hg.STRATEGIES), "--trials", "1",
            "--seed", "3", "--out", "eff.csv"], ["eff.csv"])
        assert one == two


class TestCompareCommand:
    def test_linear1d_checks_pass(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run(["compare", "--problem", "linear1d", "--reparam", "exp",
                    "--trials", "3", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert "lhs_phi_minus_p" in out.read_text()

    def test_precond_scale_knob(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run(["compare", "--problem", "linear1d", "--reparam", "opt",
                    "--precond-scale", "2.0", "--trials", "2", "--seed", "3",
                    "--out", str(out)])
        assert code == 0
        assert "# precond_scale=2.0" in out.read_text()

    def test_bytes_independent_of_blas_threads(self, tmp_path, libsvm_dir):
        one, two = outputs_per_blas_threads(tmp_path, [
            "compare", "--problem", "logistic",
            "--train", str(libsvm_dir / "cls_train.libsvm"),
            "--val", str(libsvm_dir / "cls_val.libsvm"), "--reparam", "opt",
            "--precond-scale", "1.5", "--y-low", "3", "--y-high", "6",
            "--trials", "1", "--seed", "5", "--out", "cmp.csv"], ["cmp.csv"])
        assert one == two

    def test_step_that_moves_no_coordinate_exits_one(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--problem", "linear1d", "--eps", "1e-17",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "does not move coordinate 0" in captured.err
        assert "inequalities hold" not in captured.out
        assert not out.exists()

    def test_bad_reparam_exits_one(self):
        assert run(["compare", "--problem", "linear1d",
                    "--reparam", "nope"]) == 1

    def test_flags_it_ignores_are_rejected(self, tmp_path):
        for flag in (["--svg", str(tmp_path / "x.svg")], ["--strategies", "opt"],
                     ["--steps", "5"], ["--step-size", "0.1"]):
            assert run(["compare", "--problem", "linear1d", "--trials", "1",
                        "--out", str(tmp_path / "c.csv")] + flag) == 1
        assert not (tmp_path / "x.svg").exists()


class TestOde1dCommand:
    def test_writes_residuals(self, tmp_path):
        out = tmp_path / "ode.csv"
        code = run(["ode1d", "--problem", "linear1d", "--trials", "2",
                    "--seed", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        body = [ln for ln in lines if ln and not ln.startswith(("#", "candidate,"))]
        # identity plus a 3 x 3 exponential grid, per trial
        assert len(body) == 2 * 10
        identity_rows = [ln for ln in body if ln.startswith("identity,")]
        for row in identity_rows:
            assert abs(float(row.split(",")[-1]) - 1.0) <= 1e-8

    def test_flags_it_ignores_are_rejected(self, tmp_path):
        for flag in (["--svg", str(tmp_path / "x.svg")], ["--strategies", "opt"],
                     ["--steps", "5"], ["--step-size", "0.1"], ["--eps", "1e-4"]):
            assert run(["ode1d", "--problem", "linear1d", "--trials", "1",
                        "--out", str(tmp_path / "o.csv")] + flag) == 1
        assert not (tmp_path / "x.svg").exists()

    def test_data_flags_on_builtin_problem_exit_one(self, tmp_path):
        for flag in (["--train", "/nonexistent.libsvm"],
                     ["--val", "/nonexistent.libsvm"]):
            assert run(["ode1d", "--problem", "linear1d", "--trials", "1",
                        "--out", str(tmp_path / "o.csv")] + flag) == 1
        assert not (tmp_path / "o.csv").exists()

    def test_rejects_multidimensional_problem(self, libsvm_dir):
        code = run(["ode1d", "--problem", "ridge",
                    "--train", str(libsvm_dir / "reg_train.libsvm"),
                    "--outer", "affine"])
        assert code == 1


class TestSlopeCommand:
    def test_reports_slopes(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["decay", "--problem", "linear1d", "--strategies",
                    "vanilla", "--steps", "25", "--step-size", "0.25",
                    "--seed", "1", "--out", str(out)]) == 0
        assert run(["slope", "--in", str(out)]) == 0
        printed = capsys.readouterr().out
        slope = float(printed.split()[-1])
        assert 0.8 <= slope <= 1.2

    def test_missing_file_exits_two(self, tmp_path):
        assert run(["slope", "--in", str(tmp_path / "none.csv")]) == 2

    @pytest.mark.parametrize("floor", ["-1", "-inf", "nan", "inf"])
    def test_floor_must_be_finite_and_nonnegative(self, tmp_path, capsys, floor):
        # newton is exact on linear1d, so a negative floor would admit its
        # zero-error rows.
        out = tmp_path / "t.csv"
        assert run(["decay", "--problem", "linear1d", "--strategies", "newton",
                    "--steps", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["slope", "--in", str(out), f"--floor={floor}"]) == 1
        captured = capsys.readouterr()
        assert "usage error:" in captured.err and captured.out == ""

    def test_unknown_strategy_filter_exits_one(self, tmp_path):
        out = tmp_path / "t.csv"
        run(["decay", "--problem", "scalar", "--strategies", "vanilla",
             "--steps", "5", "--out", str(out)])
        assert run(["slope", "--in", str(out), "--strategy", "nope"]) == 1


class TestLogisticFromFiles:
    def test_decay_on_files(self, tmp_path, libsvm_dir):
        out = tmp_path / "log.csv"
        code = run(["decay", "--problem", "logistic",
                    "--train", str(libsvm_dir / "cls_train.libsvm"),
                    "--val", str(libsvm_dir / "cls_val.libsvm"),
                    "--strategies", "vanilla,newton", "--steps", "40",
                    "--y-low", "3", "--y-high", "6", "--seed", "42",
                    "--out", str(out)])
        assert code == 0
        traces = hg.read_decay_csv(out.read_text())
        assert {t.strategy for t in traces} == {"vanilla", "newton"}
