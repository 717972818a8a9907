"""CLI subcommands, flag handling, and exit codes."""

import os
import subprocess
import sys

import numpy as np
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
    ["compare", "--problem", "linear1d", "--trials", "1", "--precond-scale", "nan"],
    ["compare", "--problem", "linear1d", "--trials", "1", "--precond-scale", "inf"],
], ids=["y-high-inf", "y-width-overflows", "step-size-nan", "precond-scale-nan",
        "precond-scale-inf"])
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


@pytest.mark.parametrize("command", ["decay", "efficiency", "compare", "ode1d"])
def test_flag_defaults_are_the_run_config_defaults(command):
    from hygrad.cli import _build_parser, _config_from
    assert _config_from(_build_parser().parse_args([command])) == hg.RunConfig()


def test_import_leaves_scipy_unloaded():
    # The package runs on numpy alone; importing scipy roughly doubles
    # a run's peak RSS (about 29 to 56 MB).
    code = ("import sys, hygrad, hygrad.cli; "
            "assert 'scipy' not in sys.modules, 'scipy was imported'")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=_src_dir()),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_leave_numpy_random_unloaded(tmp_path):
    # sample_y computes the PCG64 stream itself; importing numpy.random
    # would add about 10 ms to every run's compute phase.
    code = ("import sys\n"
            "from hygrad.cli import cli_main\n"
            "for command in ('decay', 'efficiency', 'compare'):\n"
            "    assert cli_main([command, '--problem', 'scalar', '--out',\n"
            "                     command + '.csv']) == 0, command\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=_src_dir()),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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

    def test_width_numpy_cannot_allocate_exits_two(self, tmp_path):
        huge = tmp_path / "huge.libsvm"
        huge.write_text("1 99999999999999999:1\n")
        code = run(["decay", "--problem", "ridge", "--train", str(huge),
                    "--outer", "affine"])
        assert code == 2

    def test_data_flags_on_builtin_problem_exit_one(self, tmp_path, capsys):
        for flag in (["--train", str(tmp_path / "absent.libsvm")],
                     ["--val", str(tmp_path / "absent.libsvm")],
                     ["--outer", "affine"]):
            assert run(["decay", "--problem", "scalar", "--steps", "3",
                        "--out", str(tmp_path / "o.csv")] + flag) == 1
            assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


class TestEfficiencyCommand:
    def test_builtin_problem_records_no_outer(self, tmp_path):
        # linear1d's objective is fixed, so no outer variant was read.
        out = tmp_path / "eff.csv"
        assert run(["efficiency", "--problem", "linear1d", "--trials", "1",
                    "--out", str(out)]) == 0
        meta = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
        assert "# problem=linear1d" in meta
        assert not any(ln.startswith("# outer=") for ln in meta), meta

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

    def test_width_above_the_feature_cap_exits_two(self, tmp_path, capsys):
        # Parses to a 2 x 200000 matrix; its d x d Gram block would take 298 GiB.
        wide = tmp_path / "wide.libsvm"
        wide.write_text("1 200000:1\n-1 1:1\n")
        code = run(["efficiency", "--problem", "ridge", "--outer", "affine",
                    "--train", str(wide), "--trials", "1",
                    "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"200000 features, more than the {hg.bench.MAX_FEATURES}" \
            in capsys.readouterr().err

    def test_wide_val_is_refused_before_padding(self, tmp_path, capsys, monkeypatch):
        # Padding the narrow train set to the val set's width would build the
        # wide copy the cap exists to refuse.
        train, val = tmp_path / "train.libsvm", tmp_path / "val.libsvm"
        train.write_text("1 1:1\n-1 2:1\n")
        val.write_text("1 200000:1\n")

        def refused(data, width):
            raise AssertionError(f"padded to {width} columns")
        monkeypatch.setattr(hg.bench, "_pad_columns", refused)
        code = run(["efficiency", "--problem", "ridge", "--train", str(train),
                    "--val", str(val), "--trials", "1",
                    "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"200000 features, more than the {hg.bench.MAX_FEATURES}" \
            in capsys.readouterr().err

    def test_flags_it_ignores_are_rejected(self):
        for flag in (["--steps", "5"], ["--step-size", "0.1"], ["--eps", "1e-4"]):
            assert run(["efficiency", "--problem", "scalar"] + flag) == 1

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

    # (lhs_phi_minus_p, rhs_phi_minus_p, rhs_p_minus_phi) returned by a stubbed
    # compare_bounds, with lhs_p_minus_phi = -lhs_phi_minus_p, and the number
    # of inequalities that run violates. The slack is 1e-6 (1 + |lhs|).
    @pytest.mark.parametrize("lhs, rhs_phi, rhs_p, violated", [
        (1.0, 2.0, 0.0, 2),
        (1.0, 2.0, -2.0, 1),
        (1.0, 0.5, 0.0, 1),
        (1e6, 1e6 + 0.9, -1e6 + 0.9, 0),
        (1e6, 1e6 + 1.1, -1e6 + 1.1, 2),
    ], ids=["both", "phi-minus-p", "p-minus-phi", "within-slack", "beyond-slack"])
    def test_violations_are_counted_and_exit_three(self, tmp_path, capsys, monkeypatch,
                                                   lhs, rhs_phi, rhs_p, violated):
        def fake_bounds(ctx, precond, reparam):
            return hg.ComparisonBounds(
                lhs_phi_minus_p=lhs, rhs_phi_minus_p=rhs_phi, lhs_p_minus_phi=-lhs,
                rhs_p_minus_phi=rhs_p, v_p=np.ones(1), v_phi=np.ones(1))
        monkeypatch.setattr(hg.efficiency, "compare_bounds", fake_bounds)
        out = tmp_path / "cmp.csv"
        code = run(["compare", "--problem", "linear1d", "--trials", "1", "--seed", "2",
                    "--out", str(out)])
        captured = capsys.readouterr()
        # The CSV is written whether or not an inequality fails.
        assert out.read_text().splitlines()[-1].startswith(
            f"0,2,{lhs!r},{rhs_phi!r},{-lhs!r},{rhs_p!r},")
        if violated:
            assert code == 3
            assert f"{violated} comparison inequalities violated" in captured.err
        else:
            assert code == 0 and captured.err == ""

    def test_bad_reparam_exits_one(self):
        assert run(["compare", "--problem", "linear1d",
                    "--reparam", "nope"]) == 1

    def test_flags_it_ignores_are_rejected(self, tmp_path):
        for flag in (["--svg", str(tmp_path / "x.svg")], ["--strategies", "opt"],
                     ["--steps", "5"], ["--step-size", "0.1"], ["--eps", "1e-4"]):
            assert run(["compare", "--problem", "linear1d", "--trials", "1",
                        "--out", str(tmp_path / "c.csv")] + flag) == 1
        assert not (tmp_path / "x.svg").exists()


class TestOde1dCommand:
    def test_without_out_writes_csv_to_stdout(self, capsys):
        assert run(["ode1d", "--problem", "linear1d", "--trials", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "candidate,trial,seed,y,residual" in lines
        assert lines[-1].startswith("exp(a=2;b=2),0,")

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        out = tmp_path / "absent" / "o.csv"
        assert run(["ode1d", "--problem", "linear1d", "--trials", "1",
                    "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("problem", ["scalar", "linear1d"])
    def test_the_exp_grid_coincides_by_construction(self, tmp_path, problem):
        # S_phi = -(V^{-T} F_2)' with V = F_1 + diag(F / x) reads neither a
        # nor b: the nine exp(a;b) maps give one estimator, bit for bit, off
        # the root. Their residuals, read at the root through phi's own
        # derivatives, are one zero up to rounding: at most 2.2e-16 over
        # trials 0-9 of seeds 0, 4 and 9 on both problems, spread 4.4e-16.
        fixture = hg.scalar_ridge() if problem == "scalar" else hg.linear_1d()
        y = np.array([0.3])
        x = hg.exact_root(fixture, y) * np.array([[0.7], [1.1], [1.6]])
        grid = [0.5, 1.0, 2.0]
        estimates = [hg.make_estimator(fixture, hg.exp_family_reparam_1d(a, b))(x, y)
                     for a in grid for b in grid]
        assert all(np.array_equal(e, estimates[0]) for e in estimates)
        out = tmp_path / "ode.csv"
        assert run(["ode1d", "--problem", problem, "--trials", "3", "--seed", "4",
                    "--out", str(out)]) == 0
        residuals = {}
        for line in out.read_text().splitlines():
            if line.startswith("exp("):
                name, trial, *_, residual = line.split(",")
                residuals.setdefault(trial, {})[name] = float(residual)
        assert sorted(residuals) == ["0", "1", "2"]
        for trial in residuals.values():
            assert len(trial) == 9, trial
            assert max(map(abs, trial.values())) <= 4 * np.finfo(float).eps, trial

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
