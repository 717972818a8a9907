"""Benchmark runner, slope fitting, CSV and SVG emission."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hygrad as hg
from hygrad.bench import DecayTrace, SweepRecord
from hygrad.errors import InsufficientDataError, ParseError

from conftest import CLASSIFICATION_TRAIN_SHAPE


def _trace(rows, strategy="s"):
    return DecayTrace(strategy=strategy, rows=rows, metadata={})


def _fail_at_step(monkeypatch, config, kind, step, calls,
                  error=hg.NumericalFailure("injected failure")):
    """Make run_decay's estimator of ``kind`` raise ``error`` on every call
    whose points include the iterate of ``step``, and record the shape of
    each call's x in ``calls``."""
    problem = hg.build_problem(config)
    y = hg.sample_y(problem.d_y, config.y_low, config.y_high, config.seed)
    point = hg.gradient_descent(problem, y, np.zeros(problem.d_x), config.steps,
                                step_size=config.step_size)[step]
    make = hg.bench.make_estimator

    def patched(problem, key):
        estimator = make(problem, key)
        if key != kind:
            return estimator

        def estimate(x, y):
            calls.append(np.shape(x))
            if any(np.array_equal(row, point) for row in np.atleast_2d(x)):
                raise error
            return estimator(x, y)
        return hg.Estimator(estimator.name, estimate)
    monkeypatch.setattr(hg.bench, "make_estimator", patched)


def _per_step_decay(config):
    """The decay traces one estimate per step and strategy: the reference
    that run_decay's block loop must reproduce byte for byte. It builds its
    problem and estimators through the bench module, so patches of
    build_problem and make_estimator reach it too."""
    problem = hg.bench.build_problem(config)
    y = hg.sample_y(problem.d_y, config.y_low, config.y_high, config.seed)
    iterates = hg.gradient_descent(problem, y, np.zeros(problem.d_x), config.steps,
                                   step_size=config.step_size)
    xstar = hg.RootContext.solve(problem, y).xstar
    grad_true = hg.Strategy(problem).estimate(xstar, y)
    estimators = {s: hg.bench.make_estimator(problem, s) for s in config.strategies}
    traces = {s: DecayTrace(s, [], dict(hg.bench._base_metadata(config, problem, y),
                                        steps=str(config.steps)))
              for s in config.strategies}
    filtered = {s: [] for s in config.strategies}
    live = list(config.strategies)
    for k, x in enumerate(iterates):
        for strategy in list(live):
            try:
                estimate = estimators[strategy](x, y)
            except hg.DomainError:
                filtered[strategy].append(k)
                continue
            except hg.HygradError as err:
                traces[strategy].metadata[f"aborted_{strategy}"] = f"step {k}: {err}"
                live.remove(strategy)
                continue
            traces[strategy].rows.append(
                (k, float(np.linalg.norm(x - xstar)),
                 float(np.linalg.norm(estimate - grad_true))))
    for strategy, steps in filtered.items():
        if steps:
            traces[strategy].metadata[f"filtered_steps_{strategy}"] = \
                ";".join(map(str, steps))
    return list(traces.values())


class TestRunDecay:
    def test_scalar_newton_exact_along_trace(self):
        config = hg.RunConfig(problem="scalar", strategies=("vanilla", "newton"),
                              steps=30, seed=1, step_size=0.1)
        traces = hg.run_decay(config)
        newton = next(t for t in traces if t.strategy == "newton")
        assert all(row[2] <= 1e-12 for row in newton.rows)
        assert all(row[1] >= 1e-8 for row in newton.rows)

    def test_zero_steps_single_row(self):
        config = hg.RunConfig(problem="scalar", strategies=("vanilla",),
                              steps=0, seed=3)
        traces = hg.run_decay(config)
        assert len(traces[0].rows) == 1
        assert traces[0].rows[0][0] == 0

    def test_shared_trajectory_across_strategies(self):
        config = hg.RunConfig(problem="linear1d",
                              strategies=("vanilla", "newton", "diag"),
                              steps=12, seed=5, step_size=0.3)
        traces = hg.run_decay(config)
        inner_columns = [[row[1] for row in t.rows] for t in traces]
        assert inner_columns[0] == inner_columns[1] == inner_columns[2]

    def test_exp_zero_coordinate_filtered_and_recorded(self):
        # The descent starts at the origin, which the signed-exponential
        # change of variables cannot represent; step 0 must be skipped.
        config = hg.RunConfig(problem="scalar", strategies=("exp", "vanilla"),
                              steps=5, seed=2, step_size=0.1)
        traces = hg.run_decay(config)
        exp_trace = next(t for t in traces if t.strategy == "exp")
        vanilla = next(t for t in traces if t.strategy == "vanilla")
        assert exp_trace.metadata.get("filtered_steps_exp") == "0"
        assert [r[0] for r in exp_trace.rows] == [r[0] for r in vanilla.rows][1:]

    def test_exp_filters_every_step_of_a_padded_zero_column(self, tmp_path, reg_train,
                                                            reg_val):
        # The train file omits an all-zero last column, which padding restores;
        # descent from the origin keeps that coordinate at 0 at every step.
        feats = np.array(reg_train.features)
        feats[:, -1] = 0.0
        train_path, val_path = tmp_path / "train.libsvm", tmp_path / "val.libsvm"
        train_path.write_text(hg.serialize_libsvm(hg.Dataset(feats, reg_train.labels)))
        val_path.write_text(hg.serialize_libsvm(reg_val))
        config = hg.RunConfig(problem="ridge", train_path=str(train_path),
                              val_path=str(val_path), strategies=("exp", "vanilla"),
                              steps=4, seed=3)
        exp_trace, vanilla = hg.run_decay(config)
        assert exp_trace.rows == []
        assert exp_trace.metadata["filtered_steps_exp"] == "0;1;2;3;4"
        assert "aborted_exp" not in exp_trace.metadata
        assert len(vanilla.rows) == 5

    def test_aborted_strategy_keeps_earlier_rows_and_drops_out(self, monkeypatch):
        # diag fails at step 3: its stacked call on the block of steps 1-6
        # raises, so it runs that block one step at a time, keeps steps
        # 0-2, records the failure and is not called again; every other
        # strategy, and exp's skipped start, are as in a run without the
        # failure.
        config = hg.RunConfig(problem="scalar", strategies=hg.STRATEGIES, steps=6,
                              seed=2, step_size=0.1)
        plain = {t.strategy: t for t in hg.run_decay(config)}
        diag_calls = []
        _fail_at_step(monkeypatch, config, "diag", 3, diag_calls)
        traces = {t.strategy: t for t in hg.run_decay(config)}
        assert diag_calls == [(1,), (6, 1), (1,), (1,), (1,)]
        assert traces["diag"].rows == plain["diag"].rows[:3]
        assert traces["diag"].metadata["aborted_diag"] == "step 3: injected failure"
        assert "aborted_diag" not in plain["diag"].metadata
        for strategy in hg.STRATEGIES:
            if strategy != "diag":
                assert traces[strategy].rows == plain[strategy].rows, strategy
                assert traces[strategy].metadata == plain[strategy].metadata, strategy
        assert traces["exp"].metadata["filtered_steps_exp"] == "0"

    def test_one_step_shares_its_points_across_strategies(self, logistic_quadratic,
                                                         monkeypatch, lu_calls):
        # Per strategy and stacked call, the rows of the block, the inner
        # jac_x and residual calls and the dense singularity checks. Each
        # row costs the oracle calls one step's estimate costs, and each
        # block one stacked check per matrix. Strategies run inside each
        # block, so they share the blocks and the F_1 factorization of the
        # block's stack: only vanilla evaluates and checks F_1 there, and
        # diag-rep's V = F_1 solves against that check; only newton
        # evaluates F there, and newton and diag evaluate F_1 at their
        # corrected stacks. opt reads F, F_1 and the check of F_1 at the
        # root from the problem's memo of five points, which still holds it
        # after the block's three stacks, and checks only its V.
        calls = []

        def counted(name):
            oracle = getattr(logistic_quadratic.inner, name)

            def call(*args):
                calls.append(name)
                return oracle(*args)
            return call
        problem = replace(logistic_quadratic, inner=replace(
            logistic_quadratic.inner, jac_x=counted("jac_x"),
            residual=counted("residual")))
        monkeypatch.setattr(hg.bench, "build_problem", lambda config: problem)
        make = hg.bench.make_estimator
        counts = {}

        def counting(problem, kind):
            estimator = make(problem, kind)

            def estimate(x, y):
                before, checks = len(calls), len(lu_calls)
                try:
                    return estimator(x, y)
                finally:
                    counts.setdefault(kind, []).append(
                        (np.shape(x), calls[before:].count("jac_x"),
                         calls[before:].count("residual"), len(lu_calls) - checks))
            return hg.Estimator(estimator.name, estimate)
        monkeypatch.setattr(hg.bench, "make_estimator", counting)
        block = hg.bench.DECAY_BLOCK_STEPS
        hg.run_decay(hg.RunConfig(problem="logistic", strategies=hg.STRATEGIES,
                                  steps=block + 3, y_low=3.0, y_high=6.0, seed=2))
        per_row = {"vanilla": (1, 0), "newton": (1, 1), "diag": (1, 0),
                   "exp": (0, 0), "diag-rep": (0, 0), "opt": (0, 0)}
        checks = {"vanilla": 1, "newton": 1, "diag": 1, "exp": 1, "diag-rep": 0,
                  "opt": 1}
        for s in hg.STRATEGIES:
            jac_x, residual = per_row[s]
            # The start comes first, as one point.
            assert [shape for shape, *_ in counts[s]] == \
                [(problem.d_x,), (block, problem.d_x), (3, problem.d_x)], s
            assert [tuple(c) for _, *c in counts[s][1:]] == [
                (rows * jac_x, rows * residual, checks[s]) for rows in (block, 3)], s

    @pytest.fixture
    def logistic_config(self, libsvm_dir):
        # Two full blocks and part of a third after the start.
        return hg.RunConfig(problem="logistic", train_path=str(libsvm_dir / "cls_train.libsvm"),
                            val_path=str(libsvm_dir / "cls_val.libsvm"),
                            strategies=hg.STRATEGIES,
                            steps=2 * hg.bench.DECAY_BLOCK_STEPS + 3,
                            y_low=3.0, y_high=6.0, seed=2)

    def test_blocks_write_the_csv_of_one_step_at_a_time(self, logistic_config):
        assert hg.emit_csv(hg.run_decay(logistic_config)) == \
            hg.emit_csv(_per_step_decay(logistic_config))

    def test_failures_mid_block_write_the_csv_of_one_step_at_a_time(
            self, logistic_config, monkeypatch):
        # opt aborts and newton leaves a point out, each inside the second
        # block; exp's start is skipped as always.
        block = hg.bench.DECAY_BLOCK_STEPS
        opt_calls, newton_calls = [], []
        _fail_at_step(monkeypatch, logistic_config, "opt", block + 5, opt_calls)
        _fail_at_step(monkeypatch, logistic_config, "newton", block + 2, newton_calls,
                      error=hg.DomainError("injected domain error"))
        got = hg.emit_csv(hg.run_decay(logistic_config))
        d = CLASSIFICATION_TRAIN_SHAPE[1]
        # The start, the first block, then the second block stacked and
        # again one step at a time, up to opt's failure or past newton's
        # skipped point; newton then stacks the last block.
        assert opt_calls == [(d,), (block, d), (block, d)] + [(d,)] * 5
        assert newton_calls == [(d,), (block, d), (block, d)] + [(d,)] * block \
            + [(3, d)]
        assert got == hg.emit_csv(_per_step_decay(logistic_config))
        assert f"# aborted_opt=step {block + 5}: injected failure" in got.splitlines()
        assert f"# filtered_steps_newton={block + 2}" in got.splitlines()

    def test_metadata_names_ground_truth_and_prng(self):
        config = hg.RunConfig(problem="scalar", strategies=("vanilla",),
                              steps=1, seed=0)
        trace = hg.run_decay(config)[0]
        assert trace.metadata["ground_truth"] == "ift_at_root"
        assert trace.metadata["prng"] == "pcg64"


class TestBuildProblem:
    def test_narrow_val_parsed_once_and_padded(self, tmp_path, monkeypatch,
                                               cls_train, cls_val):
        # An all-zero last column is omitted by LIBSVM, so the val file
        # parses one feature narrower than the train file.
        import hygrad.models as models
        feats = np.array(cls_val.features)
        feats[:, -1] = 0.0
        train_path, val_path = tmp_path / "train.libsvm", tmp_path / "val.libsvm"
        train_path.write_text(hg.serialize_libsvm(cls_train))
        val_path.write_text(hg.serialize_libsvm(hg.Dataset(feats, cls_val.labels)))
        assert hg.load_libsvm(str(val_path)).d_x == cls_train.d_x - 1

        parsed = []
        original = models.parse_libsvm

        def counting(text):
            parsed.append(len(text))
            return original(text)
        monkeypatch.setattr(models, "parse_libsvm", counting)
        base = dict(problem="logistic", train_path=str(train_path),
                    val_path=str(val_path))
        padded = hg.build_problem(hg.RunConfig(**base))
        assert len(parsed) == 2
        explicit = hg.make_logistic(hg.parse_libsvm(train_path.read_text()),
                                    hg.Dataset(feats, cls_val.labels), "quadratic")

        y = hg.sample_y(padded.d_y, 3.0, 6.0, 8)
        x = np.linspace(-0.5, 0.5, padded.d_x)
        for method in ("residual", "jac_x", "jac_y"):
            assert np.array_equal(getattr(padded, method)(x, y),
                                  getattr(explicit, method)(x, y))
        for method in ("value", "grad_x", "hess_xx"):
            assert np.array_equal(getattr(padded.outer, method)(x, y),
                                  getattr(explicit.outer, method)(x, y))


    def test_quadratic_outer_needs_val(self, libsvm_dir):
        config = hg.RunConfig(problem="ridge",
                              train_path=str(libsvm_dir / "reg_train.libsvm"))
        with pytest.raises(hg.UsageError, match="needs --val"):
            hg.build_problem(config)


@pytest.mark.parametrize("fields, match", [
    (dict(problem="bogus"), "unknown problem 'bogus'"),
    (dict(strategies=()), "at least one strategy"),
    (dict(steps=-1), "steps must be nonnegative"),
    (dict(trials=0), "trials must be at least 1"),
    (dict(y_low=1.0, y_high=1.0), "need y-low < y-high"),
], ids=["problem", "strategies", "steps", "trials", "y-range"])
def test_run_config_refuses(fields, match):
    with pytest.raises(hg.UsageError, match=match):
        hg.RunConfig(**{"problem": "scalar", **fields})


class TestRunEfficiencySweep:
    def test_row_count_and_determinism(self):
        config = hg.RunConfig(problem="scalar", strategies=("vanilla", "newton"),
                              trials=4, seed=9)
        a = hg.run_efficiency_sweep(config)
        b = hg.run_efficiency_sweep(config)
        assert len(a) == 8
        assert [(r.strategy, r.trial, r.seed, r.c_y) for r in a] == \
            [(r.strategy, r.trial, r.seed, r.c_y) for r in b]

    def test_trial_seeds_offset_from_config(self):
        config = hg.RunConfig(problem="scalar", strategies=("vanilla",),
                              trials=3, seed=100)
        records = hg.run_efficiency_sweep(config)
        assert [r.seed for r in records] == [100, 101, 102]

    def test_failing_constant_marks_only_its_record(self, monkeypatch):
        # newton's constant fails at trial 1 only: that record holds NaN and
        # the error, the sweep goes on, and every other record is as in a
        # run without the failure.
        config = hg.RunConfig(problem="scalar", strategies=("vanilla", "newton", "diag"),
                              trials=3, seed=9)
        plain = hg.run_efficiency_sweep(config)
        real = hg.bench.efficiency_constant
        newton_calls = []

        def failing(ctx, strategy):
            if strategy == "newton":
                newton_calls.append(ctx.y)
                if len(newton_calls) == 2:
                    raise hg.NumericalFailure("injected failure")
            return real(ctx, strategy)
        monkeypatch.setattr(hg.bench, "efficiency_constant", failing)
        records = hg.run_efficiency_sweep(config)
        assert [(r.strategy, r.trial, r.seed) for r in records] == \
            [(r.strategy, r.trial, r.seed) for r in plain]
        for got, want in zip(records, plain):
            if (got.strategy, got.trial) == ("newton", 1):
                assert np.isnan(got.c_y) and got.error == "injected failure"
            else:
                assert got == want
        lines = hg.emit_csv(records).splitlines()
        assert "# error_newton_1=injected failure" in lines
        assert "newton,1,10,nan" in lines

    def test_failing_root_marks_every_strategy_of_its_trial(self, monkeypatch):
        config = hg.RunConfig(problem="scalar", strategies=("vanilla", "exp", "opt"),
                              trials=3, seed=9)
        plain = hg.run_efficiency_sweep(config)
        real = hg.bench.RootContext
        solves = []

        def solve(problem, y):
            solves.append(y)
            if len(solves) == 2:
                raise hg.NumericalFailure("no root")
            return real.solve(problem, y)
        monkeypatch.setattr(hg.bench, "RootContext", SimpleNamespace(solve=solve))
        records = hg.run_efficiency_sweep(config)
        assert len(solves) == 3
        assert [(r.strategy, r.trial, r.seed) for r in records] == \
            [(r.strategy, r.trial, r.seed) for r in plain]
        for got, want in zip(records, plain):
            if got.trial == 1:
                assert np.isnan(got.c_y) and got.error == "no root"
            else:
                assert got == want
        meta = [ln for ln in hg.emit_csv(records).splitlines() if ln.startswith("# error_")]
        assert meta == [f"# error_{s}_1=no root" for s in sorted(config.strategies)]


class TestReadDecayCsv:
    HEADER = "strategy,step,inner_error,hypergrad_error"

    @pytest.mark.parametrize("text, line, match", [
        ("# seed=1\nstrategy,step,inner\nvanilla,0,1.0\n", 2, "unexpected header"),
        (f"{HEADER}\nvanilla,0,1.0,0.5\n\nvanilla,1,0.5\n", 4,
         "expected 4 columns, got 3"),
        (f"# a=b\n{HEADER}\nvanilla,0,1.0,0.5\nvanilla,one,0.5,0.25\n", 4,
         "invalid literal for int"),
        (f"{HEADER}\nvanilla,0,1.0,0.5\nvanilla,1,half,0.25\n", 3,
         "could not convert string to float"),
        ("# seed=1\n\n# a=b\n", None, "no header line found"),
    ], ids=["wrong-header", "three-columns", "non-numeric-step", "non-numeric-error",
            "no-header"])
    def test_malformed_text_names_its_line(self, text, line, match):
        with pytest.raises(ParseError, match=match) as exc:
            hg.read_decay_csv(text)
        assert exc.value.line == line


class TestFitSlope:
    def test_linear_identity(self):
        rows = [(k, e, e) for k, e in enumerate(10.0 ** -np.arange(1, 7))]
        assert hg.fit_loglog_slope(_trace(rows)) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic(self):
        rows = [(k, e, e * e) for k, e in enumerate(10.0 ** -np.arange(1, 7))]
        assert hg.fit_loglog_slope(_trace(rows)) == pytest.approx(2.0, abs=1e-12)

    def test_floor_drops_rows(self):
        rows = [(0, 1e-1, 1e-1), (1, 1e-2, 1e-2), (2, 1e-3, 1e-3),
                (3, 1e-4, 1e-13), (4, 1e-5, 1e-14)]
        assert hg.fit_loglog_slope(_trace(rows)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("floor", [-1.0, -np.inf, np.nan, np.inf])
    def test_floor_must_be_finite_and_nonnegative(self, floor):
        rows = [(k, e, e) for k, e in enumerate(10.0 ** -np.arange(1, 7))]
        with pytest.raises(hg.UsageError, match="floor"):
            hg.fit_loglog_slope(_trace(rows), floor=floor)

    def test_insufficient_rows(self):
        rows = [(0, 1e-1, 1e-1), (1, 1e-2, 1e-2)]
        with pytest.raises(InsufficientDataError):
            hg.fit_loglog_slope(_trace(rows))

    def test_no_spread(self):
        rows = [(k, 0.5, 0.1) for k in range(5)]
        with pytest.raises(InsufficientDataError):
            hg.fit_loglog_slope(_trace(rows))


class TestEmitCsv:
    def test_empty_trace_list_header_only(self):
        assert hg.emit_csv([]) == \
            "strategy,step,inner_error,hypergrad_error\n"

    def test_single_row_schema(self):
        text = hg.emit_csv([_trace([(0, 0.5, 0.25)])])
        lines = text.splitlines()
        assert lines[0] == "strategy,step,inner_error,hypergrad_error"
        assert lines[1] == "s,0,0.5,0.25"

    def test_metadata_lines_precede_header(self):
        trace = DecayTrace(strategy="s", rows=[(0, 1.0, 1.0)],
                           metadata={"seed": "1", "prng": "pcg64"})
        lines = hg.emit_csv([trace]).splitlines()
        assert lines[0] == "# prng=pcg64"
        assert lines[1] == "# seed=1"
        assert lines[2].startswith("strategy,")

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        rows = [(k, float(rng.uniform(1e-16, 1.0)), float(rng.uniform(1e-16, 1.0)))
                for k in range(20)]
        trace = DecayTrace(strategy="vanilla", rows=rows, metadata={"seed": "4"})
        text = hg.emit_csv([trace])
        back = hg.read_decay_csv(text)
        assert back[0].rows == rows
        assert hg.emit_csv(back) == text

    @pytest.mark.parametrize("value", [
        "x\nstrategy,step,inner_error,hypergrad_error\nopt,9,9,9",
        "line1\nline2", "C:\\data\\n.libsvm\r", "a\\nb"])
    def test_metadata_value_cannot_inject_lines(self, value):
        trace = DecayTrace(strategy="vanilla", rows=[(0, 1.0, 2.0)],
                           metadata={"train": value})
        text = hg.emit_csv([trace])
        assert text.count("\n") == 3
        back = hg.read_decay_csv(text)
        assert [(t.strategy, t.rows) for t in back] == [("vanilla", [(0, 1.0, 2.0)])]
        assert back[0].metadata == {"train": value}

    def test_values_without_escapes_keep_their_bytes(self):
        trace = DecayTrace(strategy="s", rows=[], metadata={"train": "/a b/c=d,#e"})
        assert hg.emit_csv([trace]).splitlines()[0] == \
            "# train=/a b/c=d,#e"

    def test_efficiency_error_stays_on_one_line(self):
        rec = SweepRecord(strategy="opt", trial=0, seed=7, c_y=float("nan"),
                          error="first\nsecond\rthird")
        lines = hg.emit_csv([rec]).split("\n")
        assert "# error_opt_0=first\\nsecond\\rthird" in lines
        assert lines[-3:] == ["strategy,trial,seed,cy", "opt,0,7,nan", ""]

    def test_efficiency_schema(self):
        rec = SweepRecord(strategy="newton", trial=0, seed=7, c_y=1.5e-9)
        lines = hg.emit_csv([rec]).splitlines()
        assert lines[-2] == "strategy,trial,seed,cy"
        assert lines[-1] == "newton,0,7,1.5e-09"


@settings(max_examples=200, deadline=None)
@given(value=st.text(st.one_of(st.sampled_from("\n\r\\=,# "), st.characters())),
       key=st.sampled_from(["train", "val", "aborted_opt"]))
def test_metadata_round_trip_property(value, key):
    rows = [(0, 0.5, 0.25), (1, 0.125, 1e-300)]
    trace = DecayTrace(strategy="opt", rows=rows, metadata={key: value})
    back = hg.read_decay_csv(hg.emit_csv([trace]))
    assert [(t.strategy, t.rows, t.metadata) for t in back] == \
        [("opt", rows, {key: value})]


class TestRenderSvg:
    def test_one_polyline_per_strategy(self):
        traces = [_trace([(0, 1.0, 0.5), (1, 0.5, 0.1)], "a"),
                  _trace([(0, 1.0, 0.2), (1, 0.5, 0.05)], "b")]
        svg = hg.render_svg(traces)
        assert svg.count("<polyline") == 2
        assert "a</text>" in svg and "b</text>" in svg

    def test_deterministic_bytes(self):
        traces = [_trace([(0, 1.0, 0.5), (1, 0.5, 0.1)], "a")]
        assert hg.render_svg(traces) == hg.render_svg(traces)

    def test_log_ticks_at_powers_of_ten(self):
        import re
        rows = [(k, 1.0, 10.0 ** -(k)) for k in range(16)]
        svg = hg.render_svg([_trace(rows)])
        labels = re.findall(r">(1e-?\d+)</text>", svg)
        assert "1e0" in labels
        assert len(labels) >= 6
        assert all(re.fullmatch(r"1e-?\d+", lab) for lab in labels)

    def test_empty_input_axes_only(self):
        svg = hg.render_svg([])
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 0
        assert "</svg>" in svg

    def test_nonpositive_values_skipped(self):
        svg = hg.render_svg([_trace([(0, 1.0, 0.0), (1, 0.5, 1e-3)])])
        # the zero row cannot appear on a log axis; one coordinate pair drawn
        poly = [ln for ln in svg.splitlines() if "<polyline" in ln][0]
        assert poly.count(",") == 1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_skipped_like_nonpositive(self, bad):
        # A skipped point still widens the x axis, whatever made it skipped.
        rows = [(0, 1.0, bad), (1, 0.5, 0.1), (2, 0.25, 1e-3)]
        svg = hg.render_svg([_trace(rows)])
        assert svg == hg.render_svg([_trace([(0, 1.0, 0.0)] + rows[1:])])
        poly = [ln for ln in svg.splitlines() if "<polyline" in ln][0]
        assert poly.count(",") == 2

    def test_sweep_records_plot(self):
        recs = [SweepRecord("vanilla", 0, 1, 1.0), SweepRecord("vanilla", 1, 2, 2.0),
                SweepRecord("newton", 0, 1, 1e-9), SweepRecord("newton", 1, 2, 2e-9)]
        svg = hg.render_svg(recs)
        assert svg.count("<polyline") == 2

    def test_axis_labels_follow_item_type(self):
        decay = hg.render_svg([_trace([(0, 1.0, 0.5)])])
        sweep = hg.render_svg([SweepRecord("vanilla", 0, 1, 1.0)])
        assert ">step</text>" in decay and ">hypergradient error</text>" in decay
        assert ">trial</text>" in sweep and ">efficiency constant</text>" in sweep
