"""Benchmark runner, slope fitting, CSV and SVG emission."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hygrad as hg
from hygrad.bench import DecayTrace, SweepRecord
from hygrad.errors import InsufficientDataError, UsageError


def _trace(rows, strategy="s"):
    return DecayTrace(strategy=strategy, rows=rows, metadata={})


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

        def counting(text, dims=None):
            parsed.append(dims)
            return original(text, dims=dims)
        monkeypatch.setattr(models, "parse_libsvm", counting)
        base = dict(problem="logistic", train_path=str(train_path),
                    val_path=str(val_path))
        padded = hg.build_problem(hg.RunConfig(**base))
        assert parsed == [None, None]
        explicit = hg.make_logistic(
            hg.parse_libsvm(train_path.read_text()),
            hg.parse_libsvm(val_path.read_text(), dims=cls_train.d_x),
            hg.OuterVariant.quadratic())

        y = hg.sample_y(padded.d_y, 3.0, 6.0, 8)
        x = np.linspace(-0.5, 0.5, padded.d_x)
        for method in ("residual", "jac_x", "jac_y"):
            assert np.array_equal(getattr(padded, method)(x, y),
                                  getattr(explicit, method)(x, y))
        for method in ("value", "grad_x", "hess_xx"):
            assert np.array_equal(getattr(padded.outer, method)(x, y),
                                  getattr(explicit.outer, method)(x, y))


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
        assert hg.emit_csv([], kind="decay") == \
            "strategy,step,inner_error,hypergrad_error\n"

    def test_single_row_schema(self):
        text = hg.emit_csv([_trace([(0, 0.5, 0.25)])], kind="decay")
        lines = text.splitlines()
        assert lines[0] == "strategy,step,inner_error,hypergrad_error"
        assert lines[1] == "s,0,0.5,0.25"

    def test_metadata_lines_precede_header(self):
        trace = DecayTrace(strategy="s", rows=[(0, 1.0, 1.0)],
                           metadata={"seed": "1", "prng": "pcg64"})
        lines = hg.emit_csv([trace], kind="decay").splitlines()
        assert lines[0] == "# prng=pcg64"
        assert lines[1] == "# seed=1"
        assert lines[2].startswith("strategy,")

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        rows = [(k, float(rng.uniform(1e-16, 1.0)), float(rng.uniform(1e-16, 1.0)))
                for k in range(20)]
        trace = DecayTrace(strategy="vanilla", rows=rows, metadata={"seed": "4"})
        text = hg.emit_csv([trace], kind="decay")
        back = hg.read_decay_csv(text)
        assert back[0].rows == rows
        assert hg.emit_csv(back, kind="decay") == text

    @pytest.mark.parametrize("value", [
        "x\nstrategy,step,inner_error,hypergrad_error\nopt,9,9,9",
        "line1\nline2", "C:\\data\\n.libsvm\r", "a\\nb"])
    def test_metadata_value_cannot_inject_lines(self, value):
        trace = DecayTrace(strategy="vanilla", rows=[(0, 1.0, 2.0)],
                           metadata={"train": value})
        text = hg.emit_csv([trace], kind="decay")
        assert text.count("\n") == 3
        back = hg.read_decay_csv(text)
        assert [(t.strategy, t.rows) for t in back] == [("vanilla", [(0, 1.0, 2.0)])]
        assert back[0].metadata == {"train": value}

    def test_values_without_escapes_keep_their_bytes(self):
        trace = DecayTrace(strategy="s", rows=[], metadata={"train": "/a b/c=d,#e"})
        assert hg.emit_csv([trace], kind="decay").splitlines()[0] == \
            "# train=/a b/c=d,#e"

    def test_efficiency_error_stays_on_one_line(self):
        rec = SweepRecord(strategy="opt", trial=0, seed=7, c_y=float("nan"),
                          error="first\nsecond\rthird")
        lines = hg.emit_csv([rec], kind="efficiency").split("\n")
        assert "# error_opt_0=first\\nsecond\\rthird" in lines
        assert lines[-3:] == ["strategy,trial,seed,cy", "opt,0,7,nan", ""]

    def test_efficiency_schema(self):
        rec = SweepRecord(strategy="newton", trial=0, seed=7, c_y=1.5e-9)
        lines = hg.emit_csv([rec], kind="efficiency").splitlines()
        assert lines[-2] == "strategy,trial,seed,cy"
        assert lines[-1] == "newton,0,7,1.5e-09"

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            hg.emit_csv([], kind="nope")


@settings(max_examples=200, deadline=None)
@given(value=st.text(st.one_of(st.sampled_from("\n\r\\=,# "), st.characters())),
       key=st.sampled_from(["train", "val", "aborted_opt"]))
def test_metadata_round_trip_property(value, key):
    rows = [(0, 0.5, 0.25), (1, 0.125, 1e-300)]
    trace = DecayTrace(strategy="opt", rows=rows, metadata={key: value})
    back = hg.read_decay_csv(hg.emit_csv([trace], kind="decay"))
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
