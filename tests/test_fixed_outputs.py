"""The fixed-output gate: its baseline table and, in-process, its digests."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

import hygrad as hg
from hygrad.cli import cli_main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fixed_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("fixed_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_baseline_names_every_invocation_file_once(tool):
    want = [f"{name} {kind}" for name, _, svg in tool.invocations()
            for kind in (("csv", "svg") if svg else ("csv",))]
    got = [line.rsplit(" ", 1)[0]
           for line in tool.BASELINE.read_text().splitlines() if line.strip()]
    assert len(want) == 23
    assert sorted(got) == sorted(want)


def test_invocations_run_every_strategy(tool):
    # A strategy added to the table must join the gate's decay and
    # efficiency runs, with a new baseline.
    assert tool.STRATEGIES == ",".join(hg.STRATEGIES)


def test_every_invocation_reproduces_its_baseline_digests(tool, tmp_path,
                                                          monkeypatch):
    """Every fixed invocation, run through cli_main in this process, writes
    the bytes recorded in the baseline. ``tools/fixed_outputs.py check``
    stays the authoritative run: a fresh interpreter per invocation, with
    BLAS threads pinned."""
    monkeypatch.setattr(sys, "path", list(sys.path))   # write_datasets adds src
    tool.write_datasets(tmp_path)
    monkeypatch.chdir(tmp_path)
    baseline = dict(line.rsplit(" ", 1)
                    for line in tool.BASELINE.read_text().splitlines() if line.strip())
    differ = []
    for name, args, svg in tool.invocations():
        argv, files = tool.command_line(name, args, svg)
        assert cli_main(argv) == 0, name
        for kind, path in files:
            data = (tmp_path / path).read_bytes()
            if hashlib.sha256(data).hexdigest() != baseline[f"{name} {kind}"]:
                differ.append(f"{name} {kind}")
            if kind == "csv":
                lines = [ln for ln in data.decode().splitlines()
                         if not ln.startswith("#")]
                width = lines[0].count(",")
                assert all(ln.count(",") == width for ln in lines), \
                    f"{path}: a row's field count differs from its header's"
    assert not differ, f"outputs differ from the baseline: {', '.join(differ)}"


CSV = "# seed=1\nstrategy,step,value\nnewton,0,2.0\nnewton,1,nan\nopt,0,1e-9\n"


def _drift(tool, capsys, tmp_path, a_text, b_text):
    """drift over one file written as a_text and b_text: (status, lines)."""
    for name, text in (("a", a_text), ("b", b_text)):
        (tmp_path / name).mkdir()
        if text is not None:
            (tmp_path / name / "run.csv").write_text(text)
    status = tool.drift(tmp_path / "a", tmp_path / "b")
    return status, capsys.readouterr().out.splitlines()


def test_drift_of_identical_files_prints_only_the_count(tool, capsys, tmp_path):
    # step and value, for each of the keys newton and opt.
    assert _drift(tool, capsys, tmp_path, CSV, CSV) == (0, ["4 rows unchanged"])


def test_drift_prints_a_moved_value_and_its_relative_change(tool, capsys, tmp_path):
    status, lines = _drift(tool, capsys, tmp_path, CSV,
                           CSV.replace("newton,0,2.0", "newton,0,2.5"))
    assert status == 0
    assert lines == ["run newton value 2.000e-01 2.000e-01", "3 rows unchanged"]


def test_drift_below_the_floor_reads_zero_when_gated(tool, capsys, tmp_path):
    status, lines = _drift(tool, capsys, tmp_path, CSV,
                           CSV.replace("opt,0,1e-9", "opt,0,2e-9"))
    assert status == 0
    assert lines == ["run opt value 5.000e-01 0.000e+00", "3 rows unchanged"]


def test_drift_reads_the_last_column_of_a_key_with_a_comma(tool, capsys, tmp_path):
    text = "candidate,trial,value\nexp(a=1,b=2),0,1.0\n"
    status, lines = _drift(tool, capsys, tmp_path, text,
                           text.replace(",0,1.0", ",0,1.5"))
    assert status == 0
    assert lines == ["run exp(a=1,b=2) value 3.333e-01 3.333e-01",
                     "1 rows unchanged"]


def test_drift_counts_nan_against_nan_as_unchanged(tool, capsys, tmp_path):
    text = "strategy,value\nnewton,nan\n"
    assert _drift(tool, capsys, tmp_path, text, text) == (0, ["1 rows unchanged"])


@pytest.mark.parametrize("b_text", [
    CSV.replace("strategy,step,value", "strategy,step,other"),
    CSV + "opt,1,3.0\n",
    CSV.replace("opt,0,1e-9", "diag,0,1e-9"),
    None,
], ids=["header", "row-count", "non-numeric-cell", "missing-file"])
def test_drift_exits_one_when_files_do_not_line_up(tool, capsys, tmp_path, b_text):
    status, lines = _drift(tool, capsys, tmp_path, CSV, b_text)
    assert status == 1
    assert lines[0].startswith("run.csv: ")
