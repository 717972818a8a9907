"""The summary arithmetic of ``tools/bench_pairs.py`` (no benchmark runs)."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_inclusive(tool):
    assert tool.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert tool.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert tool.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr(tool):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [p + 3.0 for p in parent]
    s = tool.summarize(parent, change, "higher", 0.25)
    assert s["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert s["change"]["median"] == 15.0
    assert (s["wins"], s["ties"], s["pairs"]) == (10, 0, 10)
    assert s["parent_iqr"] == 2.0 and s["median_gain"] == 3.0
    assert s["relative_gain"] == 0.25
    assert s["gain_holds"] and s["within_bound"]

    # One loss and one tie leave 8 wins of 10: no gain, though the median moved.
    change[0], change[1] = parent[0] - 1.0, parent[1]
    s = tool.summarize(parent, change, "higher", 0.25)
    assert (s["wins"], s["ties"]) == (8, 1) and not s["gain_holds"]

    # Every pair won, but by less than the parent's spread.
    s = tool.summarize(parent, [p + 1.0 for p in parent], "higher", 0.25)
    assert s["wins"] == 10 and not s["gain_holds"]


def test_lower_is_better_and_the_bound(tool):
    parent = [2.0, 2.0, 2.0, 2.0]
    s = tool.summarize(parent, [1.0, 1.0, 1.0, 1.0], "lower", 0.05)
    assert s["wins"] == 4 and s["median_gain"] == 1.0 and s["gain_holds"]
    s = tool.summarize(parent, [2.09, 2.09, 2.09, 2.09], "lower", 0.05)
    assert s["wins"] == 0 and s["within_bound"]
    s = tool.summarize(parent, [2.11, 2.11, 2.11, 2.11], "lower", 0.05)
    assert not s["within_bound"]
    with pytest.raises(ValueError):
        tool.summarize(parent, [1.0], "lower", 0.05)


def test_records_accumulate_keyed_by_parent_and_change(tool):
    legacy = {"parent": "p0", "pairs": 10}          # an early record, no change key
    first = {"parent": "p1", "change": "c1", "pairs": 10}
    records = tool.accumulate([legacy], first)
    assert records == [legacy, first]
    assert tool.accumulate(None, first) == [first]

    # The same pair again replaces its entry; another pair is appended.
    rerun = dict(first, pairs=3)
    assert tool.accumulate(records, rerun) == [legacy, rerun]
    other = {"parent": "p1", "change": "c2", "pairs": 10}
    assert tool.accumulate(records, other) == [legacy, first, other]

    # The seed is part of the key: a pair run at two seeds keeps both.
    seeded = dict(first, seed=2026)
    records = tool.accumulate(records, seeded)
    assert records == [legacy, first, seeded]
    reseeded = dict(first, seed=4242)
    assert tool.accumulate(records, reseeded) == [legacy, first, seeded, reseeded]
    assert tool.accumulate(records, dict(seeded, pairs=3)) == [
        legacy, first, dict(seeded, pairs=3)]


def test_main_records_each_sides_traced_counts(tool, monkeypatch, tmp_path):
    # A stubbed perfbench/run.py: end-to-end runs report the four metrics,
    # traced runs a count, a time and a ratio, with one count that differs.
    # Each call is keyed by the export it runs in, whatever the checkout's
    # directory is named.
    calls, roots = [], set()

    def fake_run(cmd, cwd, capture_output, text):
        role = Path(cwd).name
        roots.add(Path(cwd))
        calls.append((role, cmd[2:]))
        if "--trace" in cmd:
            metrics = {"linalg.lu_factor.calls": (2, "count"),
                       "models.oracle.jac_x.calls": (
                           1 if role == "parent" else 3, "count"),
                       "linalg.self_s": (0.01, "s"),
                       "linalg.lu_factor.distinct_frac": (1.0, "ratio")}
        else:
            metrics = {"setup_s": (0.2, "s"), "wall_s": (0.3, "s"),
                       "rows_per_s": (100.0, "rows/s"), "peak_rss_mb": (40.0, "MB")}
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
        return SimpleNamespace(returncode=0, stdout="# env {}\n" + line, stderr="")

    def fake_export(rev, into):
        (into / "parent").mkdir()
        return "p" * 40

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    monkeypatch.setattr(tool, "export", fake_export)
    monkeypatch.setattr(tool, "export_tree", lambda into: (into / "change").mkdir())
    monkeypatch.setattr(tool, "change_commit", lambda: "c" * 40)
    monkeypatch.chdir(tmp_path)
    assert tool.main(["HEAD", "--workload", "efficiency-ridge", "--pairs", "2",
                      "--seed", "7"]) == 0

    # Both sides run from exports side by side, not from the checkout.
    assert sorted(root.name for root in roots) == ["change", "parent"]
    assert len({root.parent for root in roots}) == 1
    assert tool.CHECKOUT not in {root.resolve() for root in roots}
    traced = [(role, args) for role, args in calls if "--trace" in args]
    assert sorted(role for role, _ in traced) == ["change", "parent"]
    for _, args in traced:
        assert args == ["--workload", "efficiency-ridge", "--seed", "101",
                        "--seconds", "0", "--trace", "1"]
    assert len(calls) == 2 * 2 + 2
    assert [role for role, args in calls if "--trace" not in args] == \
        ["parent", "change", "change", "parent"]
    [record] = json.loads((tmp_path / "BENCH_efficiency-ridge.json").read_text())
    assert record["counts_seed"] == 101
    assert record["counts"] == {
        "parent": {"linalg.lu_factor.calls": 2, "models.oracle.jac_x.calls": 1},
        "change": {"linalg.lu_factor.calls": 2, "models.oracle.jac_x.calls": 3}}
    assert record["counts_identical"] is False
    assert record["all_correct"] and record["summary"]["rows_per_s"]["ties"] == 2


def test_exports_hold_the_commit_and_the_working_tree(tool, monkeypatch, tmp_path):
    # A throwaway repository: one committed file, then edited and not
    # committed, beside a file git does not track.
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True, capture_output=True)
    git("init", "-q")
    (repo / "pkg" / "code.py").write_text("committed\n")
    git("add", "pkg/code.py")
    git("commit", "-q", "-m", "one file")
    (repo / "pkg" / "code.py").write_text("edited\n")
    (repo / "scratch.txt").write_text("untracked\n")
    monkeypatch.setattr(tool, "CHECKOUT", repo)

    out = tmp_path / "out"
    out.mkdir()
    commit = tool.export("HEAD", out)
    tool.export_tree(out)
    assert len(commit) == 40
    assert (out / "parent" / "pkg" / "code.py").read_text() == "committed\n"
    assert (out / "change" / "pkg" / "code.py").read_text() == "edited\n"
    assert not (out / "change" / "scratch.txt").exists()
    assert tool.change_commit() == commit + "-dirty"
