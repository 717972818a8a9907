"""Alternating parent/change runs of one benchmark workload, and their summary.

    python3 tools/bench_pairs.py PARENT_REV --workload W --pairs N --seed S

exports the committed files of ``PARENT_REV`` (``git archive``) into
``parent/`` of a temporary directory, copies the tracked files of the
checkout this script lives in, as they are in its working tree, into
``change/`` beside it, and runs ``perfbench/run.py --workload W --seed S
--seconds T`` in each, N times, ``T`` being ``run_seconds`` from the
checkout's ``BENCHMARK.json``. Both sides run from directories of one
depth and name length, because a run's ``peak_rss_mb`` depends on where it
runs from. Each
side runs its own, unchanged ``perfbench/run.py``, one run at a time. Pair
i runs the parent first when i is even and the change first when it is
odd, so that a drift in the machine's speed favours neither side.

It appends one record to the list in ``BENCH_<W>.json`` in the current
directory: the parent and change commits, seed and run length, every run's
``correct``/``attempted``/``failed`` and metric values, and per end-to-end
metric of ``BENCHMARK.json`` each side's median and quartiles and the
change's wins. The parent and change commits and the seed key the record:
it replaces an earlier one with the same pair and seed, so each seed of a
pair keeps its own record. ``gain_holds`` applies the rule
a claimed gain must meet: the change wins at least nine tenths of the pairs
(ties count for neither), and its median beats the parent's by more than
the parent's interquartile range. ``within_bound`` says whether the
change's median is worse than the parent's by no more than the metric's
bound. After the pairs, one ``perfbench/run.py --trace 1 --seconds 0 --seed
101`` run on each side gives the per-layer metrics whose unit is ``count``
(factorizations, oracle calls), which do not depend on the machine; the
record keeps them under ``counts``, with ``counts_identical``. The change
side measures the tracked files as they are, committed or not; its commit
reads ``<HEAD>-dirty`` when a tracked file other than the ``BENCH_*.json``
records differs from HEAD. Untracked files are not copied.

    python3 tools/bench_pairs.py trajectory [BENCH_FILE ...]

reads the given ``BENCH_*.json`` records, by default every one in the
current directory, without changing them, and prints per workload and
record its parent and change commits, seed and pair count, then per
end-to-end metric the parent's and the change's medians, the change's wins
and ``gain_holds``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """The pair statistics of one metric: ``parent[i]`` and ``change[i]``
    are the i-th pair's values, ``better`` is "lower" or "higher", and
    ``bound`` the share of the parent's median by which the change's may be
    worse."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    parent_iqr = p_q[2] - p_q[0]
    gain = sign * (c_q[1] - p_q[1])
    return {
        "better": better,
        "pairs": len(parent),
        "parent": {"q1": p_q[0], "median": p_q[1], "q3": p_q[2]},
        "change": {"q1": c_q[0], "median": c_q[1], "q3": c_q[2]},
        "wins": wins,
        "ties": ties,
        "parent_iqr": parent_iqr,
        "median_gain": gain,
        "relative_gain": gain / abs(p_q[1]) if p_q[1] else float("nan"),
        "gain_holds": 10 * wins >= 9 * len(parent) and gain > parent_iqr,
        "within_bound": -gain <= bound * abs(p_q[1]),
    }


COUNT_SEED = 101


def run_bench(root: Path, args: list) -> tuple:
    """``perfbench/run.py args`` from ``root``: (exit code, the JSON object
    of its last stdout line)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"perfbench/run.py failed in {root} ({proc.returncode}):\n"
                         + proc.stderr)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end ``perfbench/run.py`` run from ``root``."""
    code, result = run_bench(root, ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds)])
    return {"exit_code": code, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def traced_counts(root: Path, workload: str) -> dict:
    """The ``count`` metrics of one traced ``perfbench/run.py`` run from
    ``root`` at ``COUNT_SEED``."""
    _, result = run_bench(root, ["--workload", workload, "--seed", str(COUNT_SEED),
                                 "--seconds", "0", "--trace", "1"])
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def change_commit() -> str:
    """The checkout's HEAD commit id, with ``-dirty`` appended when a tracked
    file other than the ``BENCH_*.json`` records differs from it."""
    head = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=CHECKOUT,
                          capture_output=True, text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", ".",
                            ":(exclude)BENCH_*.json"], cwd=CHECKOUT).returncode
    return head + "-dirty" if dirty else head


def accumulate(records: list | None, record: dict) -> list:
    """``records``, the parsed list of a BENCH file (None for no file), with
    ``record`` appended in place of any entry with the same parent and
    change commits and seed. The earliest entries have no ``change`` key."""
    key = (record["parent"], record["change"], record.get("seed"))
    return [r for r in records or []
            if (r["parent"], r.get("change"), r.get("seed")) != key] + [record]


def trajectory_lines(records: list) -> list:
    """The lines ``trajectory`` prints for a list of records: per workload,
    in order of first appearance, a header, then per record one line naming
    the pair and one per metric of its summary. The earliest records have
    no ``change`` key; they read ``?``."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        lines.append(workload)
        for r in (r for r in records if r["workload"] == workload):
            lines.append(f"  {r['parent'][:7]} -> {r.get('change', '?')[:7]}  "
                         f"seed {r.get('seed', '?')}  {r['pairs']} pairs")
            for name, s in r["summary"].items():
                lines.append(f"    {name}: {s['parent']['median']:.4g} -> "
                             f"{s['change']['median']:.4g}  wins {s['wins']}/"
                             f"{s['pairs']}  gain_holds={s['gain_holds']}")
    return lines


def export(rev: str, into: Path) -> str:
    """Write the files of ``rev`` into ``into``; return its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=CHECKOUT, capture_output=True, text=True,
                            check=True).stdout.strip()
    archive = into / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=CHECKOUT,
                       stdout=fh, check=True)
    root = into / "parent"
    with tarfile.open(archive) as tar:
        tar.extractall(root, filter="data")
    archive.unlink()
    return commit


def export_tree(into: Path) -> None:
    """Copy the checkout's tracked files, as they are in its working tree,
    into ``into / "change"``; a tracked file deleted from the tree is left
    out."""
    names = subprocess.run(["git", "ls-files", "-z"], cwd=CHECKOUT,
                           capture_output=True, check=True).stdout
    root = into / "change"
    for name in filter(None, names.decode().split("\0")):
        source = CHECKOUT / name
        if source.is_file():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, root / name)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["trajectory"]:
        paths = [Path(a) for a in argv[1:]] or sorted(Path.cwd().glob("BENCH_*.json"))
        records = [r for path in paths for r in json.loads(path.read_text())]
        print("\n".join(trajectory_lines(records)))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    runs = {"parent": [], "change": []}
    change = change_commit()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        commit = export(args.parent_rev, Path(tmp))
        export_tree(Path(tmp))
        roots = {side: Path(tmp) / side for side in runs}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(roots[side], args.workload, args.seed,
                                           seconds))
                r = runs[side][-1]
                print(f"pair {i} {side}: correct={r['correct']} failed={r['failed']} "
                      + " ".join(f"{m['name']}={r['metrics'][m['name']]:.4g}"
                                 for m in bench["end_to_end"]), flush=True)
        counts = {side: traced_counts(root, args.workload)
                  for side, root in roots.items()}

    summary = {m["name"]: summarize([r["metrics"][m["name"]] for r in runs["parent"]],
                                    [r["metrics"][m["name"]] for r in runs["change"]],
                                    m["better"], m["bound"])
               for m in bench["end_to_end"]}
    record = {"workload": args.workload, "parent": commit, "change": change,
              "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
              "all_correct": all(r["correct"] and r["failed"] == 0
                                 for side in runs.values() for r in side),
              "summary": summary, "runs": runs, "counts_seed": COUNT_SEED,
              "counts": counts, "counts_identical": counts["parent"] == counts["change"]}
    out = Path(f"BENCH_{args.workload}.json")
    records = accumulate(json.loads(out.read_text()) if out.exists() else None,
                         record)
    out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    for name, s in summary.items():
        print(f"{name}: parent {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}], change "
              f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
              f"{s['change']['q3']:.4g}], wins {s['wins']}/{s['pairs']}, "
              f"gain_holds={s['gain_holds']} within_bound={s['within_bound']}")
    for name in sorted(counts["parent"].keys() | counts["change"].keys()):
        before, after = counts["parent"].get(name), counts["change"].get(name)
        if before != after:
            print(f"count {name}: parent {before}, change {after}")
    print(f"traced counts at seed {COUNT_SEED} identical: {record['counts_identical']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
