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

    python3 tools/bench_pairs.py PARENT_REV --workload W --pairs N --seed S --control

also runs an A/A round: the parent against a second export of itself, in
``second/`` beside ``parent/``, N pairs interleaved with the change's, pair
i of each round taking its sides in the same alternating order. The round
is appended as its own record (``"control": true``, the parent's commit on
both sides, keyed apart from the pair record), whose summary also gives
each metric's ``median_abs_gap``, the median over pairs of |A - A'|: how
far two runs of one tree fall apart. The pair record's summary then holds,
per metric, that gap as ``control_gap`` and ``beats_control``, whether the
change's median gain exceeds it. A claimed gain needs ``beats_control`` as
well as ``gain_holds``: the control tightens that rule and does not
replace it.

    python3 tools/bench_pairs.py trajectory [BENCH_FILE ...]

reads the given ``BENCH_*.json`` records, by default every one in the
current directory, without changing them, and prints per workload and
record its parent and change commits, seed and pair count, then per
end-to-end metric the parent's and the change's medians, the change's wins
and ``gain_holds`` (and ``beats_control`` when the record has it); an A/A
record reads ``A/A control`` and gives each metric's ``median_abs_gap``.
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


def median_abs_gap(first: list, second: list) -> float:
    """The median over pairs of |second[i] - first[i]|."""
    if len(first) != len(second) or not first:
        raise ValueError("need the same positive number of runs on each side")
    return statistics.median(abs(b - a) for a, b in zip(first, second))


def summarize(parent: list, change: list, better: str, bound: float,
              control_gap: float | None = None) -> dict:
    """The pair statistics of one metric: ``parent[i]`` and ``change[i]``
    are the i-th pair's values, ``better`` is "lower" or "higher", and
    ``bound`` the share of the parent's median by which the change's may be
    worse. With an A/A round's ``median_abs_gap`` as ``control_gap``, it
    also says whether the change's median gain exceeds that gap."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    parent_iqr = p_q[2] - p_q[0]
    gain = sign * (c_q[1] - p_q[1])
    summary = {
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
    if control_gap is not None:
        summary["control_gap"] = control_gap
        summary["beats_control"] = gain > control_gap
    return summary


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
    change commits, seed and kind (an A/A control or not). The earliest
    entries have no ``change`` key."""
    def key(r):
        return r["parent"], r.get("change"), r.get("seed"), r.get("control", False)
    return [r for r in records or [] if key(r) != key(record)] + [record]


def trajectory_lines(records: list) -> list:
    """The lines ``trajectory`` prints for a list of records: per workload,
    in order of first appearance, a header, then per record one line naming
    the pair and one per metric of its summary. The earliest records have
    no ``change`` key; they read ``?``."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        lines.append(workload)
        for r in (r for r in records if r["workload"] == workload):
            pair = "A/A control" if r.get("control") \
                else f"-> {r.get('change', '?')[:7]}"
            lines.append(f"  {r['parent'][:7]} {pair}  "
                         f"seed {r.get('seed', '?')}  {r['pairs']} pairs")
            for name, s in r["summary"].items():
                verdict = f"median_abs_gap={s['median_abs_gap']:.4g}" \
                    if r.get("control") else f"gain_holds={s['gain_holds']}" + (
                        f"  beats_control={s['beats_control']}"
                        if "beats_control" in s else "")
                lines.append(f"    {name}: {s['parent']['median']:.4g} -> "
                             f"{s['change']['median']:.4g}  wins {s['wins']}/"
                             f"{s['pairs']}  {verdict}")
    return lines


def export(rev: str, into: Path, name: str = "parent") -> str:
    """Write the files of ``rev`` into ``into / name``; return its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=CHECKOUT, capture_output=True, text=True,
                            check=True).stdout.strip()
    archive = into / f"{name}.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=CHECKOUT,
                       stdout=fh, check=True)
    root = into / name
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
    ap.add_argument("--control", action="store_true",
                    help="also run an A/A round of the parent against itself")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    # Each round's two sides; the A/A round's parent runs are its own.
    rounds = {"pair": ("parent", "change")}
    if args.control:
        rounds["control"] = ("parent", "second")
    runs = {name: {side: [] for side in sides} for name, sides in rounds.items()}
    change = change_commit()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        commit = export(args.parent_rev, Path(tmp))
        export_tree(Path(tmp))
        if args.control:
            export(args.parent_rev, Path(tmp), "second")
        roots = {side: Path(tmp) / side for sides in rounds.values() for side in sides}
        for i in range(args.pairs):
            for name, sides in rounds.items():
                for side in sides if i % 2 == 0 else sides[::-1]:
                    runs[name][side].append(run_once(roots[side], args.workload,
                                                     args.seed, seconds))
                    r = runs[name][side][-1]
                    print(f"pair {i} {name} {side}: correct={r['correct']} "
                          f"failed={r['failed']} "
                          + " ".join(f"{m['name']}={r['metrics'][m['name']]:.4g}"
                                     for m in bench["end_to_end"]), flush=True)
        counts = {side: traced_counts(roots[side], args.workload)
                  for side in rounds["pair"]}

    def values(name: str, side: str, metric: str) -> list:
        return [r["metrics"][metric] for r in runs[name][side]]

    def record_of(name: str, summary: dict) -> dict:
        return {"workload": args.workload, "parent": commit, "seed": args.seed,
                "seconds": seconds, "pairs": args.pairs, "summary": summary,
                "all_correct": all(r["correct"] and r["failed"] == 0
                                   for side in runs[name].values() for r in side),
                "runs": runs[name]}

    out = Path(f"BENCH_{args.workload}.json")
    records = json.loads(out.read_text()) if out.exists() else None
    gaps = {}
    if args.control:
        control = {}
        for m in bench["end_to_end"]:
            first, second = (values("control", side, m["name"])
                             for side in rounds["control"])
            gaps[m["name"]] = median_abs_gap(first, second)
            control[m["name"]] = dict(summarize(first, second, m["better"], m["bound"]),
                                      median_abs_gap=gaps[m["name"]])
        records = accumulate(records, dict(record_of("control", control),
                                           change=commit, control=True))
    summary = {m["name"]: summarize(values("pair", "parent", m["name"]),
                                    values("pair", "change", m["name"]),
                                    m["better"], m["bound"], gaps.get(m["name"]))
               for m in bench["end_to_end"]}
    record = dict(record_of("pair", summary), change=change, counts_seed=COUNT_SEED,
                  counts=counts, counts_identical=counts["parent"] == counts["change"])
    records = accumulate(records, record)
    out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    for name, s in summary.items():
        control = f" control_gap={s['control_gap']:.4g} " \
            f"beats_control={s['beats_control']}" if "control_gap" in s else ""
        print(f"{name}: parent {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}], change "
              f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
              f"{s['change']['q3']:.4g}], wins {s['wins']}/{s['pairs']}, "
              f"gain_holds={s['gain_holds']} within_bound={s['within_bound']}"
              + control)
    for name in sorted(counts["parent"].keys() | counts["change"].keys()):
        before, after = counts["parent"].get(name), counts["change"].get(name)
        if before != after:
            print(f"count {name}: parent {before}, change {after}")
    print(f"traced counts at seed {COUNT_SEED} identical: {record['counts_identical']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
