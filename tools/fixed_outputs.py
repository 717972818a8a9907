"""The fixed CLI invocations whose output files gate numerical changes.

    python3 tools/fixed_outputs.py write DIR   # run every invocation into DIR
    python3 tools/fixed_outputs.py check DIR   # write, then compare with the baseline
    python3 tools/fixed_outputs.py drift A B   # largest relative change per CSV column

``write`` serializes the seeded datasets into DIR, then runs each invocation
in a fresh interpreter with the working directory set to DIR, data paths
relative to it, and BLAS/OpenMP threads pinned to 1 in the child's
environment only. It prints one ``invocation file sha256`` line per output
file. Because the paths are relative, a decay CSV's ``# train=`` line, and
so every digest, is the same wherever DIR is.

``check`` does what ``write`` does, then compares every digest with the
recorded baseline ``fixed_outputs.sha256`` beside this script (same line
format). It names every file whose digest differs or is missing on either
side and exits 1 if there is one. The digests depend on the BLAS build and
the CPU, so a mismatch on another machine is a question, not a verdict.

``drift`` reads the CSV files of two such directories and, for each file,
row key (the strategy or candidate column, ``*`` when the first column is
numeric) and numeric column, takes the largest relative difference
|a - b| / max(|a|, |b|) over all rows, and the same over the rows where
max(|a|, |b|) > 1e-7. Two NaNs count as equal. It prints one such row for
every (file, key, column) whose first difference is nonzero, then one
``N rows unchanged`` line for the rest. It exits 1 when a file is missing
from the second directory or the files' headers, row counts or non-numeric
cells differ.

Run it from anywhere; it uses the ``src/`` of the checkout it lives in.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BASELINE = Path(__file__).resolve().with_name("fixed_outputs.sha256")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
STRATEGIES = "vanilla,newton,diag,exp,diag-rep,opt"
# Values this small on both sides are rounding, not output: the CLI takes no
# difference step, and newton's c_y, zero in exact arithmetic, reads 9.4e-18
# to 1.8e-14. Compare opt's sigma is exactly 0: its Jacobian of S is not formed.
ABS_FLOOR = 1e-7

RIDGE = ["--train", "ridge_train.libsvm", "--val", "ridge_val.libsvm"]
# Every logistic run draws y from [3, 6).
LOGISTIC = ["--train", "logistic_train.libsvm", "--val", "logistic_val.libsvm",
            "--y-low", "3", "--y-high", "6"]
NARROW = ["--train", "logistic_train.libsvm", "--val", "narrow_val.libsvm",
          "--y-low", "3", "--y-high", "6"]


def invocations() -> list[tuple[str, list[str], bool]]:
    """(name, CLI arguments, writes an SVG) for every fixed invocation."""
    runs = []
    for name, args in (
            ("decay-ridge", ["--problem", "ridge"] + RIDGE + ["--seed", "2"]),
            ("decay-logistic", ["--problem", "logistic"] + LOGISTIC + ["--seed", "1"]),
            ("decay-logistic-narrow-val", ["--problem", "logistic"] + NARROW
             + ["--seed", "7"]),
            ("decay-scalar", ["--problem", "scalar", "--seed", "3"])):
        runs.append((name, ["decay"] + args + ["--strategies", STRATEGIES,
                                               "--steps", "30"], True))
    for name, args in (
            ("efficiency-ridge-affine", ["--problem", "ridge", "--outer", "affine",
                                         "--train", "ridge_train.libsvm",
                                         "--seed", "4"]),
            ("efficiency-logistic", ["--problem", "logistic"] + LOGISTIC
             + ["--seed", "5"])):
        runs.append((name, ["efficiency"] + args + ["--strategies", STRATEGIES,
                                                    "--trials", "2"], True))
    data = {"ridge": RIDGE, "logistic": LOGISTIC, "linear1d": []}
    seed = 10
    for problem in ("ridge", "logistic", "linear1d"):
        for reparam in ("exp", "diag-rep", "opt"):
            scale = "1.5" if seed % 2 == 0 else "2.0"
            runs.append((f"compare-{problem}-{reparam}",
                         ["compare", "--problem", problem] + data[problem]
                         + ["--reparam", reparam, "--precond-scale", scale,
                            "--seed", str(seed), "--trials", "2"], False))
            seed += 1
    for problem, seed in (("linear1d", "6"), ("scalar", "8")):
        runs.append((f"ode1d-{problem}", ["ode1d", "--problem", problem,
                                          "--trials", "3", "--seed", seed], False))
    return runs


def write_datasets(out: Path) -> None:
    sys.path.insert(0, str(SRC))
    import hygrad as hg

    logistic_val = hg.synthetic_classification_dataset(200, 5, seed=12)
    narrow = logistic_val.features.copy()
    narrow[:, -1] = 0.0
    for name, data in (
            ("ridge_train", hg.synthetic_regression_dataset(120, 5, seed=1)),
            ("ridge_val", hg.synthetic_validation_dataset(120, 5, seed=2)),
            ("logistic_train", hg.synthetic_classification_dataset(150, 5, seed=11)),
            ("logistic_val", logistic_val),
            ("narrow_val", hg.Dataset(narrow, logistic_val.labels))):
        (out / f"{name}.libsvm").write_text(hg.serialize_libsvm(data))


def command_line(name: str, args: list[str], svg: bool) -> tuple[list[str], list]:
    """One invocation's CLI arguments with its --out (and --svg) file, and
    the (kind, file name) pairs of the files it writes, named after it."""
    files = [("csv", f"{name}.csv")] + ([("svg", f"{name}.svg")] if svg else [])
    argv = args + ["--out", files[0][1]] + (["--svg", files[1][1]] if svg else [])
    return argv, files


def run_invocations(out: Path) -> tuple[int, dict[str, str]]:
    """Run every invocation into out: (exit status, {"invocation file": sha256})."""
    out.mkdir(parents=True, exist_ok=True)
    write_datasets(out)
    env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})
    status = 0
    digests = {}
    for name, args, svg in invocations():
        argv, files = command_line(name, args, svg)
        proc = subprocess.run([sys.executable, "-m", "hygrad.cli"] + argv, cwd=out,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
            status = 1
            continue
        for kind, path in files:
            digest = hashlib.sha256((out / path).read_bytes()).hexdigest()
            digests[f"{name} {kind}"] = digest
    return status, digests


def write(out: Path) -> int:
    status, digests = run_invocations(out)
    for key, digest in digests.items():
        print(f"{key} {digest}")
    return status


def check(out: Path) -> int:
    status, digests = run_invocations(out)
    baseline = dict(line.rsplit(" ", 1)
                    for line in BASELINE.read_text().splitlines() if line.strip())
    for key in sorted(baseline.keys() | digests.keys()):
        got, want = digests.get(key, "missing"), baseline.get(key, "missing")
        if got != want:
            print(f"{key}: {got}, baseline {want}")
            status = 1
    if status == 0:
        print(f"all {len(baseline)} digests equal the baseline")
    return status


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header's fields and each row's, split from the right so that
    only the first column, the row key, may hold a comma."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.rsplit(",", len(header) - 1) for ln in lines[1:]]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def drift(a_dir: Path, b_dir: Path) -> int:
    status = 0
    unchanged = 0
    for a_path in sorted(a_dir.glob("*.csv")):
        b_path = b_dir / a_path.name
        if not b_path.exists():
            print(f"{a_path.name}: missing in {b_dir}")
            status = 1
            continue
        (header, a_rows), (b_header, b_rows) = _read_csv(a_path), _read_csv(b_path)
        if header != b_header or len(a_rows) != len(b_rows):
            print(f"{a_path.name}: header or row count differs")
            status = 1
            continue
        worst: dict[tuple[str, str], list[float]] = {}
        for a_row, b_row in zip(a_rows, b_rows):
            key = "*" if _number(a_row[0]) is not None else a_row[0]
            for col, a_cell, b_cell in zip(header, a_row, b_row):
                a_val, b_val = _number(a_cell), _number(b_cell)
                if a_val is None or b_val is None:
                    if a_cell != b_cell:
                        print(f"{a_path.name}: cell {col} differs: "
                              f"{a_cell!r} vs {b_cell!r}")
                        status = 1
                    continue
                rel = _rel(a_val, b_val)
                floor = abs(a_val) <= ABS_FLOOR and abs(b_val) <= ABS_FLOOR
                gated = 0.0 if floor else rel
                entry = worst.setdefault((key, col), [0.0, 0.0])
                entry[0] = max(entry[0], rel)
                entry[1] = max(entry[1], gated)
        for (key, col), (rel, gated) in worst.items():
            if rel == 0.0:
                unchanged += 1
            else:
                print(f"{a_path.stem} {key} {col} {rel:.3e} {gated:.3e}")
    print(f"{unchanged} rows unchanged")
    return status


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] in ("write", "check"):
        run = write if argv[0] == "write" else check
        return run(Path(argv[1]).resolve())
    if len(argv) == 3 and argv[0] == "drift":
        return drift(Path(argv[1]), Path(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
