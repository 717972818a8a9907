"""hygrad's benchmark: one workload per call, end-to-end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's LIBSVM inputs are generated
from ``--seed`` into a temporary directory under ``.perfbench_tmp/`` and
removed afterwards. Each pass runs ``hygrad.cli.cli_main`` in a fresh child
interpreter (``child.py``) with BLAS/OpenMP threads pinned to 1 in the
child's environment only. Passes repeat until ``--seconds`` have elapsed
(at least ``MIN_PASSES``), and each end-to-end metric is the median over
passes of its value scaled to a fixed machine speed (``scale_passes``).
Every pass's output is checked; a failed check counts in ``failed`` and
makes the exit code 1.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (see ``tracer.py``). Two traced
passes must give identical counts, and traced output must be byte-identical
to untraced output.

``--smoke`` shrinks every workload to toy size, for the benchmark's own test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (sibling module, found through HERE)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150
# Times are reported at the machine speed where the workload's
# child.yardstick() takes this long. The speed of a shared VM swings by up
# to 2x within seconds; the yardstick, timed between passes, follows the
# swings, and no change to hygrad can move it.
YARDSTICK_NOMINAL_S = 0.1
ALL_STRATEGIES = ",".join(tracer.STRATEGIES)

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "rows_per_s": ("rows/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics ending in these are counts or ratios of counts: two
# traced passes on the same input must give them exactly.
_EXACT = ("calls", "distinct_frac", "accept_frac", "lu_per_estimate",
          "lu_per_call", "estimates_per_constant", "bytes")


def per_layer_metric_names() -> list:
    names = [f"{layer}.self_s" for layer in tracer.LAYERS]
    names += ["linalg.lu_factor.calls", "linalg.lu_factor.self_s",
              "linalg.lu_factor.us_per_call", "linalg.lu_factor.distinct_frac",
              "linalg.solve.calls", "linalg.solve.self_s",
              "linalg.top_singular.calls", "linalg.top_singular.self_s",
              "linalg.lu_per_estimate",
              "models.parse_libsvm.s", "models.parse_libsvm.bytes"]
    names += [f"models.oracle.{m}.calls"
              for m in tracer.INNER_ORACLE + ("outer",)]
    names += ["models.oracle.self_s",
              "solvers.exact_root.calls", "solvers.exact_root.distinct_frac",
              "solvers.newton_root.calls", "solvers.newton_root.self_s",
              "solvers.newton_root.accept_frac", "solvers.gradient_descent.s"]
    for s in tracer.STRATEGIES:
        names += [f"estimators.{s}.{k}"
                  for k in ("calls", "ms_p50", "ms_tail", "lu_per_call")]
    names += ["efficiency.efficiency_constant.calls",
              "efficiency.efficiency_constant.self_s",
              "efficiency.estimates_per_constant", "efficiency.compare_trial.s",
              "bench.build_problem.s", "bench.run.s", "bench.emit.s",
              "trace.overhead_frac"]
    return names


def is_exact(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in _EXACT


def per_layer_unit(name: str) -> tuple:
    last = name.rsplit(".", 1)[-1]
    if last == "calls":
        return "count", "lower"
    if last in ("distinct_frac", "accept_frac"):
        return "ratio", "higher"
    if last in ("lu_per_estimate", "lu_per_call", "estimates_per_constant"):
        return "per_call", "lower"
    if last == "bytes":
        return "bytes", "lower"
    if last == "us_per_call":
        return "us", "lower"
    if last.startswith("ms_"):
        return "ms", "lower"
    if last == "overhead_frac":
        return "ratio", "lower"
    return "s", "lower"


# --------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str          # CLI subcommand
    problem: str
    d: int
    n_train: int
    n_val: int            # 0: no validation file
    generator: str        # "classification" or "regression"
    work: int             # decay steps, or trials
    yardstick: str        # child.yardstick kind shaped like the hot path
    input_sets: int = 8   # distinct seeded inputs a --trace 0 run cycles through
    extra: tuple = ()     # further CLI arguments

    @property
    def rows(self) -> int:
        """CSV data rows one pass must produce."""
        k = len(tracer.STRATEGIES)
        if self.command == "decay":
            return k * (self.work + 1) - 1       # exp skips the x = 0 start
        if self.command == "efficiency":
            return k * self.work
        return self.work


WORKLOADS = {
    w.name: w for w in (
        Workload("decay-logistic",
                 "estimator calls along one descent trajectory are the whole "
                 "compute phase; opt re-runs newton_root on every call; LU "
                 "factorizations dominate",
                 "decay", "logistic", d=20, n_train=400, n_val=400,
                 generator="classification", work=50, yardstick="lu",
                 extra=("--y-low", "3", "--y-high", "6")),
        Workload("efficiency-ridge",
                 "finite-difference efficiency constants and power-iteration "
                 "norms on precomputed ridge oracles; no Newton solves",
                 "efficiency", "ridge", d=20, n_train=400, n_val=0,
                 generator="regression", work=1, yardstick="lu",
                 extra=("--outer", "affine")),
        Workload("compare-logistic-tall",
                 "comparison bounds on 5-feature logistic oracles over 20000 "
                 "rows: oracle flops and LIBSVM parsing, tiny factorizations",
                 "compare", "logistic", d=5, n_train=20000, n_val=20000,
                 generator="classification", work=1, yardstick="oracle",
                 extra=("--reparam", "opt", "--precond-scale", "1.5",
                        "--y-low", "3", "--y-high", "6")),
    )
}

SMOKE = {
    "decay-logistic": dict(d=4, n_train=60, n_val=60, work=40, input_sets=2),
    "efficiency-ridge": dict(d=4, n_train=60, work=1, input_sets=2),
    "compare-logistic-tall": dict(d=3, n_train=300, n_val=300, work=1,
                                  input_sets=2),
}


def smoke_version(w: Workload) -> Workload:
    return Workload(**{**w.__dict__, **SMOKE[w.name]})


@dataclass(frozen=True)
class Inputs:
    index: int
    seed: int             # the CLI's --seed; datasets derive from it too
    files: dict           # role -> {"path", "n", "d", "bytes"}


def make_inputs(hg, w: Workload, run_seed: int, index: int, tmp: str) -> Inputs:
    """Write input set ``index`` of a run; every value derives from the seed.

    Timing depends on the data itself (the logistic oracles' speed follows
    the sign pattern of the margins), so a run cycles through several sets.
    """
    gen = {"classification": hg.synthetic_classification_dataset,
           "regression": hg.synthetic_regression_dataset}[w.generator]
    seed = run_seed * w.input_sets + index
    files = {}
    for role, n, offset in (("train", w.n_train, 1), ("val", w.n_val, 2)):
        if n == 0:
            continue
        path = os.path.join(tmp, f"{role}{index}.libsvm")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(hg.serialize_libsvm(gen(n, w.d, seed=2 * seed + offset)))
        files[role] = {"path": path, "n": n, "d": w.d,
                       "bytes": os.path.getsize(path)}
    return Inputs(index=index, seed=seed, files=files)


def cli_args(w: Workload, inputs: Inputs, out: str) -> list:
    files = inputs.files
    args = [w.command, "--problem", w.problem, "--seed", str(inputs.seed),
            "--train", files["train"]["path"], "--out", out + ".csv"]
    if "val" in files:
        args += ["--val", files["val"]["path"]]
    if w.command == "decay":
        args += ["--strategies", ALL_STRATEGIES, "--steps", str(w.work),
                 "--svg", out + ".svg"]
    elif w.command == "efficiency":
        args += ["--strategies", ALL_STRATEGIES, "--trials", str(w.work)]
    else:
        args += ["--trials", str(w.work)]
    return args + list(w.extra)


# --------------------------------------------------------------------------
# passes

def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = src
    return env


@dataclass
class Pass:
    inputs: int            # Inputs.index
    traced: bool
    setup_s: float
    wall_s: float
    compute_s: float
    peak_rss_mb: float
    exit_code: int
    yardstick_s: float
    outputs: dict          # suffix -> bytes
    layers: dict | None = None
    scale: float = 1.0     # set by scale_passes


def run_pass(w: Workload, inputs: Inputs, tmp: str, src: str, tag: str,
             traced: bool) -> Pass:
    out = os.path.join(tmp, tag)
    result = out + ".result.json"
    spans = out + ".spans.json" if traced else "-"
    argv = [sys.executable, os.path.join(HERE, "child.py"), result, src,
            "measure", w.yardstick, spans] + cli_args(w, inputs, out)
    started = time.monotonic()
    proc = subprocess.run(argv, env=child_env(src), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result):
        raise RuntimeError(f"pass {tag} failed ({proc.returncode}):\n"
                           + proc.stderr.decode(errors="replace"))
    with open(result, encoding="utf-8") as fh:
        r = json.load(fh)
    built = r["built"] if r["built"] is not None else r["done"]  # CLI failed early
    outputs = {}
    for suffix in (".csv", ".svg"):
        if os.path.exists(out + suffix):
            with open(out + suffix, "rb") as fh:
                outputs[suffix] = fh.read()
    return Pass(inputs=inputs.index, traced=traced,
                setup_s=built - started,
                wall_s=r["done"] - started, compute_s=r["done"] - built,
                peak_rss_mb=r["peak_rss_kb"] / 1024.0, exit_code=r["exit_code"],
                yardstick_s=r["yardstick_s"], outputs=outputs,
                layers=tracer.layer_metrics(spans) if traced else None)


def scale_passes(first_stick: float, passes: list) -> None:
    """Set each pass's factor to a fixed machine speed: the nominal yardstick
    time over the mean of the yardsticks measured just before and just after
    the pass (each child runs it as it finishes)."""
    sticks = [first_stick] + [p.yardstick_s for p in passes]
    for i, p in enumerate(passes):
        p.scale = YARDSTICK_NOMINAL_S / (0.5 * (sticks[i] + sticks[i + 1]))


def run_helper(tmp: str, src: str, mode: str, *args) -> dict:
    """Run a non-measuring mode of child.py and return its result."""
    result = os.path.join(tmp, mode + ".json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), result, src, mode,
            *map(str, args)]
    proc = subprocess.run(argv, env=child_env(src), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {mode} failed:\n"
                           + proc.stderr.decode(errors="replace"))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# output checks

def parse_csv(text: str) -> tuple:
    meta, rows = {}, []
    lines = [ln for ln in text.splitlines() if ln]
    body = []
    for ln in lines:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition("=")
            meta[key] = value
        else:
            body.append(ln)
    header = body[0].split(",") if body else []
    for ln in body[1:]:
        rows.append(dict(zip(header, ln.split(","))))
    return meta, rows


def loglog_slope(points: list, floor: float = 1e-12) -> float:
    """Least-squares slope of log(hyper) on log(inner), rows above the floor."""
    pts = [(math.log(i), math.log(h)) for i, h in points if h > floor and i > 0]
    if len(pts) < 3:
        return float("nan")
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx if sxx else float("nan")


def check_pass(w: Workload, p: Pass) -> tuple:
    """(units attempted, units failed, notes) for one pass's output."""
    attempted = w.rows
    if p.exit_code != 0 and w.command != "compare":
        return attempted, attempted, [f"cli exit code {p.exit_code}"]
    meta, rows = parse_csv(p.outputs.get(".csv", b"").decode())
    notes = [f"{k}={v}" for k, v in meta.items()
             if k.startswith(("aborted_", "error_"))]
    failed = 0
    if w.command == "decay":
        by = {}
        for r in rows:
            by.setdefault(r["strategy"], []).append(
                (float(r["inner_error"]), float(r["hypergrad_error"])))
        slopes = {s: loglog_slope(by.get(s, [])) for s in ("vanilla", "newton")}
        for s in tracer.STRATEGIES:
            expected = w.work if s == "exp" else w.work + 1
            bad = expected - len(by.get(s, []))
            if s == "vanilla" and not 0.8 <= slopes[s] <= 1.2 or \
                    s == "newton" and not slopes[s] >= 1.8:
                notes.append(f"{s} slope {slopes[s]!r} out of range")
                bad = expected
            failed += bad
    elif w.command == "efficiency":
        cy = {(r["strategy"], int(r["trial"])): float(r["cy"]) for r in rows}
        for trial in range(w.work):
            vanilla = cy.get(("vanilla", trial), float("nan"))
            for s in tracer.STRATEGIES:
                c = cy.get((s, trial), float("nan"))
                ok = math.isfinite(c)
                if s in ("newton", "opt"):
                    ok = ok and c <= 1e-6 * vanilla
                if not ok:
                    notes.append(f"{s} trial {trial}: c_y={c!r}, vanilla {vanilla!r}")
                failed += not ok
    else:
        for r in rows:
            lhs1, rhs1 = float(r["lhs_phi_minus_p"]), float(r["rhs_phi_minus_p"])
            lhs2, rhs2 = float(r["lhs_p_minus_phi"]), float(r["rhs_p_minus_phi"])
            ok = lhs1 >= rhs1 - 1e-6 * (1 + abs(lhs1)) and \
                lhs2 >= rhs2 - 1e-6 * (1 + abs(lhs2))
            if not ok:
                notes.append(f"trial {r['trial']}: inequality violated")
            failed += not ok
        failed += max(0, w.rows - len(rows))
        if p.exit_code != 0:
            notes.append(f"cli exit code {p.exit_code}")
            failed = max(failed, 1)
    return attempted, min(failed, attempted), notes


def run_checks(w: Workload, sets: list, passes: list, tmp: str, src: str) -> list:
    """Checks beyond each pass's own output, as (description, passed)."""
    checks = []
    if w.command == "decay":
        files = sets[0].files
        r = run_helper(tmp, src, "rootcheck", files["train"]["path"],
                       files["val"]["path"], sets[0].seed)
        checks += [(f"{s} at the exact root: error {err!r}, bound {r['bound']!r}",
                    err <= r["bound"]) for s, err in r["errors"].items()]
    first = {}
    checks.append(("outputs byte-identical across passes on one input set, "
                   "traced or not",
                   all(first.setdefault(p.inputs, p.outputs) == p.outputs
                       for p in passes)))
    counts = [{k: v for k, v in p.layers.items() if is_exact(k)}
              for p in passes if p.traced]
    if counts:
        checks.append(("counts identical across traced passes",
                       all(c == counts[0] for c in counts)))
    return checks


# --------------------------------------------------------------------------
# main

def environment(seed: int) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "pinned": {v: "1" for v in THREAD_VARS}, "seed": seed}


def measure(w: Workload, sets: list, seconds: float, trace: bool,
            tmp: str, src: str) -> list:
    """Passes until ``seconds`` have elapsed. Untraced runs cycle through the
    input sets, at least once; traced runs alternate untraced and traced
    passes on the first set, at least twice each."""
    first_stick = run_helper(tmp, src, "yardstick", w.yardstick)["yardstick_s"]
    passes = []
    deadline = time.monotonic() + seconds
    while True:
        i = len(passes)
        traced = trace and i % 2 == 1
        inputs = sets[0] if trace else sets[i % len(sets)]
        passes.append(run_pass(w, inputs, tmp, src, f"p{i}", traced))
        untraced = [p for p in passes if not p.traced]
        enough = len(untraced) >= max(MIN_PASSES, len(sets)) if not trace else \
            len(untraced) >= MIN_TRACED and len(passes) - len(untraced) >= MIN_TRACED
        if enough and time.monotonic() >= deadline:
            scale_passes(first_stick, passes)
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hygrad", "__init__.py")):
        print(f"no hygrad sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import hygrad as hg

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke_version(w)
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        sets = [make_inputs(hg, w, args.seed, k, tmp)
                for k in range(1 if args.trace else w.input_sets)]
        passes = measure(w, sets, args.seconds, bool(args.trace), tmp, src)
        attempted = failed = 0
        problems = []
        for p in passes:
            a, f, notes = check_pass(w, p)
            attempted += a
            failed += f
            problems += notes
        checks = run_checks(w, sets, passes, tmp, src)
        attempted += len(checks)
        failed += sum(not ok for _, ok in checks)
        problems += [what for what, ok in checks if not ok]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    files = sets[0].files
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    print("# workload " + json.dumps({
        "name": w.name, "rows_per_pass": w.rows, "work": w.work,
        "input_sets": len(sets),
        "inputs": {k: {kk: vv for kk, vv in v.items() if kk != "path"}
                   for k, v in files.items()},
        "passes": len(untraced), "traced_passes": len(traced)}, sort_keys=True))
    print("# passes " + json.dumps([
        {"inputs": p.inputs, "traced": p.traced, "setup_s": p.setup_s,
         "wall_s": p.wall_s, "compute_s": p.compute_s,
         "yardstick_s": p.yardstick_s, "scale": p.scale} for p in passes]))
    for problem in problems:
        print(f"# FAILED {problem}")
    if args.trace:
        metrics = {}
        for name in per_layer_metric_names():
            if name == "trace.overhead_frac":
                value = statistics.median(p.wall_s * p.scale for p in traced) / \
                    statistics.median(p.wall_s * p.scale for p in untraced) - 1.0
            elif is_exact(name):
                value = traced[0].layers[name]
            else:
                value = statistics.median(p.layers[name] for p in traced)
            metrics[name] = {"value": value, "unit": per_layer_unit(name)[0]}
    else:
        values = {
            "setup_s": [p.setup_s * p.scale for p in untraced],
            "wall_s": [p.wall_s * p.scale for p in untraced],
            "rows_per_s": [w.rows / (p.compute_s * p.scale) for p in untraced],
            "peak_rss_mb": [p.peak_rss_mb for p in untraced],
        }
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k][0]}
                   for k, v in values.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
