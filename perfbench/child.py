"""Child processes of the benchmark; each runs in a fresh interpreter.

    python3 perfbench/child.py RESULT SRC measure KIND SPANS|- CLI ARGS...

runs ``hygrad.cli.cli_main`` on the CLI arguments. The result file records
when ``build_problem`` first returned and when ``cli_main`` returned (both
``time.monotonic``, comparable with the parent's clock), the exit code, the
peak resident set size, and then the time of ``yardstick(KIND)``. With a
span path instead of ``-``, every layer is traced and the spans are written
there when the run ends.

    python3 perfbench/child.py RESULT SRC yardstick KIND

only times ``yardstick(KIND)``, and

    python3 perfbench/child.py RESULT SRC rootcheck TRAIN VAL SEED

checks that every strategy is consistent at the exact root of the decay
problem, against the finite-difference ground truth.

The parent starts each with BLAS/OpenMP threads pinned to 1 in the child's
environment and with ``SRC`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np


def _peak_rss_kb() -> int:
    # VmHWM is this process image's own high-water mark; getrusage's maxrss
    # can carry the parent's over from before exec.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def yardstick(kind: str) -> float:
    """Seconds for a fixed numpy workload shaped like one of hygrad's hot
    paths; about 0.1 s on a 2-vCPU Xeon VM at its fast speed.

    ``lu``: a pivoted LU of a 20 x 20 matrix in a Python loop of small
    numpy operations, the shape of ``linalg.lu_factor``. ``oracle``: a
    stable sigmoid and a weighted Gram product over a 20000 x 5 matrix, the
    shape of the logistic oracles. It uses no hygrad code, so no change to
    the package moves it; only the speed of the machine does.
    """
    rng = np.random.default_rng(12345)
    small = rng.normal(size=(20, 20)) + 20.0 * np.eye(20)
    tall = rng.normal(size=(20000, 5))
    started = time.perf_counter()
    if kind == "lu":
        for _ in range(450):
            lu = small.copy()
            for k in range(20):
                p = k + int(np.argmax(np.abs(lu[k:, k])))
                if p != k:
                    lu[[k, p]] = lu[[p, k]]
                lu[k + 1:, k] /= lu[k, k]
                lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    elif kind == "oracle":
        for _ in range(100):
            m = -(tall @ small[:5, 0])
            pos = m >= 0
            s = np.empty_like(m)
            s[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
            e = np.exp(m[~pos])
            s[~pos] = e / (1.0 + e)
            tall.T @ (s[:, None] * tall)
    else:
        raise ValueError(f"unknown yardstick {kind!r}")
    return time.perf_counter() - started


def _import_hygrad(src_dir: str):
    import hygrad
    expected = os.path.realpath(os.path.join(src_dir, "hygrad"))
    if os.path.dirname(os.path.realpath(hygrad.__file__)) != expected:
        raise SystemExit(f"imported {hygrad.__file__}, expected a module under {expected}")
    return hygrad


def measure(src_dir: str, kind: str, span_path: str, argv: list) -> dict:
    _import_hygrad(src_dir)
    from hygrad import bench, cli
    from tracer import Tracer, instrument, rebind

    tracer = None
    if span_path != "-":
        tracer = Tracer()
        instrument(tracer)
    marks = {}
    traced_build = bench.build_problem

    def build_problem(config):
        problem = traced_build(config)
        marks.setdefault("built", time.monotonic())
        return problem
    rebind(traced_build, build_problem)

    run = cli.cli_main if tracer is None else tracer.wrap("cli.cli_main", cli.cli_main)
    code = run(argv)
    done = time.monotonic()
    peak_rss_kb = _peak_rss_kb()
    if tracer is not None:
        tracer.dump(span_path)
    return {"exit_code": code, "built": marks.get("built"), "done": done,
            "peak_rss_kb": peak_rss_kb, "yardstick_s": yardstick(kind)}


def rootcheck(src_dir: str, train: str, val: str, seed: int) -> dict:
    """Criterion 1 on the decay problem: each estimate at the exact root lies
    within 1e-6 (1 + |truth|) of the finite-difference hypergradient."""
    hg = _import_hygrad(src_dir)
    config = hg.RunConfig(problem="logistic", train_path=train, val_path=val,
                          y_low=3.0, y_high=6.0, seed=seed)
    problem = hg.build_problem(config)
    y = hg.sample_y(problem.d_y, config.y_low, config.y_high, seed)
    xstar = hg.exact_root(problem, y)
    truth = hg.fd_hypergradient(problem, y)
    bound = 1e-6 * (1.0 + float(np.linalg.norm(truth)))
    errors = {s: float(np.linalg.norm(hg.make_estimator(problem, s)(xstar, y) - truth))
              for s in hg.STRATEGIES}
    return {"bound": bound, "errors": errors}


def main(argv: list) -> None:
    result_path, src_dir, mode, rest = argv[0], argv[1], argv[2], argv[3:]
    if mode == "measure":
        result = measure(src_dir, rest[0], rest[1], rest[2:])
    elif mode == "yardstick":
        result = {"yardstick_s": yardstick(rest[0])}
    elif mode == "rootcheck":
        result = rootcheck(src_dir, rest[0], rest[1], int(rest[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
