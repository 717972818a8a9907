"""Span recording around calls into hygrad's layers, from outside the package.

Nothing inside ``hygrad`` is edited: ``instrument`` rebinds module attributes
(including the names importers bound, such as ``estimators.linear_solve``)
to recording wrappers, and wraps the oracle objects of every problem that
``build_problem`` returns. Spans live in memory and are written once, when
the run ends; ``layer_metrics`` turns a span file into the per-layer
metrics.

A span is ``(name, start, end, parent, tag)``. The tag carries what a ratio
needs and a duration cannot: a digest of the matrix given to ``lu_factor``
or of the y given to ``exact_root``, the byte count given to
``parse_libsvm``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import sys
import time

import numpy as np

LAYERS = ("linalg", "models", "solvers", "estimators", "efficiency", "bench")
STRATEGIES = ("vanilla", "newton", "diag", "exp", "diag-rep", "opt")
INNER_ORACLE = ("residual", "jac_x", "jac_y", "djac_x_dir_x", "djac_x_dir_y")
OUTER_ORACLE = ("value", "grad_x", "grad_y", "hess_xx", "jac_gradY_x",
                "jac_gradX_y")
ORACLE_PREFIX = "models.oracle."


def rebind(original, replacement) -> int:
    """Point every ``hygrad`` module attribute bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hygrad" or name.startswith("hygrad.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def _digest(array) -> str:
    a = np.ascontiguousarray(np.asarray(array, dtype=float))
    return hashlib.blake2b(repr(a.shape).encode() + a.tobytes(),
                           digest_size=12).hexdigest()


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = time.perf_counter

    def _name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str, tag=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), self._clock(), 0.0, parent, tag])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self._clock()
        self._stack.pop()

    def in_oracle(self) -> bool:
        """True inside an oracle span: nested oracle calls (a wrapped
        callable that itself calls the wrapped problem) count once."""
        return bool(self._stack) and \
            self.names[self.spans[self._stack[-1]][0]].startswith(ORACLE_PREFIX)

    def wrap(self, name: str, fn, tag_fn=None, oracle: bool = False):
        def traced(*args, **kwargs):
            if oracle and self.in_oracle():
                return fn(*args, **kwargs)
            idx = self.open(name, tag_fn(*args, **kwargs) if tag_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


class _OracleProxy:
    """Delegates to an oracle object; ``wrapped`` overrides some methods."""

    def __init__(self, target, wrapped: dict):
        self._target = target
        vars(self).update(wrapped)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of an imported ``hygrad``."""
    from hygrad import bench, efficiency, estimators, linalg, models, solvers

    def install(module, func: str, name: str, **kwargs):
        original = getattr(module, func)
        rebind(original, tracer.wrap(name, original, **kwargs))

    install(linalg, "lu_factor", "linalg.lu_factor",
            tag_fn=lambda a, *_, **__: _digest(a))
    install(linalg, "linear_solve", "linalg.linear_solve")
    install(linalg, "solve_transpose", "linalg.solve_transpose")
    install(linalg, "top_singular", "linalg.top_singular")

    install(models, "parse_libsvm", "models.parse_libsvm",
            tag_fn=lambda text, *_, **__: len(text))

    def oracle_arg(name: str, fn):
        return tracer.wrap(name, fn, oracle=True)

    original_newton = solvers.newton_root

    def newton_root(residual_fn, jac_fn, x0, *args, **kwargs):
        # The callables Newton is handed are oracle calls; wrapping them lets
        # the spans count line-search trials against accepted steps.
        return original_newton(oracle_arg(ORACLE_PREFIX + "residual", residual_fn),
                               oracle_arg(ORACLE_PREFIX + "jac_x", jac_fn),
                               x0, *args, **kwargs)
    rebind(original_newton, tracer.wrap("solvers.newton_root", newton_root))
    install(solvers, "gradient_descent", "solvers.gradient_descent")

    # Every estimator is built through the ``Estimator`` class, so tracing
    # its callable at construction covers make_estimator, estimator_for_kind
    # and the preconditioned estimators of the comparison bounds. Separable
    # families carry no name: remember which constructor made each one, and
    # label estimator_for_kind's estimator after it.
    family_names: dict[int, str] = {}
    labels: list = []
    estimator_class = estimators.Estimator

    def traced_estimator(name, fn):
        label = labels[-1] if labels and labels[-1] else name
        return estimator_class(name, tracer.wrap("estimators." + label, fn))
    estimators.Estimator = efficiency.Estimator = traced_estimator

    def named_family(func: str, strategy: str):
        original = getattr(estimators, func)

        def make(*args, **kwargs):
            family = original(*args, **kwargs)
            family_names[id(family)] = strategy
            return family
        rebind(original, make)
    named_family("diag_scaling_reparam", "diag-rep")
    named_family("newton_separable_reparam", "opt")

    original_for_kind = efficiency.estimator_for_kind

    def estimator_for_kind(problem, kind, *args, **kwargs):
        labels.append(kind if isinstance(kind, str) else family_names.get(id(kind)))
        try:
            return original_for_kind(problem, kind, *args, **kwargs)
        finally:
            labels.pop()
    rebind(original_for_kind, estimator_for_kind)

    for func in ("efficiency_constant", "compare_bounds", "precond_gap",
                 "reparam_gap"):
        install(efficiency, func, "efficiency." + func)

    def proxied(problem):
        inner = _OracleProxy(problem.inner, {
            m: oracle_arg(ORACLE_PREFIX + m, getattr(problem.inner, m))
            for m in INNER_ORACLE})
        inner.exact_root = tracer.wrap("solvers.exact_root",
                                       problem.inner.exact_root, tag_fn=_digest)
        outer = _OracleProxy(problem.outer, {
            m: oracle_arg(ORACLE_PREFIX + "outer", getattr(problem.outer, m))
            for m in OUTER_ORACLE})
        return dataclasses.replace(problem, inner=inner, outer=outer)

    original_build = bench.build_problem

    def build_problem(config):
        return proxied(original_build(config))
    rebind(original_build, tracer.wrap("bench.build_problem", build_problem))

    for func in ("run_decay", "run_efficiency_sweep", "emit_csv", "render_svg"):
        install(bench, func, "bench." + func)


# --------------------------------------------------------------------------
# analysis

def _tail(samples: list) -> float:
    """Value at the highest whole percentile, floor(100 (n - 10) / n), that
    leaves at least ten of the n samples beyond it; the maximum when n < 11."""
    n = len(samples)
    if n < 11:
        return max(samples, default=0.0)
    pct = (100 * (n - 10)) // n
    return sorted(samples)[(pct * n) // 100]


def layer_metrics(span_file: str) -> dict:
    """Per-layer metrics (name -> value) from a span file."""
    with open(span_file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    spans = data["spans"]
    n = len(spans)
    name = [names[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    # nearest estimator and efficiency_constant ancestors, parents first
    est_of = [None] * n
    const_of = [None] * n
    for i, s in enumerate(spans):
        p = s[3]
        est_of[i] = est_of[p] if p >= 0 else None
        const_of[i] = const_of[p] if p >= 0 else None
        if name[i].startswith("estimators."):
            est_of[i] = name[i][len("estimators."):]
        elif name[i] == "efficiency.efficiency_constant":
            const_of[i] = i

    def idx(*wanted):
        return [i for i in range(n) if name[i] in wanted]

    def total(ids, values):
        return float(sum(values[i] for i in ids))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(
            [i for i in range(n) if name[i].split(".", 1)[0] == layer], self_t)

    lu = idx("linalg.lu_factor")
    m["linalg.lu_factor.calls"] = len(lu)
    m["linalg.lu_factor.self_s"] = total(lu, self_t)
    m["linalg.lu_factor.us_per_call"] = \
        1e6 * m["linalg.lu_factor.self_s"] / len(lu) if lu else 0.0
    m["linalg.lu_factor.distinct_frac"] = \
        len({spans[i][4] for i in lu}) / len(lu) if lu else 0.0
    solve = idx("linalg.linear_solve", "linalg.solve_transpose")
    m["linalg.solve.calls"] = len(solve)
    m["linalg.solve.self_s"] = total(solve, self_t)
    top = idx("linalg.top_singular")
    m["linalg.top_singular.calls"] = len(top)
    m["linalg.top_singular.self_s"] = total(top, self_t)
    estimates = [i for i in range(n) if name[i].startswith("estimators.")]
    m["linalg.lu_per_estimate"] = len(lu) / len(estimates) if estimates else 0.0

    parse = idx("models.parse_libsvm")
    m["models.parse_libsvm.s"] = total(parse, dur)
    m["models.parse_libsvm.bytes"] = float(sum(spans[i][4] for i in parse))
    for method in INNER_ORACLE + ("outer",):
        m[f"models.oracle.{method}.calls"] = len(idx(ORACLE_PREFIX + method))
    m["models.oracle.self_s"] = total(
        [i for i in range(n) if name[i].startswith(ORACLE_PREFIX)], self_t)

    roots = idx("solvers.exact_root")
    m["solvers.exact_root.calls"] = len(roots)
    m["solvers.exact_root.distinct_frac"] = \
        len({spans[i][4] for i in roots}) / len(roots) if roots else 0.0
    newton = idx("solvers.newton_root")
    m["solvers.newton_root.calls"] = len(newton)
    m["solvers.newton_root.self_s"] = total(newton, self_t)
    # Per Newton call, jac_x runs once per accepted step and the residual once
    # per iteration's convergence check (one more than the steps) and once
    # per line-search trial.
    newton_set = set(newton)
    inside = [i for i in range(n) if spans[i][3] in newton_set]
    steps = sum(name[i] == ORACLE_PREFIX + "jac_x" for i in inside)
    residuals = sum(name[i] == ORACLE_PREFIX + "residual" for i in inside)
    trials = residuals - steps - len(newton)
    m["solvers.newton_root.accept_frac"] = steps / trials if trials > 0 else 0.0
    m["solvers.gradient_descent.s"] = total(idx("solvers.gradient_descent"), dur)

    lu_by_est: dict[str, int] = {}
    for i in lu:
        if est_of[i] is not None:
            lu_by_est[est_of[i]] = lu_by_est.get(est_of[i], 0) + 1
    for strategy in STRATEGIES:
        calls = idx("estimators." + strategy)
        ms = [1e3 * dur[i] for i in calls]
        m[f"estimators.{strategy}.calls"] = len(calls)
        m[f"estimators.{strategy}.ms_p50"] = statistics.median(ms) if ms else 0.0
        m[f"estimators.{strategy}.ms_tail"] = _tail(ms)
        m[f"estimators.{strategy}.lu_per_call"] = \
            lu_by_est.get(strategy, 0) / len(calls) if calls else 0.0

    consts = idx("efficiency.efficiency_constant")
    m["efficiency.efficiency_constant.calls"] = len(consts)
    m["efficiency.efficiency_constant.self_s"] = total(consts, self_t)
    inside = sum(1 for i in estimates if const_of[i] is not None)
    m["efficiency.estimates_per_constant"] = inside / len(consts) if consts else 0.0
    m["efficiency.compare_trial.s"] = total(
        idx("efficiency.compare_bounds", "efficiency.precond_gap",
            "efficiency.reparam_gap"), dur)

    build = total(idx("bench.build_problem"), dur)
    emit = total(idx("bench.emit_csv", "bench.render_svg"), dur)
    root = total(idx("cli.cli_main"), dur)
    m["bench.build_problem.s"] = build
    m["bench.emit.s"] = emit
    m["bench.run.s"] = root - build - emit
    return m
