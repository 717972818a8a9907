"""Experiment runner: decay traces, efficiency sweeps, CSV and SVG emission.

A decay run shares one gradient-descent trajectory across all strategies and
reports, per step, the inner error |x_k - x*| and the hypergradient error
|E(x_k, y) - grad h(y)|, the reference gradient being exact at the root up
to the solver tolerance. An efficiency sweep draws seeded y values and
reports the efficiency constant per strategy and trial.

Outputs are deterministic: identical configuration and seed produce
byte-identical CSV and SVG files.
"""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .efficiency import RootContext, efficiency_constant
from .errors import (
    DataError,
    DomainError,
    HygradError,
    InsufficientDataError,
    ParseError,
    UsageError,
)
from .estimators import STRATEGIES, Strategy, make_estimator
from .models import (
    Dataset,
    check_outer,
    linear_1d,
    load_libsvm,
    make_logistic,
    make_ridge,
    sample_y,
    scalar_ridge,
)
from .problems import BilevelProblem
from .seeding import PRNG_NAME
from .solvers import gradient_descent

Array = np.ndarray

PROBLEM_KINDS = ("ridge", "logistic", "scalar", "linear1d")
# Problems with closed-form data of their own, built without data files.
BUILTIN_PROBLEMS = ("scalar", "linear1d")
# Widest dataset a ridge or logistic problem is built from: each d x d block
# (the Gram matrix, F_1) then takes at most 128 MiB.
MAX_FEATURES = 4096
# Steps per stacked estimate in a decay run, after the start (measured on
# the decay-logistic benchmark: blocks of 8 to 17 steps time within 5%).
DECAY_BLOCK_STEPS = 12


@dataclass(frozen=True)
class DecayTrace:
    """Per-step errors of one strategy along a shared trajectory."""

    strategy: str
    rows: list  # (step, inner_error, hyper_error) triples
    metadata: dict


@dataclass(frozen=True)
class SweepRecord:
    """One efficiency-constant measurement inside a sweep."""

    strategy: str
    trial: int
    seed: int
    c_y: float
    error: str = ""


@dataclass(frozen=True)
class RunConfig:
    """Everything a benchmark run needs, validated on construction."""

    problem: str = "scalar"
    train_path: Optional[str] = None
    val_path: Optional[str] = None
    outer: str = "quadratic"
    strategies: tuple = ("vanilla",)
    steps: int = 30
    y_low: float = -1.0
    y_high: float = 1.0
    trials: int = 10
    seed: int = 0
    step_size: Optional[float] = None

    def __post_init__(self):
        if self.problem not in PROBLEM_KINDS:
            raise UsageError(f"unknown problem {self.problem!r}")
        check_outer(self.outer)
        if not self.strategies:
            raise UsageError("at least one strategy is required")
        for i, s in enumerate(self.strategies):
            if s not in STRATEGIES:
                raise UsageError(
                    f"unknown strategy {s!r}; choose from {', '.join(STRATEGIES)}")
            if s in self.strategies[:i]:
                raise UsageError(f"strategy {s!r} is listed twice")
        if self.steps < 0:
            raise UsageError("steps must be nonnegative")
        if self.trials < 1:
            raise UsageError("trials must be at least 1")
        if not self.y_low < self.y_high:
            raise UsageError("need y-low < y-high")
        if self.step_size is not None and not 0 < self.step_size < np.inf:
            raise UsageError("step size must be positive and finite")
        if self.problem in BUILTIN_PROBLEMS:
            data = [flag for flag, value in (("--train", self.train_path),
                                             ("--val", self.val_path))
                    if value is not None]
            if data:
                raise UsageError(f"problem {self.problem!r} is built in and reads "
                                 f"no data; drop {', '.join(data)}")


def build_problem(config: RunConfig) -> BilevelProblem:
    """Instantiate the configured problem, loading data files as needed."""
    if config.problem == "scalar":
        return scalar_ridge()
    if config.problem == "linear1d":
        return linear_1d()
    if config.train_path is None:
        raise UsageError(f"problem {config.problem!r} needs --train")
    try:
        train = load_libsvm(config.train_path)
        if config.val_path is None and config.outer == "quadratic":
            raise UsageError("quadratic outer objective needs --val")
        val = train if config.val_path is None else load_libsvm(config.val_path)
    except OSError as err:
        raise DataError(f"cannot read dataset: {err}") from err
    # The cap is checked before padding, which would build the wide copy.
    width = max(train.d_x, val.d_x)
    if width > MAX_FEATURES:
        raise DataError(f"dataset has {width} features, more than the "
                        f"{MAX_FEATURES} a problem is built from")
    # Widths can disagree on trailing empty columns, which LIBSVM omits;
    # pad the narrower set with zero columns so both line up.
    train, val = _pad_columns(train, width), _pad_columns(val, width)
    if config.problem == "ridge":
        return make_ridge(train, val, config.outer)
    return make_logistic(train, val, config.outer)


def _pad_columns(data: Dataset, width: int) -> Dataset:
    if data.d_x == width:
        return data
    padded = np.hstack([data.features, np.zeros((data.n, width - data.d_x))])
    padded.setflags(write=False)  # owned by no caller: the Dataset keeps it uncopied
    return Dataset(padded, data.labels)


def seeded_trials(config: RunConfig, d_y: int):
    """Yield (trial, seed, y) per trial: trial t draws y with seed config.seed + t."""
    for trial in range(config.trials):
        seed = config.seed + trial
        yield trial, seed, sample_y(d_y, config.y_low, config.y_high, seed)


def _base_metadata(config: RunConfig, problem: BilevelProblem, y: Array) -> dict:
    meta = {
        "ground_truth": "ift_at_root",
        "prng": PRNG_NAME,
        "problem": problem.name,
        "seed": str(config.seed),
        "y": ";".join(repr(float(v)) for v in y),
    }
    if config.train_path:
        meta["train"] = config.train_path
    if config.val_path:
        meta["val"] = config.val_path
    return meta


def run_decay(config: RunConfig) -> list:
    """Decay traces for every configured strategy along one shared trajectory.

    The hypergradient reference is the implicit formula at the exact root,
    where consistency makes it exact up to the root solver tolerance; a
    difference quotient would put a noise floor well above the quadratic
    strategies' late-iteration errors. The independent finite-difference
    oracle still guards this value in the consistency test suite.
    """
    problem = build_problem(config)
    y = sample_y(problem.d_y, config.y_low, config.y_high, config.seed)
    iterates = gradient_descent(problem, y, np.zeros(problem.d_x), config.steps,
                                step_size=config.step_size)
    # opt's sensitivity reads this one root, with F and the check of F_1 at
    # it, from the problem at every step.
    ctx = RootContext.solve(problem, y)
    xstar = ctx.xstar
    grad_true = Strategy(problem).estimate(xstar, y)

    # Blocks outer, strategies inner: each strategy estimates a block of
    # steps in one call on the stack of its iterates, sharing the stacked
    # blocks and F_1 factorizations the problem keeps for it. The start,
    # where exp is out of its domain, and any block whose stacked call
    # raises run one step at a time: a step outside a change of variables'
    # domain is skipped, and any other error ends the strategy's trace.
    estimators = {s: make_estimator(problem, s) for s in config.strategies}
    traces = {s: DecayTrace(s, [], dict(_base_metadata(config, problem, y),
                                        steps=str(config.steps)))
              for s in config.strategies}
    filtered = {s: [] for s in config.strategies}
    live = list(config.strategies)
    starts = [0, *range(1, len(iterates), DECAY_BLOCK_STEPS), len(iterates)]
    for first, end in zip(starts, starts[1:]):
        block = np.stack(iterates[first:end])
        for strategy in list(live):
            estimates = {}
            if first:
                with suppress(HygradError):
                    estimates = dict(enumerate(estimators[strategy](block, y), first))
            for k in range(first, end) if not estimates else ():
                try:
                    estimates[k] = estimators[strategy](iterates[k], y)
                except DomainError:
                    filtered[strategy].append(k)
                except HygradError as err:
                    traces[strategy].metadata[f"aborted_{strategy}"] = f"step {k}: {err}"
                    live.remove(strategy)
                    break
            traces[strategy].rows.extend(
                (k, float(np.linalg.norm(iterates[k] - xstar)),
                 float(np.linalg.norm(estimate - grad_true)))
                for k, estimate in estimates.items())
    for strategy, steps in filtered.items():
        if steps:
            traces[strategy].metadata[f"filtered_steps_{strategy}"] = \
                ";".join(str(k) for k in steps)
    return list(traces.values())


def run_efficiency_sweep(config: RunConfig) -> list:
    """Efficiency constants per strategy over seeded y draws.

    Trial t uses seed (config.seed + t); a numerical failure marks only the
    affected (strategy, trial) record and the sweep continues.
    """
    problem = build_problem(config)
    records = []
    for trial, trial_seed, y in seeded_trials(config, problem.d_y):
        def failed(strategy: str, err: HygradError) -> SweepRecord:
            return SweepRecord(strategy=strategy, trial=trial, seed=trial_seed,
                               c_y=float("nan"), error=str(err))

        try:
            ctx = RootContext.solve(problem, y)
        except HygradError as err:
            # Every strategy's constant starts from this root.
            records.extend(failed(strategy, err) for strategy in config.strategies)
            continue
        for strategy in config.strategies:
            try:
                c_y = efficiency_constant(ctx, strategy)
            except HygradError as err:
                records.append(failed(strategy, err))
                continue
            records.append(SweepRecord(strategy, trial, trial_seed, c_y))
    return records


# --------------------------------------------------------------------------
# slope fitting

def fit_loglog_slope(trace: DecayTrace, floor: float = 1e-12) -> float:
    """Least-squares slope of log(hyper_error) against log(inner_error).

    Rows at or below the error floor (or with nonpositive inner error) are
    dropped; at least three must remain.
    """
    if not 0.0 <= floor < np.inf:
        raise UsageError("floor must be finite and non-negative")
    xs, ys = [], []
    for _, inner, hyper in trace.rows:
        if hyper > floor and inner > 0.0:
            xs.append(np.log(inner))
            ys.append(np.log(hyper))
    if len(xs) < 3:
        raise InsufficientDataError(
            f"only {len(xs)} rows above the floor; need at least 3")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    dx = xs - xs.mean()
    denom = float(dx @ dx)
    if denom == 0.0:
        raise InsufficientDataError("inner errors have no spread")
    return float(dx @ (ys - ys.mean()) / denom)


# --------------------------------------------------------------------------
# CSV emission

# A metadata value stays on its line: backslash, LF and CR are escaped.
_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"\\": "\\", "n": "\n", "r": "\r"}
_DECAY_HEADER = "strategy,step,inner_error,hypergrad_error"


def csv_text(meta: dict, header: str, rows) -> str:
    r"""CSV text: ``# key=value`` comment lines, the header, then the rows.

    Metadata lines are sorted by key, and a backslash, LF or CR in a value is
    written as ``\\``, ``\n`` or ``\r``. A float cell uses shortest
    round-trip formatting, any other cell ``str``; lines end with LF.
    """
    lines = [f"# {k}={str(meta[k]).translate(_ESCAPES)}" for k in sorted(meta)]
    lines.append(header)
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def emit_csv(items: Sequence[Union[DecayTrace, SweepRecord]],
             metadata: Optional[dict] = None) -> str:
    """Serialize sweep records, or else traces (no items: an empty decay
    table), to CSV text (see ``csv_text``); the caller's metadata overrides
    the records' own keys."""
    meta: dict[str, str] = {}
    if items and isinstance(items[0], SweepRecord):
        meta["prng"] = PRNG_NAME
        meta.update({f"error_{rec.strategy}_{rec.trial}": rec.error
                     for rec in items if rec.error})
        header = "strategy,trial,seed,cy"
        rows = [(rec.strategy, rec.trial, rec.seed, rec.c_y) for rec in items]
    else:
        for trace in items:
            meta.update(trace.metadata)
        header = _DECAY_HEADER
        rows = [(trace.strategy, *row) for trace in items for row in trace.rows]
    meta.update(metadata or {})
    return csv_text(meta, header, rows)


def read_decay_csv(text: str) -> list:
    """Parse decay CSV text back into traces (inverse of emit_csv)."""
    meta: dict[str, str] = {}
    by_strategy: dict[str, list] = {}
    header_seen = False
    # Only LF or CRLF ends a line; a metadata value keeps any other character.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = raw.lstrip()[1:].partition("=")
            if sep:
                meta[key.strip()] = re.sub(
                    r"\\(.)", lambda m: _UNESCAPES.get(m.group(1), m.group(0)), value)
            continue
        if not header_seen:
            if line != _DECAY_HEADER:
                raise ParseError(f"unexpected header {line!r}", line=lineno)
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 columns, got {len(parts)}", line=lineno)
        try:
            step = int(parts[1])
            inner = float(parts[2])
            hyper = float(parts[3])
        except ValueError as err:
            raise ParseError(str(err), line=lineno)
        by_strategy.setdefault(parts[0], []).append((step, inner, hyper))
    if not header_seen:
        raise ParseError("no header line found")
    return [DecayTrace(strategy=s, rows=rows, metadata=dict(meta))
            for s, rows in by_strategy.items()]


# --------------------------------------------------------------------------
# SVG emission

_PALETTE = ("#d02820", "#429cb9", "#50b44f", "#ff9c46", "#ff5fff", "#2a2bc0")
# Canvas size of every SVG, in pixels.
SVG_WIDTH, SVG_HEIGHT = 720, 480


def _series_from(items: Sequence[Union[DecayTrace, SweepRecord]]) -> tuple:
    """(series, x label, y label): c_y per trial for sweeps, else error per step."""
    if items and isinstance(items[0], SweepRecord):
        by_strategy: dict[str, list] = {}
        for rec in items:
            by_strategy.setdefault(rec.strategy, []).append((rec.trial, rec.c_y))
        return list(by_strategy.items()), "trial", "efficiency constant"
    series = [(trace.strategy, [(step, hyper) for step, _, hyper in trace.rows])
              for trace in items]
    return series, "step", "hypergradient error"


def render_svg(items: Sequence[Union[DecayTrace, SweepRecord]]) -> str:
    """Standalone SVG line plot: linear x, log10 y, one polyline per strategy.

    The y axis ticks sit at integer powers of ten. Identical input yields
    byte-identical output; nonpositive and non-finite values cannot be drawn
    on the log axis and are skipped.
    """
    series, x_label, y_label = _series_from(items)
    margin_l, margin_r, margin_t, margin_b = 70, 160, 30, 50
    plot_w = SVG_WIDTH - margin_l - margin_r
    plot_h = SVG_HEIGHT - margin_t - margin_b

    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts if 0.0 < y < np.inf]
    x_min, x_max = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_min == x_max:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    if ys:
        dec_lo = int(np.floor(np.log10(min(ys))))
        dec_hi = int(np.ceil(np.log10(max(ys))))
        if dec_lo == dec_hi:
            dec_lo -= 1
    else:
        dec_lo, dec_hi = -1, 1

    def sx(x: float) -> float:
        return margin_l + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        ly = np.log10(y)
        return margin_t + (dec_hi - ly) / (dec_hi - dec_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]

    # frame
    x0, y0 = margin_l, margin_t + plot_h
    x1, y1 = margin_l + plot_w, margin_t
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')

    # y ticks at integer powers of ten (thinned when the range is huge),
    # anchored at the top decade
    n_dec = dec_hi - dec_lo
    dec_step = max(1, int(np.ceil(n_dec / 12)))
    for dec in range(dec_hi, dec_lo - 1, -dec_step):
        py = sy(10.0 ** dec)
        out.append(f'<line x1="{x0 - 4:.2f}" y1="{py:.2f}" x2="{x0}" '
                   f'y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-size="11">1e{dec}</text>')

    # x ticks, five evenly spaced
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4
        px = sx(xv)
        out.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" '
                   f'y2="{y0 + 4:.2f}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{y0 + 18:.2f}" text-anchor="middle" '
                   f'font-size="11">{xv:g}</text>')

    out.append(f'<text x="{margin_l + plot_w / 2:.2f}" y="{SVG_HEIGHT - 10}" '
               f'text-anchor="middle" font-size="12">{x_label}</text>')
    out.append(f'<text x="16" y="{margin_t + plot_h / 2:.2f}" '
               f'font-size="12" text-anchor="middle" '
               f'transform="rotate(-90 16 {margin_t + plot_h / 2:.2f})">'
               f'{y_label}</text>')

    # one polyline per strategy; legend entries use line elements
    for idx, (name, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts if 0.0 < y < np.inf)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{coords}"/>')
        ly = margin_t + 16 + 18 * idx
        lx = margin_l + plot_w + 16
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 4}" font-size="12">{name}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
