"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import hygrad as hg
from hygrad.errors import DataError, HygradError

from conftest import comparison_args, seeded_y


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def _median_cy(problem, strategy, trials, seed, low, high):
    values = []
    for trial in range(trials):
        y = hg.sample_y(problem.d_y, low, high, seed + trial)
        values.append(hg.efficiency_constant(hg.RootContext.solve(problem, y), strategy))
    return float(np.median(values)), values


def test_criterion_1_consistency_all_strategies(scalar_fixture, linear1d_fixture,
                                                ridge_quadratic,
                                                logistic_quadratic):
    started = time.time()
    with criterion(1, "all six strategies consistent at the root, 20 y draws "
                      "per problem, tolerance 1e-6"):
        problems = (scalar_fixture, linear1d_fixture, ridge_quadratic,
                    logistic_quadratic)
        for problem in problems:
            low, high = (3.0, 6.0) if problem.name == "logistic" else (-1.0, 1.0)
            for seed in range(20):
                y = seeded_y(problem, 9000 + seed, low=low, high=high)
                xstar = problem.exact_root(y)
                truth = hg.fd_hypergradient(problem, y)
                bound = 1e-6 * (1.0 + np.linalg.norm(truth))
                for strategy in hg.STRATEGIES:
                    estimate = hg.make_estimator(problem, strategy)(xstar, y)
                    err = np.linalg.norm(estimate - truth)
                    assert err <= bound, (problem.name, strategy, seed, err)
        elapsed = time.time() - started
        assert elapsed <= 30.0, f"consistency suite took {elapsed:.1f}s"


def test_criterion_2_decay_slopes(libsvm_dir):
    started = time.time()
    with criterion(2, "logistic decay slopes: plain in [0.8, 1.2], "
                      "Newton-corrected >= 1.8"):
        config = hg.RunConfig(problem="logistic",
                              train_path=str(libsvm_dir / "cls_train.libsvm"),
                              val_path=str(libsvm_dir / "cls_val.libsvm"),
                              strategies=("vanilla", "newton"), steps=150,
                              y_low=3.0, y_high=6.0, seed=42)
        traces = {t.strategy: t for t in hg.run_decay(config)}
        vanilla_slope = hg.fit_loglog_slope(traces["vanilla"], floor=1e-12)
        newton_slope = hg.fit_loglog_slope(traces["newton"], floor=1e-12)
        assert 0.8 <= vanilla_slope <= 1.2, vanilla_slope
        assert newton_slope >= 1.8, newton_slope
        elapsed = time.time() - started
        assert elapsed <= 60.0, f"decay suite took {elapsed:.1f}s"


def test_criterion_3_affine_outer_super_efficiency(reg_train, reg_val):
    with criterion(3, "affine outer: Newton preconditioner and Newton-like "
                      "reparameterization both at least 1e6 times below plain"):
        problem = hg.make_ridge(reg_train, reg_val, "affine")
        for trial in range(10):
            y = hg.sample_y(problem.d_y, -1.0, 1.0, 7 + trial)
            ctx = hg.RootContext.solve(problem, y)
            c = {s: hg.efficiency_constant(ctx, s)
                 for s in ("vanilla", "newton", "opt")}
            assert c["newton"] <= 1e-6 * c["vanilla"], (trial, c)
            assert c["opt"] <= 1e-6 * c["vanilla"], (trial, c)


def test_criterion_4_quadratic_outer_newton_wins(ridge_quadratic):
    with criterion(4, "quadratic outer: Newton preconditioner at least 1e6 "
                      "times below the Newton-like reparameterization"):
        for trial in range(10):
            y = hg.sample_y(ridge_quadratic.d_y, -1.0, 1.0, 70 + trial)
            ctx = hg.RootContext.solve(ridge_quadratic, y)
            c_newton = hg.efficiency_constant(ctx, "newton")
            c_opt = hg.efficiency_constant(ctx, "opt")
            assert c_newton <= 1e-6 * c_opt, (trial, c_newton, c_opt)


def test_criterion_5_logistic_medians(logistic_quadratic):
    with criterion(5, "logistic with large penalties: diagonal preconditioner "
                      "and both shipped reparameterizations beat plain in "
                      "median over 10 trials"):
        medians = {}
        for strategy in ("vanilla", "diag", "exp", "diag-rep"):
            medians[strategy], _ = _median_cy(logistic_quadratic, strategy,
                                              trials=10, seed=100,
                                              low=3.0, high=6.0)
        assert medians["diag"] < medians["vanilla"], medians
        assert medians["exp"] < medians["vanilla"], medians
        assert medians["diag-rep"] < medians["vanilla"], medians


def test_criterion_6_analytic_vs_fd_jacobians(scalar_fixture, linear1d_fixture,
                                              ridge_quadratic):
    with criterion(6, "closed-form estimator Jacobian matches the "
                      "finite-difference one to 1e-4 relative, 20 seeds"):
        for problem in (scalar_fixture, linear1d_fixture, ridge_quadratic):
            for seed in range(20):
                y = seeded_y(problem, 300 + seed)
                ctx = hg.RootContext.solve(problem, y)
                analytic = hg.root_jacobian(ctx, "vanilla")
                fd = hg.estimator_jacobian_fd(ctx, "vanilla")
                scale = max(hg.spectral_norm(analytic), 1e-30)
                assert hg.spectral_norm(analytic - fd) <= 1e-4 * scale, \
                    (problem.name, seed)


def test_criterion_7_theorem_checks(ridge_quadratic, linear1d_fixture):
    with criterion(7, "comparison and efficiency inequalities hold on 100 "
                      "seeded instances each; the 1-D worked example is tight"):
        # tight worked example: scaled Newton preconditioner against the
        # exponential map on the affine 1-D fixture
        precond2 = hg.scaled_preconditioner(
            hg.newton_preconditioner(linear1d_fixture), 2.0)
        phi = hg.exp_family_reparam_1d(1.0, 1.0)
        bounds = hg.compare_bounds(
            *comparison_args(linear1d_fixture, precond2, phi, np.zeros(1)))
        assert bounds.lhs_p_minus_phi == pytest.approx(0.25, abs=1e-8)
        assert bounds.rhs_p_minus_phi == pytest.approx(0.25, abs=1e-8)

        diag_p = hg.diag_preconditioner(ridge_quadratic)
        newton_p = hg.newton_preconditioner(ridge_quadratic)
        opt = hg.newton_separable_reparam(ridge_quadratic)
        for seed in range(100):
            y = hg.sample_y(ridge_quadratic.d_y, -1.0, 1.0, 4000 + seed)
            xstar = hg.exact_root(ridge_quadratic, y)

            # efficiency bound through the sensitivity constant
            ctx = hg.RootContext.solve(ridge_quadratic, y)
            c_full = hg.efficiency_constant(ctx, "vanilla")
            d_norm = hg.spectral_norm(hg.outer_curvature(ctx))
            g1_norm = float(np.linalg.norm(
                ridge_quadratic.outer.grad_x(xstar, y)))
            c_sens = hg.sensitivity_efficiency_constant(ctx, "vanilla")
            assert c_full <= d_norm + g1_norm * c_sens + 1e-6 * (1 + c_full), seed

            # both comparison inequalities, diagonal preconditioner vs the
            # anchored exponential map
            b = hg.compare_bounds(*comparison_args(ridge_quadratic, diag_p, "exp", y))
            assert b.lhs_phi_minus_p >= b.rhs_phi_minus_p \
                - 1e-6 * (1 + abs(b.lhs_phi_minus_p)), seed
            assert b.lhs_p_minus_phi >= b.rhs_p_minus_phi \
                - 1e-6 * (1 + abs(b.lhs_p_minus_phi)), seed

            # near-ideal preconditioner bound at zero deviation
            args = comparison_args(ridge_quadratic, newton_p, "exp", y)
            _, lower_p = hg.precond_gap(*args)
            lhs_p = hg.compare_bounds(*args).lhs_phi_minus_p
            assert lhs_p >= lower_p - 1e-6 * (1 + abs(lhs_p)), seed

            # localized-reparameterization bound with the Newton-like family
            args = comparison_args(ridge_quadratic, diag_p, opt, y)
            _, lower_r = hg.reparam_gap(*args)
            lhs_r = hg.compare_bounds(*args).lhs_p_minus_phi
            assert lhs_r >= lower_r - 1e-6 * (1 + abs(lhs_r)), seed


def test_criterion_8_scalar_super_efficiency(linear1d_fixture):
    with criterion(8, "exponential two-parameter family: residual <= 1e-10 "
                      "and constant <= 1e-8; identity residual is 1"):
        y_values = [np.zeros(1)] + [seeded_y(linear1d_fixture, 80 + k)
                                    for k in range(2)]
        for alpha in (0.5, 1.0, 2.0):
            for beta in (0.5, 1.0, 2.0):
                phi = hg.exp_family_reparam_1d(alpha, beta)
                for y in y_values:
                    ctx = hg.RootContext.solve(linear1d_fixture, y)
                    r = hg.super_efficiency_residual_1d(ctx, phi)
                    assert abs(r) <= 1e-10, (alpha, beta, float(y[0]), r)
                    c = hg.efficiency_constant(ctx, phi)
                    assert c <= 1e-8, (alpha, beta, float(y[0]), c)
        for y in y_values:
            r = hg.super_efficiency_residual_1d(
                hg.RootContext.solve(linear1d_fixture, y), hg.identity_reparam())
            assert r == pytest.approx(1.0, abs=1e-8)


def test_criterion_9_deviation_scaling(ridge_quadratic):
    with criterion(9, "scaling the resolvent of the Newton-like family by "
                      "(1+eps) scales the sensitivity constant linearly"):
        sep = hg.newton_separable_reparam(ridge_quadratic)
        y = hg.sample_y(ridge_quadratic.d_y, -1.0, 1.0, 900)
        eps_grid = (1e-1, 1e-2, 1e-3, 1e-4)
        ctx = hg.RootContext.solve(ridge_quadratic, y)
        constants = [hg.sensitivity_efficiency_constant(
            ctx, hg.scale_separable_r(sep, 1.0 + e)) for e in eps_grid]
        slope = float(np.polyfit(np.log(eps_grid), np.log(constants), 1)[0])
        assert slope >= 0.9, (slope, constants)


def _fuzz_inputs(count, base_text):
    rng = hg.rng_from_seed(0xF0221)
    printable = np.array(list(
        "0123456789.:+-eE# \t\nabcxyz!?@é€"))
    base = np.array(list(base_text))
    for _ in range(count):
        mode = rng.integers(4)
        if mode == 0:
            n = int(rng.integers(0, 60))
            yield "".join(rng.choice(printable, size=n))
        elif mode == 1:
            yield bytes(rng.integers(0, 256, size=int(rng.integers(0, 50)),
                                     dtype=np.uint8).tobytes())
        elif mode == 2:
            chars = base.copy()
            for _ in range(int(rng.integers(1, 6))):
                pos = int(rng.integers(0, len(chars)))
                chars[pos] = rng.choice(printable)
            yield "".join(chars)
        else:
            cut = int(rng.integers(0, len(base_text)))
            yield base_text[:cut]


def test_criterion_10_parser_and_io(reg_train, libsvm_dir, tmp_path):
    with criterion(10, "regression file parses to 392 x 7; the parser "
                       "survives 10k malformed inputs; seeded outputs are "
                       "byte-identical"):
        ds = hg.load_libsvm(str(libsvm_dir / "reg_train.libsvm"))
        assert ds.n == 392 and ds.d_x == 7
        assert np.array_equal(ds.features, reg_train.features)

        base_text = "1 1:0.5 3:-2\n-1 2:4\n0.5 1:1 2:2 3:3\n"
        for case in _fuzz_inputs(10_000, base_text):
            try:
                hg.parse_libsvm(case)
            except DataError:
                pass  # ParseError included: the declared failure mode
            except HygradError as err:  # pragma: no cover
                raise AssertionError(f"wrong error type {type(err)} for {case!r}")

        decay_args = dict(problem="logistic",
                          train_path=str(libsvm_dir / "cls_train.libsvm"),
                          val_path=str(libsvm_dir / "cls_val.libsvm"),
                          strategies=("vanilla", "diag"), steps=25,
                          y_low=3.0, y_high=6.0, seed=77)
        csv_a = hg.emit_csv(hg.run_decay(hg.RunConfig(**decay_args)))
        csv_b = hg.emit_csv(hg.run_decay(hg.RunConfig(**decay_args)))
        assert csv_a.encode() == csv_b.encode()

        sweep_cfg = hg.RunConfig(problem="scalar",
                                 strategies=("vanilla", "newton"),
                                 trials=5, seed=13)
        eff_a = hg.emit_csv(hg.run_efficiency_sweep(sweep_cfg))
        eff_b = hg.emit_csv(hg.run_efficiency_sweep(sweep_cfg))
        assert eff_a.encode() == eff_b.encode()

        traces = hg.read_decay_csv(csv_a)
        svg_a = hg.render_svg(traces)
        svg_b = hg.render_svg(hg.read_decay_csv(csv_b))
        assert svg_a.encode() == svg_b.encode()
