"""Efficiency constants, estimator Jacobians, and the comparison bounds.

The efficiency constant of an estimator at y is the operator norm of its
Jacobian in x, taken at the inner root: it is the first-order factor by
which inner error is amplified into hypergradient error. An estimator with
a zero constant has quadratically decaying error ("super-efficient").

Everything here is evaluated at the root, where the simplifications behind
the closed-form Jacobian expressions are valid; nothing is extrapolated to
other points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import UsageError
from .estimators import (
    Estimator,
    PreconditionerOracle,
    Reparameterization,
    SeparableReparam,
    StrategyKind,
    jac_x_y_dirs,
    make_estimator,
    newton_separable_reparam,
    resolve_strategy,
    solution_sensitivity,
)
from .linalg import factor, spectral_norm, top_singular
from .problems import BilevelProblem, InnerOracle, as_vector, fd_jacobian, fd_step
from .seeding import rng_from_seed
from .solvers import exact_root

Array = np.ndarray

# Default relative step for estimator Jacobians; larger than the first-order
# steps because these maps get differenced near a stationary value.
JACOBIAN_FD_STEP = 1e-5

# Operator-norm deviations of 3-tensor terms are sampled over this many
# seeded unit probe directions instead of computing true tensor norms.
PROBE_COUNT = 8
PROBE_SEED = 90210


@dataclass(frozen=True)
class EfficiencyReport:
    """Efficiency constant at one y and the FD Jacobian it is the norm of."""

    c_y: float
    jacobian: Array


@dataclass(frozen=True)
class ComparisonBounds:
    """Both sides of the two quadratic comparison inequalities.

    lhs_phi_minus_p compares against rhs_phi_minus_p (and symmetrically for
    p_minus_phi); each lhs must dominate its rhs up to finite-difference
    noise. v_p and v_phi are the unit maximizers of the two estimator
    Jacobians' actions.
    """

    lhs_phi_minus_p: float
    rhs_phi_minus_p: float
    lhs_p_minus_phi: float
    rhs_p_minus_phi: float
    v_p: Array
    v_phi: Array


# The old name of make_estimator, kept for perfbench's tracer until ROADMAP item 2.
estimator_for_kind = make_estimator


# --------------------------------------------------------------------------
# root context

def _read_only(a: Array) -> Array:
    """A read-only float copy of a, so callers cannot change a stored value."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _same_bits(a: Array, b: Array) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class _RootedInner:
    """An inner oracle whose exact_root answers one y from a stored root.

    Any other y, even one rounding step away, goes to the wrapped oracle;
    so does every other attribute.
    """

    def __init__(self, inner: InnerOracle, y: Array, xstar: Array):
        self._inner = inner
        self._y = y
        self._xstar = xstar

    def exact_root(self, y):
        if _same_bits(np.asarray(y, dtype=float), self._y):
            return self._xstar.copy()
        return self._inner.exact_root(y)

    def __getattr__(self, attr):
        if attr.startswith("_"):
            raise AttributeError(attr)
        return getattr(self._inner, attr)


@dataclass(frozen=True, eq=False)
class RootContext:
    """One (problem, y) whose inner root x*(y) was solved once.

    ``problem`` is the caller's problem, except that its exact_root hands
    out a copy of the stored x* for exactly this y (bit for bit) and solves
    any other y as before. Estimators, separable families and analyses
    built from it therefore reuse the root instead of solving it again;
    a family built from the caller's problem would not. ``y`` and
    ``xstar`` are read-only.
    """

    problem: BilevelProblem
    y: Array
    xstar: Array

    @classmethod
    def solve(cls, problem: BilevelProblem, y: Array) -> "RootContext":
        """Solve the root of problem at y once and wrap both."""
        y = _read_only(as_vector(y, problem.d_y, "y"))
        xstar = _read_only(exact_root(problem, y))
        return cls(replace(problem, inner=_RootedInner(problem.inner, y, xstar)),
                   y, xstar)


def _root_fd_jacobian(problem: BilevelProblem, fn, y: Array, eps: float | None,
                      label: str) -> Array:
    """Central-difference Jacobian of x -> fn(x, y) at the inner root."""
    y = as_vector(y, problem.d_y, "y")
    xstar = exact_root(problem, y)
    return fd_jacobian(lambda x: fn(x, y), xstar,
                       fd_step(xstar, eps, JACOBIAN_FD_STEP), label)


def estimator_jacobian_fd(problem: BilevelProblem, estimator: Estimator,
                          y: Array, eps: float | None = None) -> Array:
    """Central-difference Jacobian in x of an estimator, at the inner root."""
    return _root_fd_jacobian(problem, estimator, y, eps, f"estimator {estimator.name!r}")


def efficiency_constant(problem: BilevelProblem, estimator: Estimator,
                        y: Array, eps: float | None = None) -> EfficiencyReport:
    """Efficiency constant via the finite-difference estimator Jacobian."""
    jac = estimator_jacobian_fd(problem, estimator, y, eps=eps)
    return EfficiencyReport(c_y=spectral_norm(jac), jacobian=jac)


# --------------------------------------------------------------------------
# closed-form Jacobians at the root

def ift_jacobian_analytic(problem: BilevelProblem, y: Array) -> Array:
    """Jacobian in x of the plain estimate at the root, from the oracles.

    Assembled as J = D + T: D the outer curvature g_21 + S g_11, and T the
    sensitivity-term Jacobian, which contracts the second derivatives of F
    directionally: row e is -(dF_1/dy_e)' s with s = F_1^{-1} g_1, plus
    F_2' F_1^{-1} (dF_1/dx along s).
    """
    y = as_vector(y, problem.d_y, "y")
    xstar = exact_root(problem, y)
    f1 = factor(problem.jac_x(xstar, y), what="F_1")
    f2 = problem.jac_y(xstar, y)
    g1 = problem.outer.grad_x(xstar, y)
    s = f1.solve(g1)
    term_y = np.stack([-g_e.T @ s for g_e in jac_x_y_dirs(problem, xstar, y)],
                      axis=0)
    m_s = problem.inner.djac_x_dir_x(xstar, y, s)
    term_x = f2.T @ f1.solve(m_s)
    return outer_curvature(problem, y) + term_y + term_x


def precond_error_factor_at_root(problem: BilevelProblem,
                                 precond: PreconditionerOracle, y: Array) -> Array:
    """The matrix I - P^{-1} F_1 at the root (the residual term vanishes there)."""
    y = as_vector(y, problem.d_y, "y")
    xstar = exact_root(problem, y)
    f1 = problem.jac_x(xstar, y)
    return np.eye(problem.d_x) - precond.solve(xstar, y, f1)


def precond_jacobian_at_root(problem: BilevelProblem,
                             precond: PreconditionerOracle, y: Array) -> Array:
    """Jacobian of the preconditioned estimate at the root: Omega_1 (I - P^{-1}F_1)."""
    return ift_jacobian_analytic(problem, y) @ precond_error_factor_at_root(
        problem, precond, y)


def outer_curvature(problem: BilevelProblem, y: Array) -> Array:
    """The term g_21 + [dx*/dy]' g_11 at the root.

    With an affine outer objective this vanishes, which is exactly when
    inner-only super-efficiency transfers to the hypergradient.
    """
    y = as_vector(y, problem.d_y, "y")
    xstar = exact_root(problem, y)
    return problem.outer.jac_gradY_x(xstar, y) \
        + solution_sensitivity(problem, xstar, y) @ problem.outer.hess_xx(xstar, y)


def sensitivity_jacobian_fd(problem: BilevelProblem, kind: StrategyKind,
                            y: Array, eps: float | None = None) -> Array:
    """FD Jacobian at the root of x -> S(x, y), S the sensitivity matrix of
    the requested kind: entry [e, k, j] of the (d_y, d_x, d_x) array is
    dS_ek/dx_j."""
    return _root_fd_jacobian(problem, resolve_strategy(problem, kind).sensitivity,
                             y, eps, "sensitivity matrix")


def _term_jacobian(ctx: RootContext, d_s: Array) -> Array:
    """The Jacobian of x -> S(x, y) g_1(x*, y) from that of S."""
    return np.einsum("ekj,k->ej", d_s, ctx.problem.outer.grad_x(ctx.xstar, ctx.y))


def _matrix_constant(d_s: Array) -> float:
    """Operator norm of the Jacobian of x -> vec(S(x, y))."""
    return spectral_norm(d_s.reshape(-1, d_s.shape[-1]))


def sensitivity_term_jacobian_fd(problem: BilevelProblem, kind: StrategyKind,
                                 y: Array, eps: float | None = None) -> Array:
    """FD Jacobian at the root of x -> S(x, y) g_1(x*, y), outer factor frozen,
    so only the implicit factor varies across probes."""
    ctx = RootContext.solve(problem, y)
    return _term_jacobian(ctx, sensitivity_jacobian_fd(ctx.problem, kind, ctx.y, eps))


def sensitivity_efficiency_constant(problem: BilevelProblem, kind: StrategyKind,
                                    y: Array, eps: float | None = None) -> float:
    """Efficiency constant of the sensitivity matrix itself.

    Operator norm of the FD Jacobian of x -> vec(S(x, y)), a
    (d_y d_x) x d_x matrix.
    """
    return _matrix_constant(sensitivity_jacobian_fd(problem, kind, y, eps))


# --------------------------------------------------------------------------
# comparison bounds

@dataclass(frozen=True, eq=False)
class ComparisonTerms:
    """The at-root terms that compare_bounds, precond_gap and reparam_gap
    share for one trial, each computed from the context's problem when
    first read and then kept (arrays read-only).

    D is the outer curvature, E the preconditioner error factor, T_P and
    T_phi the sensitivity-term Jacobians, J_P and J_phi the FD Jacobians of
    the preconditioned and reparameterized estimators, and ``top_*`` their
    top singular pairs, whose values are the efficiency constants. With a
    separable ``reparam``, J_phi is also reparam_gap's localized Jacobian.
    ``d_s_phi``, the FD Jacobian of that side's S, gives T_phi and
    reparam_gap's sensitivity constant.
    """

    ctx: RootContext
    precond: PreconditionerOracle
    reparam: StrategyKind
    eps: float | None = None

    @cached_property
    def d(self) -> Array:
        return _read_only(outer_curvature(self.ctx.problem, self.ctx.y))

    @cached_property
    def e_p(self) -> Array:
        return _read_only(precond_error_factor_at_root(
            self.ctx.problem, self.precond, self.ctx.y))

    @cached_property
    def t_p(self) -> Array:
        return _read_only(_term_jacobian(self.ctx, sensitivity_jacobian_fd(
            self.ctx.problem, self.precond, self.ctx.y, eps=self.eps)))

    @cached_property
    def d_s_phi(self) -> Array:
        return _read_only(sensitivity_jacobian_fd(
            self.ctx.problem, self.reparam, self.ctx.y, eps=self.eps))

    @cached_property
    def t_phi(self) -> Array:
        return _read_only(_term_jacobian(self.ctx, self.d_s_phi))

    @cached_property
    def jac_p(self) -> Array:
        return self._estimator_jacobian(
            estimator_for_kind(self.ctx.problem, self.precond, name="precond"))

    @cached_property
    def jac_phi(self) -> Array:
        return self._estimator_jacobian(
            estimator_for_kind(self.ctx.problem, self.reparam))

    def _estimator_jacobian(self, estimator: Estimator) -> Array:
        return _read_only(estimator_jacobian_fd(self.ctx.problem, estimator,
                                                self.ctx.y, eps=self.eps))

    @cached_property
    def top_p(self) -> tuple[float, Array]:
        sigma, v = top_singular(self.jac_p)
        return sigma, _read_only(v)

    @cached_property
    def top_phi(self) -> tuple[float, Array]:
        sigma, v = top_singular(self.jac_phi)
        return sigma, _read_only(v)


def compare_bounds(terms: ComparisonTerms) -> ComparisonBounds:
    """Evaluate both quadratic comparison inequalities between a
    preconditioned and a reparameterized estimator at the root.

    With D the outer curvature term, T/T_phi the sensitivity-term Jacobians
    of the two sides (T is the plain one: a corrective step leaves S as it
    is) and E the preconditioner error factor:

        U+- = D +- D E + T_phi +- T E
        V+- = D E +- D + T E +- T_phi

    and each lhs (difference of squared efficiency constants) dominates the
    inner product of the corresponding U/V pair applied to the other
    estimator's maximizing direction.
    """
    d, e_p, t_p, t_phi = terms.d, terms.e_p, terms.t_p, terms.t_phi

    u_plus = d + d @ e_p + t_phi + t_p @ e_p
    u_minus = d - d @ e_p + t_phi - t_p @ e_p
    v_plus = d @ e_p + d + t_p @ e_p + t_phi
    v_minus = d @ e_p - d + t_p @ e_p - t_phi

    sigma_p, v_p = terms.top_p
    sigma_phi, v_phi = terms.top_phi

    lhs_phi_minus_p = sigma_phi ** 2 - sigma_p ** 2
    return ComparisonBounds(
        lhs_phi_minus_p=lhs_phi_minus_p,
        rhs_phi_minus_p=float((u_plus @ v_p) @ (u_minus @ v_p)),
        lhs_p_minus_phi=-lhs_phi_minus_p,
        rhs_p_minus_phi=float((v_plus @ v_phi) @ (v_minus @ v_phi)),
        v_p=v_p.copy(),
        v_phi=v_phi.copy(),
    )


def precond_gap(terms: ComparisonTerms) -> tuple[float, float, float]:
    """Asymptotic advantage of a near-ideal preconditioner.

    Returns (delta, lower_bound, lhs) with delta the deviation of P from F_1
    at the root, lhs the difference of squared efficiency constants
    (reparameterized minus preconditioned), and lower_bound the term that
    survives as delta -> 0. lhs >= lower_bound up to o(delta) and FD noise.
    """
    problem, y, xstar = terms.ctx.problem, terms.ctx.y, terms.ctx.xstar
    delta = spectral_norm(terms.precond.matrix(xstar, y) - problem.jac_x(xstar, y))

    d, t_phi = terms.d, terms.t_phi
    c_p, v_p = terms.top_p
    lower = float(np.linalg.norm((d + t_phi) @ v_p) ** 2)
    c_phi = terms.top_phi[0]
    return delta, lower, c_phi ** 2 - c_p ** 2


def reparam_gap(terms: ComparisonTerms) -> tuple[float, float, float]:
    """Asymptotic advantage of a near-ideal localized reparameterization,
    the terms' reparameterization being a SeparableReparam (else UsageError).

    Returns (sigma, lower_bound, lhs) with sigma = |g_1| times the
    sensitivity efficiency constant of the localized family, lhs the
    difference of squared efficiency constants (preconditioned minus
    localized), and lower_bound the sigma -> 0 limit term.
    """
    if not isinstance(terms.reparam, SeparableReparam):
        kind = terms.reparam if isinstance(terms.reparam, str) \
            else type(terms.reparam).__name__
        raise UsageError(f"reparam_gap needs a localized family "
                         f"(SeparableReparam), not {kind!r}")
    g1 = terms.ctx.problem.outer.grad_x(terms.ctx.xstar, terms.ctx.y)
    sigma = float(np.linalg.norm(g1)) * _matrix_constant(terms.d_s_phi)

    d, e_p, t_p = terms.d, terms.e_p, terms.t_p
    c_loc, v_phi = terms.top_phi
    lower = float(np.linalg.norm((d + t_p) @ e_p @ v_phi) ** 2
                  - np.linalg.norm(d @ v_phi) ** 2)
    c_p = terms.top_p[0]
    return sigma, lower, c_p ** 2 - c_loc ** 2


# --------------------------------------------------------------------------
# deviations from the Newton-like separable family

@dataclass(frozen=True)
class ReparamDeviations:
    """Operator-norm distances of (R, Q) and derivatives from the Newton-like
    choice, measured at the root. All five vanish for that family itself."""

    dev_q: float
    dev_q_jac: float
    dev_q_hess: float
    dev_r: float
    dev_r2: float


def _probe_directions(dim: int) -> list[Array]:
    rng = rng_from_seed(PROBE_SEED)
    probes = []
    for _ in range(PROBE_COUNT):
        v = rng.normal(size=dim)
        probes.append(v / np.linalg.norm(v))
    return probes


def newton_reparam_deviations(problem: BilevelProblem, sep: SeparableReparam,
                              y: Array) -> ReparamDeviations:
    """Measure how far a separable family is from the Newton-like one.

    Tensor-valued terms (the Q second derivative and the y-derivative of R)
    are compared through contractions against a fixed set of seeded unit
    probe directions rather than true tensor norms. ``dev_r2`` is the
    larger of the left and right contractions' gaps, over all probes.
    """
    y = as_vector(y, problem.d_y, "y")
    xstar = exact_root(problem, y)
    shift = xstar if sep.offset else np.zeros_like(xstar)
    zstar = sep.q_inverse(sep.r_solve(xstar, y, xstar - shift), y)
    # The Newton-like family's own z at the root is x* itself.
    ideal = newton_separable_reparam(problem)
    dev_q = float(np.linalg.norm(sep.q(zstar, y) - ideal.q(xstar, y)))
    dev_q_jac = spectral_norm(sep.q_jac(zstar, y) - ideal.q_jac(xstar, y))
    probes = _probe_directions(problem.d_x)
    dev_q_hess = max(
        spectral_norm(sep.q_hess_contract(zstar, y, w)
                      - ideal.q_hess_contract(xstar, y, w))
        for w in probes)
    dev_r = spectral_norm(sep.r(xstar, y) - ideal.r(xstar, y))
    dev_r2 = max(
        spectral_norm(got - want)
        for w in probes
        for got, want in zip(sep.r2_contract(xstar, y, w, w),
                             ideal.r2_contract(xstar, y, w, w)))
    return ReparamDeviations(dev_q=dev_q, dev_q_jac=dev_q_jac,
                             dev_q_hess=dev_q_hess, dev_r=dev_r, dev_r2=dev_r2)


# --------------------------------------------------------------------------
# 1-D super-efficiency residual

def super_efficiency_residual_1d(problem: BilevelProblem,
                                 phi: Reparameterization, y: Array) -> float:
    """Residual of the scalar super-efficiency condition at the root.

    For one-dimensional problems whose residual and outer gradient are
    linear in x, the change of variables phi kills the first-order error
    exactly when this residual is zero:

        phi_12/phi_1 - phi_2 phi_11 / phi_1^2 - F_2 phi_11 / (F_1 phi_1^2)
            - (g_12/g_1 - F_12/F_1)
    """
    if problem.d_x != 1 or problem.d_y != 1:
        raise UsageError("the scalar residual needs d_x = d_y = 1")
    y = as_vector(y, 1, "y")
    xstar = exact_root(problem, y)
    zstar = phi.inverse(xstar, y)
    one = np.ones(1)

    f1 = float(problem.jac_x(xstar, y)[0, 0])
    f2 = float(problem.jac_y(xstar, y)[0, 0])
    f12 = float(problem.inner.djac_x_dir_y(xstar, y, one)[0, 0])
    g1 = float(problem.outer.grad_x(xstar, y)[0])
    if g1 == 0.0:
        raise UsageError("degenerate problem: outer gradient vanishes at the root")
    g12 = float(problem.outer.jac_gradX_y(xstar, y)[0, 0])

    p1, p2, p11, p12 = (float(t[0, 0]) for t in phi.derivatives(zstar, y, one))

    return (p12 / p1 - p2 * p11 / p1 ** 2 - f2 * p11 / (f1 * p1 ** 2)
            - (g12 / g1 - f12 / f1))
