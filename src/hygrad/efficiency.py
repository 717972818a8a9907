"""Efficiency constants, estimator Jacobians, and the comparison bounds.

The efficiency constant of an estimator at y is the operator norm of its
Jacobian in x, taken at the inner root: it is the first-order factor by
which inner error is amplified into hypergradient error. An estimator with
a zero constant has quadratically decaying error ("super-efficient").

At the root that Jacobian is assembled from closed-form blocks
(``root_jacobian``): the outer curvature D, the Jacobian T of x -> S g_1
(T_phi for a change of variables) and the preconditioner error factor
E = I - P^{-1} F_1. One formula, ``_sensitivity_term``, differentiates S
contracted with fixed vectors g_k, one call each of ``djac_x_y_apply_T``
and ``djac_x_dir_x`` per vector (and, for a change of variables, one call
of ``phi.derivatives`` on the stack of F_1's d_x columns): T is its value
at g_1, and the whole Jacobian of S (``sensitivity_jacobian``, read only
by reparam_gap's sigma) its value at the d_x unit vectors. For the "opt" key it is zero, read without a solve:
the Newton-like family's S is stationary at the root, so c_y = |D| and
sigma = 0. Nothing on these paths is differenced; the ``*_fd`` Jacobians
are test references. The comparison's J_phi and J_P are ``root_jacobian``'s.
The Taylor check ``test_root_jacobian_is_the_estimators_derivative`` ties
root_jacobian to the estimators. Everything here holds at the root only,
where F = 0.

Every at-root analysis takes one ``RootContext``, whose root was solved
once, and reads its ``xstar``; the problem keeps that root, so estimators
and separable families built from it reuse the root too. The context also
keeps, computed when first read, the root blocks no strategy changes: the
plain S, D, g_1 and T's plain part at g_1, and per change of variables the
phi terms that do not depend on g. An efficiency sweep thus builds D and the
g_1 contraction once for all six kinds, and a comparison trial builds its
phi terms once for J_phi and sigma. An analysis of an estimator takes its
strategy kind, a key or a caller's oracle, and builds the estimator from the
context's problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapabilityError, ContractViolation, UsageError
from .estimators import (
    PreconditionerOracle,
    Reparameterization,
    SeparableReparam,
    Strategy,
    StrategyKind,
    anchored_reparam,
    make_estimator,
    newton_separable_reparam,
    resolve_strategy,
    solution_sensitivity,
)
from .linalg import factor, spectral_norm, top_singular
from .problems import BilevelProblem, _read_only, as_vector, fd_jacobian, fd_step
from .seeding import rng_from_seed
from .solvers import exact_root

Array = np.ndarray

# Largest |F_1 - F_1'| / |F_1| that the phi terms of the Jacobian of S accept:
# 160 times the 6.3e-11 of FDInnerOracle's differenced F_1 at shipped roots.
SYMMETRY_RTOL = 1e-8

# Default relative step for estimator Jacobians; larger than the first-order
# steps because these maps get differenced near a stationary value.
JACOBIAN_FD_STEP = 1e-5

# Operator-norm deviations of 3-tensor terms are sampled over this many
# seeded unit probe directions instead of computing true tensor norms.
PROBE_COUNT = 8
PROBE_SEED = 90210


@dataclass(frozen=True)
class ComparisonBounds:
    """Both sides of the two quadratic comparison inequalities.

    lhs_phi_minus_p compares against rhs_phi_minus_p (and symmetrically for
    p_minus_phi); each lhs dominates its rhs up to rounding. v_p and v_phi
    are the unit maximizers of the two estimator Jacobians' actions.
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

@dataclass(frozen=True, eq=False)
class RootContext:
    """One (problem, y) whose inner root x*(y) was solved once, and the root
    blocks that do not depend on the strategy, each computed when first read.

    Every at-root analysis takes one and reads ``xstar``. ``problem`` is
    the caller's problem, which keeps the root it solved; estimators and
    separable families built from that problem reuse it while y is among
    the last four it solved. The context also keeps the plain sensitivity
    S, the outer curvature D, g_1 with u = F_1^{-1} g_1 and the plain part
    of ``_sensitivity_term`` at g_1, and, per change of variables (a key,
    or a caller's oracle by identity), the g-independent part of its phi
    terms. ``y``, ``xstar`` and every kept array are read-only.
    """

    problem: BilevelProblem
    y: Array
    xstar: Array
    _preludes: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def solve(cls, problem: BilevelProblem, y: Array) -> "RootContext":
        """Solve the root of problem at y once."""
        y = _read_only(as_vector(y, problem.d_y, "y"))
        return cls(problem, y, _read_only(exact_root(problem, y)))

    @cached_property
    def _sensitivity(self) -> Array:
        return _read_only(solution_sensitivity(self.problem, self.xstar, self.y))

    @cached_property
    def _curvature(self) -> Array:
        outer, y, xstar = self.problem.outer, self.y, self.xstar
        return _read_only(outer.jac_gradY_x(xstar, y)
                          + self._sensitivity @ outer.hess_xx(xstar, y))

    @cached_property
    def _g1(self) -> Array:
        return _read_only(self.problem.outer.grad_x(self.xstar, self.y))

    @cached_property
    def _g1_term(self) -> tuple[Array, Array]:
        """u = F_1^{-1} g_1 as one column, and the plain part of
        ``_sensitivity_term`` at g_1."""
        u = self.problem.jac_x_factor(self.xstar, self.y).solve(self._g1[:, None])
        return _read_only(u), _read_only(_plain_term(self, u))

    def _prelude(self, kind: StrategyKind, strategy: Strategy) -> tuple:
        """The phi terms of ``_sensitivity_term`` that do not depend on g,
        for a kind with a change of variables, at z* = phi^{-1}(x*, y):
        phi_11 and phi_21 contracted with each column of F_1 (one call of
        ``phi.derivatives`` on the stack F_1'), the checked phi_1, and
        W = phi_1^{-1} (phi_2 - S'). A map whose contractions lack the
        stack's leading d_x raises ContractViolation. Kept per key, and per
        caller's oracle by identity, beside that oracle so that its id stays
        its own."""
        key = kind if isinstance(kind, str) else id(kind)
        if key not in self._preludes:
            problem, y, xstar = self.problem, self.y, self.xstar
            phi = strategy.change_of_variables(xstar, y)
            z = phi.inverse(xstar, y)
            p1, p2, czz, czy = phi.derivatives(z, y, problem.jac_x(xstar, y).T)
            d_x, d_y = problem.d_x, problem.d_y
            for name, term, shape in (("phi_11 w", czz, (d_x, d_x, d_x)),
                                      ("phi_21 w", czy, (d_x, d_x, d_y))):
                if np.shape(term) != shape:
                    raise ContractViolation(
                        f"phi.derivatives on a stack of {d_x} directions returned "
                        f"{name} of shape {np.shape(term)}, expected {shape}")
            p1_lu = factor(p1, what="phi_1")
            w = _read_only(p1_lu.solve(p2 - self._sensitivity.T))
            self._preludes[key] = kind, (_read_only(czz), _read_only(czy), p1_lu, w)
        return self._preludes[key][1]


def estimator_jacobian_fd(ctx: RootContext, kind: StrategyKind,
                          eps: float | None = None) -> Array:
    """Central-difference Jacobian in x, at the inner root, of the estimator
    of a strategy key or a caller's oracle, built from the context's problem."""
    estimator = make_estimator(ctx.problem, kind)
    return fd_jacobian(lambda x: estimator(x, ctx.y), ctx.xstar,
                       fd_step(ctx.xstar, eps, JACOBIAN_FD_STEP),
                       f"estimator {estimator.name!r}")


def root_jacobian(ctx: RootContext, kind: StrategyKind) -> Array:
    """Jacobian in x, at the inner root, of the estimator of a strategy key
    or a caller's oracle: D + T with T the Jacobian of x -> S(x, y) g_1(x*, y)
    (``_sensitivity_term``; T_phi for a change of variables, zero for the
    "opt" key, so that key's Jacobian is D), times E for a corrective step P
    (newton, diag or a caller's oracle), which leaves S as it is."""
    strategy = resolve_strategy(ctx.problem, kind)
    jac = outer_curvature(ctx) + _sensitivity_term(ctx, kind)[0]
    if strategy.precond is None:
        return jac
    return jac @ precond_error_factor_at_root(ctx, strategy.precond)


def efficiency_constant(ctx: RootContext, kind: StrategyKind) -> float:
    """Efficiency constant c_y: the spectral norm of ``root_jacobian``."""
    return spectral_norm(root_jacobian(ctx, kind))


# --------------------------------------------------------------------------
# closed-form blocks at the root

def _sensitivity_term(ctx: RootContext, kind: StrategyKind,
                      g: Array | None = None) -> Array:
    """The Jacobians at the root of x -> S(x, y) g_k, S the sensitivity
    matrix of the requested kind, for the m columns g_k of the (d_x, m)
    matrix g (by default g_1(x*, y)), each held fixed: an (m, d_y, d_x)
    array. With u = F_1^{-1} g_k and v = phi_1^{-1} u, column j of slice k is

        -(dF_2/dx_j)' u - S (dF_1/dx_j) u + W' (phi_11 F_1 e_j) v
            - (phi_21 F_1 e_j)' v,

    S the plain sensitivity, W = phi_1^{-1} (phi_2 - S') and the phi terms,
    absent for the plain S, at z* = phi^{-1}(x*, y); for exp they are
    -S diag(F_1 e_j / x*) F_1^{-1} g_k. At the root F = 0, so only the terms
    of ``reparam_sensitivity`` linear in F move, along dF = F_1 e_j. The
    plain part takes one call each of ``djac_x_y_apply_T`` and
    ``djac_x_dir_x`` per column and holds for any F_1; the phi terms take
    one stacked call of ``phi.derivatives`` and need F_1 = F_1', so for any
    change of variables |F_1 - F_1'| > SYMMETRY_RTOL |F_1| raises
    CapabilityError.
    After that check the "opt" key's array is zero, with no further call.
    S, the default g's u and plain part, and the phi terms independent of g
    are read from the context, so only another g calls the oracles again.
    """
    problem, y, xstar = ctx.problem, ctx.y, ctx.xstar
    strategy = resolve_strategy(problem, kind)
    f1 = problem.jac_x(xstar, y)
    if strategy.reparam is not None \
            and np.linalg.norm(f1 - f1.T) > SYMMETRY_RTOL * np.linalg.norm(f1):
        raise CapabilityError("a change of variables' dS/dx needs F_1 = F_1'")
    if kind == "opt":
        return np.zeros((1 if g is None else g.shape[1], problem.d_y, problem.d_x))
    if g is None:
        u, term = ctx._g1_term
    else:
        u = problem.jac_x_factor(xstar, y).solve(g)
        term = _plain_term(ctx, u)
    if strategy.reparam is None:
        return term
    czz, czy, p1_lu, w = ctx._prelude(kind, strategy)
    v = p1_lu.solve(u)
    return term + (w.T @ (czz @ v) - czy.transpose(0, 2, 1) @ v).transpose(2, 1, 0)


def _plain_term(ctx: RootContext, u: Array) -> Array:
    """The part of ``_sensitivity_term`` that every kind shares, for the
    columns of u = F_1^{-1} g."""
    problem, y, xstar = ctx.problem, ctx.y, ctx.xstar
    return np.stack([-problem.djac_x_y_apply_T(xstar, y, col).T
                     - ctx._sensitivity @ problem.inner.djac_x_dir_x(xstar, y, col)
                     for col in u.T])


def sensitivity_jacobian(ctx: RootContext, kind: StrategyKind) -> Array:
    """Jacobian at the root of x -> S(x, y), S the sensitivity matrix of the
    requested kind, in closed form: entry [e, k, j] of the (d_y, d_x, d_x)
    array is dS_ek/dx_j. Its [:, k] slice is ``_sensitivity_term`` at e_k, so
    this takes d_x calls of each second derivative of F (none for the "opt"
    key, whose array is zero); only ``sensitivity_efficiency_constant`` reads it.
    """
    return _sensitivity_term(ctx, kind, np.eye(ctx.problem.d_x)).transpose(1, 0, 2)


def precond_error_factor_at_root(ctx: RootContext,
                                 precond: PreconditionerOracle) -> Array:
    """The matrix I - P^{-1} F_1 at the root (the residual term vanishes there)."""
    f1 = ctx.problem.jac_x(ctx.xstar, ctx.y)
    return np.eye(ctx.problem.d_x) - precond.solve(ctx.xstar, ctx.y, f1)


def outer_curvature(ctx: RootContext) -> Array:
    """The term g_21 + [dx*/dy]' g_11 at the root.

    With an affine outer objective this vanishes, which is exactly when
    inner-only super-efficiency transfers to the hypergradient.
    """
    return ctx._curvature


def sensitivity_jacobian_fd(ctx: RootContext, kind: StrategyKind,
                            eps: float | None = None) -> Array:
    """FD Jacobian at the root of x -> S(x, y), S the sensitivity matrix of
    the requested kind: entry [e, k, j] of the (d_y, d_x, d_x) array is
    dS_ek/dx_j."""
    sensitivity = resolve_strategy(ctx.problem, kind).sensitivity
    return fd_jacobian(lambda x: sensitivity(x, ctx.y), ctx.xstar,
                       fd_step(ctx.xstar, eps, JACOBIAN_FD_STEP), "sensitivity matrix")


def sensitivity_efficiency_constant(ctx: RootContext, kind: StrategyKind) -> float:
    """Efficiency constant of the sensitivity matrix itself: the operator norm
    of the (d_y d_x) x d_x Jacobian of x -> vec(S(x, y)) (``sensitivity_jacobian``)."""
    d_s = sensitivity_jacobian(ctx, kind)
    return spectral_norm(d_s.reshape(-1, d_s.shape[-1]))


# --------------------------------------------------------------------------
# comparison bounds

@dataclass(frozen=True, eq=False)
class ComparisonTerms:
    """The at-root terms that at least two of compare_bounds, precond_gap and
    reparam_gap read for one trial, each computed from the context's problem
    when first read and then kept (arrays read-only).

    J_P and J_phi are the ``root_jacobian`` of the preconditioned and the
    reparameterized estimator, (D + T) E and D + T_phi with D the outer
    curvature, and ``top_*`` their top singular pairs, whose values are the
    efficiency constants. With the "opt" key J_phi is D: that key's
    Jacobian of S is zero (``_sensitivity_term``).
    """

    ctx: RootContext
    precond: PreconditionerOracle
    reparam: StrategyKind

    @cached_property
    def jac_p(self) -> Array:
        return _read_only(root_jacobian(self.ctx, self.precond))

    @cached_property
    def jac_phi(self) -> Array:
        return _read_only(root_jacobian(self.ctx, self.reparam))

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

    With J_P and J_phi the two estimators' Jacobians and (sigma_P, v_P),
    (sigma_phi, v_phi) their top singular pairs, the paper's matrices are
    U+- = J_phi +- J_P and V+- = J_P +- J_phi, so

        rhs_phi_minus_p = (U+ v_P).(U- v_P) = |J_phi v_P|^2 - sigma_P^2
        rhs_p_minus_phi = (V+ v_phi).(V- v_phi) = |J_P v_phi|^2 - sigma_phi^2

    and each lhs, a difference of squared efficiency constants, dominates
    its rhs because sigma_phi >= |J_phi v_P| and sigma_P >= |J_P v_phi|.
    """
    jac_p, jac_phi = terms.jac_p, terms.jac_phi
    sigma_p, v_p = terms.top_p
    sigma_phi, v_phi = terms.top_phi

    lhs_phi_minus_p = sigma_phi ** 2 - sigma_p ** 2
    return ComparisonBounds(
        lhs_phi_minus_p=lhs_phi_minus_p,
        rhs_phi_minus_p=float(((jac_phi + jac_p) @ v_p) @ ((jac_phi - jac_p) @ v_p)),
        lhs_p_minus_phi=-lhs_phi_minus_p,
        rhs_p_minus_phi=float(((jac_p + jac_phi) @ v_phi) @ ((jac_p - jac_phi) @ v_phi)),
        v_p=v_p.copy(),
        v_phi=v_phi.copy(),
    )


def precond_gap(terms: ComparisonTerms) -> tuple[float, float]:
    """Asymptotic advantage of a near-ideal preconditioner.

    Returns (delta, lower_bound) with delta the deviation of P from F_1 at
    the root and lower_bound the term that survives as delta -> 0:
    compare_bounds' lhs_phi_minus_p >= lower_bound up to o(delta) and FD
    noise.
    """
    problem, y, xstar = terms.ctx.problem, terms.ctx.y, terms.ctx.xstar
    delta = spectral_norm(terms.precond.matrix(xstar, y) - problem.jac_x(xstar, y))
    return delta, float(np.linalg.norm(terms.jac_phi @ terms.top_p[1]) ** 2)


def reparam_gap(terms: ComparisonTerms) -> tuple[float, float]:
    """Asymptotic advantage of a near-ideal localized reparameterization,
    the terms' reparameterization being a SeparableReparam or the key of one
    (else UsageError).

    Returns (sigma, lower_bound) with sigma = |g_1| times the sensitivity
    efficiency constant of the localized family (exactly 0 for the "opt"
    key) and lower_bound the sigma -> 0 limit term of compare_bounds'
    lhs_p_minus_phi.
    """
    ctx = terms.ctx
    if not isinstance(resolve_strategy(ctx.problem, terms.reparam).reparam,
                      SeparableReparam):
        kind = terms.reparam if isinstance(terms.reparam, str) \
            else type(terms.reparam).__name__
        raise UsageError(f"reparam_gap needs a localized family "
                         f"(SeparableReparam), not {kind!r}")
    sigma = float(np.linalg.norm(ctx._g1)) \
        * sensitivity_efficiency_constant(ctx, terms.reparam)

    v_phi = terms.top_phi[1]
    return sigma, float(np.linalg.norm(terms.jac_p @ v_phi) ** 2
                        - np.linalg.norm(outer_curvature(ctx) @ v_phi) ** 2)


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


def _probe_directions(dim: int) -> Array:
    """PROBE_COUNT seeded unit directions, one per row."""
    rng = rng_from_seed(PROBE_SEED)
    probes = []
    for _ in range(PROBE_COUNT):
        v = rng.normal(size=dim)
        probes.append(v / np.linalg.norm(v))
    return np.array(probes)


def newton_reparam_deviations(ctx: RootContext,
                              sep: SeparableReparam) -> ReparamDeviations:
    """Measure how far a separable family is from the Newton-like one.

    Tensor-valued terms (the Q second derivative and the y-derivative of R)
    are compared through contractions against a fixed set of seeded unit
    probe directions rather than true tensor norms. ``dev_r2`` is the
    larger of the left and right contractions' gaps, over all probes.
    """
    problem, y, xstar = ctx.problem, ctx.y, ctx.xstar
    zstar = anchored_reparam(sep, xstar, y).inverse(xstar, y)
    # The Newton-like family's own z at the root is x* itself.
    ideal = newton_separable_reparam(problem)
    dev_q = float(np.linalg.norm(sep.q(zstar, y) - ideal.q(xstar, y)))
    dev_q_jac = spectral_norm(sep.q_jac(zstar, y) - ideal.q_jac(xstar, y))
    probes = _probe_directions(problem.d_x)
    dev_q_hess = max(map(spectral_norm, sep.q_hess_contract(zstar, y, probes)
                         - ideal.q_hess_contract(xstar, y, probes)))
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

def super_efficiency_residual_1d(ctx: RootContext,
                                 phi: Reparameterization) -> float:
    """Residual of the scalar super-efficiency condition at the root.

    For one-dimensional problems whose residual and outer gradient are
    linear in x, the change of variables phi kills the first-order error
    exactly when this residual is zero:

        phi_12/phi_1 - phi_2 phi_11 / phi_1^2 - F_2 phi_11 / (F_1 phi_1^2)
            - (g_12/g_1 - F_12/F_1)
    """
    problem, y, xstar = ctx.problem, ctx.y, ctx.xstar
    if problem.d_x != 1 or problem.d_y != 1:
        raise UsageError("the scalar residual needs d_x = d_y = 1")
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
