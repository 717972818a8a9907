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
by reparam_gap's sigma) its value at the d_x unit vectors. For the "opt"
key it is zero, read without a solve: the Newton-like family's S is
stationary at the root, so c_y = |D| and sigma = 0. Nothing on these paths
is differenced; the ``*_fd`` Jacobians are test references. The Taylor
check ``test_root_jacobian_is_the_estimators_derivative`` ties
root_jacobian to the estimators. Everything here holds at the root only,
where F = 0.

Every at-root analysis takes one ``RootContext``, whose root was solved
once, and reads its ``xstar``; the problem keeps that root, so estimators
and separable families built from it reuse the root too. The context also
keeps, computed when first read, the root blocks no strategy changes (the
plain S, D, g_1 and T's plain part at g_1) and, per kind, its Jacobian,
that Jacobian's top singular pair and a change of variables' phi terms
that do not depend on g. An efficiency sweep thus builds D and the g_1
contraction once for all six kinds, and a comparison trial builds its phi
terms once for J_phi and sigma and reads J_P, J_phi and their top pairs
from the context. An analysis of an estimator takes its strategy kind, a
key or a caller's oracle, and builds the estimator from the context's
problem.
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
    make_estimator,
    resolve_strategy,
    solution_sensitivity,
)
from .linalg import factor, spectral_norm, top_singular
from .problems import (BilevelProblem, _read_only, as_matrix, as_vector, fd_jacobian,
                       fd_step)
from .solvers import exact_root

Array = np.ndarray

# Largest |F_1 - F_1'| / |F_1| that the phi terms of the Jacobian of S accept:
# 160 times the 6.3e-11 of FDInnerOracle's differenced F_1 at shipped roots.
SYMMETRY_RTOL = 1e-8

# Default relative step for estimator Jacobians; larger than the first-order
# steps because these maps get differenced near a stationary value.
JACOBIAN_FD_STEP = 1e-5


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
    of ``_sensitivity_term`` at g_1, and, per kind (a key, or a caller's
    oracle by identity), its ``root_jacobian``, that Jacobian's top
    singular pair and, for a change of variables, the g-independent part
    of its phi terms. ``y``, ``xstar`` and every kept array are read-only.
    """

    problem: BilevelProblem
    y: Array
    xstar: Array
    _kept: dict = field(default_factory=dict, init=False, repr=False)

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
        d_x, d_y = self.problem.d_x, self.problem.d_y
        g21 = as_matrix(outer.jac_gradY_x(xstar, y), (d_y, d_x), "jac_gradY_x")
        g11 = as_matrix(outer.hess_xx(xstar, y), (d_x, d_x), "hess_xx")
        return _read_only(g21 + self._sensitivity @ g11)

    @cached_property
    def _g1(self) -> Array:
        return _read_only(as_vector(self.problem.outer.grad_x(self.xstar, self.y),
                                    self.problem.d_x, "grad_x"))

    @cached_property
    def _g1_term(self) -> tuple[Array, Array]:
        """u = F_1^{-1} g_1 as one column, and the plain part of
        ``_sensitivity_term`` at g_1."""
        u = self.problem.jac_x_factor(self.xstar, self.y).solve(self._g1[:, None])
        return _read_only(u), _read_only(_plain_term(self, u))

    def _keep(self, part: str, kind: StrategyKind, compute):
        """compute()'s value for one part of one kind, computed when first
        read and then kept: per key, and per caller's oracle by identity,
        beside that oracle so that its id stays its own."""
        key = part, (kind if isinstance(kind, str) else id(kind))
        if key not in self._kept:
            self._kept[key] = kind, compute()
        return self._kept[key][1]

    def _prelude(self, kind: StrategyKind, strategy: Strategy) -> tuple:
        """The phi terms of ``_sensitivity_term`` that do not depend on g,
        for a kind with a change of variables, at z* = phi^{-1}(x*, y):
        phi_11 and phi_21 contracted with each column of F_1 (one call of
        ``phi.derivatives`` on the stack F_1'), the checked phi_1, and
        W = phi_1^{-1} (phi_2 - S'). A map whose contractions lack the
        stack's leading d_x raises ContractViolation."""
        def compute():
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
            return _read_only(czz), _read_only(czy), p1_lu, w
        return self._keep("prelude", kind, compute)


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
    (newton, diag or a caller's oracle), which leaves S as it is. The
    context keeps it; each call returns a fresh copy."""
    def assemble():
        strategy = resolve_strategy(ctx.problem, kind)
        jac = outer_curvature(ctx) + _sensitivity_term(ctx, kind)[0]
        if strategy.precond is not None:
            jac = jac @ precond_error_factor_at_root(ctx, strategy.precond)
        return _read_only(jac)
    return ctx._keep("jacobian", kind, assemble).copy()


def efficiency_constant(ctx: RootContext, kind: StrategyKind) -> float:
    """Efficiency constant c_y: the spectral norm of ``root_jacobian``, read
    from the top singular pair the context keeps."""
    return _top_pair(ctx, kind)[0]


def _top_pair(ctx: RootContext, kind: StrategyKind) -> tuple[float, Array]:
    """The top singular value and right vector of ``root_jacobian``, from
    one SVD per context, kept read-only."""
    def svd():
        sigma, v = top_singular(root_jacobian(ctx, kind))
        return sigma, _read_only(v)
    return ctx._keep("top pair", kind, svd)


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
                     - ctx._sensitivity @ problem.djac_x_dir_x(xstar, y, col)
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
    """Efficiency constant of S: the operator norm of the (d_y d_x) x d_x Jacobian
    of x -> vec(S(x, y)) (``sensitivity_jacobian``); 0.0, with no SVD, if it is 0."""
    d_s = sensitivity_jacobian(ctx, kind)
    return spectral_norm(d_s.reshape(-1, d_s.shape[-1])) if d_s.any() else 0.0


# --------------------------------------------------------------------------
# comparison bounds

def compare_bounds(ctx: RootContext, precond: PreconditionerOracle,
                   reparam: StrategyKind) -> ComparisonBounds:
    """Evaluate both quadratic comparison inequalities between the estimator
    preconditioned by P and the one reparameterized by phi at the root.

    With J_P and J_phi the two estimators' ``root_jacobian`` and (sigma_P,
    v_P), (sigma_phi, v_phi) their top pairs, all kept by the context, the
    paper's matrices are U+- = J_phi +- J_P and V+- = J_P +- J_phi, so

        rhs_phi_minus_p = (U+ v_P).(U- v_P) = |J_phi v_P|^2 - sigma_P^2
        rhs_p_minus_phi = (V+ v_phi).(V- v_phi) = |J_P v_phi|^2 - sigma_phi^2

    and each lhs, a difference of squared efficiency constants, dominates
    its rhs because sigma_phi >= |J_phi v_P| and sigma_P >= |J_P v_phi|.
    """
    jac_p, jac_phi = root_jacobian(ctx, precond), root_jacobian(ctx, reparam)
    sigma_p, v_p = _top_pair(ctx, precond)
    sigma_phi, v_phi = _top_pair(ctx, reparam)

    lhs_phi_minus_p = sigma_phi ** 2 - sigma_p ** 2
    return ComparisonBounds(
        lhs_phi_minus_p=lhs_phi_minus_p,
        rhs_phi_minus_p=float(((jac_phi + jac_p) @ v_p) @ ((jac_phi - jac_p) @ v_p)),
        lhs_p_minus_phi=-lhs_phi_minus_p,
        rhs_p_minus_phi=float(((jac_p + jac_phi) @ v_phi) @ ((jac_p - jac_phi) @ v_phi)),
        v_p=v_p.copy(),
        v_phi=v_phi.copy(),
    )


def precond_gap(ctx: RootContext, precond: PreconditionerOracle,
                reparam: StrategyKind) -> tuple[float, float]:
    """Asymptotic advantage of a near-ideal preconditioner.

    Returns (delta, lower_bound) with delta the deviation of P from F_1 at
    the root and lower_bound = |J_phi v_P|^2, read from the context: the
    term that survives as delta -> 0, so compare_bounds' lhs_phi_minus_p >=
    lower_bound up to o(delta) and FD noise.
    """
    problem, y, xstar = ctx.problem, ctx.y, ctx.xstar
    delta = spectral_norm(precond.matrix(xstar, y) - problem.jac_x(xstar, y))
    return delta, float(np.linalg.norm(root_jacobian(ctx, reparam)
                                       @ _top_pair(ctx, precond)[1]) ** 2)


def reparam_gap(ctx: RootContext, precond: PreconditionerOracle,
                reparam: StrategyKind) -> tuple[float, float]:
    """Asymptotic advantage of a near-ideal localized reparameterization,
    reparam being a SeparableReparam or the key of one (else UsageError).

    Returns (sigma, lower_bound) with sigma = |g_1| times the sensitivity
    efficiency constant of the localized family (exactly 0 for the "opt"
    key) and lower_bound = |J_P v_phi|^2 - |D v_phi|^2, read from the
    context, the sigma -> 0 limit term of compare_bounds' lhs_p_minus_phi.
    """
    if not isinstance(resolve_strategy(ctx.problem, reparam).reparam,
                      SeparableReparam):
        kind = reparam if isinstance(reparam, str) else type(reparam).__name__
        raise UsageError(f"reparam_gap needs a localized family "
                         f"(SeparableReparam), not {kind!r}")
    sigma = float(np.linalg.norm(ctx._g1)) * sensitivity_efficiency_constant(ctx, reparam)

    v_phi = _top_pair(ctx, reparam)[1]
    return sigma, float(np.linalg.norm(root_jacobian(ctx, precond) @ v_phi) ** 2
                        - np.linalg.norm(outer_curvature(ctx) @ v_phi) ** 2)


# --------------------------------------------------------------------------
# 1-D super-efficiency residual

def super_efficiency_residual_1d(ctx: RootContext,
                                 phi: Reparameterization) -> float:
    """Residual of the scalar super-efficiency condition at the root.

    For a problem with d_x = d_y = 1 the residual is

        -(g_21 + T_phi) / g_1

    with T_phi the Jacobian at the root of x -> S_phi(x, y) g_1
    (``_sensitivity_term``): ``root_jacobian`` less S g_11, the part that no
    change of variables removes, over -g_1. The change of variables phi kills
    the rest of the first-order error exactly when the residual is zero; with
    an affine outer objective S g_11 = 0, so the residual's size is then
    c_y / |g_1|. It holds for any 1-D residual F, linear in x or not.
    """
    problem, y, xstar = ctx.problem, ctx.y, ctx.xstar
    if problem.d_x != 1 or problem.d_y != 1:
        raise UsageError("the scalar residual needs d_x = d_y = 1")
    g1 = float(ctx._g1[0])
    if g1 == 0.0:
        raise UsageError("degenerate problem: outer gradient vanishes at the root")
    g21 = float(as_matrix(problem.outer.jac_gradY_x(xstar, y), (1, 1), "jac_gradY_x")[0, 0])
    return -(g21 + float(_sensitivity_term(ctx, phi)[0, 0, 0])) / g1
