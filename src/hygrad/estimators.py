"""Hypergradient estimation: one formula and the table of strategies.

Every estimator maps a point (x, y) to a d_y vector approximating the
gradient of the outer objective through the inner solution map, and every
one of them is the same implicit-differentiation formula

    g_2(x', y) + S(x', y) g_1(x', y),

differing only in two parts:

- an optional corrective step x' = x - P^{-1} F(x, y) (preconditioning);
  without it x' = x;
- the sensitivity map S, the estimate of [dx*/dy]': the plain implicit
  matrix -F_2' F_1^{-1}, or the one induced by a change of variables
  x = phi(z, y), possibly re-anchored at every query point.

All of them are consistent (exact when x is the inner root); they differ in
how fast their error decays as x approaches the root. ``STRATEGY_TABLE``
names the shipped pairs.

Inverse applications are linear solves throughout; no matrix is inverted
except where a contract explicitly hands out the resolvent matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import CapabilityError, DomainError, UsageError
from .linalg import Factorization, factor, linear_solve, solve_transpose
from .problems import BilevelProblem, as_vector
from .solvers import newton_root

Array = np.ndarray


# --------------------------------------------------------------------------
# plain implicit sensitivity

def solution_sensitivity(problem: BilevelProblem, x: Array, y: Array) -> Array:
    """The matrix -F_2' F_1^{-1}, the implicit estimate of [dx*/dy]'.

    Computed by a transpose solve of F_1 against F_2; exact at the root.
    """
    f1 = problem.jac_x(x, y)
    f2 = problem.jac_y(x, y)
    w = solve_transpose(f1, f2, what="F_1")
    return -w.T


# --------------------------------------------------------------------------
# preconditioning

@dataclass(frozen=True)
class PreconditionerOracle:
    """Invertible map P(x, y) applied as one corrective step before estimating.

    ``solve`` applies [P(x, y)]^{-1} to a vector or to the columns of a
    matrix; ``matrix`` hands out P(x, y) itself for deviation measurements.
    """

    solve: Callable[[Array, Array, Array], Array]
    matrix: Callable[[Array, Array], Array]


def newton_preconditioner(problem: BilevelProblem) -> PreconditionerOracle:
    """P = F_1: the corrective step becomes one Newton step."""
    return PreconditionerOracle(
        solve=lambda x, y, v: linear_solve(problem.jac_x(x, y), v, what="P"),
        matrix=problem.jac_x)


def _jac_x_diagonal(problem: BilevelProblem, x: Array, y: Array,
                    what: str) -> Factorization:
    """diag(F_1), checked by ``factor`` like every other matrix it solves."""
    return factor(np.diag(np.diag(problem.jac_x(x, y))), what)


def diag_preconditioner(problem: BilevelProblem) -> PreconditionerOracle:
    """P = diag(F_1), the Jacobi choice."""
    return PreconditionerOracle(
        solve=lambda x, y, v: _jac_x_diagonal(problem, x, y, "P").solve(v),
        matrix=lambda x, y: np.diag(_jac_x_diagonal(problem, x, y, "P").diagonal))


def scaled_preconditioner(precond: PreconditionerOracle, factor: float) -> PreconditionerOracle:
    """P scaled by a constant, handy for manufacturing controlled deviations."""
    if factor == 0 or not np.isfinite(factor):
        raise UsageError("scale factor must be finite and nonzero")
    return PreconditionerOracle(
        solve=lambda x, y, v: precond.solve(x, y, v) / factor,
        matrix=lambda x, y: factor * precond.matrix(x, y))


# --------------------------------------------------------------------------
# reparameterization

@dataclass(frozen=True)
class Reparameterization:
    """Bijective change of inner variable x = phi(z, y) with derivatives.

    ``derivatives(z, y, w)`` returns every term the estimate uses at one
    point, (phi_1, phi_2, phi_11 w, phi_21 w); second derivatives enter only
    as output-contracted matrices:

        (phi_11 w)[i, j] = sum_k w_k d2 phi_k / dz_i dz_j
        (phi_21 w)[i, e] = sum_k w_k d2 phi_k / dz_i dy_e
    """

    forward: Callable[[Array, Array], Array]
    inverse: Callable[[Array, Array], Array]
    derivatives: Callable[[Array, Array, Array], tuple[Array, Array, Array, Array]]


def reparam_sensitivity(problem: BilevelProblem, phi: Reparameterization,
                        x: Array, y: Array) -> Array:
    """Sensitivity matrix of the estimate rewritten through x = phi(z, y).

    With z = phi^{-1}(x, y) and all residual terms at (x, y):

        U = F_2 + F_1 phi_2 + phi_1^{-T} (phi_21 F)
        V = phi_1^{-T} (phi_11 F) phi_1^{-1} + F_1
        result = phi_2' - U' V^{-1}

    (The transpose on the phi_1 inverse in U follows from the chain rule;
    it matters only for changes of variables with a nonsymmetric Jacobian.)
    At the root both contraction terms vanish and this reduces to the plain
    sensitivity matrix, whatever phi is.
    """
    z = phi.inverse(x, y)
    f = problem.residual(x, y)
    f1 = problem.jac_x(x, y)
    f2 = problem.jac_y(x, y)
    p1, p2, czz, czy = phi.derivatives(z, y, f)
    p1_lu = factor(p1, what="phi_1")    # shared by the three phi_1 solves
    u = f2 + f1 @ p2 + p1_lu.solve_T(czy)
    v = p1_lu.solve_T(p1_lu.solve_T(czz).T).T + f1
    return p2.T - solve_transpose(v, u, what="V").T


def identity_reparam() -> Reparameterization:
    """phi(z, y) = z; the estimate collapses to the plain implicit formula."""
    return Reparameterization(
        forward=lambda z, y: z,
        inverse=lambda x, y: x,
        derivatives=lambda z, y, w: (
            np.eye(z.shape[0]), np.zeros((z.shape[0], y.shape[0])),
            np.zeros((z.shape[0], z.shape[0])), np.zeros((z.shape[0], y.shape[0]))),
    )


def signed_exp_reparam(anchor_x: Array) -> Reparameterization:
    """phi(z) = sign(anchor) * exp(z), element-wise.

    Every anchor coordinate must be nonzero: a zero sign would collapse a
    coordinate of the map. Callers that sweep iterates are expected to skip
    such points rather than perturb them.
    """
    anchor = np.asarray(anchor_x, dtype=float)
    if np.any(anchor == 0.0):
        raise DomainError("exponential reparameterization needs nonzero coordinates")
    signs = np.sign(anchor)

    def inverse(x, y):
        q = signs * np.asarray(x, float)
        if np.any(q <= 0.0):
            raise DomainError("point is outside the signed-exponential range")
        return np.log(q)

    return Reparameterization(
        forward=lambda z, y: signs * np.exp(z),
        inverse=inverse,
        derivatives=lambda z, y, w: (
            np.diag(signs * np.exp(z)), np.zeros((z.shape[0], y.shape[0])),
            np.diag(w * signs * np.exp(z)), np.zeros((z.shape[0], y.shape[0]))),
    )


def exp_family_reparam_1d(alpha: float, beta: float) -> Reparameterization:
    """Scalar map phi(z) = alpha * exp(beta z) (z and x one-dimensional)."""
    if alpha == 0 or beta == 0:
        raise UsageError("alpha and beta must be nonzero")

    def inverse(x, y):
        q = x[0] / alpha
        if q <= 0.0:
            raise DomainError("point is outside the exponential range")
        return np.array([np.log(q) / beta])

    return Reparameterization(
        forward=lambda z, y: np.array([alpha * np.exp(beta * z[0])]),
        inverse=inverse,
        derivatives=lambda z, y, w: (
            np.array([[alpha * beta * np.exp(beta * z[0])]]), np.zeros((1, y.shape[0])),
            np.array([[w[0] * alpha * beta * beta * np.exp(beta * z[0])]]),
            np.zeros((1, y.shape[0]))),
    )


# --------------------------------------------------------------------------
# separable localized reparameterization

@dataclass(frozen=True)
class SeparableReparam:
    """Separable family psi(z, y) = R(x, y) Q(z, ybar) [+ x], anchored later.

    R carries the y-dependence, Q the z-dependence; the anchor (x, ybar) is
    fixed when the family is instantiated at a query point. Derivatives of R
    in y enter through the two contractions of the 3-tensor R_2 that
    ``r2_contract(x, y, w, q)`` returns as (left, right):

        left[m, e]  = sum_k w_k (R_2)_{km,e}
        right[k, e] = sum_m (R_2)_{km,e} q_m
    """

    r: Callable[[Array, Array], Array]
    r_solve: Callable[[Array, Array, Array], Array]
    r2_contract: Callable[[Array, Array, Array, Array], tuple[Array, Array]]
    q: Callable[[Array, Array], Array]
    q_jac: Callable[[Array, Array], Array]
    q_hess_contract: Callable[[Array, Array, Array], Array]
    q_inverse: Callable[[Array, Array], Array]
    offset: bool


def anchored_reparam(sep: SeparableReparam, anchor_x: Array,
                     anchor_y: Array) -> Reparameterization:
    """Freeze the separable family at an anchor, yielding a full phi oracle.

    x enters R through the anchor while y stays live, so the y-derivatives
    of phi flow through R_2 at the anchor point.
    """
    xa = np.array(anchor_x, dtype=float)
    ya = np.array(anchor_y, dtype=float)
    shift = xa if sep.offset else np.zeros_like(xa)

    def derivatives(z, y, w):
        r, q_jac = sep.r(xa, y), sep.q_jac(z, ya)
        left, right = sep.r2_contract(xa, y, w, sep.q(z, ya))
        return r @ q_jac, right, sep.q_hess_contract(z, ya, r.T @ w), q_jac.T @ left

    return Reparameterization(
        forward=lambda z, y: sep.r(xa, y) @ sep.q(z, ya) + shift,
        inverse=lambda x, y: sep.q_inverse(sep.r_solve(xa, y, x - shift), ya),
        derivatives=derivatives,
    )


def jac_x_y_dirs(problem: BilevelProblem, x: Array, y: Array) -> list[Array]:
    """The y_e-derivative of F_1 for every one-hot direction e, in order."""
    return [problem.inner.djac_x_dir_y(x, y, direction)
            for direction in np.eye(problem.d_y)]


def diag_scaling_reparam(problem: BilevelProblem) -> SeparableReparam:
    """Separable family with R = [diag(F_1)]^{-1} and Q the identity."""
    def diagonal(x, y):
        return _jac_x_diagonal(problem, x, y, "R").diagonal

    def r2_contract(x, y, w, q):
        # R_2 is diagonal per y-coordinate: (R_2)_{kk,e} = -dF1_kk/dy_e / d_k^2,
        # so the left and right contractions share one formula.
        d = diagonal(x, y)
        dirs = np.stack([np.diag(g_e) for g_e in jac_x_y_dirs(problem, x, y)], axis=1)
        return -dirs * (w / (d * d))[:, None], -dirs * (q / (d * d))[:, None]

    return SeparableReparam(
        r=lambda x, y: np.diag(1.0 / diagonal(x, y)),
        r_solve=lambda x, y, v: v * diagonal(x, y),
        r2_contract=r2_contract,
        q=lambda z, ybar: z,
        q_jac=lambda z, ybar: np.eye(z.shape[0]),
        q_hess_contract=lambda z, ybar, w: np.zeros((z.shape[0], z.shape[0])),
        q_inverse=lambda v, ybar: v,
        offset=False,
    )


def newton_separable_reparam(problem: BilevelProblem) -> SeparableReparam:
    """Separable family with R = F_1^{-1}, Q = -F, and the anchor offset.

    The q_hess contraction reuses the directional derivative of F_1, which
    contracts over the output index only because the residual is a gradient
    field (its second-derivative tensor is symmetric in all indices); every
    shipped problem satisfies this.

    Inverting Q means solving F(z, ybar) = -v by a damped Newton run seeded
    at the exact root, which the problem must provide; at the anchor v = 0,
    so from a root context Newton stops at its first residual check.
    """
    def r(x, y):
        f1 = problem.jac_x(x, y)
        return linear_solve(f1, np.eye(problem.d_x), what="F_1")

    # Both contractions share one F_1 factorization and one pass over the
    # y-directions, and solve every direction's column in one matrix
    # right-hand side.
    def r2_contract(x, y, w, q):
        f1 = factor(problem.jac_x(x, y), what="F_1")
        dirs = jac_x_y_dirs(problem, x, y)
        t, s = f1.solve_T(w), f1.solve(q)
        return (-f1.solve_T(np.stack([g_e.T @ t for g_e in dirs], axis=1)),
                -f1.solve(np.stack([g_e @ s for g_e in dirs], axis=1)))

    def q_inverse(v, ybar):
        start = problem.exact_root(ybar)
        if start is None:
            raise CapabilityError("inverting the Newton-like family requires "
                                  "the problem to provide exact_root")
        return newton_root(lambda z: problem.residual(z, ybar) + v,
                           lambda z: problem.jac_x(z, ybar), start)

    return SeparableReparam(
        r=r,
        r_solve=lambda x, y, v: problem.jac_x(x, y) @ v,
        r2_contract=r2_contract,
        q=lambda z, ybar: -problem.residual(z, ybar),
        q_jac=lambda z, ybar: -problem.jac_x(z, ybar),
        q_hess_contract=lambda z, ybar, w: -problem.inner.djac_x_dir_x(z, ybar, w),
        q_inverse=q_inverse,
        offset=True,
    )


def scale_separable_r(sep: SeparableReparam, factor: float) -> SeparableReparam:
    """Scale only the R field of a separable family (controlled deviation).

    The y-derivative contractions are left untouched on purpose, so the
    scaled family deviates from the Newton-like ideal in R alone.
    """
    if factor == 0 or not np.isfinite(factor):
        raise UsageError("scale factor must be finite and nonzero")
    return replace(
        sep,
        r=lambda x, y: factor * sep.r(x, y),
        r_solve=lambda x, y, v: sep.r_solve(x, y, v) / factor,
    )


# --------------------------------------------------------------------------
# strategies

@dataclass(frozen=True)
class Strategy:
    """One estimator as a pair: an optional corrective step and a sensitivity map.

    The estimate at (x, y) is g_2 + S g_1 at x' = x - P^{-1} F(x, y), or at
    x itself when ``precond`` is None. ``reparam`` is the change of
    variables behind S:

    - None: the plain implicit sensitivity -F_2' F_1^{-1};
    - "exp": the signed exponential, re-anchored at every query point;
    - a Reparameterization: that fixed phi;
    - a SeparableReparam: the family anchored at every query point.
    """

    problem: BilevelProblem
    precond: Optional[PreconditionerOracle] = None
    reparam: Union[None, str, Reparameterization, SeparableReparam] = None

    def sensitivity(self, x: Array, y: Array) -> Array:
        """The sensitivity matrix S(x, y)."""
        if self.reparam is None:
            return solution_sensitivity(self.problem, x, y)
        if isinstance(self.reparam, SeparableReparam):
            phi = anchored_reparam(self.reparam, x, y)
        else:
            phi = signed_exp_reparam(x) if self.reparam == "exp" else self.reparam
        return reparam_sensitivity(self.problem, phi, x, y)

    def estimate(self, x: Array, y: Array) -> Array:
        """Hypergradient estimate g_2 + S g_1 at the corrected point."""
        problem = self.problem
        x = as_vector(x, problem.d_x, "x")
        y = as_vector(y, problem.d_y, "y")
        if self.precond is not None:
            x = as_vector(x - self.precond.solve(x, y, problem.residual(x, y)),
                          problem.d_x, "x")
        return problem.outer.grad_y(x, y) + self.sensitivity(x, y) \
            @ problem.outer.grad_x(x, y)


# Each shipped strategy key as its (P, S) pair. The entries call the
# constructors through their module-level names when a strategy is built,
# so rebinding a constructor (as a profiler does) reaches every estimator.
STRATEGY_TABLE: dict[str, Callable[[BilevelProblem], Strategy]] = {
    "vanilla": lambda p: Strategy(p),
    "newton": lambda p: Strategy(p, precond=newton_preconditioner(p)),
    "diag": lambda p: Strategy(p, precond=diag_preconditioner(p)),
    "exp": lambda p: Strategy(p, reparam="exp"),
    "diag-rep": lambda p: Strategy(p, reparam=diag_scaling_reparam(p)),
    "opt": lambda p: Strategy(p, reparam=newton_separable_reparam(p)),
}

# Strategy keys as they appear on the CLI and in trace files.
STRATEGIES = tuple(STRATEGY_TABLE)

# A strategy key, or a caller's oracle standing for one half of the pair.
StrategyKind = Union[str, PreconditionerOracle, Reparameterization, SeparableReparam]


def resolve_strategy(problem: BilevelProblem, kind: StrategyKind) -> Strategy:
    """The (P, S) pair of a strategy key or of a caller's oracle.

    A PreconditionerOracle is a corrective step with the plain sensitivity;
    a Reparameterization or SeparableReparam is a sensitivity map with no
    step.
    """
    if isinstance(kind, PreconditionerOracle):
        return Strategy(problem, precond=kind)
    if isinstance(kind, (Reparameterization, SeparableReparam)):
        return Strategy(problem, reparam=kind)
    if isinstance(kind, str) and kind in STRATEGY_TABLE:
        return STRATEGY_TABLE[kind](problem)
    raise UsageError(f"unknown strategy {kind!r}; choose from {', '.join(STRATEGIES)}")


@dataclass(frozen=True)
class Estimator:
    """Named map (x, y) -> hypergradient estimate."""

    name: str
    fn: Callable[[Array, Array], Array]

    def __call__(self, x: Array, y: Array) -> Array:
        return self.fn(x, y)


def make_estimator(problem: BilevelProblem, kind: StrategyKind,
                   name: str = "reparam") -> Estimator:
    """Estimator of a strategy key (named after it) or of a caller's oracle."""
    return Estimator(kind if isinstance(kind, str) else name,
                     resolve_strategy(problem, kind).estimate)

