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
  x = phi(z, y), possibly re-anchored at every query point; the shipped
  changes of variables carry S in closed form, and ``reparam_sensitivity``
  is the generic formula for any other.

All of them are consistent (exact when x is the inner root and F_1 is
symmetric, as for every shipped problem); they differ in how fast their
error decays as x approaches the root. ``STRATEGY_TABLE``
names the shipped pairs.

Inverse applications are linear solves throughout; no matrix is inverted
except where a contract explicitly hands out the resolvent matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, UsageError
from .linalg import Factorization, factor
from .problems import BilevelProblem, as_points, as_vector, per_row
from .solvers import exact_root, newton_root

Array = np.ndarray


# --------------------------------------------------------------------------
# plain implicit sensitivity

def solution_sensitivity(problem: BilevelProblem, x: Array, y: Array) -> Array:
    """The matrix -F_2' F_1^{-1}, the implicit estimate of [dx*/dy]'.

    Computed by a transpose solve of F_1 against F_2; exact at the root.
    For a stack of points, the stack of matrices.
    """
    f2 = problem.jac_y(x, y)
    return _sensitivity_from(problem.jac_x_factor(x, y), f2)


def _sensitivity_from(v_lu: Factorization, u: Array, p2: Optional[Array] = None) -> Array:
    """The sensitivity matrix (phi_2 - V^{-T} U)', with phi_2 = 0 if not given."""
    vu = v_lu.solve_T(u)
    return np.swapaxes(-vu if p2 is None else p2 - vu, -1, -2)


# --------------------------------------------------------------------------
# preconditioning

@dataclass(frozen=True)
class PreconditionerOracle:
    """Invertible map P(x, y) applied as one corrective step before estimating.

    ``solve`` applies [P(x, y)]^{-1} to a vector or to the columns of a
    matrix; ``matrix`` hands out P(x, y) itself for deviation measurements.
    An estimate on a stack of points x, shape (m, d_x), calls ``solve``
    with that stack and one vector per row, and a caller's oracle must
    return P(x_k, y)^{-1} v_k in row k.
    """

    solve: Callable[[Array, Array, Array], Array]
    matrix: Callable[[Array, Array], Array]


def newton_preconditioner(problem: BilevelProblem) -> PreconditionerOracle:
    """P = F_1: the corrective step becomes one Newton step."""
    return PreconditionerOracle(
        solve=lambda x, y, v: problem.jac_x_factor(x, y).solve(v),
        matrix=problem.jac_x)


def diag_preconditioner(problem: BilevelProblem) -> PreconditionerOracle:
    """P = diag(F_1), the Jacobi choice."""
    return PreconditionerOracle(
        solve=lambda x, y, v: problem.jac_x_diagonal(x, y).solve(v),
        matrix=lambda x, y: np.diag(problem.jac_x_diagonal(x, y).diagonal))


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

    w is one direction, shape (d_x,), or a stack of m directions, shape
    (m, d_x), one per row; for a stack the two contractions come back with
    the leading m, (m, d_x, d_x) and (m, d_x, d_y), and slice k equals the
    call with row k alone. phi_1 and phi_2 do not depend on w. The at-root
    analyses contract the d_x columns of F_1 in one call, so a caller's map
    must accept a stack.

    ``sensitivity(problem, x, y)``, when set, is the map's closed form of
    ``reparam_sensitivity(problem, phi, x, y)``: ``Strategy.sensitivity``
    calls it in place of the generic formula, as ``BilevelProblem`` calls an
    oracle's closed-form y-coupling. It must raise where the generic formula
    raises, DomainError outside the map's range included. The exponential
    maps set it; a caller who replaces another field clears it. An
    estimate on a stack of points x, shape (m, d_x), calls it with that
    stack, and a caller's closed form must return the (m, d_y, d_x) stack.
    """

    forward: Callable[[Array, Array], Array]
    inverse: Callable[[Array, Array], Array]
    derivatives: Callable[[Array, Array, Array], tuple[Array, Array, Array, Array]]
    sensitivity: Optional[Callable[[BilevelProblem, Array, Array], Array]] = None


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
    sensitivity matrix, whatever phi is. Where phi_11 F is zero (phi linear
    in z, as in diag-rep), V is F_1, and the solve goes through the
    problem's factorization of F_1, checked once per point.
    """
    z = phi.inverse(x, y)
    f = problem.residual(x, y)
    f1 = problem.jac_x(x, y)
    f2 = problem.jac_y(x, y)
    p1, p2, czz, czy = phi.derivatives(z, y, f)
    p1_lu = factor(p1, what="phi_1")    # shared by the phi_1 solves
    u = f2 + f1 @ p2 + p1_lu.solve_T(czy)
    v_lu = factor(p1_lu.solve_T(p1_lu.solve_T(czz).T).T + f1, what="V") \
        if np.any(czz) else problem.jac_x_factor(x, y)
    return _sensitivity_from(v_lu, u, p2)


def _diag_stack(v: Array) -> Array:
    """``np.diag`` over the last axis: (..., d) -> (..., d, d)."""
    d = v.shape[-1]
    out = np.zeros(v.shape[:-1] + (d * d,))
    out[..., ::d + 1] = v
    return out.reshape(v.shape + (d,))


def identity_reparam() -> Reparameterization:
    """phi(z, y) = z; the estimate collapses to the plain implicit formula."""
    return Reparameterization(
        forward=lambda z, y: z,
        inverse=lambda x, y: x,
        derivatives=lambda z, y, w: (
            np.eye(z.shape[0]), np.zeros((z.shape[0], y.shape[0])),
            np.zeros(w.shape[:-1] + (z.shape[0], z.shape[0])),
            np.zeros(w.shape[:-1] + (z.shape[0], y.shape[0]))),
    )


def _exp_map(a: Union[float, Array], b: float, size: int) -> Reparameterization:
    """phi(z) = a * exp(b z), element-wise over ``size`` coordinates, for a
    nonzero b and a nonzero a (one scalar, or one value per coordinate);
    phi does not depend on y. a b and a b^2 are formed once, here.

    The sensitivity has a closed form: at x = phi(z), phi_1 = diag(b x),
    phi_2 = phi_21 F = 0 and phi_1^{-T} (phi_11 F) phi_1^{-1} = diag(F / x),
    so S = -(V^{-T} F_2)' with V = F_1 + diag(F / x), and V is F_1 where F
    is zero. Like the generic formula it checks x through the inverse and
    then phi_1. For a stack x, shape (m, size), a may hold one row per point.
    """
    ab, ab2 = a * b, a * b * b

    def inverse(x, y):
        q = as_points(x, size, "x") / a
        if (q <= 0.0).any():
            raise DomainError("point is outside the exponential range")
        return np.log(q) / b

    def derivatives(z, y, w):
        e = np.exp(b * z)
        return (np.diag(ab * e), np.zeros((size, y.shape[0])),
                _diag_stack(w * ab2 * e), np.zeros(w.shape[:-1] + (size, y.shape[0])))

    def sensitivity(problem, x, y):
        factor(_diag_stack(ab * np.exp(b * inverse(x, y))), "phi_1")
        f = problem.residual(x, y)
        v_lu = factor(problem.jac_x(x, y) + _diag_stack(f / x), "V") if np.any(f) \
            else problem.jac_x_factor(x, y)
        return _sensitivity_from(v_lu, problem.jac_y(x, y))

    return Reparameterization(forward=lambda z, y: a * np.exp(b * z),
                              inverse=inverse, derivatives=derivatives,
                              sensitivity=sensitivity)


def signed_exp_reparam(anchor_x: Array) -> Reparameterization:
    """phi(z) = sign(anchor) * exp(z), element-wise.

    The anchor must be a finite vector (else ContractViolation) with every
    coordinate nonzero: a zero sign would collapse a coordinate of the map.
    Callers that sweep iterates are expected to skip such points rather
    than perturb them. A stack of anchors (m, d) anchors a stack of points.
    """
    signs = np.sign(as_points(anchor_x, name="anchor"))
    if not signs.all():
        raise DomainError("exponential reparameterization needs nonzero coordinates")
    return _exp_map(signs, 1.0, signs.shape[-1])


def exp_family_reparam_1d(alpha: float, beta: float) -> Reparameterization:
    """Scalar map phi(z) = alpha * exp(beta z) (z and x one-dimensional)."""
    if not (np.isfinite(alpha) and np.isfinite(beta)) or alpha == 0 or beta == 0:
        raise UsageError("alpha and beta must be finite and nonzero")
    return _exp_map(alpha, beta, 1)


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

    As in ``Reparameterization.derivatives``, the w of ``r2_contract`` and
    of ``q_hess_contract(z, ybar, w)`` is one direction (d_x,) or a stack
    (m, d_x), one per row; for a stack, ``left`` and the q_hess contraction
    come back with the leading m, slice k equal to the call with row k
    alone, and ``right`` is unchanged.

    ``sensitivity(x, y)``, when set, is the family's closed form of the
    sensitivity of the family anchored at (x, y) itself, read from the
    problem the family was built for: ``Strategy.sensitivity`` calls it in
    place of ``reparam_sensitivity`` of ``anchored_reparam(family, x, y)``.
    The diag-scaling and Newton-like families set it. It holds only for the
    family's own fields, so ``scale_separable_r`` clears it, and so must a
    caller who replaces a field.
    """

    r: Callable[[Array, Array], Array]
    r_solve: Callable[[Array, Array, Array], Array]
    r2_contract: Callable[[Array, Array, Array, Array], tuple[Array, Array]]
    q: Callable[[Array, Array], Array]
    q_jac: Callable[[Array, Array], Array]
    q_hess_contract: Callable[[Array, Array, Array], Array]
    q_inverse: Callable[[Array, Array], Array]
    offset: bool
    sensitivity: Optional[Callable[[Array, Array], Array]] = None


def anchored_reparam(sep: SeparableReparam, anchor_x: Array,
                     anchor_y: Array) -> Reparameterization:
    """Freeze the separable family at an anchor, yielding a full phi oracle.

    x enters R through the anchor while y stays live, so the y-derivatives
    of phi flow through R_2 at the anchor point. The phi oracle takes a
    stack of directions as the family's contractions do, and contracts R'
    with each row by the same BLAS call as a single direction.
    """
    xa = np.array(anchor_x, dtype=float)
    ya = np.array(anchor_y, dtype=float)
    shift = xa if sep.offset else np.zeros_like(xa)

    def derivatives(z, y, w):
        r, q_jac = sep.r(xa, y), sep.q_jac(z, ya)
        left, right = sep.r2_contract(xa, y, w, sep.q(z, ya))
        rw = (r.T @ w[..., None])[..., 0]
        return r @ q_jac, right, sep.q_hess_contract(z, ya, rw), q_jac.T @ left

    return Reparameterization(
        forward=lambda z, y: sep.r(xa, y) @ sep.q(z, ya) + shift,
        inverse=lambda x, y: sep.q_inverse(sep.r_solve(xa, y, x - shift), ya),
        derivatives=derivatives,
    )


def diag_scaling_reparam(problem: BilevelProblem) -> SeparableReparam:
    """Separable family with R = [diag(F_1)]^{-1} and Q the identity; the
    problem checks diag(F_1) once per point for R, R's solve and R_2.

    Anchored at the query point, with d = diag(F_1) and D the columns of
    ``djac_x_y_diag``: phi_1 = R is diagonal and phi_11 F is zero, so V is
    F_1; phi_2 = -D (x / d) and U = F_2 + F_1 phi_2 - D (F / d), rows scaled
    element-wise. The sensitivity solves V through the problem's F_1.
    """
    def diagonal(x, y):
        return problem.jac_x_diagonal(x, y).diagonal

    def r2_contract(x, y, w, q):
        # R_2 is diagonal per y-coordinate: (R_2)_{kk,e} = -dF1_kk/dy_e / d_k^2,
        # so the left and right contractions share one formula.
        d = diagonal(x, y)
        dirs = problem.djac_x_y_diag(x, y)
        return -dirs * (w / (d * d))[..., None], -dirs * (q / (d * d))[:, None]

    def sensitivity(x, y):
        d = diagonal(x, y)
        dirs = problem.djac_x_y_diag(x, y)
        p2 = -dirs * (x / d)[..., None]
        u = problem.jac_y(x, y) + problem.jac_x(x, y) @ p2 \
            - dirs * (problem.residual(x, y) / d)[..., None]
        return _sensitivity_from(problem.jac_x_factor(x, y), u, p2)

    return SeparableReparam(
        r=lambda x, y: np.diag(1.0 / diagonal(x, y)),
        r_solve=lambda x, y, v: v * diagonal(x, y),
        r2_contract=r2_contract,
        q=lambda z, ybar: z,
        q_jac=lambda z, ybar: np.eye(z.shape[0]),
        q_hess_contract=lambda z, ybar, w: np.zeros(w.shape[:-1] + (z.shape[0],) * 2),
        q_inverse=lambda v, ybar: v,
        offset=False,
        sensitivity=sensitivity,
    )


def newton_separable_reparam(problem: BilevelProblem) -> SeparableReparam:
    """Separable family with R = F_1^{-1}, Q = -F, and the anchor offset.

    R and both contractions of R_2 solve against the factorization of F_1
    that the problem keeps per point, so F_1 is checked once per point,
    whoever else solves against it there; each contraction reads dF_1/dy
    through one call of the problem's y-coupling methods per direction. The
    q_hess contraction reuses the directional derivative of F_1, which
    contracts over the output index only because the residual is a gradient
    field (its second-derivative tensor is symmetric in all indices); every
    shipped problem satisfies this. A stack of w runs those solves and calls
    one row at a time, so each slice has the bits of its single call.

    Inverting Q means solving F(z, ybar) = -v by a damped Newton run seeded
    at the exact root (CapabilityError without one); at the anchor v = 0,
    so once the problem has solved ybar, Newton stops at its first residual
    check.

    Anchored at the query point (x, y), z is the root x* at y, and the
    Jacobian of Q cancels out of U, so the sensitivity has a closed form
    that neither runs Newton nor forms phi_1 = -A^{-1} B. With A = F_1(x, y),
    B = F_1(x*, y), r* = F(x*, y), a = A^{-T} F and s = A^{-1} r*:

        phi_2 = A^{-1} djac_x_y_apply(x, y, s)
        U = F_2 + djac_x_y_apply(x, y, s) - djac_x_y_apply_T(x, y, a)
        V = A - M' djac_x_dir_x(x*, y, a) M,  M = B^{-1} A

    A and B are solved through the problem's factorizations at x and x*;
    where the djac_x_dir_x term is zero, V is A.
    """
    def r(x, y):
        return problem.jac_x_factor(x, y).solve(np.eye(problem.d_x))

    # Each contraction solves every y-direction's column in one matrix
    # right-hand side; a stack of w runs its directions one at a time.
    def r2_contract(x, y, w, q):
        f1 = problem.jac_x_factor(x, y)
        left = per_row(lambda v: -f1.solve_T(
            problem.djac_x_y_apply_T(x, y, f1.solve_T(v))), w)
        return left, -f1.solve(problem.djac_x_y_apply(x, y, f1.solve(q)))

    def q_inverse(v, ybar):
        return newton_root(lambda z: problem.residual(z, ybar) + v,
                           lambda z: problem.jac_x(z, ybar), exact_root(problem, ybar))

    def sensitivity(x, y):
        xstar = exact_root(problem, y)
        a_lu = problem.jac_x_factor(x, y)
        a = a_lu.solve_T(problem.residual(x, y))
        apply_s = problem.djac_x_y_apply(x, y, a_lu.solve(
            np.broadcast_to(problem.residual(xstar, y), np.shape(x))))
        u = problem.jac_y(x, y) + apply_s - problem.djac_x_y_apply_T(x, y, a)
        c = problem.djac_x_dir_x(xstar, y, a)
        if np.any(c):
            f1 = problem.jac_x(x, y)
            m = problem.jac_x_factor(xstar, y).solve(f1)
            v_lu = factor(f1 - np.swapaxes(m, -1, -2) @ c @ m, "V")
        else:
            v_lu = problem.jac_x_factor(x, y)
        return _sensitivity_from(v_lu, u, a_lu.solve(apply_s))

    return SeparableReparam(
        r=r,
        r_solve=lambda x, y, v: problem.jac_x(x, y) @ v,
        r2_contract=r2_contract,
        q=lambda z, ybar: -problem.residual(z, ybar),
        q_jac=lambda z, ybar: -problem.jac_x(z, ybar),
        q_hess_contract=lambda z, ybar, w: -problem.djac_x_dir_x(z, ybar, w),
        q_inverse=q_inverse,
        offset=True,
        sensitivity=sensitivity,
    )


def scale_separable_r(sep: SeparableReparam, factor: float) -> SeparableReparam:
    """Scale only the R field of a separable family (controlled deviation).

    The y-derivative contractions are left untouched on purpose, so the
    scaled family deviates from the Newton-like ideal in R alone. Its
    sensitivity is the generic formula's: the family's closed form is
    cleared.
    """
    if factor == 0 or not np.isfinite(factor):
        raise UsageError("scale factor must be finite and nonzero")
    return replace(
        sep,
        r=lambda x, y: factor * sep.r(x, y),
        r_solve=lambda x, y, v: sep.r_solve(x, y, v) / factor,
        sensitivity=None,
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

    ``estimate`` and ``sensitivity`` also take a stack of points x, shape
    (m, d_x), and return (m, d_y) and (m, d_y, d_x), row k with the bits of
    the call with row k alone: the shipped formulas run once on the problem's
    stacked blocks, checks and solves, and a map without a closed form runs
    ``reparam_sensitivity`` one row at a time. A stacked call raises exactly
    when some row's call would, though not always with that row's error.
    """

    problem: BilevelProblem
    precond: Optional[PreconditionerOracle] = None
    reparam: Union[None, str, Reparameterization, SeparableReparam] = None

    def change_of_variables(self, x: Array, y: Array) -> Optional[Reparameterization]:
        """The phi behind S at (x, y) (anchored at x if re-anchored), or None."""
        if isinstance(self.reparam, SeparableReparam):
            return anchored_reparam(self.reparam, x, y)
        return signed_exp_reparam(x) if self.reparam == "exp" else self.reparam

    def sensitivity(self, x: Array, y: Array) -> Array:
        """The sensitivity matrix S(x, y): the change of variables' closed
        form when it has one, else ``reparam_sensitivity``."""
        reparam = self.reparam
        if isinstance(reparam, SeparableReparam) and reparam.sensitivity is not None:
            return reparam.sensitivity(x, y)
        if reparam is None:
            return solution_sensitivity(self.problem, x, y)
        phi = signed_exp_reparam(x) if reparam == "exp" else reparam
        if phi.sensitivity is not None:
            return phi.sensitivity(self.problem, x, y)
        return per_row(lambda p: reparam_sensitivity(
            self.problem, self.change_of_variables(p, y), p, y), x)

    def estimate(self, x: Array, y: Array) -> Array:
        """Hypergradient estimate g_2 + S g_1 at the corrected point."""
        problem = self.problem
        d_x, d_y = problem.d_x, problem.d_y
        x = as_points(x, d_x, "x")
        y = as_vector(y, d_y, "y")
        if self.precond is not None:
            x = as_points(x - self.precond.solve(x, y, problem.residual(x, y)), d_x, "x")
        g2 = problem._outer_gradient("grad_y", x, y)
        s = self.sensitivity(x, y)
        g1 = problem._outer_gradient("grad_x", x, y)
        return g2 + (s @ g1[..., None])[..., 0]


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


def make_estimator(problem: BilevelProblem, kind: StrategyKind) -> Estimator:
    """Estimator of a strategy key, named after it, or of a caller's oracle,
    named "precond" for a PreconditionerOracle and "reparam" otherwise."""
    name = kind if isinstance(kind, str) else \
        "precond" if isinstance(kind, PreconditionerOracle) else "reparam"
    return Estimator(name, resolve_strategy(problem, kind).estimate)

