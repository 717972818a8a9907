"""Inner-problem iteration and finite-difference ground-truth oracles.

The finite-difference hypergradient here is the reference every estimator is
judged against; it only touches the problem through exact_root and the outer
value, so it shares no code path with the estimation formulas.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError, NumericalFailure, UsageError
from .linalg import linear_solve, spectral_norm
from .problems import BilevelProblem, as_vector, fd_jacobian, fd_step

Array = np.ndarray

# Relative residual at which a root is treated as exact; small enough that
# oracle error is negligible against 1e-6 level acceptance tolerances.
ROOT_TOL = 1e-13
# Newton iterations before newton_root gives up.
NEWTON_MAX_ITER = 100


def gradient_descent(problem: BilevelProblem, y: Array, x0: Array, steps: int,
                     step_size: float | None = None) -> list[Array]:
    """Run x_k = x_{k-1} - tau * F(x_{k-1}, y) for a fixed number of steps;
    returns the iterates x_0, ..., x_steps.

    With step_size None, tau = 1 / lambda_max(F_1(x0, y)), frozen at x0 and
    never recomputed; a given step_size must be positive and finite.
    Non-finite iterates raise NumericalFailure carrying the step index.
    """
    if steps < 0:
        raise UsageError("steps must be nonnegative")
    if step_size is not None and not 0 < step_size < np.inf:
        raise UsageError("step size must be positive and finite")
    x = as_vector(x0, problem.d_x, "x0")
    y = as_vector(y, problem.d_y, "y")
    if step_size is None:
        lam = spectral_norm(problem.jac_x(x, y))
        if lam <= 0:
            raise NumericalFailure("cannot derive a step size from a zero Jacobian")
        tau = 1.0 / lam
    else:
        tau = float(step_size)
    iterates = [x]
    for k in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            x = x - tau * problem.residual(x, y)
        if not np.isfinite(x).all():
            raise NumericalFailure(f"iterate became non-finite at step {k + 1}",
                                   step=k + 1)
        iterates.append(x)
    return iterates


def newton_root(residual_fn, jac_fn, x0: Array) -> Array:
    """Damped Newton with Armijo backtracking on the squared residual.

    Stops when |F(x)| <= ROOT_TOL * (1 + |x|), or, before any line search,
    when the Newton step is no longer than 4 eps (1 + |x|), i.e. at the
    rounding floor of F, where no trial along it can lower |F|. A line search
    that stalls raises NumericalFailure, and so does a point still above
    tolerance after NEWTON_MAX_ITER iterations; ``step`` is the iteration,
    and the message gives the |F| reached and the tolerance.
    F is evaluated once per point, at x0 and at each line-search trial: an
    accepted trial's value is carried into the next iteration.
    """
    x = np.asarray(x0, dtype=float)
    f = np.asarray(residual_fn(x), dtype=float)
    for k in range(NEWTON_MAX_ITER + 1):          # k iterations done
        norm_f = float(np.linalg.norm(f))
        tol = ROOT_TOL * (1.0 + float(np.linalg.norm(x)))
        if norm_f <= tol:
            return x
        reached = f"|F| = {norm_f:.3e} against tolerance {tol:.3e}"
        if k == NEWTON_MAX_ITER:
            raise NumericalFailure(
                f"Newton did not reach tolerance in {k} iterations: {reached}", step=k)
        dx = linear_solve(jac_fn(x), -f, what="F_1")
        # A full step below the rounding of x cannot lower |F| any further:
        # x is the root to working precision.
        if np.linalg.norm(dx) <= 4.0 * np.finfo(float).eps * (1.0 + np.linalg.norm(x)):
            return x
        merit = 0.5 * norm_f ** 2
        t = 1.0
        while t >= 1e-12:
            trial = x + t * dx
            f_trial = np.asarray(residual_fn(trial), dtype=float)
            if np.isfinite(f_trial).all() and (
                    0.5 * float(np.linalg.norm(f_trial)) ** 2
                    <= merit * (1.0 - 2e-4 * t)):
                x, f = trial, f_trial
                break
            t *= 0.5
        else:
            raise NumericalFailure(
                f"Newton line search stalled at iteration {k + 1}: {reached}",
                step=k + 1)


def exact_root(problem: BilevelProblem, y: Array) -> Array:
    """The inner root x*(y); CapabilityError when the problem cannot solve it."""
    root = problem.exact_root(as_vector(y, problem.d_y, "y"))
    if root is None:
        raise CapabilityError(f"problem {problem.name!r} has no exact_root")
    return root


def fd_hypergradient(problem: BilevelProblem, y: Array,
                     eps: float | None = None) -> Array:
    """Ground-truth hypergradient by central differences of y -> g(x*(y), y)."""
    y = as_vector(y, problem.d_y, "y")
    return fd_jacobian(lambda yy: problem.outer.value(exact_root(problem, yy), yy),
                       y, fd_step(y, eps, 1e-6))


def fd_jac_xstar(problem: BilevelProblem, y: Array,
                 eps: float | None = None) -> Array:
    """Jacobian of the solution map y -> x*(y) by central differences."""
    y = as_vector(y, problem.d_y, "y")
    return fd_jacobian(lambda yy: exact_root(problem, yy), y, fd_step(y, eps, 1e-6))
