"""Best L_p approximation from the bandlimited span {lambda_l <= omega}.

The infimum over the bandlimited space is attained on the finite span of the
included eigenfunctions, so each solve is a finite convex problem:

* p = 2: orthogonal projection (the basis is quadrature-orthonormal),
* 1 < p < inf: iteratively reweighted least squares started at the
  projection, with an epsilon floor on the residual weights and a
  backtracking step so the objective never increases,
* p = 1 and p = inf: linear programs over the node residuals (HiGHS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .manifold import GridFunction, ManifoldModel, _weighted_norm
from .spectrum import CoefVector, EigenSystem

IRLS_EPS = 1e-10
IRLS_TOL = 1e-9
IRLS_MAX_ITER = 500
LP_TOL = 1e-9


@dataclass
class ApproxResult:
    """Outcome of one best-approximation solve."""

    omega: float
    p: float
    error: float
    coefficients: CoefVector
    solver: str
    iterations: int = 0
    converged: bool = True
    residual_change: float = 0.0
    gradient_norm: float | None = None


def best_approx(model: ManifoldModel, eigsys: EigenSystem, f: GridFunction,
                omega: float, p: float) -> ApproxResult:
    """Distance in L_p from f to the span of eigenfunctions with lambda <= omega.

    The cutoff is inclusive (lambda = omega belongs to the span). Rejects
    omega beyond the computed band, since the infimum could then involve
    eigenfunctions the system does not hold.
    """
    if eigsys.model is not model or f.model is not model:
        raise ValueError("model, eigensystem and function must match")
    if p < 1:
        raise ValueError("p must satisfy 1 <= p <= inf")
    if omega > eigsys.band_limit:
        raise ValueError(
            f"omega {omega} exceeds the computed band {eigsys.band_limit}; "
            "the infimum cannot be certified")
    k = eigsys.cutoff_index(omega)
    u = eigsys.eigenfunctions[:, :k]
    w = model.weights
    c0 = u.T @ (w * f.values)

    if p == 2:
        r = f.values - u @ c0
        return ApproxResult(omega=float(omega), p=2.0,
                            error=_weighted_norm(w, r, 2.0),
                            coefficients=CoefVector(c0), solver="projection")
    if np.isinf(p) or p == 1:
        return _solve_lp(model, u, f.values, float(omega), p)
    return _solve_irls(model, u, f.values, c0, float(omega), p)


def _irls_gradient_norm(u, w, r, p):
    # gradient of sum_i w_i |r_i|^p with respect to the coefficients
    grad = -p * (u.T @ (w * np.sign(r) * np.abs(r) ** (p - 1.0)))
    return float(np.linalg.norm(grad))


def _solve_irls(model, u, fvals, c0, omega, p):
    w = model.weights
    c = c0.copy()
    r = fvals - u @ c
    err = _weighted_norm(w, r, p)
    # optimality certificate target; the error-change criterion alone can
    # stall short of it for p < 2
    grad_target = 1e-6 * _weighted_norm(w, fvals, p) ** (p - 1.0)
    change = np.inf
    iters = 0
    converged = False
    for iters in range(1, IRLS_MAX_ITER + 1):
        weights = w * np.maximum(np.abs(r), IRLS_EPS) ** (p - 2.0)
        sq = np.sqrt(weights)
        c_ls, *_ = np.linalg.lstsq(u * sq[:, None], fvals * sq, rcond=None)
        # backtrack toward the previous iterate if the objective regressed
        step = 1.0
        for _ in range(40):
            c_try = c + step * (c_ls - c)
            r_try = fvals - u @ c_try
            err_try = _weighted_norm(w, r_try, p)
            if err_try <= err or step < 1e-12:
                break
            step *= 0.5
        change = abs(err - err_try) / max(err, 1e-300)
        c, r, err = c_try, r_try, err_try
        if change < IRLS_TOL and _irls_gradient_norm(u, w, r, p) <= grad_target:
            converged = True
            break
    return ApproxResult(omega=omega, p=float(p), error=err,
                        coefficients=CoefVector(c), solver="irls",
                        iterations=iters, converged=converged,
                        residual_change=float(change),
                        gradient_norm=_irls_gradient_norm(u, w, r, p))


def _solve_lp(model, u, fvals, omega, p):
    n, k = u.shape
    w = model.weights
    u_sp = sparse.csr_matrix(u)
    if np.isinf(p):
        # minimize s with -s <= f - Uc <= s
        ones = sparse.csr_matrix(np.ones((n, 1)))
        a_ub = sparse.vstack([sparse.hstack([u_sp, -ones]),
                              sparse.hstack([-u_sp, -ones])], format="csr")
        cost = np.zeros(k + 1)
        cost[-1] = 1.0
        n_slack = 1
    else:
        # minimize sum w_i s_i with -s_i <= f_i - (Uc)_i <= s_i
        eye = sparse.eye(n, format="csr")
        a_ub = sparse.vstack([sparse.hstack([u_sp, -eye]),
                              sparse.hstack([-u_sp, -eye])], format="csr")
        cost = np.concatenate([np.zeros(k), w])
        n_slack = n
    b_ub = np.concatenate([fvals, -fvals])
    bounds = [(None, None)] * k + [(0, None)] * n_slack
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": LP_TOL,
                           "dual_feasibility_tolerance": LP_TOL})
    converged = res.status == 0
    c = res.x[:k] if res.x is not None else np.zeros(k)
    err = _weighted_norm(w, fvals - u @ c, p)
    return ApproxResult(omega=omega, p=float(p), error=err,
                        coefficients=CoefVector(c), solver="lp-highs",
                        iterations=int(getattr(res, "nit", 0)),
                        converged=converged)


def error_sequence(model: ManifoldModel, eigsys: EigenSystem, f: GridFunction,
                   p: float, J: int) -> list[ApproxResult]:
    """Best-approximation solves at the dyadic cutoffs omega = 4^j, j = 0..J."""
    if 4.0 ** J > eigsys.band_limit:
        raise ValueError("4^J exceeds the computed band limit")
    return [best_approx(model, eigsys, f, 4.0 ** j, p) for j in range(J + 1)]
