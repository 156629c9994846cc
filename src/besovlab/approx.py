"""Best L_p approximation from the bandlimited span {lambda_l <= omega}.

The infimum over the bandlimited space is attained on the finite span of the
included eigenfunctions, so each solve is a finite convex problem:

* p = 2: orthogonal projection (the basis is quadrature-orthonormal),
* 1 < p < inf: iteratively reweighted least squares started at the
  projection, with an epsilon floor on the residual weights and a
  backtracking step so the objective never increases,
* p = 1: the dual linear program of discrete L_1 approximation
  (Barrodale & Roberts 1973), max f^T z subject to U^T z = 0 and
  |z_i| <= w_i: k equality rows and box bounds, no slack variables. The
  coefficients are read off the equality marginals,
* p = inf: the primal linear program min s subject to |f - Uc| <= s.

Both linear programs are solved with HiGHS and certified. ``error`` is the
L_p error of a coefficient vector held in hand (the linear program's or the
projection's, whichever is smaller), so it is attained; ``lower_bound`` is
the objective of the HiGHS dual solution. The best error lies in
[lower_bound, error] up to the solver's feasibility tolerance (the two can
cross by roundoff when the gap closes). A failed HiGHS solve raises
``RuntimeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .manifold import GridFunction, ManifoldModel, _weighted_norm
from .spectrum import CoefVector, EigenSystem

IRLS_EPS = 1e-10
IRLS_TOL = 1e-9
IRLS_MAX_ITER = 500
LP_TOL = 1e-9


@dataclass
class ApproxResult:
    """Outcome of one best-approximation solve.

    ``error`` is the L_p error of ``coefficients``. For the linear programs
    (``solver == "lp-highs"``) ``lower_bound`` is the HiGHS dual objective,
    a lower bound on the best error up to the solver's feasibility tolerance
    and roundoff, and ``converged`` means that HiGHS reported an optimum and
    that ``|error - lower_bound|`` is at most ``LP_TOL * ||f||_p``. The other
    solvers leave ``lower_bound`` as None.
    """

    omega: float
    p: float
    error: float
    coefficients: CoefVector
    solver: str
    iterations: int = 0
    converged: bool = True
    residual_change: float = 0.0
    gradient_norm: float | None = None
    lower_bound: float | None = None


def best_approx(model: ManifoldModel, eigsys: EigenSystem, f: GridFunction,
                omega: float, p: float) -> ApproxResult:
    """Distance in L_p from f to the span of eigenfunctions with lambda <= omega.

    The cutoff is inclusive (lambda = omega belongs to the span). Rejects
    omega beyond the computed band, since the infimum could then involve
    eigenfunctions the system does not hold.
    """
    if eigsys.model is not model or f.model is not model:
        raise ValueError("model, eigensystem and function must match")
    if not p >= 1:
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
        return _solve_lp(model, u, f.values, c0, float(omega), p)
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


def _solve_lp(model, u, fvals, c0, omega, p):
    # deferred: scipy.optimize is a third of the package import time and
    # only these two solves use it
    from scipy.optimize import linprog

    n, k = u.shape
    w = model.weights
    opts = {"primal_feasibility_tolerance": LP_TOL,
            "dual_feasibility_tolerance": LP_TOL}
    if np.isinf(p):
        # minimize s with -s <= f - Uc <= s
        u_sp = sparse.csr_matrix(u)
        ones = sparse.csr_matrix(np.ones((n, 1)))
        a_ub = sparse.vstack([sparse.hstack([u_sp, -ones]),
                              sparse.hstack([-u_sp, -ones])], format="csr")
        cost = np.zeros(k + 1)
        cost[-1] = 1.0
        b_ub = np.concatenate([fvals, -fvals])
        bounds = [(None, None)] * k + [(0, None)]
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                      method="highs", options=opts)
        _check_status(res)
        c = res.x[:k]
        lower = float(b_ub @ res.ineqlin.marginals)
    else:
        # maximize f^T z with U^T z = 0, -w <= z <= w
        res = linprog(-fvals, A_eq=u.T, b_eq=np.zeros(k),
                      bounds=np.column_stack([-w, w]), method="highs",
                      options=opts)
        _check_status(res)
        c = -res.eqlin.marginals
        lower = float(-res.fun)
    # report the better of the two coefficient vectors held, so a function
    # the span resolves keeps the projection's roundoff-level error
    err = _weighted_norm(w, fvals - u @ c, p)
    err0 = _weighted_norm(w, fvals - u @ c0, p)
    if err0 < err:
        c, err = c0, err0
    scale = max(_weighted_norm(w, fvals, p), 1e-300)
    return ApproxResult(omega=omega, p=float(p), error=err,
                        coefficients=CoefVector(c), solver="lp-highs",
                        iterations=int(res.nit),
                        converged=abs(err - lower) <= LP_TOL * scale,
                        lower_bound=lower)


def _check_status(res):
    if res.status != 0:
        raise RuntimeError(
            f"HiGHS linear program failed (status {res.status}): {res.message}")

