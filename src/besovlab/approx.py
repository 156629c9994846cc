"""Best L_p approximation from the bandlimited span {lambda_l <= omega}.

The infimum over the bandlimited space is attained on the finite span of the
included eigenfunctions, so each solve is a finite convex problem:

* p = 2: orthogonal projection (the basis is quadrature-orthonormal),
* 1 < p < inf: damped Newton on sum_i w_i |f - Uc|_i^p started at the
  projection. Each step solves the IRLS weighted least squares
  z = H^-1 U^T(w h), with d = max(|r|, IRLS_EPS)^(p-2), H = U^T(w d)U and
  h = sign(r) |r|^(p-1), by LAPACK's pivoted-QR driver gelsy, which is
  rank-revealing like the SVD driver gelsd and cheaper. It tries the Newton
  step z / (p - 1) first, halves it until the error drops and then while
  the error keeps dropping, and never takes a step that does not lower it,
* p = 1: the dual linear program of discrete L_1 approximation
  (Barrodale & Roberts 1973), max f^T z subject to U^T z = 0 and
  |z_i| <= w_i: k equality rows and box bounds, no slack variables. The
  coefficients are read off the equality marginals,
* p = inf: the primal linear program min s subject to |f - Uc| <= s.

Both linear programs run HiGHS's dual simplex (Huangfu & Hall 2018) without
presolve, which finds nothing to remove in these dense programs, and the
p = inf program prices by Dantzig's rule rather than dual steepest edge. On
the 1024-node circle sweep of the benchmark (12 solves per p, a 2-core
Xeon, BLAS at one thread) this cut the p = 1 solves from 0.43 to 0.26 s and
the p = inf solves from 1.13 to 0.70 s, with errors that agree to 1e-13
relative, and gelsy the Newton solves from 0.36 to 0.30 s in the same
iterations. For p != 2, a function the span already resolves (projection
error at most LP_TOL ||f||_p) gets the projection with lower bound 0 and no
solve.

Every solve is certified by Hahn-Banach duality for best approximation from
a subspace (Singer 1970): for any g with U^T(w g) = 0,
<f, g>_w / ||g||_{p',w} is a lower bound on the best error. The projection
takes g = r - U U^T(w r); the Newton solver builds g = h - d (Uz), which
satisfies U^T(w g) = 0 by construction, re-projects it once to absorb
roundoff and keeps the largest bound over its iterations; the linear
programs use the HiGHS dual objective. ``error`` is the L_p error of a
coefficient vector held in hand, so it is attained, and the best error lies
in [lower_bound, error] up to roundoff (the two can cross by roundoff when
the gap closes). Every solver is held to one rule, ``converged`` means
|error - lower_bound| <= LP_TOL ||f||_p; the Newton solver stops as soon as
that holds, when no step lowers the error, or after IRLS_MAX_ITER
iterations. A failed HiGHS solve raises ``RuntimeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .manifold import GridFunction, ManifoldModel, _weighted_norm
from .spectrum import CoefVector, EigenSystem

IRLS_EPS = 1e-14
IRLS_MAX_ITER = 500
LP_TOL = 1e-9


@dataclass
class ApproxResult:
    """Outcome of one best-approximation solve: the interval
    [lower_bound, error] that holds the best error.

    ``error`` is the L_p error of ``coefficients``; ``lower_bound`` is the
    dual bound of the solver (see the module docstring), a lower bound on the
    best error up to roundoff and, for the linear programs, the solver's
    feasibility tolerance. ``converged`` means that
    ``|error - lower_bound|`` is at most ``LP_TOL * ||f||_p``;
    ``iterations`` counts Newton iterations or HiGHS iterations, and is 0
    for the projection.
    """

    omega: float
    p: float
    error: float
    coefficients: CoefVector
    solver: str
    lower_bound: float
    iterations: int
    converged: bool


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
    if not omega <= eigsys.band_limit:
        raise ValueError(
            f"omega {omega} exceeds the computed band {eigsys.band_limit} or is "
            "not a number; the infimum cannot be certified")
    k = eigsys.cutoff_index(omega)
    u = eigsys.eigenfunctions[:, :k]
    w = model.weights
    c0 = u.T @ (w * f.values)
    r0 = f.values - u @ c0
    err0 = _weighted_norm(w, r0, p)
    scale = _weighted_norm(w, f.values, p)  # the yardstick of every gap test

    if p == 2:
        solver, c, err, lower, iters = (
            "projection", c0, err0, _dual_bound(u, w, r0, r0, 2.0), 0)
    elif err0 <= LP_TOL * scale:
        # the span resolves f to the tolerance of every gap test, so the
        # trivial bound 0 already certifies the projection
        solver, c, err, lower, iters = "projection", c0, err0, 0.0, 0
    elif np.isinf(p) or p == 1:
        solver = "lp-highs"
        c, err, lower, iters = _solve_lp(u, w, f.values, c0, err0, p)
    else:
        solver = "irls"
        c, err, lower, iters = _solve_irls(u, w, f.values, c0, r0, err0,
                                           scale, p)
    return ApproxResult(omega=float(omega), p=float(p), error=err,
                        coefficients=CoefVector(c), solver=solver,
                        lower_bound=lower, iterations=iters,
                        converged=abs(err - lower) <= LP_TOL * scale)


def _dual_bound(u, w, r, g, p):
    """<f, g>_w / ||g||_{p',w} after one re-projection of g onto U^T(w g) = 0.

    A lower bound on the best error for any g orthogonal to the span
    (Hoelder); 0 for g = 0. It is evaluated as <r, g>_w with r = f - Uc, equal
    for orthogonal g: the roundoff left in U^T(w g) then enters times c - c*
    rather than times the best coefficients c*, and the bound never exceeds
    ||r||_p, the error of c.
    """
    g = g - u @ (u.T @ (w * g))
    gnorm = _weighted_norm(w, g, p / (p - 1.0))
    return float(w @ (r * g)) / gnorm if gnorm > 0.0 else 0.0


def _solve_irls(u, w, fvals, c0, r0, err0, scale, p):
    tiny = np.finfo(float).tiny
    c, r, err = c0, r0, err0
    lower = 0.0
    for iters in range(1, IRLS_MAX_ITER + 1):
        a = np.abs(r)
        d = np.maximum(a, IRLS_EPS) ** (p - 2.0)
        # s = h / d with h = sign(r) |r|^(p-1), free of 0/0 and overflow
        s = r * np.maximum(a / np.maximum(a, IRLS_EPS), tiny) ** (p - 2.0)
        sq = np.sqrt(w * d)
        z, *_ = linalg.lstsq(u * sq[:, None], sq * s, lapack_driver="gelsy",
                             check_finite=False)
        # g = h - d (Uz) has U^T(w g) = U^T(w h) - H z = 0
        lower = max(lower, _dual_bound(u, w, r, d * (s - u @ z), p))
        if err - lower <= LP_TOL * scale:
            break
        # the Newton step first, halved until the error drops and then
        # while it keeps dropping
        step, trial = 1.0 / (p - 1.0), None
        for _ in range(60):
            c_try = c + step * z
            r_try = fvals - u @ c_try
            err_try = _weighted_norm(w, r_try, p)
            if err_try < (trial[2] if trial else err):
                trial = (c_try, r_try, err_try)
            elif trial:
                break
            step *= 0.5
        if trial is None:
            break  # no step lowers the error: keep c and report the interval
        c, r, err = trial
    return c, err, lower, iters


def _solve_lp(u, w, fvals, c0, err0, p):
    # deferred: scipy.optimize is a third of the package import time and
    # only these two solves use it
    from scipy.optimize import linprog

    n, k = u.shape
    opts = {"presolve": False, "primal_feasibility_tolerance": LP_TOL,
            "dual_feasibility_tolerance": LP_TOL}
    if np.isinf(p):
        opts["simplex_dual_edge_weight_strategy"] = "dantzig"
        # minimize s with -s <= f - Uc <= s
        ones = np.ones((n, 1))
        a_ub = np.block([[u, -ones], [-u, -ones]])
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
    if err0 < err:
        c, err = c0, err0
    return c, err, lower, int(res.nit)


def _check_status(res):
    if res.status != 0:
        raise RuntimeError(
            f"HiGHS linear program failed (status {res.status}): {res.message}")

