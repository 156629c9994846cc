"""Best L_p approximation from the bandlimited span {lambda_l <= omega}.

The infimum over the bandlimited space is attained on the finite span of the
included eigenfunctions, so each solve is a finite convex problem:

* p = 2: orthogonal projection (the basis is quadrature-orthonormal),
* 1 < p < inf: damped Newton on sum_i w_i |f - Uc|_i^p started at the
  projection. Each step solves the IRLS weighted least squares
  z = H^-1 U^T(w h), with d = max(|r|, IRLS_EPS)^(p-2), H = U^T(w d)U and
  h = sign(r) |r|^(p-1), by LAPACK's pivoted-QR driver gelsy, which is
  rank-revealing like the SVD driver gelsd and cheaper. gelsy is called
  through scipy.linalg.get_lapack_funcs with its workspace sized once per
  solve, not through scipy.linalg.lstsq, whose per-call front end weighs on
  the small systems of the first cutoffs. The solver tries the Newton step
  z / (p - 1) first, halves it until the error drops and then while the
  error keeps dropping, and never takes a step that does not lower it,
* p = 1: the dual linear program of discrete L_1 approximation
  (Barrodale & Roberts 1973), max f^T z subject to U^T z = 0 and
  |z_i| <= w_i: k equality rows and box bounds, no slack variables. The
  coefficients are read off the equality marginals,
* p = inf: the Chebyshev program in the form max t subject to
  -1 <= U y + t f / ||f||_inf <= 1, one two-sided row per node, where
  min s subject to |f - Uc| <= s needs two one-sided rows per node. The
  best error is ||f||_inf / t, at c = -(||f||_inf / t) y.

Both linear programs run HiGHS's dual simplex (Huangfu & Hall 2018), whose
bounded dual handles a two-sided row as one row with a boxed logical, through
the HiGHS binding that scipy vendors (scipy.optimize._highspy), without
presolve, which finds nothing to remove in these dense programs; the
p = inf program prices by Dantzig's rule rather than dual steepest edge.
The binding is called directly because scipy's generic LP front end
(linprog) takes only one-sided inequality rows, so the p = inf program would
need two rows per node, and it validates and converts the dense arrays on
every call, while passModel reads the numpy buffers as they are.

Every gap test of a solve uses one tolerance, tol = max(LP_TOL ||f||_p,
the smallest normal float); the floor keeps it from underflowing for a
subnormal f. For p != 2, a function the span already resolves (projection
error at most tol) gets the projection with lower bound 0 and no solve.

Every solve is certified by Hahn-Banach duality for best approximation from
a subspace (Singer 1970): for any g with U^T(w g) = 0,
|<f, g>_w| / ||g||_{p',w} is a lower bound on the best error, and one
function, ``_dual_bound``, evaluates it for every solver. The projection
takes g = r - U U^T(w r); the Newton solver builds g = h - d (Uz), which
satisfies U^T(w g) = 0 by construction, and keeps the largest bound over its
iterations; the linear programs take g from the HiGHS dual point, the row
duals over w at p = inf and z / w at p = 1. ``_dual_bound`` re-projects g
once to absorb roundoff and evaluates it on the residual of the reported
coefficients. ``error`` is the L_p error of a coefficient vector held in
hand, so it is attained, and the best error lies in [lower_bound, error] up
to roundoff (the two can cross by roundoff when the gap closes). Every
solver is held to one rule, ``converged`` means
|error - lower_bound| <= tol; the Newton solver stops as soon as
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
    best error up to roundoff. ``converged`` means that
    ``|error - lower_bound|`` is at most ``LP_TOL * ||f||_p`` (floored at
    the smallest normal float);
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
    # the gap tolerance of every test; the floor keeps it from underflowing
    # for a subnormal f
    tol = max(LP_TOL * _weighted_norm(w, f.values, p), np.finfo(float).tiny)

    if p == 2:
        solver, c, err, lower, iters = (
            "projection", c0, err0, _dual_bound(u, w, r0, r0, 2.0), 0)
    elif err0 <= tol:
        # the span resolves f to the tolerance of every gap test, so the
        # trivial bound 0 already certifies the projection
        solver, c, err, lower, iters = "projection", c0, err0, 0.0, 0
    elif np.isinf(p) or p == 1:
        solver = "lp-highs"
        c, err, lower, iters = _solve_lp(u, w, f.values, c0, r0, err0, p)
    else:
        solver = "irls"
        c, err, lower, iters = _solve_irls(u, w, f.values, c0, r0, err0, tol, p)
    return ApproxResult(omega=float(omega), p=float(p), error=err,
                        coefficients=CoefVector(c), solver=solver,
                        lower_bound=lower, iterations=iters,
                        converged=abs(err - lower) <= tol)


def _dual_bound(u, w, r, g, p):
    """|<f, g>_w| / ||g||_{p',w} after one re-projection of g onto U^T(w g) = 0.

    A lower bound on the best error for any g orthogonal to the span
    (Hoelder), whatever the sign of g, since -g is orthogonal too; 0 for
    g = 0. It is evaluated as <r, g>_w with r = f - Uc, equal for orthogonal
    g: the roundoff left in U^T(w g) then enters times c - c* rather than
    times the best coefficients c*, and the bound never exceeds ||r||_p, the
    error of c.
    """
    g = g - u @ (u.T @ (w * g))
    conjugate = 1.0 if np.isinf(p) else np.inf if p == 1 else p / (p - 1.0)
    gnorm = _weighted_norm(w, g, conjugate)
    return abs(float(w @ (r * g))) / gnorm if gnorm > 0.0 else 0.0


def _solve_irls(u, w, fvals, c0, r0, err0, tol, p):
    n, k = u.shape
    tiny = np.finfo(float).tiny
    # LAPACK's gelsy called directly, with rcond = eps as in
    # scipy.linalg.lstsq, the workspace sized once per solve and the scaled
    # matrix written in place in the Fortran order LAPACK reads, from a
    # Fortran-order copy of U (a strided write costs more than the copy)
    gelsy, gelsy_lwork = linalg.get_lapack_funcs(("gelsy", "gelsy_lwork"),
                                                 (u,))
    rcond = np.finfo(float).eps
    lwork = int(gelsy_lwork(n, k, 1, rcond)[0])
    u_fortran = np.asfortranarray(u)
    scaled = np.empty_like(u_fortran)
    c, r, err = c0, r0, err0
    lower = 0.0
    for iters in range(1, IRLS_MAX_ITER + 1):
        a = np.abs(r)
        d = np.maximum(a, IRLS_EPS) ** (p - 2.0)
        # s = h / d with h = sign(r) |r|^(p-1), free of 0/0 and overflow
        s = r * np.maximum(a / np.maximum(a, IRLS_EPS), tiny) ** (p - 2.0)
        sq = np.sqrt(w * d)
        np.multiply(u_fortran, sq[:, None], out=scaled)
        _, x, _, _, info = gelsy(scaled, sq * s, np.zeros(k, np.int32), rcond,
                                 lwork, overwrite_a=True, overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gelsy")
        z = x[:k]
        # g = h - d (Uz) has U^T(w g) = U^T(w h) - H z = 0
        lower = max(lower, _dual_bound(u, w, r, d * (s - u @ z), p))
        if err - lower <= tol:
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


def _solve_lp(u, w, fvals, c0, r0, err0, p):
    n, k = u.shape
    if np.isinf(p):
        # maximize t with -1 <= U y + t f / ||f||_inf <= 1, one two-sided
        # row per node: U y + t f / ||f||_inf = (t / ||f||_inf)(f - U c)
        # for c = -(||f||_inf / t) y, so the best error is ||f||_inf / t.
        # t = 1 is feasible with y = 0; the cap 1 / LP_TOL keeps the program
        # bounded should f / ||f||_inf lie in the span although the
        # projection residual of f did not pass the resolved test
        fmax = float(np.abs(fvals).max())
        cost = np.zeros(k + 1)
        cost[-1] = -1.0
        col_hi = np.full(k + 1, np.inf)
        col_hi[-1] = 1.0 / LP_TOL
        col_lo = -col_hi
        col_lo[-1] = 0.0
        ones = np.ones(n)
        x, dual, iters = _highs_solve(cost, np.column_stack([u, fvals / fmax]),
                                      col_lo, col_hi, -ones, ones, True)
        c = -(fmax / x[-1]) * x[:k]
        g = dual / w
    else:
        # maximize f^T z with U^T z = 0, -w <= z <= w; the coefficients are
        # the equality marginals
        zeros = np.zeros(k)
        z, dual, iters = _highs_solve(-fvals, u.T, -w, w, zeros, zeros, False)
        c = -dual
        g = z / w
    r = fvals - u @ c
    err = _weighted_norm(w, r, p)
    # report the better of the two coefficient vectors held, so a function
    # the span resolves keeps the projection's roundoff-level error
    if err0 < err:
        c, r, err = c0, r0, err0
    return c, err, _dual_bound(u, w, r, g, p), iters


def _highs_solve(cost, a, col_lo, col_hi, row_lo, row_hi, dantzig):
    """min cost^T x subject to row_lo <= a x <= row_hi, col_lo <= x <= col_hi.

    One run of HiGHS's dual simplex through the binding scipy vendors, with
    the dense matrix a passed row-wise, no presolve and feasibility
    tolerances LP_TOL; ``dantzig`` prices by Dantzig's rule. Returns the
    primal point, the row duals and the simplex iteration count, and raises
    ``RuntimeError`` for any status but optimal.
    """
    # deferred: scipy.optimize is a third of the package import time and
    # only the linear programs use it
    from scipy.optimize._highspy import _core as highs

    m, ncol = a.shape
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("presolve", "off")
    solver.setOptionValue("primal_feasibility_tolerance", LP_TOL)
    solver.setOptionValue("dual_feasibility_tolerance", LP_TOL)
    if dantzig:
        solver.setOptionValue("simplex_dual_edge_weight_strategy", 0)
    # the array form of passModel takes numpy buffers as they are; the
    # fields of a HighsLp convert element by element
    solver.passModel(
        ncol, m, m * ncol, int(highs.MatrixFormat.kRowwise),
        int(highs.ObjSense.kMinimize), 0.0, cost, col_lo, col_hi, row_lo,
        row_hi, np.arange(0, m * ncol + 1, ncol, dtype=np.int32),
        np.tile(np.arange(ncol, dtype=np.int32), m), np.ravel(a),
        np.zeros(ncol, dtype=np.int32))  # integrality: all continuous
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise RuntimeError(
            f"HiGHS linear program failed (status {int(status)}): "
            f"{solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    return (np.array(solution.col_value), np.array(solution.row_dual),
            solver.getInfo().simplex_iteration_count)
