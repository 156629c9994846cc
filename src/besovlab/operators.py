"""Spectral multipliers, their kernels, and localization/boundedness checks.

A scalar function G acting through the eigensystem gives the operator with
kernel K(x,y) = sum_l G(t^2 lambda_l) u_l(x) u_l(y). This module materializes
such kernels, fits the smallest constant in the off-diagonal decay bound
|K| <= C t^-n (1 + d/t)^-N, measures Schur-type alpha-norms, and checks the
Young inequality and p->q operator-norm boundedness they imply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import GridFunction, ManifoldModel, lp_norm
from .spectrum import CoefVector, EigenSystem, project, synthesize


@dataclass
class KernelMatrix:
    """Dense kernel of a spectral multiplier at scale t."""

    model: ManifoldModel
    matrix: np.ndarray
    t: float

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = self.model.n_nodes
        if self.matrix.shape != (n, n):
            raise ValueError("kernel must be n_nodes x n_nodes")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("kernel has non-finite entries")


@dataclass
class DecayFit:
    """Smallest C with |K(x,y)| <= C t^-n (1 + d(x,y)/t)^-N on the grid."""

    t: float
    N: float
    C: float
    max_abs_kernel: float


def _multiplier_values(eigsys: EigenSystem, G, t: float) -> np.ndarray:
    if t <= 0:
        raise ValueError("t must be positive")
    vals = np.asarray(G(t * t * eigsys.eigenvalues), dtype=float)
    if vals.shape != eigsys.eigenvalues.shape or not np.all(np.isfinite(vals)):
        raise ValueError("multiplier must return finite values per eigenvalue")
    return vals


def apply_filter(eigsys: EigenSystem, G, t: float, f: GridFunction) -> GridFunction:
    """Apply the multiplier G(t^2 L): scale eigencoefficients, resynthesize."""
    c = project(eigsys, f)
    scaled = c.coefficients * _multiplier_values(eigsys, G, t)
    return synthesize(eigsys, CoefVector(scaled))


def build_kernel(eigsys: EigenSystem, G, t: float) -> KernelMatrix:
    """Materialize K = U diag(G(t^2 lambda)) U^T."""
    g = _multiplier_values(eigsys, G, t)
    u = eigsys.eigenfunctions
    k = (u * g[None, :]) @ u.T
    return KernelMatrix(eigsys.model, k, float(t))


def apply_kernel(K: KernelMatrix, f: GridFunction) -> GridFunction:
    """Quadrature action (Kf)(x_i) = sum_j w_j K(x_i, x_j) f(x_j)."""
    model = K.model
    if f.model is not model:
        raise ValueError("kernel and function must share a model")
    return GridFunction(model, K.matrix @ (model.weights * f.values))


def kernel_alpha_norms(K: KernelMatrix, alpha: float):
    """Max over rows / over columns of the quadrature alpha-norm of the kernel.

    Returns (max_x ||K(x,.)||_alpha, max_y ||K(.,y)||_alpha).
    """
    if alpha < 1:
        raise ValueError("alpha must satisfy 1 <= alpha <= inf")
    a = np.abs(K.matrix)
    if np.isinf(alpha):
        return float(a.max(axis=1).max()), float(a.max(axis=0).max())
    w = K.model.weights
    row = (a ** alpha @ w) ** (1.0 / alpha)
    col = (w @ a ** alpha) ** (1.0 / alpha)
    return float(row.max()), float(col.max())


def _inv(p: float) -> float:
    return 0.0 if np.isinf(p) else 1.0 / p


def young_apply_check(K: KernelMatrix, f: GridFunction, p: float, q: float,
                      alpha: float):
    """Check ||Kf||_q <= C ||f||_p with C the larger kernel alpha-norm.

    Requires the Young exponent relation 1/q + 1 = 1/p + 1/alpha. Returns
    (lhs, rhs); the inequality lhs <= rhs holds up to roundoff.
    """
    if abs(_inv(q) + 1.0 - _inv(p) - _inv(alpha)) > 1e-12:
        raise ValueError("exponents must satisfy 1/q + 1 = 1/p + 1/alpha")
    row, col = kernel_alpha_norms(K, alpha)
    lhs = lp_norm(K.model, apply_kernel(K, f), q)
    rhs = max(row, col) * lp_norm(K.model, f, p)
    return lhs, rhs


def fit_decay_constant(K: KernelMatrix, N: float) -> DecayFit:
    """Grid-exact minimal constant in |K| <= C t^-n (1 + d/t)^-N at t = K.t.

    N must exceed the manifold dimension for the bound to carry its usual
    meaning; the fit itself works for any N.
    """
    model, t = K.model, K.t
    if N <= model.dim:
        raise ValueError("decay exponent N must exceed the dimension")
    d = model.distance_matrix()
    envelope = t ** (-model.dim) * (1.0 + d / t) ** (-float(N))
    a = np.abs(K.matrix)
    return DecayFit(t=float(t), N=float(N), C=float((a / envelope).max()),
                    max_abs_kernel=float(a.max()))


def operator_norm_estimate(eigsys: EigenSystem, G, t: float, p: float, q: float,
                           trials: int, seed: int) -> float:
    """Randomized lower estimate of ||G(t^2 L)||_{p->q}.

    Max of ||G(t^2 L) f||_q over ``trials`` random unit-L_p test functions.
    Trials cycle through four candidate families (white node noise, random
    coefficients weighted by the multiplier, a point mass at a random node,
    and the sign pattern of a random kernel row); every family yields a valid
    lower bound, and together they track the norm stably across scales.
    Deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    model = eigsys.model
    u = eigsys.eigenfunctions
    g = _multiplier_values(eigsys, G, t)
    n = model.n_nodes
    best = 0.0
    for trial in range(trials):
        family = trial % 4
        if family == 0:
            raw = rng.standard_normal(n)
        elif family == 1:
            raw = u @ (np.abs(g) * rng.standard_normal(len(g)))
        elif family == 2:
            raw = np.zeros(n)
            raw[rng.integers(n)] = 1.0
        else:
            row = u @ (g * u[rng.integers(n), :])
            raw = np.sign(row)
        f = GridFunction(model, raw)
        norm = lp_norm(model, f, p)
        if norm == 0.0:
            continue
        out = apply_filter(eigsys, G, t, GridFunction(model, raw / norm))
        best = max(best, lp_norm(model, out, q))
    return best


def weighted_decay_integral(model: ManifoldModel, t: float, N: float) -> float:
    """max_x t^-n sum_j w_j (1 + d(x,x_j)/t)^-N, the discrete volume bound."""
    d = model.distance_matrix()
    vals = ((1.0 + d / t) ** (-float(N))) @ model.weights
    return float(vals.max() * t ** (-model.dim))
