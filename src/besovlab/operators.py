"""Spectral multipliers, their kernels, and localization/boundedness checks.

A scalar function G acting through the eigensystem gives the operator with
kernel K(x,y) = sum_l G(t^2 lambda_l) u_l(x) u_l(y). This module materializes
such kernels, fits the smallest constant in the off-diagonal decay bound
|K| <= C t^-n (1 + d/t)^-N with N = n + ``DECAY_EXCESS``, measures
Schur-type alpha-norms, and checks the Young inequality and p->p
operator-norm boundedness they imply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import GridFunction, ManifoldModel, lp_norm
from .spectrum import CoefVector, EigenSystem, project, synthesize

DECAY_EXCESS = 2.0  # the decay exponent N exceeds the dimension n by this


@dataclass
class KernelMatrix:
    """Dense kernel of a spectral multiplier at scale t (positive, finite)."""

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
        _check_scale(self.t)


@dataclass
class DecayFit:
    """Smallest C with |K(x,y)| <= C t^-n (1 + d(x,y)/t)^-N on the grid."""

    t: float
    N: float
    C: float
    max_abs_kernel: float


def _check_scale(t: float) -> None:
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, not {t}")


def _multiplier_values(eigsys: EigenSystem, G, t: float) -> np.ndarray:
    _check_scale(t)
    vals = np.asarray(G(t * t * eigsys.eigenvalues), dtype=float)
    if vals.shape != eigsys.eigenvalues.shape or not np.all(np.isfinite(vals)):
        raise ValueError("multiplier must return finite values per eigenvalue")
    return vals


def apply_filter(eigsys: EigenSystem, G, t: float, f: GridFunction) -> GridFunction:
    """Apply the multiplier G(t^2 L): scale eigencoefficients, resynthesize."""
    return _apply_multiplier(eigsys, _multiplier_values(eigsys, G, t), f)


def _apply_multiplier(eigsys: EigenSystem, g, f: GridFunction) -> GridFunction:
    """f's eigencoefficients scaled by the multiplier values g, resynthesized."""
    c = project(eigsys, f)
    return synthesize(eigsys, CoefVector(c.coefficients * g))


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
    a **= alpha
    w = K.model.weights
    row = (a @ w) ** (1.0 / alpha)
    col = (w @ a) ** (1.0 / alpha)
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


def fit_decay_constant(K: KernelMatrix) -> DecayFit:
    """Grid-exact minimal constant in |K| <= C t^-n (1 + d/t)^-N at t = K.t,
    with N = n + ``DECAY_EXCESS``."""
    model, t = K.model, K.t
    decay = _decay_envelope(model, t)
    a = np.abs(K.matrix)
    return DecayFit(t=float(t), N=model.dim + DECAY_EXCESS,
                    C=float((a / (t ** (-model.dim) * decay)).max()),
                    max_abs_kernel=float(a.max()))


def operator_norm_estimate(eigsys: EigenSystem, G, t: float, p: float,
                           trials: int, seed: int) -> float:
    """Randomized lower estimate of ||G(t^2 L)||_{p->p}.

    Max of ||G(t^2 L) f||_p over ``trials`` random unit-L_p test functions.
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
        out = _apply_multiplier(eigsys, g, GridFunction(model, raw / norm))
        best = max(best, lp_norm(model, out, p))
    return best


def weighted_decay_integral(model: ManifoldModel, t: float) -> float:
    """max_x t^-n sum_j w_j (1 + d(x,x_j)/t)^-N, the discrete volume bound,
    with N = n + ``DECAY_EXCESS``."""
    vals = _decay_envelope(model, t) @ model.weights
    return float(vals.max() * t ** (-model.dim))


def _decay_envelope(model: ManifoldModel, t: float) -> np.ndarray:
    """(1 + d(x,y)/t)^-N over all node pairs, N = n + ``DECAY_EXCESS``, for a
    scale t that is positive and finite."""
    _check_scale(t)
    d = model.distance_matrix()
    return (1.0 + d / t) ** (-(model.dim + DECAY_EXCESS))
