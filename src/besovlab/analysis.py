"""Besov-type norms and inequality verifiers built on best approximation.

The dyadic approximation norm ("a-norm")

    ||f||_p + ( sum_{j=0..J} (2^(alpha j) E(f, 4^j, p))^q )^(1/q)

is the central object. Alongside it: a continuous-in-t version integrated
exactly against the step structure of E(f, t, p), the spectral Sobolev
surrogate ||f||_p + ||L^(k/2) f||_p, an independent Littlewood-Paley
comparator norm built from the dyadic filter bank, Jackson and Bernstein
ratio checks, and a quadratic-mean K-functional for the pair (L_2, W^k_2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .approx import ApproxResult, best_approx
from .filters import make_filter_family
from .manifold import GridFunction, lp_norm
from .spectrum import EigenSystem, apply_power, project, synthesize

BAND_TOL = 1e-8  # relative tolerance of every bandlimited test


@dataclass
class BesovParams:
    """Smoothness alpha > 0, integrability p, summability q, truncation J."""

    alpha: float
    p: float
    q: float
    J: int

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not self.p >= 1:
            raise ValueError("p must satisfy 1 <= p <= inf")
        if not self.q > 0:
            raise ValueError("q must satisfy 0 < q <= inf")
        if self.J < 1:
            raise ValueError("J must be at least 1")


@dataclass
class NormReport:
    """A-norm evaluation: the total, its L_p part and its dyadic terms."""

    a_norm: float
    lp_part: float
    dyadic_tail_terms: list
    tail_residual: float


def _q_sum(terms: np.ndarray, q: float) -> float:
    terms = np.asarray(terms, dtype=float)
    if len(terms) == 0:
        return 0.0
    if np.isinf(q):
        return float(terms.max())
    m = terms.max()
    if m == 0.0:
        return 0.0
    return float(m * ((terms / m) ** q).sum() ** (1.0 / q))


def a_norm(eigsys: EigenSystem, f: GridFunction, params: BesovParams,
           cache: ErrorCache | None = None) -> NormReport:
    """Dyadic approximation norm truncated at level J.

    E(f, 4^j, p) (j = 0..J) comes from ``errors_at_cutoffs`` through
    ``cache``. Terms beyond J are not silently dropped: a geometric
    extrapolation from the last observed decay is reported as
    ``tail_residual``.
    """
    if 4.0 ** params.J > eigsys.band_limit:
        raise ValueError("4^J exceeds the computed band limit")
    model = eigsys.model
    errors = [r.error for r in errors_at_cutoffs(
        eigsys, f, params.p, [4.0 ** j for j in range(params.J + 1)], cache)]
    lp_part = lp_norm(model, f, params.p)
    terms = [2.0 ** (params.alpha * j) * errors[j] for j in range(params.J + 1)]
    total = lp_part + _q_sum(np.array(terms), params.q)
    return NormReport(a_norm=total, lp_part=lp_part, dyadic_tail_terms=terms,
                      tail_residual=_tail_residual(errors, params))


def _tail_residual(errors, params):
    e_last = errors[-1]
    if e_last == 0.0:
        return 0.0
    ratio = errors[-1] / errors[-2] if len(errors) > 1 and errors[-2] > 0 else 1.0
    r = 2.0 ** params.alpha * min(ratio, 1.0)
    head = 2.0 ** (params.alpha * params.J) * e_last
    if r >= 1.0:
        return float("inf")
    if np.isinf(params.q):
        return head * r
    return head * r / (1.0 - r ** params.q) ** (1.0 / params.q)


class ErrorCache:
    """Memo for the (f, p) sequences behind the Besov-type norms.

    Keys on a function's model object (models compare by identity), a
    digest of its sample values, p and ``at``: a cutoff omega for a
    best-approximation result, or a ``FilterFamily`` for the tuple of
    Littlewood-Paley block norms (a family never equals a number). A function
    rebuilt with the same samples hits the entries of the first copy, and no
    function is referenced; the models of the stored entries are.
    """

    def __init__(self):
        self._vals: dict = {}

    @staticmethod
    def _key(f, p, at):
        vals = f.values
        digest = hashlib.sha256(vals.dtype.str.encode() + vals.tobytes()).digest()
        return f.model, digest, float(p), at

    def lookup(self, f, p, at):
        return self._vals.get(self._key(f, p, at))

    def store(self, f, p, at, value):
        self._vals[self._key(f, p, at)] = value


def errors_at_cutoffs(eigsys: EigenSystem, f: GridFunction, p: float,
                      cutoffs, cache: ErrorCache | None = None) -> list[ApproxResult]:
    """The best-approximation result for E(f, omega, p) at each cutoff.

    Each (f, p, omega) is solved once per ``cache``; without one, once per
    call. A cutoff beyond the computed band raises ``ValueError``.
    """
    cache = ErrorCache() if cache is None else cache
    out = []
    for omega in cutoffs:
        res = cache.lookup(f, p, omega)
        if res is None:
            res = best_approx(eigsys.model, eigsys, f, omega, p)
            cache.store(f, p, omega, res)
        out.append(res)
    return out


def a_norm_continuous(eigsys: EigenSystem, f: GridFunction, alpha: float,
                      p: float, q: float, t_grid,
                      cache: ErrorCache | None = None) -> float:
    """Continuous-parameter approximation norm over the cutoff range of t_grid.

    E(f, t, p) is a right-continuous step function of the cutoff t, constant
    between consecutive eigenvalues, so the integral
    int (t^(alpha/2) E(f,t,p))^q dt/t is evaluated exactly on each step
    segment (cutoff-variable scaling: t is an eigenvalue bound, and the
    dyadic norm samples it at t = 2^(2j)). Refining t_grid beyond the
    eigenvalue resolution therefore changes nothing; only its endpoints
    matter.
    """
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    if not q > 0:
        raise ValueError("q must satisfy 0 < q <= inf")
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid) & (t_grid > 0)):
        raise ValueError("t_grid must be positive and finite")
    t_lo, t_hi = float(t_grid.min()), float(t_grid.max())
    if t_hi > eigsys.band_limit:
        raise ValueError("t_grid exceeds the computed band limit")
    model = eigsys.model
    lam = eigsys.eigenvalues
    breaks = np.unique(np.concatenate([[t_lo, t_hi],
                                       lam[(lam > t_lo) & (lam < t_hi)]]))
    evals = [r.error for r in errors_at_cutoffs(eigsys, f, p, breaks[:-1], cache)]
    expo = alpha / 2.0
    if np.isinf(q):
        sup = 0.0
        for (a, b), e in zip(zip(breaks[:-1], breaks[1:]), evals):
            sup = max(sup, b ** expo * e)
        return lp_norm(model, f, p) + sup
    total = 0.0
    for (a, b), e in zip(zip(breaks[:-1], breaks[1:]), evals):
        if e > 0.0:
            total += e ** q * (b ** (expo * q) - a ** (expo * q)) / (expo * q)
    return lp_norm(model, f, p) + total ** (1.0 / q)


def _bandlimited_coefficients(eigsys, f):
    """f's eigencoefficients, or None if they miss f by more than relative BAND_TOL."""
    c = project(eigsys, f)
    resid = f.values - synthesize(eigsys, c).values
    scale = max(float(np.abs(f.values).max()), 1e-300)
    return c if float(np.abs(resid).max()) <= BAND_TOL * scale else None


def is_bandlimited(eigsys: EigenSystem, f: GridFunction) -> bool:
    """Whether f is reproduced by its eigenexpansion to relative ``BAND_TOL``
    (max-norm residual against max |f|)."""
    return _bandlimited_coefficients(eigsys, f) is not None


def _require_bandlimited(eigsys, f):
    c = _bandlimited_coefficients(eigsys, f)
    if c is None:
        raise ValueError("function is not bandlimited in this eigensystem")
    return c


def sobolev_norm(eigsys: EigenSystem, f: GridFunction, k: int, p: float) -> float:
    """Spectral Sobolev surrogate ||f||_p + ||L^(k/2) f||_p (f bandlimited)."""
    c = _require_bandlimited(eigsys, f)
    rough = synthesize(eigsys, apply_power(eigsys, c, k / 2.0))
    model = eigsys.model
    return lp_norm(model, f, p) + lp_norm(model, rough, p)


def lp_comparator_norm(eigsys: EigenSystem, f: GridFunction,
                       params: BesovParams,
                       cache: ErrorCache | None = None) -> float:
    """Littlewood-Paley comparator: ||F_0(L)f||_p + l_q sum of scaled blocks.

    The filter bank is ``make_filter_family()`` applied at unit scale, so
    block j covers eigenvalues in [4^(j-1), 16*4^(j-1)]; blocks beyond the
    band limit vanish identically and the sum is finite without truncation
    error. The block norms depend only on (f, p): each is computed once per
    ``cache``, and (alpha, q) only re-weight them.
    """
    family = make_filter_family()
    cache = ErrorCache() if cache is None else cache
    blocks = cache.lookup(f, params.p, family)
    if blocks is None:
        model, lam, u = eigsys.model, eigsys.eigenvalues, eigsys.eigenfunctions
        c = project(eigsys, f).coefficients
        j_max = 1
        while 4.0 ** (j_max - 1) <= eigsys.band_limit:
            j_max += 1
        blocks = tuple(lp_norm(model, GridFunction(model, u @ (c * family.f_j(j, lam))),
                               params.p) for j in range(j_max))
        cache.store(f, params.p, family, blocks)
    terms = [2.0 ** (params.alpha * j) * blocks[j] for j in range(1, len(blocks))]
    return blocks[0] + _q_sum(np.array(terms), params.q)


def jackson_ratios(eigsys: EigenSystem, f: GridFunction, k: int, p: float,
                   J: int, cache: ErrorCache | None = None) -> list[float]:
    """Normalized Jackson ratios 2^(jk) E(f, 4^j, p) / ||L^(k/2) f||_p.

    Uses the cutoff-exponent normalization omega^(k/2) with omega = 2^(2j);
    for smooth f the sequence should stay bounded with no growth trend.
    """
    model = eigsys.model
    c = _require_bandlimited(eigsys, f)
    rough = synthesize(eigsys, apply_power(eigsys, c, k / 2.0))
    denom = lp_norm(model, rough, p)
    errors = [r.error for r in errors_at_cutoffs(
        eigsys, f, p, [4.0 ** j for j in range(J + 1)], cache)]
    floor = 1e-12 * max(lp_norm(model, f, p), 1e-300)
    if denom <= floor:
        # essentially constant f: errors must vanish too (up to roundoff)
        if max(errors) > floor:
            raise ValueError("zero smoothness norm with nonzero errors")
        return [0.0] * (J + 1)
    return [2.0 ** (j * k) * errors[j] / denom for j in range(J + 1)]


def bernstein_ratio(eigsys: EigenSystem, f_band: GridFunction, k: int,
                    p: float, omega: float) -> float:
    """||L^k f||_p / (omega^k ||f||_p) for f in the span {lambda <= omega}.

    At p = 2 the ratio is exactly bounded by 1. Rejects f unless it is
    bandlimited and its coefficients above the cutoff are within relative
    ``BAND_TOL`` of 0.
    """
    c = _require_bandlimited(eigsys, f_band)
    idx = eigsys.cutoff_index(omega)
    high = c.coefficients[idx:]
    scale = max(float(np.abs(c.coefficients).max()), 1e-300)
    if len(high) and float(np.abs(high).max()) > BAND_TOL * scale:
        raise ValueError("function has components above the cutoff omega")
    model = eigsys.model
    rough = synthesize(eigsys, apply_power(eigsys, c, float(k)))
    denom = omega ** k * lp_norm(model, f_band, p)
    if denom == 0.0:
        return 0.0
    return lp_norm(model, rough, p) / denom


def k_functional_quadratic(eigsys: EigenSystem, f: GridFunction, t: float,
                           k: int) -> float:
    """Quadratic-mean K-functional for (L_2, Sobolev-k) at parameter t.

    Per-coefficient minimization of ||f - g||^2 + t^2 ||g||_W^2 with
    ||g||_W = ||g|| + ||L^(k/2) g|| gives the closed form

        K_2(f, t)^2 = sum_l c_l^2 * t^2 mu_l / (1 + t^2 mu_l),
        mu_l = (1 + lambda_l^(k/2))^2,

    equivalent to the usual K-functional within absolute constants.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    c = _require_bandlimited(eigsys, f).coefficients
    return _k_quadratic(c, eigsys.eigenvalues, t, k)


def _k_quadratic(c: np.ndarray, lam: np.ndarray, t: float, k: int) -> float:
    mu = (1.0 + lam ** (k / 2.0)) ** 2
    t2mu = t * t * mu
    return float(np.sqrt(np.sum(c * c * t2mu / (1.0 + t2mu))))


def interpolation_norm(eigsys: EigenSystem, f: GridFunction, theta: float,
                       q: float, k: int, t_grid) -> float:
    """||f||_2 plus the truncated interpolation quasi-norm from K_2.

    Log-grid quadrature of (t^-theta K_2(f,t))^q dt/t over the given grid
    (trapezoid in log t); sup over the grid for q = inf.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if not q > 0:
        raise ValueError("q must satisfy 0 < q <= inf")
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid) & (t_grid > 0)):
        raise ValueError("t_grid must be positive and finite")
    t_grid = np.sort(t_grid)
    c = _require_bandlimited(eigsys, f).coefficients
    kvals = np.array([_k_quadratic(c, eigsys.eigenvalues, t, k) for t in t_grid])
    weighted = t_grid ** (-theta) * kvals
    base = lp_norm(eigsys.model, f, 2)
    if np.isinf(q):
        return base + float(weighted.max())
    integral = np.trapezoid(weighted ** q, np.log(t_grid))
    return base + float(integral ** (1.0 / q))
