"""Besov-type norms and inequality verifiers built on best approximation.

The dyadic approximation norm ("a-norm")

    ||f||_p + ( sum_{j=0..J} (2^(alpha j) E(f, 4^j, p))^q )^(1/q)

is the central object. Alongside it: a continuous-in-t version integrated
exactly against the step structure of E(f, t, p), an independent
Littlewood-Paley comparator norm built from the dyadic filter bank, Jackson
and Bernstein ratio checks, and a quadratic-mean K-functional for the pair
(L_2, W^k_2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .approx import ApproxResult, best_approx
from .filters import f_j
from .manifold import GridFunction, lp_norm
from .spectrum import CoefVector, EigenSystem, apply_power, project, synthesize

BAND_TOL = 1e-8  # relative tolerance of every bandlimited test
BAND_CHECK = "band-check"  # ``at`` of the per-function band-check entries
LP_BLOCKS = "lp-blocks"    # ``at`` of the Littlewood-Paley block entries
K_T_GRID = np.geomspace(1e-4, 1.0, 120)  # the t-grid of ``interpolation_norm``


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
           cache: ErrorCache | None = None) -> float:
    """Dyadic approximation norm truncated at level J.

    The sum runs over j = 0..J and stops there; E(f, 4^j, p) comes from
    ``errors_at_cutoffs`` through ``cache``.
    """
    if 4.0 ** params.J > eigsys.band_limit:
        raise ValueError("4^J exceeds the computed band limit")
    errors = [r.error for r in errors_at_cutoffs(
        eigsys, f, params.p, [4.0 ** j for j in range(params.J + 1)], cache)]
    terms = [2.0 ** (params.alpha * j) * errors[j] for j in range(params.J + 1)]
    return lp_norm(eigsys.model, f, params.p) + _q_sum(np.array(terms), params.q)


class ErrorCache:
    """Memo for the per-function quantities behind the Besov-type norms.

    Keys on the eigensystem the quantity was computed in and the function's
    model (both compare by identity), a digest of its sample values, p and
    ``at``. There are three kinds of entry:

    - a cutoff entry, ``at`` a cutoff omega: the best-approximation result
      for E(f, omega, p);
    - a filter-bank entry, ``at`` = ``LP_BLOCKS``: the tuple of
      Littlewood-Paley block norms ||F_j(L)f||_p;
    - a per-function entry, p = ``None``: under ``BAND_CHECK`` the band check
      of f (its eigencoefficients and whether they reproduce f), under
      ``LP_BLOCKS`` the tuple of block functions F_j(L)f that every p reads.

    A string ``at`` never equals a cutoff, and p = ``None`` never equals a
    float p, so the kinds cannot answer for one another; nor can two
    eigensystems of one model, whose band checks and blocks differ. A
    function rebuilt with the same samples hits the entries of the first
    copy, and no function is referenced; the eigensystems and models of the
    stored entries are.
    """

    def __init__(self):
        self._vals: dict = {}

    @staticmethod
    def _key(eigsys, f, p, at):
        vals = f.values
        digest = hashlib.sha256(vals.dtype.str.encode() + vals.tobytes()).digest()
        return eigsys, f.model, digest, None if p is None else float(p), at

    def lookup(self, eigsys, f, p, at):
        return self._vals.get(self._key(eigsys, f, p, at))

    def store(self, eigsys, f, p, at, value):
        self._vals[self._key(eigsys, f, p, at)] = value


def errors_at_cutoffs(eigsys: EigenSystem, f: GridFunction, p: float,
                      cutoffs, cache: ErrorCache | None = None) -> list[ApproxResult]:
    """The best-approximation result for E(f, omega, p) at each cutoff.

    Each (f, p, omega) is solved once per ``cache``; without one, once per
    call. A cutoff beyond the computed band raises ``ValueError``.
    """
    cache = ErrorCache() if cache is None else cache
    out = []
    for omega in cutoffs:
        res = cache.lookup(eigsys, f, p, omega)
        if res is None:
            res = best_approx(eigsys.model, eigsys, f, omega, p)
            cache.store(eigsys, f, p, omega, res)
        out.append(res)
    return out


def a_norm_continuous(eigsys: EigenSystem, f: GridFunction, params: BesovParams,
                      cache: ErrorCache | None = None) -> float:
    """Continuous-parameter approximation norm over the cutoffs t in [1, 4^J].

    E(f, t, p) is a right-continuous step function of the cutoff t, constant
    between consecutive eigenvalues, so the integral
    int (t^(alpha/2) E(f,t,p))^q dt/t is evaluated exactly on each step
    segment (cutoff-variable scaling: t is an eigenvalue bound, and the
    dyadic norm samples it at t = 2^(2j), the endpoints of this range).
    """
    t_lo, t_hi = 1.0, 4.0 ** params.J
    if t_hi > eigsys.band_limit:
        raise ValueError("4^J exceeds the computed band limit")
    model = eigsys.model
    lam = eigsys.eigenvalues
    p, q = params.p, params.q
    breaks = np.unique(np.concatenate([[t_lo, t_hi],
                                       lam[(lam > t_lo) & (lam < t_hi)]]))
    evals = [r.error for r in errors_at_cutoffs(eigsys, f, p, breaks[:-1], cache)]
    expo = params.alpha / 2.0
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


def _band_check(eigsys, f, cache):
    """(c, ok): f's eigencoefficients, and whether they reproduce f to
    relative ``BAND_TOL`` (max-norm residual against max |f|); computed once
    per ``cache``."""
    cache = ErrorCache() if cache is None else cache
    check = cache.lookup(eigsys, f, None, BAND_CHECK)
    if check is None:
        c = project(eigsys, f)
        resid = f.values - synthesize(eigsys, c).values
        scale = max(float(np.abs(f.values).max()), 1e-300)
        check = c, float(np.abs(resid).max()) <= BAND_TOL * scale
        cache.store(eigsys, f, None, BAND_CHECK, check)
    return check


def bandlimited_coefficients(eigsys: EigenSystem, f: GridFunction,
                             cache: ErrorCache | None = None) -> CoefVector | None:
    """f's eigencoefficients, or None if they miss f by more than relative
    ``BAND_TOL``. The check runs once per function per ``cache``."""
    c, ok = _band_check(eigsys, f, cache)
    return c if ok else None


def is_bandlimited(eigsys: EigenSystem, f: GridFunction,
                   cache: ErrorCache | None = None) -> bool:
    """Whether f is reproduced by its eigenexpansion to relative ``BAND_TOL``
    (max-norm residual against max |f|), checked once per ``cache``."""
    return bandlimited_coefficients(eigsys, f, cache) is not None


def _require_bandlimited(eigsys, f, cache=None):
    c = bandlimited_coefficients(eigsys, f, cache)
    if c is None:
        raise ValueError("function is not bandlimited in this eigensystem")
    return c


def lp_comparator_norm(eigsys: EigenSystem, f: GridFunction,
                       params: BesovParams,
                       cache: ErrorCache | None = None) -> float:
    """Littlewood-Paley comparator: ||F_0(L)f||_p + l_q sum of scaled blocks.

    The filter bank F_j of ``filters`` is applied at unit scale, so
    block j covers eigenvalues in [4^(j-1), 16*4^(j-1)]; blocks beyond the
    band limit vanish identically and the sum is finite without truncation
    error. Per ``cache``, the block functions F_j(L)f are synthesized once
    per function from the band check's coefficients, their norms are taken
    once per (f, p), and (alpha, q) only re-weight them.
    """
    cache = ErrorCache() if cache is None else cache
    model = eigsys.model
    norms = cache.lookup(eigsys, f, params.p, LP_BLOCKS)
    if norms is None:
        blocks = cache.lookup(eigsys, f, None, LP_BLOCKS)
        if blocks is None:
            lam, u = eigsys.eigenvalues, eigsys.eigenfunctions
            c = _band_check(eigsys, f, cache)[0].coefficients
            j_max = 1
            while 4.0 ** (j_max - 1) <= eigsys.band_limit:
                j_max += 1
            blocks = tuple(GridFunction(model, u @ (c * f_j(j, lam)))
                           for j in range(j_max))
            cache.store(eigsys, f, None, LP_BLOCKS, blocks)
        norms = tuple(lp_norm(model, g, params.p) for g in blocks)
        cache.store(eigsys, f, params.p, LP_BLOCKS, norms)
    terms = [2.0 ** (params.alpha * j) * norms[j] for j in range(1, len(norms))]
    return norms[0] + _q_sum(np.array(terms), params.q)


def jackson_ratios(eigsys: EigenSystem, f: GridFunction, k: int, p: float,
                   J: int, cache: ErrorCache | None = None) -> list[float]:
    """Normalized Jackson ratios 2^(jk) E(f, 4^j, p) / ||L^(k/2) f||_p.

    Uses the cutoff-exponent normalization omega^(k/2) with omega = 2^(2j);
    for smooth f the sequence should stay bounded with no growth trend.
    ``cache`` holds the band check of f and the solves, as for the norms.
    """
    model = eigsys.model
    c = _require_bandlimited(eigsys, f, cache)
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
                    p: float, omega: float,
                    cache: ErrorCache | None = None) -> float:
    """||L^k f||_p / (omega^k ||f||_p) for f in the span {lambda <= omega}.

    At p = 2 the ratio is exactly bounded by 1. Rejects f unless it is
    bandlimited and its coefficients above the cutoff are within relative
    ``BAND_TOL`` of 0. The band check of f is read through ``cache``.
    """
    c = _require_bandlimited(eigsys, f_band, cache)
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
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    c = _require_bandlimited(eigsys, f).coefficients
    return float(_k_quadratic(c, eigsys.eigenvalues, np.array([t], dtype=float), k)[0])


def _k_quadratic(c: np.ndarray, lam: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """K_2(f, t) at every t of the grid: one (len(t), len(c)) array, each row
    summed along its contiguous axis as the one-t sum is."""
    if not k >= 0:
        raise ValueError("Sobolev order k must be nonnegative")
    mu = (1.0 + lam ** (k / 2.0)) ** 2
    t2mu = (t * t)[:, None] * mu
    return np.sqrt(np.sum(c * c * t2mu / (1.0 + t2mu), axis=1))


def interpolation_norm(eigsys: EigenSystem, f: GridFunction, theta: float,
                       k: int, cache: ErrorCache | None = None) -> float:
    """||f||_2 plus the truncated interpolation quasi-norm from K_2 at q = 2.

    Log-grid quadrature of (t^-theta K_2(f,t))^2 dt/t over ``K_T_GRID``
    (trapezoid in log t). The band check of f is read through ``cache``.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    c = _require_bandlimited(eigsys, f, cache).coefficients
    kvals = _k_quadratic(c, eigsys.eigenvalues, K_T_GRID, k)
    weighted = K_T_GRID ** (-theta) * kvals
    integral = np.trapezoid(weighted ** 2, np.log(K_T_GRID))
    return lp_norm(eigsys.model, f, 2) + float(integral ** 0.5)
