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
import operator
from dataclasses import dataclass

import numpy as np

from .approx import ApproxResult, best_approx
from .filters import f_j
from .manifold import GridFunction, _weighted_norm, lp_norm
from .spectrum import CoefVector, EigenSystem, apply_power, project, synthesize

BAND_TOL = 1e-8  # relative tolerance of every bandlimited test
BAND_CHECK = "band-check"  # ``at`` of the per-function band-check entries
LP_BLOCKS = "lp-blocks"    # ``at`` of the Littlewood-Paley block entries
LP_NORM = "lp-norm"        # ``at`` of the ||f||_p entries
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
        try:
            J = operator.index(self.J)
        except TypeError:
            raise ValueError(f"J must be an integer, not {self.J!r}") from None
        if J < 1:
            raise ValueError("J must be at least 1")
        try:
            4.0 ** J  # the top level's cutoff
        except OverflowError:
            raise ValueError(f"J is {J}; 4^J overflows a float") from None


def a_norm(eigsys: EigenSystem, f: GridFunction, params: BesovParams,
           cache: ErrorCache | None = None) -> float:
    """Dyadic approximation norm truncated at level J.

    The sum runs over j = 0..J and stops there; E(f, 4^j, p) comes from
    ``errors_at_cutoffs`` and ||f||_p from ``_norm``, both through ``cache``.
    """
    if 4.0 ** params.J > eigsys.band_limit:
        raise ValueError("4^J exceeds the computed band limit")
    errors = [r.error for r in errors_at_cutoffs(
        eigsys, f, params.p, [4.0 ** j for j in range(params.J + 1)], cache)]
    return (_norm(eigsys, f, params.p, cache)
            + _dyadic_sum(errors, params.alpha, params.q, 0))


def _dyadic_sum(seq, alpha: float, q: float, first: int) -> float:
    """The l_q norm of 2^(alpha j) seq[j] over j = first .. len(seq) - 1.

    Raises ``ValueError`` when a weight 2^(alpha j), a term or the sum is
    not a finite float.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.array([2.0 ** (alpha * j) * seq[j] for j in range(first, len(seq))])
            total = _weighted_norm(np.ones(len(terms)), terms, q)
    except OverflowError:  # a weight 2^(alpha j) beyond the float range
        total = np.inf
    if not np.isfinite(total):
        raise ValueError(f"alpha = {alpha:g}, q = {q:g}: a weight 2^(alpha j) or "
                         "the dyadic l_q sum is not a finite float")
    return total


class ErrorCache:
    """Memo for the per-function quantities behind the Besov-type norms.

    Every entry sits under one key ``(eigsys, model, digest, p, at)``: the
    eigensystem it was computed in and f's model (both compare by identity),
    a digest of f's sample values, the exponent p (``None`` for a quantity
    that every p reads) and ``at``, which names the quantity:

    - a cutoff omega, with p: the best-approximation result for E(f, omega, p);
    - ``LP_NORM``, with p: the norm ||f||_p;
    - ``LP_BLOCKS``, with p: the tuple of block norms ||F_j(L)f||_p;
    - ``LP_BLOCKS``, p = ``None``: the tuple of block functions F_j(L)f;
    - ``BAND_CHECK``, p = ``None``: f's eigencoefficients and whether they
      reproduce f;
    - ``("k-grid", k)``, p = ``None``: K_2(f, t) on ``K_T_GRID`` for the
      Sobolev order k.

    A string or tuple ``at`` never equals a cutoff, and p = ``None`` never
    equals a float p, so no kind answers for another; nor do two eigensystems
    of one model share an entry. A function rebuilt with the same samples
    hits the entries of the first copy, and no function is referenced; the
    eigensystems and models of the stored entries are.
    """

    def __init__(self):
        self._vals: dict = {}

    @staticmethod
    def _key(eigsys, f, p, at):
        vals = f.values
        digest = hashlib.sha256(vals.dtype.str.encode() + vals.tobytes()).digest()
        return eigsys, f.model, digest, None if p is None else float(p), at

    def lookup(self, eigsys, f, p, at):
        """The stored entry, or ``None``."""
        return self._vals.get(self._key(eigsys, f, p, at))

    def get(self, eigsys, f, p, at, compute):
        """The stored entry; on a miss, ``compute()``, stored under the key."""
        value = self.lookup(eigsys, f, p, at)
        if value is None:
            value = self._vals[self._key(eigsys, f, p, at)] = compute()
        return value


def _get(cache, eigsys, f, p, at, compute):
    """``cache.get``; without a cache, ``compute()``."""
    return compute() if cache is None else cache.get(eigsys, f, p, at, compute)


def _norm(eigsys, f, p, cache):
    """||f||_p, taken once per (f, p) per ``cache``."""
    return _get(cache, eigsys, f, p, LP_NORM, lambda: lp_norm(eigsys.model, f, p))


def roundoff_floor(eigsys: EigenSystem, f: GridFunction, p: float,
                   cache: ErrorCache | None = None) -> float:
    """The level at or below which an L_p error of f is roundoff: 1e-12
    ||f||_p, or 1e-312 for f = 0, with ||f||_p taken once per ``cache``.
    Levels of an error ladder at or below it carry no rate information."""
    return 1e-12 * max(_norm(eigsys, f, p, cache), 1e-300)


def errors_at_cutoffs(eigsys: EigenSystem, f: GridFunction, p: float,
                      cutoffs, cache: ErrorCache | None = None) -> list[ApproxResult]:
    """The best-approximation result for E(f, omega, p) at each cutoff.

    Each (f, p, omega) is solved once per ``cache``; without one, each
    cutoff is solved. A cutoff beyond the computed band raises ``ValueError``.
    """
    return [_get(cache, eigsys, f, p, omega,
                 lambda: best_approx(eigsys.model, eigsys, f, omega, p))
            for omega in cutoffs]


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
        return _norm(eigsys, f, p, cache) + sup
    total = 0.0
    for (a, b), e in zip(zip(breaks[:-1], breaks[1:]), evals):
        if e > 0.0:
            total += e ** q * (b ** (expo * q) - a ** (expo * q)) / (expo * q)
    return _norm(eigsys, f, p, cache) + total ** (1.0 / q)


def _band_check(eigsys, f, cache):
    """(c, ok): f's eigencoefficients, and whether they reproduce f to
    relative ``BAND_TOL`` (max-norm residual against max |f|); computed once
    per ``cache``."""
    def check():
        c = project(eigsys, f)
        resid = f.values - synthesize(eigsys, c).values
        scale = max(float(np.abs(f.values).max()), 1e-300)
        return c, float(np.abs(resid).max()) <= BAND_TOL * scale
    return _get(cache, eigsys, f, None, BAND_CHECK, check)


def bandlimited_coefficients(eigsys: EigenSystem, f: GridFunction,
                             cache: ErrorCache | None = None) -> CoefVector:
    """f's eigencoefficients. Raises ``ValueError`` if they miss f by more
    than relative ``BAND_TOL``. The check runs once per function per
    ``cache``."""
    c, ok = _band_check(eigsys, f, cache)
    if not ok:
        raise ValueError("function is not bandlimited in this eigensystem")
    return c


def is_bandlimited(eigsys: EigenSystem, f: GridFunction,
                   cache: ErrorCache | None = None) -> bool:
    """Whether f is reproduced by its eigenexpansion to relative ``BAND_TOL``
    (max-norm residual against max |f|), checked once per ``cache``."""
    return _band_check(eigsys, f, cache)[1]


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
    model = eigsys.model

    def block_functions():
        lam, u = eigsys.eigenvalues, eigsys.eigenfunctions
        c = _band_check(eigsys, f, cache)[0].coefficients
        j_max = 1
        while 4.0 ** (j_max - 1) <= eigsys.band_limit:
            j_max += 1
        return tuple(GridFunction(model, u @ (c * f_j(j, lam))) for j in range(j_max))

    def block_norms():
        blocks = _get(cache, eigsys, f, None, LP_BLOCKS, block_functions)
        return tuple(lp_norm(model, g, params.p) for g in blocks)

    norms = _get(cache, eigsys, f, params.p, LP_BLOCKS, block_norms)
    return norms[0] + _dyadic_sum(norms, params.alpha, params.q, 1)


def jackson_ratios(eigsys: EigenSystem, f: GridFunction, k: int, p: float,
                   J: int, cache: ErrorCache | None = None) -> list[float]:
    """Normalized Jackson ratios 2^(jk) E(f, 4^j, p) / ||L^(k/2) f||_p.

    Uses the cutoff-exponent normalization omega^(k/2) with omega = 2^(2j);
    for smooth f the sequence should stay bounded with no growth trend.
    ``cache`` holds the band check of f and the solves, as for the norms.
    """
    model = eigsys.model
    c = bandlimited_coefficients(eigsys, f, cache)
    rough = synthesize(eigsys, apply_power(eigsys, c, k / 2.0))
    denom = lp_norm(model, rough, p)
    errors = [r.error for r in errors_at_cutoffs(
        eigsys, f, p, [4.0 ** j for j in range(J + 1)], cache)]
    floor = roundoff_floor(eigsys, f, p, cache)
    if denom <= floor:
        # essentially constant f: errors must vanish too (up to roundoff)
        if max(errors) > floor:
            raise ValueError("zero smoothness norm with nonzero errors")
        return [0.0] * (J + 1)
    return [2.0 ** (j * k) * errors[j] / denom for j in range(J + 1)]


def bernstein_ratio(eigsys: EigenSystem, c: CoefVector, k: int, p: float,
                    omega: float) -> float:
    """||L^k f||_p / (omega^k ||f||_p) for f = sum_l c_l u_l, lambda_l <= omega.

    At p = 2 the ratio is exactly bounded by 1. Rejects c unless its entries
    above the cutoff are within relative ``BAND_TOL`` of 0, and takes both
    norms on the span part c[:cutoff_index(omega)], where L^k meets no
    roundoff. A caller holding samples gets c from ``bandlimited_coefficients``.
    """
    coefs = c.coefficients
    idx = eigsys.cutoff_index(omega)
    scale = max(float(np.abs(coefs).max(initial=0.0)), 1e-300)
    if float(np.abs(coefs[idx:]).max(initial=0.0)) > BAND_TOL * scale:
        raise ValueError("function has components above the cutoff omega")
    span = CoefVector(coefs[:idx])
    rough = synthesize(eigsys, apply_power(eigsys, span, float(k)))
    denom = omega ** k * lp_norm(eigsys.model, synthesize(eigsys, span), p)
    if denom == 0.0:
        return 0.0
    return lp_norm(eigsys.model, rough, p) / denom


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
    c = bandlimited_coefficients(eigsys, f).coefficients
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
    (trapezoid in log t). Per ``cache``, f is band-checked once and the
    K_2 grid is evaluated once per (f, k); theta only re-weights it.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    kvals = _get(cache, eigsys, f, None, ("k-grid", k), lambda: _k_quadratic(
        bandlimited_coefficients(eigsys, f, cache).coefficients, eigsys.eigenvalues,
        K_T_GRID, k))
    weighted = K_T_GRID ** (-theta) * kvals
    integral = np.trapezoid(weighted ** 2, np.log(K_T_GRID))
    return _norm(eigsys, f, 2.0, cache) + float(integral ** 0.5)
