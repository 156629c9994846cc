"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is pinned here, not calibrated elsewhere. Desk scale:
circle n <= 4096, sphere band <= 32, mesh <= 2500 vertices.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from besovlab.analysis import (BesovParams, ErrorCache, a_norm,
                               a_norm_continuous, bernstein_ratio,
                               jackson_ratios,
                               k_functional_quadratic, lp_comparator_norm)
from besovlab.approx import best_approx
from besovlab.corpus import default_corpus, lacunary, square_wave
from besovlab.filters import FilterFamily
from besovlab.manifold import GridFunction, lp_norm
from besovlab.operators import (KernelMatrix, build_kernel, fit_decay_constant,
                                operator_norm_estimate,
                                weighted_decay_integral, young_apply_check)
from besovlab.spectrum import CoefVector, check_orthonormality, synthesize

FAM = FilterFamily()


def _report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def random_band(es, rng, count):
    c = np.zeros(es.n_eigen)
    c[:count] = rng.standard_normal(count)
    return synthesize(es, CoefVector(c))


def test_criterion_1_partition_of_unity():
    J = 5
    lam = np.linspace(0.0, 4.0 ** J, 10000)
    total = np.zeros_like(lam)
    for j in range(J + 2):
        total += FAM.f_j(j, lam)
    dev = float(np.abs(total - 1.0).max())
    _report("criterion 1 (partition of unity)", dev < 1e-12,
            f"max deviation {dev:.3e} < 1e-12 on [0, 4^{J}]")


def test_criterion_2_orthonormality(circle1024_es, sphere16_es, icosphere3_es):
    dev_c = check_orthonormality(circle1024_es)
    dev_s = check_orthonormality(sphere16_es)
    dev_m = check_orthonormality(icosphere3_es)
    ok = dev_c < 1e-12 and dev_s < 1e-8 and dev_m < 1e-8
    _report("criterion 2 (orthonormality)", ok,
            f"circle {dev_c:.2e} < 1e-12, sphere {dev_s:.2e} < 1e-8, "
            f"mesh {dev_m:.2e} < 1e-8")


def test_criterion_3_best_approximation_oracle(circle4096, circle4096_es):
    model, es = circle4096, circle4096_es
    M = 6
    worst_abs = 0.0
    slopes = {}
    for alpha in (0.5, 1.0, 1.5):
        f = lacunary(alpha, M).build(model, es)
        errs = []
        for j in range(M):
            got = best_approx(model, es, f, 4.0 ** j, 2.0).error
            oracle = np.sqrt(np.pi * sum(4.0 ** (-alpha * m)
                                         for m in range(j + 1, M + 1)))
            worst_abs = max(worst_abs, abs(got - oracle))
            errs.append(got)
        # fit the first M-1 levels; the last one is truncation-dominated
        slopes[alpha] = -np.polyfit(np.arange(M - 1), np.log2(errs[:M - 1]), 1)[0]
    sq = square_wave().build(model, es)
    sq_errs = [best_approx(model, es, sq, 4.0 ** j, 2.0).error for j in range(7)]
    sq_rate = -np.polyfit(np.arange(7), np.log2(sq_errs), 1)[0]
    ok = (worst_abs < 1e-10
          and all(abs(slopes[a] - a) <= 0.1 for a in slopes)
          and abs(sq_rate - 0.5) <= 0.1)
    _report("criterion 3 (best-approximation oracle)", ok,
            f"lacunary Parseval max abs diff {worst_abs:.2e} < 1e-10, "
            f"slopes {dict((a, round(s, 3)) for a, s in slopes.items())}, "
            f"square-wave rate {sq_rate:.3f} = 0.5 +- 0.1")


def test_criterion_4_solver_consistency(circle1024_es):
    es = circle1024_es
    rng = np.random.default_rng(41)
    worst_rel = 0.0
    lp_ok = True
    for _ in range(20):
        f = random_band(es, rng, es.n_eigen)
        exact = best_approx(es.model, es, f, 16.0, 2.0)
        irls = best_approx(es.model, es, f, 16.0, 2.0001)
        worst_rel = max(worst_rel, abs(irls.error - exact.error) / exact.error)
        sup = best_approx(es.model, es, f, 16.0, np.inf)
        k = es.cutoff_index(16.0)
        resid = f.values - es.eigenfunctions[:, :k] @ exact.coefficients.coefficients
        feasible = lp_norm(es.model, GridFunction(es.model, resid), np.inf)
        lp_ok = lp_ok and sup.error <= feasible + 1e-12
    ok = worst_rel < 1e-4 and lp_ok
    _report("criterion 4 (solver consistency)", ok,
            f"IRLS@2.0001 worst rel diff {worst_rel:.2e} < 1e-4, "
            f"LP sup-norm error <= projection residual on 20 draws: {lp_ok}")


def test_criterion_5_jackson(circle2048, circle2048_es):
    es = circle2048_es
    f = lacunary(2.0, 8).build(circle2048, es)
    trends = {}
    for p in (1.0, 2.0, np.inf):
        ratios = np.array(jackson_ratios(es, f, 2, p, 6))
        trends[p] = float(ratios.max() / np.median(ratios))
    ok = all(v < 10.0 for v in trends.values())
    _report("criterion 5 (Jackson ratios)", ok,
            "max/median " + ", ".join(f"p={p:g}: {v:.2f}"
                                      for p, v in trends.items()) + " < 10")


def test_criterion_6_bernstein(circle1024_es):
    es = circle1024_es
    rng = np.random.default_rng(6)
    omegas = (4.0, 16.0, 64.0)
    worst2 = 0.0
    spreads = {}
    for p in (2.0, 1.0, np.inf):
        per_omega = []
        for omega in omegas:
            k_idx = es.cutoff_index(omega)
            worst = max(bernstein_ratio(es, random_band(es, rng, k_idx),
                                        2, p, omega)
                        for _ in range(100))
            per_omega.append(worst)
        if p == 2.0:
            worst2 = max(per_omega)
        else:
            spreads[p] = max(per_omega) / min(per_omega)
    ok = worst2 <= 1.0 + 1e-12 and all(v < 2.0 for v in spreads.values())
    _report("criterion 6 (Bernstein)", ok,
            f"p=2 max ratio {worst2:.12f} <= 1+1e-12; spread over omega "
            + ", ".join(f"p={p:g}: {v:.2f}" for p, v in spreads.items()) + " < 2")


def test_criterion_7_kernel_decay_and_volume(circle512, circle512_es, sphere16):
    es = circle512_es
    cs = []
    for j in range(2, 7):
        t = 2.0 ** (-j)
        kern = build_kernel(es, FAM.F, t)
        cs.append(fit_decay_constant(kern, 3.0).C)
    c_ratio = max(cs) / min(cs)
    vol_c = [weighted_decay_integral(circle512, 2.0 ** (-j), 3.0)
             for j in range(1, 7)]
    r_circle = max(vol_c) / min(vol_c)
    vol_s = [weighted_decay_integral(sphere16, 2.0 ** (-j), 4.0)
             for j in range(1, 4)]
    r_sphere = max(vol_s) / min(vol_s)
    # below the node spacing the sphere sum is resolution-limited; report only
    vol_s_full = [weighted_decay_integral(sphere16, 2.0 ** (-j), 4.0)
                  for j in range(1, 7)]
    diag = max(vol_s_full) / min(vol_s_full)
    ok = c_ratio < 4.0 and r_circle < 8.0 and r_sphere < 8.0
    _report("criterion 7 (kernel decay + volume estimate)", ok,
            f"decay C ratio {c_ratio:.3f} < 4; volume uniformity circle "
            f"{r_circle:.2f} < 8, sphere {r_sphere:.2f} < 8 "
            f"(sphere full-range diagnostic {diag:.1f}, unresolved below spacing)")


def test_criterion_8_young(circle512):
    rng = np.random.default_rng(8)
    n = circle512.n_nodes
    worst = -np.inf
    for _ in range(100):
        raw = rng.standard_normal((n, n))
        kern = KernelMatrix(circle512, 0.5 * (raw + raw.T), 1.0)
        f = GridFunction(circle512, rng.standard_normal(n))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, np.inf]))
        if np.isinf(p):
            alpha, q = 1.0, np.inf
        else:
            alpha = float(rng.uniform(1.0, min(4.0, p / (p - 1.0)) if p > 1 else 4.0))
            inv_q = 1.0 / p + 1.0 / alpha - 1.0
            q = np.inf if inv_q <= 1e-12 else 1.0 / inv_q
        lhs, rhs = young_apply_check(kern, f, p, q, alpha)
        worst = max(worst, lhs - rhs)
    _report("criterion 8 (Young inequality)", worst <= 1e-12,
            f"max lhs-rhs over 100 trials {worst:.3e} (slack >= -1e-12)")


def test_criterion_9_operator_bounds(circle512_es):
    es = circle512_es
    spreads = {}
    for p in (1.0, 2.0, np.inf):
        ests = [operator_norm_estimate(es, FAM.F, 2.0 ** (-j), p, p,
                                       trials=24, seed=99)
                for j in range(1, 7)]
        spreads[p] = max(ests) / min(ests)
    ok = all(v < 2.0 for v in spreads.values())
    _report("criterion 9 (operator-norm uniformity)", ok,
            "max/min over t " + ", ".join(f"p={p:g}: {v:.3f}"
                                          for p, v in spreads.items()) + " < 2")


def test_criterion_10_norm_equivalence(circle512_es_1024):
    es = circle512_es_1024
    cache = ErrorCache()
    J = 5
    worst_c = 1.0
    for entry in default_corpus("circle"):
        f = entry.build(es.model, es)
        for alpha in (0.5, 1.0):
            for p in (1.0, 2.0, np.inf):
                for q in (1.0, 2.0, np.inf):
                    params = BesovParams(alpha=alpha, p=p, q=q, J=J)
                    a = a_norm(es, f, params, cache)
                    comp = lp_comparator_norm(es, f, params, cache=cache)
                    ratio = a / comp
                    worst_c = max(worst_c, ratio, 1.0 / ratio)
    cont_ok = True
    worst_cont = 1.0
    t_grid = np.geomspace(1.0, 4.0 ** J, 25)
    for entry in default_corpus("circle"):
        f = entry.build(es.model, es)
        for alpha in (0.5, 1.0):
            for q in (1.0, 2.0, np.inf):
                a = a_norm(es, f, BesovParams(alpha=alpha, p=2.0, q=q, J=J), cache)
                cont = a_norm_continuous(es, f, alpha, 2.0, q, t_grid, cache)
                ratio = a / cont
                worst_cont = max(worst_cont, ratio, 1.0 / ratio)
                cont_ok = cont_ok and (1.0 / 8.0 <= ratio <= 8.0)
    ok = worst_c < 50.0 and cont_ok
    _report("criterion 10 (norm equivalence)", ok,
            f"dyadic/comparator constant c = {worst_c:.2f} < 50 over corpus x "
            f"(alpha,p,q) grid; dyadic/continuous worst factor {worst_cont:.2f} "
            "inside [1/8, 8]")


def test_criterion_11_k_functional(circle512_es_1024):
    es = circle512_es_1024
    worst_diff = 0.0
    for l in (0, 2, 7, 12):
        f = GridFunction(es.model, es.eigenfunctions[:, l].copy())
        lam = es.eigenvalues[l]
        mu = (1.0 + lam) ** 2
        for t in (0.02, 0.3, 1.7):
            res = minimize_scalar(lambda g: (1 - g) ** 2 + t * t * mu * g * g,
                                  bracket=(0.0, 1.0), method="golden",
                                  options={"xtol": 1e-13})
            oracle = np.sqrt(res.fun)
            worst_diff = max(worst_diff,
                             abs(k_functional_quadratic(es, f, t, 2) - oracle))
    rng = np.random.default_rng(11)
    ts = np.geomspace(1e-3, 30.0, 20)
    bounded = monotone = True
    for _ in range(100):
        f = random_band(es, rng, 17)
        norm2 = lp_norm(es.model, f, 2.0)
        vals = [k_functional_quadratic(es, f, t, 2) for t in ts]
        bounded = bounded and all(v <= norm2 * (1 + 1e-12) for v in vals)
        monotone = monotone and all(b >= a - 1e-12
                                    for a, b in zip(vals, vals[1:]))
    ok = worst_diff < 1e-8 and bounded and monotone
    _report("criterion 11 (K-functional)", ok,
            f"golden-section oracle max diff {worst_diff:.2e} < 1e-8; "
            f"bounded by ||f||_2 and monotone on 100 random draws: "
            f"{bounded and monotone}")
