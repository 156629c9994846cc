import numpy as np
import pytest

from besovlab.approx import best_approx, error_sequence
from besovlab.cli import write_table
from besovlab.manifold import GridFunction, lp_norm
from besovlab.spectrum import CoefVector, synthesize


def lacunary_values(model, alpha, M):
    x = model.nodes[:, 0]
    vals = np.zeros(model.n_nodes)
    for m in range(1, M + 1):
        vals += 2.0 ** (-alpha * m) * np.cos(2.0 ** m * x)
    return GridFunction(model, vals)


def parseval_tail(alpha, M, omega):
    # independent oracle: E(f, omega, 2)^2 = pi * sum over excluded octaves
    return np.sqrt(np.pi * sum(4.0 ** (-alpha * m)
                               for m in range(1, M + 1) if 4.0 ** m > omega))


def random_band(es, rng, count):
    c = np.zeros(es.n_eigen)
    c[:count] = rng.standard_normal(count)
    return synthesize(es, CoefVector(c))


class TestExactCases:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_included_eigenfunction_error_zero(self, circle1024_es, p):
        es = circle1024_es
        f = GridFunction(es.model, es.eigenfunctions[:, 4].copy())
        res = best_approx(es.model, es, f, es.eigenvalues[4], p)
        assert res.error < 1e-8
        if p == 2.0:
            expected = np.zeros(len(res.coefficients.coefficients))
            expected[4] = 1.0
            assert np.abs(res.coefficients.coefficients - expected).max() < 1e-10

    def test_excluded_eigenfunction_full_error(self, circle1024_es):
        es = circle1024_es
        f = GridFunction(es.model, es.eigenfunctions[:, 9].copy())
        omega = es.eigenvalues[9] - 0.5
        res = best_approx(es.model, es, f, omega, 2.0)
        assert res.error == pytest.approx(1.0, abs=1e-10)

    def test_cutoff_is_inclusive(self, circle1024_es):
        es = circle1024_es
        f = GridFunction(es.model, es.eigenfunctions[:, 9].copy())
        res = best_approx(es.model, es, f, es.eigenvalues[9], 2.0)
        assert res.error < 1e-10


class TestLacunaryOracle:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_matches_parseval_tail(self, circle2048, circle2048_es, alpha):
        f = lacunary_values(circle2048, alpha, 6)
        for j in range(7):
            res = best_approx(circle2048, circle2048_es, f, 4.0 ** j, 2.0)
            assert res.error == pytest.approx(parseval_tail(alpha, 6, 4.0 ** j),
                                              abs=1e-10)

    def test_frozen_values(self, circle2048, circle2048_es):
        # alpha = 1, M = 6, omega = 4^2: tail over m = 3..6
        f = lacunary_values(circle2048, 1.0, 6)
        res = best_approx(circle2048, circle2048_es, f, 16.0, 2.0)
        expected = np.sqrt(np.pi * (4.0 ** -3 + 4.0 ** -4 + 4.0 ** -5 + 4.0 ** -6))
        assert expected == pytest.approx(0.25533151682692790, rel=1e-15)
        assert res.error == pytest.approx(expected, abs=1e-10)

    def test_log_slope(self, circle2048, circle2048_es):
        # fit the levels before the fully truncated one (the closed form
        # puts the last segment at a visibly steeper slope)
        alpha, M = 1.0, 6
        f = lacunary_values(circle2048, alpha, M)
        errs = [best_approx(circle2048, circle2048_es, f, 4.0 ** j, 2.0).error
                for j in range(M - 1)]
        slope = np.polyfit(np.arange(M - 1), np.log2(errs), 1)[0]
        assert slope == pytest.approx(-alpha, abs=0.1)


class TestSolverConsistency:
    def test_irls_near_two_matches_projection(self, circle1024_es, rng):
        es = circle1024_es
        for _ in range(20):
            f = random_band(es, rng, es.n_eigen)
            exact = best_approx(es.model, es, f, 16.0, 2.0).error
            irls = best_approx(es.model, es, f, 16.0, 2.0001)
            assert irls.converged
            assert irls.error == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_lp_never_beats_projection_feasible_point(self, circle1024_es, rng, p):
        es = circle1024_es
        for _ in range(20):
            f = random_band(es, rng, es.n_eigen)
            res = best_approx(es.model, es, f, 16.0, p)
            proj = best_approx(es.model, es, f, 16.0, 2.0)
            k = es.cutoff_index(16.0)
            resid = f.values - es.eigenfunctions[:, :k] @ proj.coefficients.coefficients
            feasible = lp_norm(es.model, GridFunction(es.model, resid), p)
            assert res.error <= feasible + 1e-12

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_irls_optimality_certificate(self, circle1024_es, rng, p):
        es = circle1024_es
        for _ in range(5):
            f = random_band(es, rng, es.n_eigen)
            res = best_approx(es.model, es, f, 16.0, p)
            assert res.converged
            target = 1e-6 * lp_norm(es.model, f, p) ** (p - 1.0)
            assert res.gradient_norm <= target


class TestStructuralInvariants:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
    def test_monotone_in_omega(self, circle1024_es, rng, p):
        es = circle1024_es
        f = random_band(es, rng, es.n_eigen)
        errs = [best_approx(es.model, es, f, 4.0 ** j, p).error for j in range(5)]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-9

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
    def test_error_bounded_by_function_norm(self, circle1024_es, rng, p):
        es = circle1024_es
        f = random_band(es, rng, es.n_eigen)
        res = best_approx(es.model, es, f, 16.0, p)
        assert res.error <= lp_norm(es.model, f, p) + 1e-10

    def test_monotone_in_p_after_normalization(self, circle1024_es, rng):
        es = circle1024_es
        total = es.model.total_measure
        f = random_band(es, rng, es.n_eigen)
        ps = [1.0, 1.5, 2.0, 4.0, np.inf]
        vals = []
        for p in ps:
            err = best_approx(es.model, es, f, 16.0, p).error
            scale = 1.0 if np.isinf(p) else total ** (1.0 / p)
            vals.append(err / scale)
        for lo, hi in zip(vals[:-1], vals[1:]):
            assert lo <= hi * (1 + 1e-6) + 1e-9

    def test_rejects_omega_beyond_band(self, circle1024_es):
        es = circle1024_es
        f = GridFunction(es.model, np.ones(es.model.n_nodes))
        with pytest.raises(ValueError, match="band"):
            best_approx(es.model, es, f, es.band_limit * 2, 2.0)

    def test_rejects_p_below_one(self, circle1024_es):
        es = circle1024_es
        f = GridFunction(es.model, np.ones(es.model.n_nodes))
        with pytest.raises(ValueError):
            best_approx(es.model, es, f, 4.0, 0.9)


class TestErrorSequence:
    def test_bandlimited_hits_zero(self, circle1024_es, rng):
        es = circle1024_es
        f = random_band(es, rng, es.cutoff_index(1.0))
        results = error_sequence(es.model, es, f, 2.0, 4)
        assert all(r.error < 1e-10 for r in results)

    def test_pure_eigenfunction_step(self, circle1024_es):
        es = circle1024_es
        l = es.index_of(("cos", 3))  # lambda = 9
        f = GridFunction(es.model, es.eigenfunctions[:, l].copy())
        results = error_sequence(es.model, es, f, 2.0, 3)
        errs = [r.error for r in results]
        # ||f||_2 = 1 until 4^j >= 9, then zero
        assert errs[0] == pytest.approx(1.0, abs=1e-10)
        assert errs[1] == pytest.approx(1.0, abs=1e-10)
        assert errs[2] < 1e-10 and errs[3] < 1e-10

    def test_rejects_level_beyond_band(self, circle1024_es):
        es = circle1024_es
        f = GridFunction(es.model, np.ones(es.model.n_nodes))
        with pytest.raises(ValueError):
            error_sequence(es.model, es, f, 2.0, 12)

    def test_csv_roundtrip(self, tmp_path, circle1024_es, rng):
        es = circle1024_es
        f = random_band(es, rng, 9)
        results = error_sequence(es.model, es, f, 2.0, 3)
        rows = [[j, r.omega, r.p, r.error, r.iterations, int(r.converged)]
                for j, r in enumerate(results)]
        write_table(str(tmp_path), "errors",
                    ["j", "omega", "p", "error", "iterations", "converged"], rows)
        lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "j,omega,p,error,iterations,converged"
        assert len(lines) == 5
        assert float(lines[1].split(",")[3]) == pytest.approx(results[0].error)


class TestOtherManifolds:
    def test_sphere_harmonic_step(self, sphere16, sphere16_es):
        es = sphere16_es
        l = es.labels.index(("ylm", 2, 1))  # lambda = 6
        f = GridFunction(sphere16, es.eigenfunctions[:, l].copy())
        assert best_approx(sphere16, es, f, 2.0, 2.0).error == pytest.approx(
            1.0, abs=1e-8)
        assert best_approx(sphere16, es, f, 6.0, 2.0).error < 1e-8

    def test_mesh_eigenfunction_step(self, icosphere3, icosphere3_es):
        es = icosphere3_es
        f = GridFunction(icosphere3, es.eigenfunctions[:, 1].copy())
        lam1 = es.eigenvalues[1]
        assert best_approx(icosphere3, es, f, lam1 / 2, 2.0).error == (
            pytest.approx(1.0, abs=1e-8))
        assert best_approx(icosphere3, es, f, lam1, 2.0).error < 1e-8

    def test_sphere_sup_norm_solve(self, sphere16, sphere16_es, rng):
        es = sphere16_es
        c = np.zeros(es.n_eigen)
        c[:es.cutoff_index(12.0)] = rng.standard_normal(es.cutoff_index(12.0))
        f = synthesize(es, CoefVector(c))
        res = best_approx(sphere16, es, f, 6.0, np.inf)
        proj = best_approx(sphere16, es, f, 6.0, 2.0)
        k = es.cutoff_index(6.0)
        resid = f.values - es.eigenfunctions[:, :k] @ proj.coefficients.coefficients
        assert res.error <= lp_norm(sphere16, GridFunction(sphere16, resid),
                                    np.inf) + 1e-12


def test_torus_included_mode_error_zero(torus16):
    from besovlab.spectrum import build_eigensystem
    es = build_eigensystem(torus16, 8.0)
    f = GridFunction(torus16, es.eigenfunctions[:, 3].copy())
    lam = es.eigenvalues[3]
    res = best_approx(torus16, es, f, lam, 2.0)
    assert res.error < 1e-10


def test_solver_diagnostics_fields(circle1024_es, rng):
    es = circle1024_es
    c = np.zeros(es.n_eigen)
    c[:12] = rng.standard_normal(12)
    f = synthesize(es, CoefVector(c))
    res = best_approx(es.model, es, f, 16.0, 3.0)
    assert res.solver == "irls"
    assert res.iterations >= 1
    assert res.residual_change < 1e-9
    assert res.converged
    proj = best_approx(es.model, es, f, 16.0, 2.0)
    assert proj.solver == "projection" and proj.iterations == 0
    lp = best_approx(es.model, es, f, 16.0, 1.0)
    assert lp.solver == "lp-highs" and lp.converged
