import types

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize._highspy import _core as highs

from besovlab import approx
from besovlab.analysis import errors_at_cutoffs
from besovlab.approx import LP_TOL, ApproxResult, best_approx
from besovlab.cli import write_table
from besovlab.corpus import lacunary, random_bandlimited, square_wave
from besovlab.manifold import GridFunction, build_circle, lp_norm
from besovlab.spectrum import CoefVector, build_eigensystem, synthesize


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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_empty_span_leaves_the_whole_function(self, circle1024_es, rng, p):
        # no eigenvalue is <= -1: the span is {0}, so E(f, -1, p) = ||f||_p
        es = circle1024_es
        f = random_band(es, rng, 9)
        res = best_approx(es.model, es, f, -1.0, p)
        norm = lp_norm(es.model, f, p)
        assert len(res.coefficients) == 0
        assert res.error == norm
        assert res.lower_bound == pytest.approx(norm, rel=1e-12)
        assert res.converged


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
            fnorm = lp_norm(es.model, f, p)
            res = best_approx(es.model, es, f, 16.0, p)
            assert res.converged
            assert res.error - res.lower_bound <= LP_TOL * fnorm
            assert res.lower_bound <= res.error + 1e-12 * fnorm


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

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_rejects_nan_omega(self, circle1024_es, p):
        # nan > band_limit is False, so a plain range check let nan through
        # and solved at the full band
        es = circle1024_es
        f = square_wave().build(es.model, es)
        with pytest.raises(ValueError, match="not a number"):
            best_approx(es.model, es, f, np.nan, p)

    def test_rejects_p_below_one(self, circle1024_es):
        es = circle1024_es
        f = GridFunction(es.model, np.ones(es.model.n_nodes))
        with pytest.raises(ValueError):
            best_approx(es.model, es, f, 4.0, 0.9)


def dyadic(J):
    return [4.0 ** j for j in range(J + 1)]


class TestErrorSequence:
    def test_bandlimited_hits_zero(self, circle1024_es, rng):
        es = circle1024_es
        f = random_band(es, rng, es.cutoff_index(1.0))
        results = errors_at_cutoffs(es, f, 2.0, dyadic(4))
        assert all(r.error < 1e-10 for r in results)

    def test_pure_eigenfunction_step(self, circle1024_es):
        es = circle1024_es
        l = es.index_of(("cos", 3))  # lambda = 9
        f = GridFunction(es.model, es.eigenfunctions[:, l].copy())
        results = errors_at_cutoffs(es, f, 2.0, dyadic(3))
        errs = [r.error for r in results]
        # ||f||_2 = 1 until 4^j >= 9, then zero
        assert errs[0] == pytest.approx(1.0, abs=1e-10)
        assert errs[1] == pytest.approx(1.0, abs=1e-10)
        assert errs[2] < 1e-10 and errs[3] < 1e-10

    def test_rejects_level_beyond_band(self, circle1024_es):
        es = circle1024_es
        f = GridFunction(es.model, np.ones(es.model.n_nodes))
        with pytest.raises(ValueError, match="exceeds the computed band"):
            errors_at_cutoffs(es, f, 2.0, dyadic(12))

    def test_rejects_nan_level(self, circle1024_es):
        es = circle1024_es
        f = GridFunction(es.model, np.ones(es.model.n_nodes))
        with pytest.raises(ValueError, match="not a number"):
            errors_at_cutoffs(es, f, 1.0, [1.0, np.nan, 16.0])

    def test_csv_roundtrip(self, tmp_path, circle1024_es, rng):
        es = circle1024_es
        f = random_band(es, rng, 9)
        results = errors_at_cutoffs(es, f, 2.0, dyadic(3))
        rows = [[j, r.omega, r.p, r.error, r.iterations, int(r.converged)]
                for j, r in enumerate(results)]
        write_table(str(tmp_path), "errors",
                    ["j", "omega", "p", "error", "iterations", "converged"], rows)
        lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "j,omega,p,error,iterations,converged"
        assert len(lines) == 5
        for line, r, omega in zip(lines[1:], results, dyadic(3)):
            cells = line.split(",")
            assert float(cells[1]) == r.omega == omega
            assert float(cells[3]) == pytest.approx(r.error)
            assert int(cells[4]) == r.iterations
            assert int(cells[5]) == int(r.converged) == 1


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
    fnorm = lp_norm(es.model, f, 3.0)
    assert res.solver == "irls"
    assert res.iterations >= 1
    assert res.converged
    assert res.error - res.lower_bound <= LP_TOL * fnorm
    assert res.lower_bound <= res.error + 1e-12 * fnorm
    proj = best_approx(es.model, es, f, 16.0, 2.0)
    assert proj.solver == "projection" and proj.iterations == 0
    assert proj.converged
    assert abs(proj.error - proj.lower_bound) <= 1e-12 * lp_norm(es.model, f, 2.0)
    lp = best_approx(es.model, es, f, 16.0, 1.0)
    assert lp.solver == "lp-highs" and lp.converged
    assert lp.lower_bound is not None


def primal_l1_error(es, f, omega):
    # independent oracle: the primal LP min sum w_i s_i, -s <= f - Uc <= s
    n, k = es.model.n_nodes, es.cutoff_index(omega)
    u = sparse.csr_matrix(es.eigenfunctions[:, :k])
    eye = sparse.eye(n, format="csr")
    a_ub = sparse.vstack([sparse.hstack([u, -eye]), sparse.hstack([-u, -eye])])
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(k), es.model.weights]), A_ub=a_ub,
        b_ub=np.concatenate([f.values, -f.values]),
        bounds=[(None, None)] * k + [(0, None)] * n, method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return float(res.fun)


def dual_linf_error(es, f, omega):
    # independent oracle: the dual LP max f^T z, U^T z = 0, ||z||_1 <= 1,
    # with z = z+ - z- and HiGHS defaults
    n, k = es.model.n_nodes, es.cutoff_index(omega)
    u = es.eigenfunctions[:, :k]
    res = scipy.optimize.linprog(
        np.concatenate([-f.values, f.values]), A_ub=np.ones((1, 2 * n)),
        b_ub=[1.0], A_eq=np.hstack([u.T, -u.T]), b_eq=np.zeros(k),
        bounds=(0, None), method="highs")
    assert res.status == 0
    return float(-res.fun)


@pytest.fixture(scope="module")
def circle128_es():
    return build_eigensystem(build_circle(128), 63.0 ** 2)


@pytest.fixture(scope="module")
def circle64_es():
    return build_eigensystem(build_circle(64), 31.0 ** 2)


class TestCertifiedLP:
    def test_p1_matches_primal_oracle(self, circle128_es, rng):
        es = circle128_es
        funcs = [lacunary(1.0, 5).build(es.model, es),
                 square_wave().build(es.model, es),
                 random_band(es, rng, 40)]
        for f in funcs:
            fnorm = lp_norm(es.model, f, 1.0)
            for j in range(5):
                res = best_approx(es.model, es, f, 4.0 ** j, 1.0)
                oracle = primal_l1_error(es, f, 4.0 ** j)
                assert abs(res.error - oracle) <= max(1e-9 * oracle,
                                                      1e-12 * fnorm)

    def test_pinf_matches_dual_oracle(self, circle128_es, rng):
        es = circle128_es
        funcs = [lacunary(1.0, 5).build(es.model, es),
                 square_wave().build(es.model, es),
                 random_band(es, rng, 40)]
        for f in funcs:
            fnorm = lp_norm(es.model, f, np.inf)
            for j in range(5):
                res = best_approx(es.model, es, f, 4.0 ** j, np.inf)
                oracle = dual_linf_error(es, f, 4.0 ** j)
                assert res.solver == "lp-highs" and res.converged
                assert abs(res.error - oracle) <= 1e-9 * oracle
                assert res.lower_bound <= oracle + 1e-12 * fnorm

    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_certificate_brackets_error(self, circle1024_es, rng, p):
        es = circle1024_es
        f = random_band(es, rng, es.n_eigen)
        fnorm = lp_norm(es.model, f, p)
        for j in range(5):
            res = best_approx(es.model, es, f, 4.0 ** j, p)
            assert res.solver == "lp-highs" and res.converged
            assert abs(res.error - res.lower_bound) <= LP_TOL * fnorm
            # the bound is evaluated on the residual of the reported
            # coefficients, so it can pass the error only by roundoff
            assert res.lower_bound <= res.error + 1e-14 * fnorm

    @pytest.mark.parametrize("p", [1.0, 1.5, np.inf])
    def test_resolved_function_keeps_projection_error(self, circle1024_es,
                                                      rng, monkeypatch, p):
        # a function the span resolves to LP_TOL gets the projection and
        # the trivial interval [0, error], with no LP or Newton solve
        es = circle1024_es
        calls = []

        def counted(solve):
            def wrapper(*args, **kwargs):
                calls.append(solve.__name__)
                return solve(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(approx, "_highs_solve",
                            counted(approx._highs_solve))
        monkeypatch.setattr(approx, "_scipy_extension",
                            counted(approx._scipy_extension))
        f = random_band(es, rng, es.cutoff_index(4.0))
        res = best_approx(es.model, es, f, 16.0, p)
        assert calls == []
        k = es.cutoff_index(16.0)
        c0 = es.eigenfunctions[:, :k].T @ (es.model.weights * f.values)
        resid = f.values - es.eigenfunctions[:, :k] @ c0
        assert res.error == lp_norm(es.model, GridFunction(es.model, resid), p)
        assert res.error < 1e-12 * lp_norm(es.model, f, p)
        assert res.solver == "projection" and res.iterations == 0
        assert res.lower_bound == 0.0 and res.converged
        assert np.array_equal(res.coefficients.coefficients, c0)
        # the counters see the solves of a function the span does not resolve
        best_approx(es.model, es, f, 1.0, p)
        assert calls

    @pytest.mark.parametrize("missing", ["iterations", "converged"])
    def test_no_result_without_a_certificate(self, missing):
        fields = dict(omega=4.0, p=1.0, error=0.5,
                      coefficients=CoefVector(np.zeros(3)), solver="lp-highs",
                      lower_bound=0.5, iterations=3, converged=True)
        del fields[missing]
        with pytest.raises(TypeError, match=missing):
            ApproxResult(**fields)

    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_failed_solve_raises(self, circle1024_es, rng, monkeypatch, p):
        es = circle1024_es
        f = random_band(es, rng, 12)

        class Limited(highs._Highs):
            # a HiGHS run that stops at the iteration limit, before the
            # optimum
            def run(self):
                self.setOptionValue("simplex_iteration_limit", 0)
                return super().run()

        # the solver reads _Highs from the binding module on each LP solve,
        # and that module is the one imported here, so patching its attribute
        # reaches it
        monkeypatch.setattr(highs, "_Highs", Limited)
        status = int(highs.HighsModelStatus.kIterationLimit)
        with pytest.raises(RuntimeError,
                           match=f"status {status}.*Iteration limit"):
            best_approx(es.model, es, f, 4.0, p)


LOADER_SCRIPT = """
import sys
import numpy as np
from besovlab import approx
from besovlab.manifold import GridFunction, build_circle
from besovlab.spectrum import build_eigensystem

model = build_circle(128)
es = build_eigensystem(model, 1000.0)
f = GridFunction(model, np.sign(np.sin(model.nodes[:, 0])))
for p in (1.0, np.inf):
    res = approx.best_approx(model, es, f, 16.0, p)
    assert res.solver == "lp-highs" and res.converged, res
assert "scipy.optimize" not in sys.modules
used = approx._scipy_extension("optimize._highspy", "_core")
import scipy.optimize._highspy._core
import scipy.optimize._highspy._core as by_name
from scipy.optimize._highspy import _core as from_package
assert scipy.optimize._highspy._core is used
assert by_name is used and from_package is used
from scipy.optimize import linprog
lp = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
assert lp.status == 0 and lp.fun == 1.0, lp
print("ok")
"""


def test_binding_loads_without_scipy_optimize(fresh_python):
    # the endpoint LPs load HiGHS's binding by its file and leave
    # scipy.optimize unimported; a later import by any spelling returns that
    # module (the attribute path fails if the loader puts the module into
    # sys.modules itself), and scipy's own linprog still solves
    assert fresh_python(LOADER_SCRIPT) == "ok"


LAPACK_LOADER_SCRIPT = """
import sys
import numpy as np
from besovlab import approx
from besovlab.manifold import GridFunction, build_circle
from besovlab.spectrum import build_eigensystem

model = build_circle(128)
es = build_eigensystem(model, 1000.0)
f = GridFunction(model, np.sign(np.sin(model.nodes[:, 0])))
res = approx.best_approx(model, es, f, 16.0, 1.5)
assert res.solver == "irls" and res.converged, res
assert "scipy.linalg" not in sys.modules
used = approx._scipy_extension("linalg", "_flapack")
import scipy.linalg
import scipy.linalg._flapack
import scipy.linalg._flapack as by_name
from scipy.linalg import _flapack as from_package
assert by_name is scipy.linalg._flapack and from_package is by_name
gelsy, gelsy_lwork = scipy.linalg.get_lapack_funcs(("gelsy", "gelsy_lwork"),
                                                   (es.eigenfunctions,))
assert gelsy is used.dgelsy and gelsy_lwork is used.dgelsy_lwork
assert by_name.dgelsy is used.dgelsy
a = np.vander(np.linspace(0.0, 1.0, 5), 3)
x = scipy.linalg.lstsq(a, a @ [1.0, 2.0, 3.0], lapack_driver="gelsy")[0]
assert np.allclose(x, [1.0, 2.0, 3.0]), x
print("ok")
"""


def test_lapack_loads_without_scipy_linalg(fresh_python):
    # the Newton solver loads LAPACK's wrappers by their file and leaves
    # scipy.linalg unimported; a later import by any spelling finds a module
    # bound to its package (so the loader must not leave its own in
    # sys.modules) whose gelsy is the routine the solver called, which is
    # also what get_lapack_funcs returns, and scipy's own lstsq still solves
    assert fresh_python(LAPACK_LOADER_SCRIPT) == "ok"


@settings(max_examples=40, deadline=None)
@given(coefs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=31),
       levels=st.lists(st.integers(0, 4), min_size=2, max_size=4, unique=True),
       p=st.sampled_from([1.0, np.inf]))
def test_lp_certificate_properties(circle64_es, coefs, levels, p):
    es = circle64_es
    c = np.zeros(es.n_eigen)
    c[:len(coefs)] = coefs
    f = synthesize(es, CoefVector(c))
    fnorm = lp_norm(es.model, f, p)
    slack = 1e-12 * max(fnorm, 1e-300)
    errs = []
    for omega in sorted(4.0 ** j for j in levels):
        res = best_approx(es.model, es, f, omega, p)
        k = es.cutoff_index(omega)
        proj = es.eigenfunctions[:, :k] @ (es.eigenfunctions[:, :k].T
                                           @ (es.model.weights * f.values))
        proj_err = lp_norm(es.model, GridFunction(es.model, f.values - proj), p)
        assert res.lower_bound <= res.error + 1e-14 * max(fnorm, 1e-300)
        assert res.error <= proj_err
        assert res.error <= fnorm + slack
        errs.append(res.error)
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-9


@pytest.fixture(scope="module")
def circle256_es():
    return build_eigensystem(build_circle(256), 127.0 ** 2)


@settings(max_examples=40, deadline=None)
@given(coefs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
       levels=st.lists(st.integers(0, 4), min_size=2, max_size=4, unique=True),
       p=st.one_of(st.floats(1.0, 20.0), st.just(np.inf)))
# a subnormal function: LP_TOL ||f|| falls below the roundoff of its
# projection residual, while f / ||f||_inf lies in the span
@example(coefs=[2.2250738585e-313], levels=[0, 1], p=np.inf)
def test_certificate_properties(circle256_es, coefs, levels, p):
    # every solver returns an interval [lower_bound, error] that holds the
    # best error, and the best error is non-increasing in omega
    es = circle256_es
    c = np.zeros(es.n_eigen)
    c[:len(coefs)] = coefs
    f = synthesize(es, CoefVector(c))
    fnorm = lp_norm(es.model, f, p)
    slack = 1e-12 * max(fnorm, 1e-300)
    tol = max(LP_TOL * fnorm, np.finfo(float).tiny)
    prev = None
    for omega in sorted(4.0 ** j for j in levels):
        res = best_approx(es.model, es, f, omega, p)
        k = es.cutoff_index(omega)
        proj = es.eigenfunctions[:, :k] @ (es.eigenfunctions[:, :k].T
                                           @ (es.model.weights * f.values))
        assert res.error <= lp_norm(es.model,
                                    GridFunction(es.model, f.values - proj), p)
        assert res.lower_bound <= res.error + slack
        assert res.error <= fnorm + slack
        assert res.converged == (res.error - res.lower_bound <= tol)
        if prev is not None:
            assert res.lower_bound <= prev.error + slack
            # a closed gap puts the error within tol of the best error,
            # which is at most the best error at the coarser cutoff
            if res.converged:
                assert res.error <= prev.error + tol
        prev = res


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
def test_subnormal_function_converges(p):
    # LP_TOL ||f|| underflows below the roundoff of the projection residual;
    # the gap tolerance is floored at the smallest normal float
    es = build_eigensystem(build_circle(256), 100.0)
    f = GridFunction(es.model, 2.2250738585e-313 * es.eigenfunctions[:, 0])
    for omega in (1.0, 4.0):
        res = best_approx(es.model, es, f, omega, p)
        assert res.converged
        assert res.error <= np.finfo(float).tiny


class TestCertifiedNewton:
    @pytest.fixture(scope="class")
    def full_band_es(self, circle1024):
        return build_eigensystem(circle1024, 511.0 ** 2)

    def test_sweep_inputs_at_p_near_one(self, full_band_es):
        # the p = 1.1 solves of the benchmark's approx sweep, which used to
        # stop uncertified at 500 iterations
        es = full_band_es
        total = 0
        for entry in (square_wave(), random_bandlimited(4096.0, 1)):
            f = entry.build(es.model, es)
            fnorm = lp_norm(es.model, f, 1.1)
            for j in range(6):
                res = best_approx(es.model, es, f, 4.0 ** j, 1.1)
                assert res.solver == "irls" and res.converged
                assert res.iterations <= 100
                assert res.error - res.lower_bound <= LP_TOL * fnorm
                assert res.lower_bound <= res.error + 1e-12 * fnorm
                total += res.iterations
        # 178 with the Newton step tried first, about 700 with the plain
        # IRLS step
        assert total <= 300

    def test_failed_line_search_keeps_the_iterate(self, circle1024_es, rng,
                                                  monkeypatch):
        es = circle1024_es
        f = random_band(es, rng, es.n_eigen)
        k = es.cutoff_index(16.0)
        c0 = es.eigenfunctions[:, :k].T @ (es.model.weights * f.values)
        start = lp_norm(es.model, GridFunction(
            es.model, f.values - es.eigenfunctions[:, :k] @ c0), 1.5)
        # a zero step direction: no step can lower the error
        lapack = approx._scipy_extension("linalg", "_flapack")
        zero_step = types.SimpleNamespace(
            dgelsy=lambda a, b, *args, **kwargs: (None, np.zeros_like(b),
                                                  None, None, 0),
            dgelsy_lwork=lapack.dgelsy_lwork)

        monkeypatch.setattr(approx, "_scipy_extension",
                            lambda package, stem: zero_step)
        res = best_approx(es.model, es, f, 16.0, 1.5)
        assert res.iterations == 1 and not res.converged
        assert res.error == start
        assert np.array_equal(res.coefficients.coefficients, c0)
        fnorm = lp_norm(es.model, f, 1.5)
        assert 0.0 < res.lower_bound <= res.error + 1e-12 * fnorm

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 6.0])
    def test_interval_holds_an_independent_minimum(self, circle256_es, rng, p):
        # any coefficient vector bounds the best error from above, so a
        # quasi-Newton minimum of sum w |f - Uc|^p checks both ends
        from scipy.optimize import minimize
        es = circle256_es
        k = es.cutoff_index(16.0)
        u, w = es.eigenfunctions[:, :k], es.model.weights
        for _ in range(3):
            f = random_band(es, rng, 40)
            fnorm = lp_norm(es.model, f, p)

            def objective(c):
                r = f.values - u @ c
                return (w @ np.abs(r) ** p,
                        -p * (u.T @ (w * np.sign(r) * np.abs(r) ** (p - 1.0))))

            opt = minimize(objective, np.zeros(k), jac=True, method="BFGS",
                           options={"gtol": 1e-12})
            upper = lp_norm(es.model, GridFunction(es.model,
                                                   f.values - u @ opt.x), p)
            res = best_approx(es.model, es, f, 16.0, p)
            assert res.converged
            assert res.lower_bound <= upper + 1e-12 * fnorm
            assert res.error <= upper + LP_TOL * fnorm

    def test_functions_in_the_span_get_a_roundoff_interval(self,
                                                           circle256_es, rng):
        # the residual is roundoff; a dual point built from it must not
        # report a bound of the size of f (seen at large p when the bound
        # was evaluated on f instead of the residual)
        es = circle256_es
        for _ in range(300):
            c = np.zeros(es.n_eigen)
            c[:3] = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-8.0, 0.0)
            f = synthesize(es, CoefVector(c))
            p = rng.uniform(1.0, 20.0)
            fnorm = lp_norm(es.model, f, p)
            res = best_approx(es.model, es, f, 1.0, p)
            assert res.converged
            assert res.error <= 1e-12 * fnorm
            assert res.lower_bound <= res.error + 1e-12 * fnorm

    def test_projection_bound_on_mesh(self, icosphere3_es, rng):
        # orthonormality holds only to about 1e-8 on a mesh
        es = icosphere3_es
        f = random_band(es, rng, es.n_eigen)
        fnorm = lp_norm(es.model, f, 2.0)
        for omega in (2.0, 6.0, 12.0):
            res = best_approx(es.model, es, f, omega, 2.0)
            assert res.solver == "projection" and res.converged
            assert res.lower_bound <= res.error + 1e-12 * fnorm
            assert res.error - res.lower_bound <= LP_TOL * fnorm


@pytest.fixture
def highs_runs(monkeypatch):
    """(rows, status, simplex iterations) of every HiGHS run, in order."""
    runs = []

    class Recording(highs._Highs):
        def run(self):
            status = super().run()
            runs.append((self.getNumRow(), self.getModelStatus(),
                         self.getInfo().simplex_iteration_count))
            return status

    monkeypatch.setattr(highs, "_Highs", Recording)
    return runs


def solve_on_all_rows(es, f, omega):
    """best_approx at p = inf with the program on every node from the
    start, through the same _highs_solve given no working set."""
    solve = approx._highs_solve
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(approx, "_highs_solve", lambda *args: solve(*args[:7]))
        return best_approx(es.model, es, f, omega, np.inf)


@pytest.fixture(scope="module")
def working_set_systems(circle256_es, torus16_es, sphere16_es, icosphere3_es):
    return {"circle": circle256_es, "torus2": torus16_es,
            "sphere2": sphere16_es, "mesh": icosphere3_es}


class TestWorkingSet:
    def test_square_wave_is_certified_on_a_working_set(self, circle1024_es,
                                                       highs_runs):
        # the square wave's largest projection residuals crowd at its two
        # jumps, so those nodes alone leave the first program without full
        # rank; the strided nodes supply it
        es = circle1024_es
        f = square_wave().build(es.model, es)
        fnorm = lp_norm(es.model, f, np.inf)
        res = best_approx(es.model, es, f, 256.0, np.inf)
        assert res.solver == "lp-highs" and res.converged
        assert abs(res.error - res.lower_bound) <= LP_TOL * fnorm
        optimal = highs.HighsModelStatus.kOptimal
        assert all(status == optimal for _, status, _ in highs_runs)
        assert len(highs_runs) > 1
        assert highs_runs[-1][0] < es.model.n_nodes
        assert res.iterations == sum(iters for _, _, iters in highs_runs) > 0
        full = solve_on_all_rows(es, f, 256.0)
        assert full.converged and highs_runs[-1][0] == es.model.n_nodes
        assert abs(res.error - full.error) <= LP_TOL * fnorm

    def test_failed_working_set_run_solves_all_rows(self, circle1024_es,
                                                    monkeypatch):
        es = circle1024_es
        f = square_wave().build(es.model, es)
        fnorm = lp_norm(es.model, f, np.inf)
        full = solve_on_all_rows(es, f, 64.0)
        runs = []

        class FirstRunFails(highs._Highs):
            # the first run stops at the iteration limit, before the optimum
            def run(self):
                self.setOptionValue("simplex_iteration_limit",
                                    0 if not runs else 2 ** 31 - 1)
                status = super().run()
                runs.append((self.getNumRow(), self.getModelStatus()))
                return status

        monkeypatch.setattr(highs, "_Highs", FirstRunFails)
        res = best_approx(es.model, es, f, 64.0, np.inf)
        assert runs[0][0] < es.model.n_nodes
        assert runs[0][1] == highs.HighsModelStatus.kIterationLimit
        assert runs[1:] == [(es.model.n_nodes, highs.HighsModelStatus.kOptimal)]
        assert res.converged
        assert abs(res.error - full.error) <= LP_TOL * fnorm
        assert abs(res.lower_bound - full.lower_bound) <= LP_TOL * fnorm

    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_unresolved_function_reports_iterations(self, circle1024_es, p):
        es = circle1024_es
        f = square_wave().build(es.model, es)
        res = best_approx(es.model, es, f, 16.0, p)
        assert res.solver == "lp-highs" and res.iterations > 0


@settings(max_examples=24, deadline=None)
@given(kind=st.sampled_from(["circle", "torus2", "sphere2", "mesh"]),
       seed=st.integers(0, 2 ** 32 - 1), top=st.integers(1, 80),
       noise=st.sampled_from([0.0, 1e-3, 1.0]), cut=st.floats(0.0, 1.0))
def test_working_set_matches_the_program_on_all_nodes(working_set_systems,
                                                      kind, seed, top, noise,
                                                      cut):
    # random f: a random combination of the first eigenfunctions plus noise
    # at every node; a random cutoff below its top eigenvalue
    es = working_set_systems[kind]
    rng = np.random.default_rng(seed)
    top = min(top, es.n_eigen)
    values = es.eigenfunctions[:, :top] @ rng.standard_normal(top)
    f = GridFunction(es.model, values + noise * rng.standard_normal(len(values)))
    omega = es.eigenvalues[int(cut * (top - 1))]
    fnorm = lp_norm(es.model, f, np.inf)
    res = best_approx(es.model, es, f, omega, np.inf)
    full = solve_on_all_rows(es, f, omega)
    tol = LP_TOL * fnorm
    assert res.converged == full.converged
    if res.solver == "lp-highs":
        assert res.converged
    assert abs(res.error - full.error) <= tol
    # both intervals hold the best error
    assert res.lower_bound <= full.error + 1e-12 * fnorm
    assert full.lower_bound <= res.error + 1e-12 * fnorm
