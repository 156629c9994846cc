import numpy as np
import pytest

from besovlab.cli import write_table
from besovlab.filters import FilterFamily
from besovlab.manifold import GridFunction, build_circle
from besovlab.operators import (KernelMatrix, apply_filter, apply_kernel,
                                build_kernel, fit_decay_constant,
                                kernel_alpha_norms, operator_norm_estimate,
                                weighted_decay_integral, young_apply_check)
from besovlab.spectrum import CoefVector, build_eigensystem, synthesize

FAM = FilterFamily()


def random_bandlimited(es, rng, count):
    c = np.zeros(es.n_eigen)
    c[:count] = rng.standard_normal(count)
    return synthesize(es, CoefVector(c))


class TestApplyFilter:
    def test_plateau_is_identity(self, circle512_es_1024, rng):
        # h = 1 on [0,1]: with t^2 * band <= 1 every mode passes unchanged
        es = circle512_es_1024
        f = random_bandlimited(es, rng, es.n_eigen)
        t = 1.0 / np.sqrt(es.band_limit)
        out = apply_filter(es, FAM.h, t, f)
        assert np.abs(out.values - f.values).max() < 1e-10

    def test_band_filter_kills_constant(self, circle512_es_1024):
        es = circle512_es_1024
        f = GridFunction(es.model, np.ones(es.model.n_nodes))
        out = apply_filter(es, FAM.F, 0.5, f)
        assert np.abs(out.values).max() < 1e-12

    def test_dyadic_block_scales_single_mode(self, circle512_es_1024):
        # G = F_2 at t^2 lambda = 32 multiplies u_l by F(8)
        es = circle512_es_1024
        l = es.index_of(("cos", 1))  # lambda = 1
        t = np.sqrt(32.0)
        f = GridFunction(es.model, es.eigenfunctions[:, l].copy())
        out = apply_filter(es, lambda lam: FAM.f_j(2, lam), t, f)
        expected = FAM.F(8.0) * f.values
        assert np.abs(out.values - expected).max() < 1e-12

    def test_rejects_nonpositive_t(self, circle512_es_1024):
        es = circle512_es_1024
        f = GridFunction(es.model, np.ones(es.model.n_nodes))
        with pytest.raises(ValueError):
            apply_filter(es, FAM.F, 0.0, f)


class TestBuildKernel:
    def test_reproducing_kernel_trace(self, circle512_es_1024):
        # G = 1 on the band: the kernel reproduces the span, and the weighted
        # trace counts the eigenfunctions
        es = circle512_es_1024
        k = build_kernel(es, lambda lam: np.ones_like(lam), 1.0)
        trace = float(es.model.weights @ np.diag(k.matrix))
        assert trace == pytest.approx(es.n_eigen, rel=1e-10)

    def test_zero_filter(self, circle512_es_1024):
        es = circle512_es_1024
        k = build_kernel(es, lambda lam: 0.0 * lam, 1.0)
        assert np.all(k.matrix == 0.0)

    def test_symmetry(self, circle512_es_1024):
        k = build_kernel(circle512_es_1024, FAM.F, 0.25)
        assert np.abs(k.matrix - k.matrix.T).max() < 1e-10

    def test_quadrature_route_matches_spectral_route(self, circle512_es_1024, rng):
        es = circle512_es_1024
        k = build_kernel(es, FAM.F, 0.25)
        for _ in range(5):
            f = random_bandlimited(es, rng, es.n_eigen)
            via_coeffs = apply_filter(es, FAM.F, 0.25, f)
            via_kernel = apply_kernel(k, f)
            assert np.abs(via_coeffs.values - via_kernel.values).max() < 1e-10


class TestAlphaNorms:
    def test_zero_kernel(self, circle512_es_1024):
        es = circle512_es_1024
        k = KernelMatrix(es.model, np.zeros((512, 512)), 1.0)
        assert kernel_alpha_norms(k, 1.0) == (0.0, 0.0)

    def test_symmetric_row_equals_column(self, circle512_es_1024):
        k = build_kernel(circle512_es_1024, FAM.F, 0.25)
        row, col = kernel_alpha_norms(k, 3.0)
        assert row == pytest.approx(col, abs=1e-12)

    def test_alpha_one_regression(self, circle512):
        # Schur alpha=1 bound with alpha' = inf carries no power of t;
        # recorded value from the frozen filter family
        es = build_eigensystem(circle512, 65025.0)
        k = build_kernel(es, FAM.F, 0.25)
        row, _ = kernel_alpha_norms(k, 1.0)
        assert row == pytest.approx(1.5914196287866385, rel=1e-10)

    def test_rejects_alpha_below_one(self, circle512_es_1024):
        k = build_kernel(circle512_es_1024, FAM.F, 0.25)
        with pytest.raises(ValueError):
            kernel_alpha_norms(k, 0.5)


class TestYoung:
    def test_zero_kernel_trivial(self, circle512_es_1024):
        es = circle512_es_1024
        k = KernelMatrix(es.model, np.zeros((512, 512)), 1.0)
        f = GridFunction(es.model, np.ones(512))
        lhs, rhs = young_apply_check(k, f, 2.0, 2.0, 1.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_convolution_case_random(self, rng):
        # p = q, alpha = 1 on random kernels and functions
        m = build_circle(64)
        for _ in range(100):
            mat = rng.standard_normal((64, 64))
            k = KernelMatrix(m, 0.5 * (mat + mat.T), 1.0)
            f = GridFunction(m, rng.standard_normal(64))
            p = float(rng.choice([1.0, 1.5, 2.0, 4.0, np.inf]))
            lhs, rhs = young_apply_check(k, f, p, p, 1.0)
            assert lhs <= rhs + 1e-12

    def test_p1_alpha_q_nonnegative(self, rng):
        m = build_circle(64)
        for _ in range(100):
            k = KernelMatrix(m, np.abs(rng.standard_normal((64, 64))), 1.0)
            f = GridFunction(m, np.abs(rng.standard_normal(64)))
            q = float(rng.choice([1.0, 2.0, 3.0]))
            lhs, rhs = young_apply_check(k, f, 1.0, q, q)
            assert lhs <= rhs + 1e-12

    def test_rejects_bad_exponents(self, circle512_es_1024):
        es = circle512_es_1024
        k = build_kernel(es, FAM.F, 0.25)
        f = GridFunction(es.model, np.ones(512))
        with pytest.raises(ValueError):
            young_apply_check(k, f, 2.0, 3.0, 2.0)


class TestModelMatch:
    def test_function_from_another_model_rejected(self, circle512_es_1024):
        k = build_kernel(circle512_es_1024, FAM.F, 0.25)
        f = GridFunction(build_circle(512), np.ones(512))
        with pytest.raises(ValueError, match="share a model"):
            apply_kernel(k, f)
        with pytest.raises(ValueError, match="share a model"):
            young_apply_check(k, f, 2.0, 2.0, 1.0)


class TestDecayFit:
    def test_zero_kernel(self, circle512_es_1024):
        es = circle512_es_1024
        k = KernelMatrix(es.model, np.zeros((512, 512)), 0.25)
        fit = fit_decay_constant(k, 3.0)
        assert fit.C == 0.0

    def test_larger_exponent_grows_constant(self, circle512_es_1024):
        k = build_kernel(circle512_es_1024, FAM.F, 0.25)
        c3 = fit_decay_constant(k, 3.0).C
        c6 = fit_decay_constant(k, 6.0).C
        assert c6 >= c3

    def test_bound_holds_everywhere(self, circle512_es_1024):
        k = build_kernel(circle512_es_1024, FAM.F, 0.25)
        fit = fit_decay_constant(k, 3.0)
        d = circle512_es_1024.model.distance_matrix()
        slack = fit.C * 0.25 ** -1 * (1.0 + d / 0.25) ** -3.0 - np.abs(k.matrix)
        assert slack.min() >= -1e-12 * fit.C

    @pytest.mark.parametrize("t", [0.125, 0.25])
    def test_fits_at_the_kernel_scale(self, circle512_es_1024, t):
        # the envelope is C t^-n (1 + d/t)^-N at the kernel's own t, and the
        # minimal C makes it touch |K| somewhere
        k = build_kernel(circle512_es_1024, FAM.F, t)
        fit = fit_decay_constant(k, 3.0)
        assert fit.t == k.t == t
        d = circle512_es_1024.model.distance_matrix()
        slack = fit.C * t ** -1 * (1.0 + d / t) ** -3.0 - np.abs(k.matrix)
        assert slack.min() == pytest.approx(0.0, abs=1e-12 * fit.C)

    def test_uniformity_over_scales(self, circle512):
        es = build_eigensystem(circle512, 65025.0)
        cs = []
        for j in range(2, 7):
            t = 2.0 ** (-j)
            k = build_kernel(es, FAM.F, t)
            cs.append(fit_decay_constant(k, 3.0).C)
        assert max(cs) / min(cs) < 4.0

    def test_rejects_small_exponent(self, circle512_es_1024):
        k = build_kernel(circle512_es_1024, FAM.F, 0.25)
        with pytest.raises(ValueError):
            fit_decay_constant(k, 1.0)

    def test_csv_export(self, tmp_path, circle512_es_1024):
        k = build_kernel(circle512_es_1024, FAM.F, 0.25)
        fit = fit_decay_constant(k, 3.0)
        write_table(str(tmp_path), "decay", ["t", "N", "C", "max_abs_K", "runtime_ms"],
                    [[fit.t, fit.N, fit.C, fit.max_abs_kernel, 12.0]])
        lines = (tmp_path / "decay.csv").read_text().strip().splitlines()
        assert lines[0] == "t,N,C,max_abs_K,runtime_ms"
        assert len(lines) == 2


class TestVolumeEstimate:
    def test_circle_uniform_over_scales(self, circle512):
        vals = [weighted_decay_integral(circle512, 2.0 ** (-j), 3.0)
                for j in range(1, 7)]
        assert max(vals) / min(vals) < 8.0

    def test_sphere_uniform_at_resolved_scales(self, sphere16):
        # scales below the node spacing are not resolvable at desk scale
        vals = [weighted_decay_integral(sphere16, 2.0 ** (-j), 4.0)
                for j in range(1, 4)]
        assert max(vals) / min(vals) < 8.0


class TestOperatorNormEstimate:
    def test_contraction_for_bounded_multiplier(self, circle512_es_1024):
        est = operator_norm_estimate(circle512_es_1024, FAM.F, 0.25, 2.0, 2.0,
                                     trials=24, seed=5)
        assert est <= 1.0 + 1e-12

    def test_zero_multiplier(self, circle512_es_1024):
        est = operator_norm_estimate(circle512_es_1024, lambda lam: 0.0 * lam,
                                     0.25, 2.0, 2.0, trials=8, seed=5)
        assert est == 0.0

    def test_deterministic_given_seed(self, circle512_es_1024):
        a = operator_norm_estimate(circle512_es_1024, FAM.F, 0.25, 1.0, 1.0,
                                   trials=16, seed=11)
        b = operator_norm_estimate(circle512_es_1024, FAM.F, 0.25, 1.0, 1.0,
                                   trials=16, seed=11)
        assert a == b

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_no_growth_across_scales(self, circle512, p):
        es = build_eigensystem(circle512, 65025.0)
        ests = [operator_norm_estimate(es, FAM.F, 2.0 ** (-j), p, p,
                                       trials=24, seed=99)
                for j in range(1, 7)]
        assert max(ests) / min(ests) < 2.0
