import gc
import weakref

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from besovlab.analysis import (BAND_CHECK, K_T_GRID, LP_BLOCKS, LP_NORM,
                               BesovParams, ErrorCache, a_norm, a_norm_continuous,
                               bandlimited_coefficients, bernstein_ratio,
                               errors_at_cutoffs, interpolation_norm,
                               is_bandlimited, jackson_ratios,
                               k_functional_quadratic, lp_comparator_norm)
from besovlab.corpus import default_corpus, lacunary
from besovlab.manifold import GridFunction, build_circle, lp_norm
from besovlab.spectrum import CoefVector, build_eigensystem, synthesize


def pure(es, l):
    return GridFunction(es.model, es.eigenfunctions[:, l].copy())


def random_coefs(es, rng, count):
    c = np.zeros(es.n_eigen)
    c[:count] = rng.standard_normal(count)
    return CoefVector(c)


def random_band(es, rng, count):
    return synthesize(es, random_coefs(es, rng, count))


class TestBesovParams:
    @pytest.mark.parametrize("bad", [{"alpha": np.nan}, {"alpha": -1.0},
                                     {"alpha": 0.0}, {"alpha": np.inf},
                                     {"p": np.nan}, {"p": 0.5}, {"q": np.nan},
                                     {"q": -1.0}, {"q": 0.0}])
    def test_rejects_nan_and_out_of_range(self, bad):
        args = dict(alpha=1.0, p=2.0, q=2.0, J=3) | bad
        with pytest.raises(ValueError):
            BesovParams(**args)

    def test_accepts_infinite_p_and_q(self):
        BesovParams(alpha=1.0, p=np.inf, q=np.inf, J=3)

    @pytest.mark.parametrize("J", [1.5, 2.0])
    def test_rejects_a_non_integer_J(self, J):
        with pytest.raises(ValueError, match=f"J must be an integer, not {J}"):
            BesovParams(alpha=1.0, p=2.0, q=2.0, J=J)

    def test_accepts_a_numpy_integer_J(self):
        BesovParams(alpha=1.0, p=2.0, q=2.0, J=np.int64(3))

    def test_rejects_a_J_whose_top_cutoff_overflows(self):
        with pytest.raises(ValueError, match="J is 512; 4\\^J overflows a float"):
            BesovParams(alpha=1.0, p=2.0, q=2.0, J=512)

    def test_largest_J_constructs_and_norms_refuse_it(self, circle1024_es):
        # 4^511 is the largest power of 4 below the float maximum
        params = BesovParams(alpha=1.0, p=2.0, q=2.0, J=511)
        f = pure(circle1024_es, 1)
        for norm in (a_norm, a_norm_continuous):
            with pytest.raises(ValueError, match="4\\^J exceeds the computed band"):
                norm(circle1024_es, f, params)


class TestSharedCache:
    def test_norms_share_each_solve(self, monkeypatch, rng):
        # a_norm, jackson_ratios and lp_comparator_norm on one cache: every
        # (p, omega) is solved once, and the p = 1 results keep their
        # LP certificate
        import besovlab.analysis as analysis
        model = build_circle(128)
        es = build_eigensystem(model, 63.0 ** 2)
        f = random_band(es, rng, es.cutoff_index(256.0))
        solved = []
        orig = analysis.best_approx

        def counting(model, eigsys, f, omega, p):
            solved.append((float(p), float(omega)))
            return orig(model, eigsys, f, omega, p)

        monkeypatch.setattr(analysis, "best_approx", counting)
        cache = ErrorCache()
        cutoffs = [1.0, 4.0, 16.0, 64.0]
        for p in (1.0, 2.0):
            params = BesovParams(alpha=1.0, p=p, q=2.0, J=3)
            a = a_norm(es, f, params, cache)
            jackson_ratios(es, f, 2, p, 3, cache)
            assert (lp_comparator_norm(es, f, params, cache=cache)
                    == lp_comparator_norm(es, f, params))
            assert a_norm(es, f, params, cache) == a
        assert len(solved) == len(set(solved)) == 8
        results = {p: errors_at_cutoffs(es, f, p, cutoffs, cache) for p in (1.0, 2.0)}
        assert len(solved) == 8
        for r in results[1.0]:
            assert r.solver == "lp-highs" and r.converged
            assert r.lower_bound is not None
            assert abs(r.error - r.lower_bound) <= 1e-9 * lp_norm(model, f, 1.0)
        for r in results[2.0]:
            assert r.solver == "projection" and r.converged
            assert abs(r.error - r.lower_bound) <= 1e-12 * lp_norm(model, f, 2.0)


FIXTURES = ["circle512_es_1024", "torus16_es", "sphere16_es", "icosphere3_es"]


class TestReadersThroughACache:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_values_equal_the_cache_less_ones(self, request, fixture, rng):
        es = request.getfixturevalue(fixture)
        J = int(np.floor(np.log(es.band_limit) / np.log(4.0)))
        omega = 4.0 ** J
        f = random_band(es, rng, es.cutoff_index(omega))
        rough = GridFunction(es.model, rng.standard_normal(es.model.n_nodes))
        cache = ErrorCache()
        assert is_bandlimited(es, f, cache) is is_bandlimited(es, f) is True
        assert is_bandlimited(es, rough, cache) is is_bandlimited(es, rough) is False
        assert jackson_ratios(es, f, 2, 2.0, J, cache) == jackson_ratios(es, f, 2, 2.0, J)
        for k in (1, 2):
            assert (interpolation_norm(es, f, 0.5, k, cache)
                    == interpolation_norm(es, f, 0.5, k))
        for g in (f, rough):
            for p in (1.0, 2.0, 4.0, np.inf):
                params = BesovParams(alpha=1.0, p=p, q=2.0, J=J)
                assert (lp_comparator_norm(es, g, params, cache=cache)
                        == lp_comparator_norm(es, g, params))
        with pytest.raises(ValueError, match="not bandlimited"):
            bandlimited_coefficients(es, rough, cache)
        np.testing.assert_array_equal(
            bandlimited_coefficients(es, f, cache).coefficients,
            bandlimited_coefficients(es, f).coefficients)

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_per_function_entries_answer_only_their_own_lookups(
            self, request, fixture, rng, monkeypatch):
        import besovlab.analysis as analysis
        es = request.getfixturevalue(fixture)
        f = random_band(es, rng, es.cutoff_index(4.0))
        cache = ErrorCache()
        is_bandlimited(es, f, cache)
        lp_comparator_norm(es, f, BesovParams(alpha=1.0, p=2.0, q=2.0, J=1),
                           cache=cache)
        check = cache.lookup(es, f, None, BAND_CHECK)
        blocks = cache.lookup(es, f, None, LP_BLOCKS)
        assert check[1] is True and len(blocks) > 1
        for p in (1.0, 2.0, 4.0, np.inf):
            for omega in (1.0, 4.0, 16.0):
                assert cache.lookup(es, f, p, omega) is None
            if p != 2.0:
                assert cache.lookup(es, f, p, LP_BLOCKS) is None
        assert cache.lookup(es, f, None, 4.0) is None
        # a rebuilt copy hits both entries and projects nothing
        again = GridFunction(es.model, f.values.copy())
        assert cache.lookup(es, again, None, BAND_CHECK) is check
        assert cache.lookup(es, again, None, LP_BLOCKS) is blocks
        monkeypatch.setattr(analysis, "project", None)
        assert is_bandlimited(es, again, cache)
        lp_comparator_norm(es, again, BesovParams(alpha=1.0, p=4.0, q=2.0, J=1),
                           cache=cache)


@pytest.mark.parametrize("norm, alpha, q", [
    (lp_comparator_norm, 200.0, 1.0), (lp_comparator_norm, 0.5, 0.002),
    (lp_comparator_norm, 0.5, 1e-300), (a_norm, 2000.0, 1.0), (a_norm, 0.5, 1e-300)])
def test_dyadic_sum_that_is_not_finite_is_rejected(norm, alpha, q):
    # 2^(alpha j) overflows, or the l_q sum over the blocks does
    es = build_eigensystem(build_circle(128), 63.0 ** 2)
    f = lacunary(0.5, 5).build(es.model, es)
    with pytest.raises(ValueError, match=rf"alpha = {alpha:g}, q = {q:g}: a weight"):
        norm(es, f, BesovParams(alpha=alpha, p=2.0, q=q, J=1))


class TestANorm:
    def test_zero_function(self, circle512_es_1024):
        es = circle512_es_1024
        f = GridFunction(es.model, np.zeros(es.model.n_nodes))
        assert a_norm(es, f, BesovParams(alpha=1.0, p=2.0, q=2.0, J=3)) == 0.0
        assert lp_norm(es.model, f, 2.0) == 0.0

    def test_lowest_mode_reduces_to_lp(self, circle512_es_1024):
        # u with lambda = 1 is inside every dyadic cutoff 4^j >= 1
        es = circle512_es_1024
        f = pure(es, es.index_of(("cos", 1)))
        cache = ErrorCache()
        for p in (1.0, 2.0, np.inf):
            a = a_norm(es, f, BesovParams(alpha=0.7, p=p, q=1.0, J=3), cache)
            assert a == pytest.approx(lp_norm(es.model, f, p), abs=1e-9)
            results = errors_at_cutoffs(es, f, p, [4.0 ** j for j in range(4)], cache)
            assert max(2.0 ** (0.7 * j) * r.error for j, r in enumerate(results)) < 1e-9

    def test_sup_term_attained_at_zero(self, circle512_es_1024):
        # lacunary alpha0 = 1 with params alpha = 0.5, q = inf: terms
        # 2^(j/2) E_j ~ 2^(-j/2) decay, so the sup sits at j = 0
        es = circle512_es_1024
        f = lacunary(1.0, 5).build(es.model, es)
        cache = ErrorCache()
        a = a_norm(es, f, BesovParams(alpha=0.5, p=2.0, q=np.inf, J=5), cache)
        results = errors_at_cutoffs(es, f, 2.0, [4.0 ** j for j in range(6)], cache)
        terms = [2.0 ** (0.5 * j) * r.error for j, r in enumerate(results)]
        assert max(terms) == terms[0]
        assert a == pytest.approx(lp_norm(es.model, f, 2.0) + terms[0], rel=1e-12)

    def test_monotone_in_alpha(self, circle512_es_1024, rng):
        es = circle512_es_1024
        f = random_band(es, rng, es.n_eigen // 2)
        cache = ErrorCache()
        lo = a_norm(es, f, BesovParams(alpha=0.5, p=2.0, q=2.0, J=3), cache)
        hi = a_norm(es, f, BesovParams(alpha=1.5, p=2.0, q=2.0, J=3), cache)
        assert lo <= hi

    def test_quasinorm_small_q(self, circle512_es_1024):
        es = circle512_es_1024
        f = lacunary(1.0, 5).build(es.model, es)
        a = a_norm(es, f, BesovParams(alpha=0.5, p=2.0, q=0.5, J=5))
        assert np.isfinite(a) and a > lp_norm(es.model, f, 2.0)

    def test_function_norm_taken_once_per_p(self, circle512_es_1024, rng,
                                            monkeypatch):
        # a_norm and a_norm_continuous over an (alpha, q) grid, the
        # interpolation norm and the Jackson floor on one cache take each
        # ||f||_p once, and every value equals the cache-less one exactly
        import besovlab.analysis as analysis
        es = circle512_es_1024
        funcs = [lacunary(1.0, 5).build(es.model, es), random_band(es, rng, 20)]
        ps = (1.0, 2.0, 4.0)
        grid = [BesovParams(alpha, p, q, 2) for p in ps
                for alpha in (0.5, 1.0, 1.5) for q in (1.0, np.inf)]

        def norms(f, cache=None):
            return ([a_norm(es, f, params, cache) for params in grid]
                    + [a_norm_continuous(es, f, params, cache) for params in grid]
                    + [interpolation_norm(es, f, 0.5, 2, cache)]
                    + [jackson_ratios(es, f, 2, p, 2, cache) for p in ps])

        expected = [norms(f) for f in funcs]
        taken = []
        orig = analysis.lp_norm

        def counting(model, g, p):
            taken.append((g.values.tobytes(), float(p)))
            return orig(model, g, p)

        monkeypatch.setattr(analysis, "lp_norm", counting)
        cache = ErrorCache()
        assert [norms(f, cache) for f in funcs] == expected
        own = [(f.values.tobytes(), p) for f in funcs for p in ps]
        assert sorted(t for t in taken if t in own) == sorted(own)
        for f in funcs:
            for p in ps:
                assert cache.lookup(es, f, p, LP_NORM) == orig(es.model, f, p)


class TestANormContinuous:
    def test_zero_function(self, circle512_es_1024):
        es = circle512_es_1024
        f = GridFunction(es.model, np.zeros(es.model.n_nodes))
        val = a_norm_continuous(es, f, BesovParams(alpha=1.0, p=2.0, q=2.0, J=3))
        assert val == 0.0

    def test_rejects_a_range_beyond_the_band(self, circle512_es_1024):
        es = circle512_es_1024       # band 1024 = 4^5
        f = lacunary(1.0, 4).build(es.model, es)
        with pytest.raises(ValueError, match="band limit"):
            a_norm_continuous(es, f, BesovParams(alpha=1.0, p=2.0, q=2.0, J=6))

    @pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
    def test_comparable_to_dyadic(self, circle512_es_1024, q):
        es = circle512_es_1024
        cache = ErrorCache()
        for entry in default_corpus("circle"):
            f = entry.build(es.model, es)
            params = BesovParams(alpha=1.0, p=2.0, q=q, J=5)
            a = a_norm(es, f, params, cache)
            cont = a_norm_continuous(es, f, params, cache)
            assert 1.0 / 8.0 <= a / cont <= 8.0


class TestErrorCache:
    def test_rebuilt_function_hits(self, circle512_es_1024):
        es = circle512_es_1024
        cache = ErrorCache()
        f = lacunary(1.0, 4).build(es.model, es)
        results = errors_at_cutoffs(es, f, 1.0, [1.0, 4.0], cache)
        again = lacunary(1.0, 4).build(es.model, es)
        assert again is not f
        assert all(cache.lookup(es, again, 1.0, w) is r
                   for w, r in zip((1.0, 4.0), results))

    def test_different_values_or_model_miss(self, circle512_es_1024):
        es = circle512_es_1024
        cache = ErrorCache()
        f = lacunary(1.0, 4).build(es.model, es)
        assert cache.get(es, f, 1.0, 4.0, lambda: 0.5) == 0.5
        shifted = GridFunction(es.model, f.values + 1e-12)
        assert cache.lookup(es, shifted, 1.0, 4.0) is None
        other = build_circle(es.model.n_nodes)
        assert cache.lookup(es, GridFunction(other, f.values.copy()), 1.0, 4.0) is None
        assert cache.lookup(es, f, 2.0, 4.0) is None
        assert cache.lookup(es, f, 1.0, 16.0) is None
        assert cache.lookup(es, f, 1.0, 4.0) == 0.5

    @pytest.mark.parametrize("falsy", [0.0, ()])
    def test_get_counts_a_falsy_entry_as_a_hit(self, circle512_es_1024, falsy):
        # a zero error or an empty tuple is an entry: only None is a miss
        es = circle512_es_1024
        f = lacunary(1.0, 4).build(es.model, es)
        cache = ErrorCache()
        calls = []

        def compute():
            calls.append(falsy)
            return falsy

        assert cache.get(es, f, 1.0, 4.0, compute) == falsy
        again = GridFunction(es.model, f.values.copy())
        assert cache.get(es, again, 1.0, 4.0, compute) == falsy
        assert cache.lookup(es, f, 1.0, 4.0) == falsy
        assert len(calls) == 1

    def test_eigensystems_of_one_model_do_not_share_entries(self):
        # lacunary(1, 4) reaches lambda = 256: inside band 1000, beyond band 100
        model = build_circle(256)
        es_big, es_small = build_eigensystem(model, 1000.0), build_eigensystem(model, 100.0)
        f = lacunary(1.0, 4).build(model, es_big)
        cache = ErrorCache()
        assert is_bandlimited(es_big, f, cache)
        assert not is_bandlimited(es_small, f, cache)
        with pytest.raises(ValueError, match="not bandlimited"):
            jackson_ratios(es_small, f, 2, 2.0, 3, cache=cache)
        g = lacunary(1.0, 3).build(model, es_big)   # lambda <= 64, in both bands
        fresh = jackson_ratios(es_small, g, 2, 2.0, 3)
        assert jackson_ratios(es_big, g, 2, 2.0, 3, cache=cache) == fresh
        assert jackson_ratios(es_small, g, 2, 2.0, 3, cache=cache) == fresh

    def test_does_not_pin_functions(self, circle512_es_1024):
        es = circle512_es_1024
        cache = ErrorCache()
        f = lacunary(1.0, 4).build(es.model, es)
        values = f.values.copy()
        errors_at_cutoffs(es, f, 2.0, [1.0, 4.0], cache)
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None
        assert cache.lookup(es, GridFunction(es.model, values), 2.0, 4.0) is not None


class TestComparatorNorm:
    def test_low_band_reduces_to_lp(self, circle512_es_1024):
        # span {lambda <= 1}: F_0 = 1 there and every F_j (j >= 1) vanishes
        es = circle512_es_1024
        c = np.zeros(es.n_eigen)
        c[:es.cutoff_index(1.0)] = [0.3, -1.2, 0.5]
        f = synthesize(es, CoefVector(c))
        params = BesovParams(alpha=1.0, p=2.0, q=2.0, J=5)
        assert lp_comparator_norm(es, f, params) == pytest.approx(
            lp_norm(es.model, f, 2.0), rel=1e-10)

    def test_zero(self, circle512_es_1024):
        es = circle512_es_1024
        f = GridFunction(es.model, np.zeros(es.model.n_nodes))
        params = BesovParams(alpha=1.0, p=2.0, q=2.0, J=5)
        assert lp_comparator_norm(es, f, params) == 0.0

    @pytest.mark.parametrize("q", [0.5, 2.0, np.inf])
    def test_band_below_one_holds_block_zero_alone(self, q):
        # no block j >= 1 fits under the band: the sum over them is empty
        es = build_eigensystem(build_circle(8), 0.5)
        f = GridFunction(es.model, np.full(8, 2.0))
        params = BesovParams(alpha=1.0, p=2.0, q=q, J=1)
        assert lp_comparator_norm(es, f, params) == pytest.approx(
            lp_norm(es.model, f, 2.0), rel=1e-12)

    def test_corpus_equivalence_constant(self, circle512_es_1024):
        # recorded constant: observed c ~ 4.6 at this scale, asserted < 50
        es = circle512_es_1024
        cache = ErrorCache()
        worst = 1.0
        for entry in default_corpus("circle"):
            f = entry.build(es.model, es)
            params = BesovParams(alpha=1.0, p=2.0, q=2.0, J=5)
            a = a_norm(es, f, params, cache)
            comp = lp_comparator_norm(es, f, params, cache=cache)
            ratio = a / comp
            worst = max(worst, ratio, 1.0 / ratio)
        assert worst < 50.0

    def test_block_norms_read_once_per_p(self, circle512_es_1024, monkeypatch):
        # the block functions F_j(L)f depend only on f and their norms only
        # on (f, p): a 3x3 (alpha, q) grid at p = 1, 2, inf on one cache
        # projects f once in all, and every value equals the cache-less one
        # exactly
        import besovlab.analysis as analysis
        es = circle512_es_1024
        f = lacunary(1.0, 5).build(es.model, es)
        projected = []
        orig = analysis.project

        def counting(eigsys, g):
            projected.append(g)
            return orig(eigsys, g)

        ps = (1.0, 2.0, np.inf)
        grid = [(alpha, q) for alpha in (0.5, 1.0, 1.5) for q in (1.0, 2.0, np.inf)]
        expected = {p: [lp_comparator_norm(es, f, BesovParams(alpha, p, q, 5))
                        for alpha, q in grid] for p in ps}
        monkeypatch.setattr(analysis, "project", counting)
        cache = ErrorCache()
        for p in ps:
            assert [lp_comparator_norm(es, f, BesovParams(alpha, p, q, 5), cache=cache)
                    for alpha, q in grid] == expected[p]
        assert len(projected) == 1

    def test_blocks_and_solves_share_a_cache_without_colliding(self, circle512_es_1024):
        es = circle512_es_1024
        f = lacunary(1.0, 4).build(es.model, es)
        cache = ErrorCache()
        params = BesovParams(alpha=1.0, p=2.0, q=2.0, J=2)
        comp = lp_comparator_norm(es, f, params, cache=cache)
        a = a_norm(es, f, params, cache)
        assert a >= lp_norm(es.model, f, 2.0)
        assert a_norm(es, f, params) == a
        assert lp_comparator_norm(es, f, params, cache=cache) == comp
        blocks = cache.lookup(es, f, 2.0, LP_BLOCKS)
        assert isinstance(blocks, tuple) and len(blocks) > 1
        assert cache.lookup(es, f, 2.0, 1.0).omega == 1.0


class TestJacksonRatios:
    def test_pure_eigenfunction_zero_beyond_step(self, circle512_es_1024):
        es = circle512_es_1024
        f = pure(es, es.index_of(("cos", 3)))  # lambda = 9
        ratios = jackson_ratios(es, f, 2, 2.0, 4)
        assert max(ratios[2:]) < 1e-10
        assert ratios[0] > 0

    def test_constant_all_zero(self, circle512_es_1024):
        es = circle512_es_1024
        f = GridFunction(es.model, np.ones(es.model.n_nodes))
        assert jackson_ratios(es, f, 2, 2.0, 3) == [0.0, 0.0, 0.0, 0.0]

    def test_lacunary_bounded(self, circle2048_es):
        es = circle2048_es
        f = lacunary(2.0, 8).build(es.model, es)
        ratios = np.array(jackson_ratios(es, f, 2, 2.0, 6))
        assert ratios.max() / np.median(ratios) < 10.0

    def test_rejects_non_bandlimited(self, circle512_es_1024):
        es = circle512_es_1024
        vals = np.sign(np.sin(es.model.nodes[:, 0]))
        with pytest.raises(ValueError, match="bandlimited"):
            jackson_ratios(es, GridFunction(es.model, vals), 2, 2.0, 3)

    def test_checks_and_projects_once(self, circle512_es_1024, rng, monkeypatch):
        # the bandlimit check hands its coefficients on, no second projection
        import besovlab.analysis as analysis
        es = circle512_es_1024
        f = random_band(es, rng, 9)
        calls = []
        orig = analysis.project
        monkeypatch.setattr(analysis, "project",
                            lambda es, f: calls.append(f) or orig(es, f))
        jackson_ratios(es, f, 2, 2.0, 3)
        assert len(calls) == 1


class TestBernsteinRatio:
    def test_pure_eigenfunction_closed_form(self, circle512_es_1024):
        es = circle512_es_1024
        l = es.index_of(("sin", 2))  # lambda = 4
        c = CoefVector(np.eye(es.n_eigen)[l])
        for omega in (4.0, 16.0):
            assert bernstein_ratio(es, c, 2, 2.0, omega) == pytest.approx(
                (es.eigenvalues[l] / omega) ** 2, rel=1e-10)

    def test_constant_zero(self, circle512_es_1024):
        # a caller holding samples band-checks them into coefficients first
        es = circle512_es_1024
        f = GridFunction(es.model, np.full(es.model.n_nodes, 0.7))
        c = bandlimited_coefficients(es, f)
        assert bernstein_ratio(es, c, 2, 2.0, 4.0) < 1e-9

    def test_p2_never_exceeds_one(self, circle512_es_1024, rng):
        es = circle512_es_1024
        for omega in (4.0, 16.0, 64.0):
            k_idx = es.cutoff_index(omega)
            for _ in range(30):
                c = random_coefs(es, rng, k_idx)
                assert bernstein_ratio(es, c, 2, 2.0, omega) <= 1 + 1e-12

    def test_stability_across_band(self, circle512_es_1024, rng):
        es = circle512_es_1024
        for p in (1.0, np.inf):
            worsts = []
            for omega in (4.0, 16.0, 64.0):
                k_idx = es.cutoff_index(omega)
                worst = max(bernstein_ratio(es, random_coefs(es, rng, k_idx),
                                            2, p, omega)
                            for _ in range(50))
                worsts.append(worst)
            assert max(worsts) / min(worsts) < 2.0

    def test_rejects_out_of_band_content(self, circle512_es_1024, rng):
        es = circle512_es_1024
        c = random_coefs(es, rng, es.cutoff_index(256.0))
        with pytest.raises(ValueError, match="cutoff"):
            bernstein_ratio(es, c, 2, 2.0, 4.0)

    @staticmethod
    def longdouble_ratio(es, c, k, p, omega):
        """The ratio of the circle's trigonometric polynomial sum_l c_l u_l,
        evaluated at the nodes in np.longdouble (uniform weights cancel)."""
        pi = 4 * np.arctan(np.longdouble(1))
        n = es.model.n_nodes
        theta = 2 * pi * np.arange(n, dtype=np.longdouble) / n
        f = np.zeros(n, dtype=np.longdouble)
        rough = np.zeros(n, dtype=np.longdouble)
        for coef, label in zip(c.coefficients.astype(np.longdouble), es.labels):
            if label == ("const",):
                m, col = 0, np.full(n, 1 / np.sqrt(2 * pi))
            else:
                kind, m = label
                col = (np.cos if kind == "cos" else np.sin)(m * theta) / np.sqrt(pi)
            f += coef * col
            rough += coef * np.longdouble(m) ** (2 * k) * col
        norm = (lambda v: np.abs(v).max()) if np.isinf(p) else (lambda v: np.abs(v).sum())
        return float(norm(rough) / (np.longdouble(omega) ** k * norm(f)))

    def test_ratios_match_an_extended_precision_evaluation(self, circle512_es):
        # full band: L^2 would scale roundoff left above omega by up to
        # (65025 / 4)^2; the sample route (synthesize, then project) missed
        # this reference by up to 1.6e-5 on these draws
        es = circle512_es
        rng = np.random.default_rng(7)
        for omega in (4.0, 16.0, 64.0):
            idx = es.cutoff_index(omega)
            for _ in range(8):
                c = random_coefs(es, rng, idx)
                for p in (1.0, np.inf):
                    ratio = bernstein_ratio(es, c, 2, p, omega)
                    assert ratio == pytest.approx(
                        self.longdouble_ratio(es, c, 2, p, omega), rel=1e-12)

    def test_roundoff_above_the_cutoff_leaves_the_ratio_unchanged(
            self, circle512_es, rng):
        es = circle512_es
        for omega in (4.0, 16.0, 64.0):
            idx = es.cutoff_index(omega)
            c = random_coefs(es, rng, idx).coefficients
            noisy = c.copy()
            noisy[idx:] = 1e-17 * np.abs(c).max() * rng.choice(
                [-1.0, 1.0], es.n_eigen - idx)
            for p in (1.0, 2.0, np.inf):
                assert (bernstein_ratio(es, CoefVector(noisy), 2, p, omega)
                        == bernstein_ratio(es, CoefVector(c), 2, p, omega))


class TestKFunctional:
    def test_vanishes_at_zero(self, circle512_es_1024, rng):
        es = circle512_es_1024
        f = random_band(es, rng, 9)
        assert k_functional_quadratic(es, f, 0.0, 2) == 0.0
        assert k_functional_quadratic(es, f, 1e-9, 2) < 1e-6

    def test_saturates_at_function_norm(self, circle512_es_1024, rng):
        es = circle512_es_1024
        f = random_band(es, rng, 9)
        norm2 = lp_norm(es.model, f, 2)
        assert k_functional_quadratic(es, f, 1e6, 2) == pytest.approx(norm2,
                                                                      rel=1e-6)

    def test_single_mode_matches_golden_section(self, circle512_es_1024):
        # independent oracle: 1-D minimization of (c-g)^2 + t^2 mu g^2
        es = circle512_es_1024
        for l in (0, 3, 8):
            f = pure(es, l)
            lam = es.eigenvalues[l]
            mu = (1.0 + lam) ** 2  # k = 2
            for t in (0.05, 0.4, 2.0):
                res = minimize_scalar(lambda g: (1 - g) ** 2 + t * t * mu * g * g,
                                      bracket=(0.0, 1.0), method="golden",
                                      options={"xtol": 1e-13})
                oracle = np.sqrt(res.fun)
                val = k_functional_quadratic(es, f, t, 2)
                assert val == pytest.approx(oracle, abs=1e-8)

    def test_bounded_and_monotone(self, circle512_es_1024, rng):
        es = circle512_es_1024
        ts = np.geomspace(1e-3, 10.0, 25)
        for _ in range(100):
            f = random_band(es, rng, 17)
            norm2 = lp_norm(es.model, f, 2)
            vals = [k_functional_quadratic(es, f, t, 2) for t in ts]
            assert all(v <= norm2 * (1 + 1e-12) for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_a_negative_order_or_nan_t(self, circle512_es_1024, rng):
        # lambda_0 = 0 to a negative power made mu infinite and K NaN
        es = circle512_es_1024
        f = random_band(es, rng, 9)
        with pytest.raises(ValueError, match="order"):
            k_functional_quadratic(es, f, 0.5, -1)
        with pytest.raises(ValueError, match="order"):
            interpolation_norm(es, f, 0.5, -1)
        with pytest.raises(ValueError, match="t must"):
            k_functional_quadratic(es, f, np.nan, 2)

    def test_concave_in_t_squared(self, circle512_es_1024, rng):
        es = circle512_es_1024
        f = random_band(es, rng, 17)
        s = np.linspace(0.01, 4.0, 40)  # s = t^2
        vals = np.array([k_functional_quadratic(es, f, np.sqrt(x), 2) ** 2
                         for x in s])
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-9)


class TestInterpolationNorm:
    def test_zero_function(self, circle512_es_1024):
        es = circle512_es_1024
        f = GridFunction(es.model, np.zeros(es.model.n_nodes))
        assert interpolation_norm(es, f, 0.5, 2) == 0.0

    def test_k_bounded_by_norm_supports_truncation(self, circle512_es_1024, rng):
        es = circle512_es_1024
        f = random_band(es, rng, 9)
        norm2 = lp_norm(es.model, f, 2)
        for t in np.geomspace(1e-3, 1.0, 20):
            assert k_functional_quadratic(es, f, t, 2) <= norm2 * (1 + 1e-12)

    def test_comparable_to_a_norm_on_corpus(self, circle512_es_1024):
        # recorded constant: observed ratios in [0.30, 0.85] at this scale
        # (alpha = theta * k, p = q = 2), asserted within a factor 8
        es = circle512_es_1024
        cache = ErrorCache()
        for entry in default_corpus("circle"):
            f = entry.build(es.model, es)
            if not is_bandlimited(es, f):
                continue
            for alpha, k in ((0.5, 2), (1.0, 2), (1.5, 2)):
                params = BesovParams(alpha=alpha, p=2.0, q=2.0, J=5)
                an = a_norm(es, f, params, cache)
                inorm = interpolation_norm(es, f, alpha / k, k)
                assert 1.0 / 8.0 <= an / inorm <= 8.0

    def test_k_grid_evaluated_once_per_function_and_order(
            self, circle512_es_1024, rng, monkeypatch):
        # K_2(f, t) on the t-grid depends on (f, k) alone: through one cache
        # three values of theta evaluate it once, a second order once more
        import besovlab.analysis as analysis
        es = circle512_es_1024
        f = random_band(es, rng, 9)
        thetas = (0.25, 0.5, 0.75)
        expected = [interpolation_norm(es, f, theta, 2) for theta in thetas]
        orders = []
        orig = analysis._k_quadratic

        def counting(c, lam, t, k):
            orders.append(k)
            return orig(c, lam, t, k)

        monkeypatch.setattr(analysis, "_k_quadratic", counting)
        cache = ErrorCache()
        assert [interpolation_norm(es, f, theta, 2, cache) for theta in thetas] == expected
        assert orders == [2]
        interpolation_norm(es, f, 0.5, 1, cache)
        assert orders == [2, 1]

    @pytest.mark.parametrize("fixture", ["circle512_es_1024", "sphere16_es",
                                         "icosphere3_es"])
    def test_matches_per_t_k_functional(self, request, fixture, rng):
        # the grid form equals the one-t form bitwise, also where the
        # eigenvalues are not perfect squares
        es = request.getfixturevalue(fixture)
        f = random_band(es, rng, 9)
        tg = np.geomspace(1e-4, 1.0, 120)
        np.testing.assert_array_equal(K_T_GRID, tg)
        weighted = tg ** -0.5 * np.array([k_functional_quadratic(es, f, t, 2)
                                          for t in tg])
        tail = np.trapezoid(weighted ** 2.0, np.log(tg)) ** (1.0 / 2.0)
        expected = lp_norm(es.model, f, 2) + float(tail)
        assert interpolation_norm(es, f, 0.5, 2) == expected

    def test_rejects_bad_theta(self, circle512_es_1024, rng):
        es = circle512_es_1024
        f = random_band(es, rng, 5)
        with pytest.raises(ValueError):
            interpolation_norm(es, f, 1.5, 2)
