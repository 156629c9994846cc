import json

import numpy as np
import pytest

from besovlab.analysis import errors_at_cutoffs
from besovlab.approx import best_approx
from besovlab.corpus import (default_corpus, eigen_pure, lacunary,
                             lacunary_l2_error, manifest, random_bandlimited,
                             square_wave, square_wave_l2_error)
from besovlab.manifold import build_circle, lp_norm
from besovlab.spectrum import build_eigensystem, project


class TestLacunary:
    def test_three_octaves_coefficients(self, circle1024_es):
        es = circle1024_es
        entry = lacunary(1.0, 3)
        f = entry.build(es.model, es)
        c = project(es, f).coefficients
        nz = np.nonzero(np.abs(c) > 1e-10)[0]
        assert [es.labels[i] for i in nz] == [("cos", 2), ("cos", 4), ("cos", 8)]
        for i, m in zip(nz, (1, 2, 3)):
            assert c[i] == pytest.approx(2.0 ** -m * np.sqrt(np.pi), rel=1e-12)

    def test_errors_vanish_beyond_top_octave(self, circle2048, circle2048_es):
        entry = lacunary(1.0, 4)
        f = entry.build(circle2048, circle2048_es)
        res = best_approx(circle2048, circle2048_es, f, 4.0 ** 4, 2.0)
        assert res.error < 1e-12

    def test_closed_form_helper_matches_solver(self, circle2048, circle2048_es):
        entry = lacunary(0.5, 6)
        f = entry.build(circle2048, circle2048_es)
        for j in (0, 2, 4):
            res = best_approx(circle2048, circle2048_es, f, 4.0 ** j, 2.0)
            assert res.error == pytest.approx(
                lacunary_l2_error(0.5, 6, 4.0 ** j), abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_fitted_slope(self, circle2048, circle2048_es, alpha):
        M = 6
        entry = lacunary(alpha, M)
        f = entry.build(circle2048, circle2048_es)
        errs = [best_approx(circle2048, circle2048_es, f, 4.0 ** j, 2.0).error
                for j in range(M - 1)]
        slope = np.polyfit(np.arange(M - 1), np.log2(errs), 1)[0]
        assert -slope == pytest.approx(entry.expected_rate, abs=0.1)

    def test_rejects_unresolved_grid(self, circle1024, circle1024_es):
        entry = lacunary(1.0, 10)  # frequency 1024 on 1024 nodes
        with pytest.raises(ValueError, match=(
                "1024 circle nodes cannot resolve frequency 1024 of corpus function "
                "lacunary-a1-M10; it needs more than 2048 nodes")):
            entry.build(circle1024, circle1024_es)


class TestEigenPure:
    def test_step_error_sequence(self, circle1024_es):
        es = circle1024_es
        entry = eigen_pure(5)  # index 5 on the circle: cos(3x), lambda = 9
        f = entry.build(es.model, es)
        for p in (1.0, 2.0, np.inf):
            before = best_approx(es.model, es, f, 4.0, p).error
            after = best_approx(es.model, es, f, 9.0, p).error
            # p = 2 is exact orthogonality; at p in {1, inf} the discrete
            # optimum can dip slightly below ||f||_p (sign ties at nodes
            # where the mode vanishes)
            tol = 1e-8 if p == 2.0 else 1e-4
            assert before == pytest.approx(lp_norm(es.model, f, p), rel=tol)
            assert after < 1e-8

    def test_projected_coefficients_match_declared(self, circle1024_es):
        es = circle1024_es
        entry = eigen_pure(5)
        f = entry.build(es.model, es)
        declared = entry.known_coefficients(es)
        assert np.abs(project(es, f).coefficients - declared).max() < 1e-10

    def test_rejects_an_eigensystem_without_its_eigenpair(self):
        es = build_eigensystem(build_circle(64), 4.0)  # lambda 0, 1, 1, 4, 4
        with pytest.raises(ValueError, match=(
                "band 4 holds 5 eigenpairs; corpus function eigenpure-5 needs 6")):
            eigen_pure(5).build(es.model, es)


class TestRandomBandlimited:
    def test_zero_error_at_own_band(self, circle1024_es):
        es = circle1024_es
        entry = random_bandlimited(16.0, seed=7)
        f = entry.build(es.model, es)
        assert best_approx(es.model, es, f, 16.0, 2.0).error < 1e-10
        assert best_approx(es.model, es, f, 64.0, 2.0).error < 1e-10

    def test_seed_reproducibility(self, circle1024_es):
        es = circle1024_es
        a = random_bandlimited(16.0, seed=42).build(es.model, es)
        b = random_bandlimited(16.0, seed=42).build(es.model, es)
        assert np.array_equal(a.values, b.values)
        c = random_bandlimited(16.0, seed=43).build(es.model, es)
        assert not np.array_equal(a.values, c.values)

    def test_unit_l2_norm(self, circle1024_es):
        es = circle1024_es
        f = random_bandlimited(64.0, seed=3).build(es.model, es)
        assert lp_norm(es.model, f, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_a_band_below_its_cutoff(self):
        es = build_eigensystem(build_circle(64), 10.0)
        with pytest.raises(ValueError, match=(
                "band 10 cannot hold corpus function randband-w64-s5; "
                "it needs a band of at least 64")):
            random_bandlimited(64.0, 5).build(es.model, es)

    @pytest.mark.parametrize("omega", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_a_cutoff_not_positive_and_finite(self, omega):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            random_bandlimited(omega, 1)


class TestSquareWave:
    def test_even_coefficients_vanish(self, circle4096, circle4096_es):
        f = square_wave().build(circle4096, circle4096_es)
        c = project(circle4096_es, f).coefficients
        es = circle4096_es
        for m in range(2, 30, 2):
            assert abs(c[es.index_of(("sin", m))]) < 1e-12
        for m in range(1, 30, 2):
            assert abs(c[es.index_of(("cos", m))]) < 1e-12

    def test_odd_sine_coefficients_near_series(self, circle4096, circle4096_es):
        f = square_wave().build(circle4096, circle4096_es)
        c = project(circle4096_es, f).coefficients
        es = circle4096_es
        for m in (1, 3, 9, 15):
            assert c[es.index_of(("sin", m))] == pytest.approx(
                4.0 / (np.sqrt(np.pi) * m), rel=1e-4)

    def test_parseval_tail_closed_form(self, circle4096, circle4096_es):
        # oracle: continuous tail corrected for the two zero-sampled nodes
        f = square_wave().build(circle4096, circle4096_es)
        for j in range(3, 7):
            res = best_approx(circle4096, circle4096_es, f, 4.0 ** j, 2.0)
            oracle = square_wave_l2_error(4.0 ** j, 4096)
            assert res.error == pytest.approx(oracle, rel=0.02)

    def test_fitted_rate_half(self, circle4096, circle4096_es):
        f = square_wave().build(circle4096, circle4096_es)
        errs = [best_approx(circle4096, circle4096_es, f, 4.0 ** j, 2.0).error
                for j in range(7)]
        slope = np.polyfit(np.arange(7), np.log2(errs), 1)[0]
        assert -slope == pytest.approx(0.5, abs=0.1)


class TestCorpusContracts:
    def test_declared_coefficients_match_projection(self, circle2048, circle2048_es):
        for entry in default_corpus("circle"):
            if entry.known_coefficients is None:
                continue
            f = entry.build(circle2048, circle2048_es)
            declared = entry.known_coefficients(circle2048_es)
            got = project(circle2048_es, f).coefficients
            assert np.abs(got - declared).max() < 1e-10, entry.id

    def test_declared_rates_match_fits(self, circle2048, circle2048_es):
        for entry in default_corpus("circle"):
            if entry.expected_rate is None:
                continue
            f = entry.build(circle2048, circle2048_es)
            errs = [r.error for r in errors_at_cutoffs(
                circle2048_es, f, 2.0, [4.0 ** j for j in range(7)])]
            keep = [(j, e) for j, e in enumerate(errs) if e > 1e-12]
            # the last nonzero level of a finite sum is truncation-dominated
            # (the closed form itself puts the full fit outside 0.1 for
            # alpha = 0.5), so fit the levels before it
            if len(keep) > 3 and keep[-1][0] < len(errs) - 1:
                keep = keep[:-1]
            js = np.array([j for j, _ in keep], dtype=float)
            slope = np.polyfit(js, np.log2([e for _, e in keep]), 1)[0]
            assert -slope == pytest.approx(entry.expected_rate, abs=0.1), entry.id

    def test_manifest_round_trip(self):
        entries = default_corpus("circle")
        rows = manifest(entries)
        assert {r["id"] for r in rows} == {e.id for e in entries}
        assert json.loads(json.dumps(rows, indent=2)) == rows

    def test_non_circle_corpus_is_generic(self):
        ids = [e.id for e in default_corpus("sphere2")]
        assert all(("eigenpure" in i) or ("randband" in i) for i in ids)
