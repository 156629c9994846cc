import numpy as np
import pytest

from besovlab.manifold import (GridFunction, build_circle, build_sphere2,
                               build_torus2, lp_norm)


class TestCircle:
    def test_total_measure(self):
        m = build_circle(8)
        assert m.total_measure == pytest.approx(2 * np.pi, rel=1e-12)

    def test_antipodal_distance(self, circle1024):
        # nodes 0 and pi
        assert circle1024.distance_matrix()[0, 512] == pytest.approx(np.pi)

    def test_wraparound_distance(self, circle1024):
        # nodes 0 and 3*pi/2 wrap to pi/2
        assert circle1024.distance_matrix()[0, 768] == pytest.approx(np.pi / 2)

    def test_rejects_small_and_odd(self):
        with pytest.raises(ValueError):
            build_circle(6)
        with pytest.raises(ValueError):
            build_circle(9)

    def test_weights_positive(self, circle1024):
        assert np.all(circle1024.weights > 0)
        assert circle1024.total_measure == pytest.approx(
            circle1024.weights.sum(), rel=1e-12)


class TestTorus:
    def test_total_measure(self):
        m = build_torus2(8)
        assert m.total_measure == pytest.approx(4 * np.pi ** 2, rel=1e-12)

    def test_distances(self, torus16):
        nodes = torus16.nodes
        i0 = int(np.argmin(np.abs(nodes[:, 0]) + np.abs(nodes[:, 1])))
        ipi0 = int(np.argmin(np.abs(nodes[:, 0] - np.pi) + np.abs(nodes[:, 1])))
        ipipi = int(np.argmin(np.abs(nodes[:, 0] - np.pi) + np.abs(nodes[:, 1] - np.pi)))
        assert torus16.distance_matrix()[i0, ipi0] == pytest.approx(np.pi)
        assert torus16.distance_matrix()[i0, ipipi] == pytest.approx(np.pi * np.sqrt(2))

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            build_torus2(6)


class TestSphere:
    def test_total_measure(self):
        m = build_sphere2(8)
        assert m.total_measure == pytest.approx(4 * np.pi, abs=1e-10)

    def test_antipodal_distance(self, sphere16):
        # the grid is symmetric under x -> -x, so exact antipodes exist
        north = int(np.argmax(sphere16.nodes[:, 2]))
        antipode = int(np.argmin(np.linalg.norm(
            sphere16.nodes + sphere16.nodes[north], axis=1)))
        assert np.allclose(sphere16.nodes[antipode], -sphere16.nodes[north],
                           atol=1e-12)
        assert sphere16.distance_matrix()[north, antipode] == pytest.approx(np.pi)

    def test_degree_one_harmonic_integrates_to_zero(self):
        m = build_sphere2(8)
        y10 = np.sqrt(3 / (4 * np.pi)) * m.nodes[:, 2]
        assert abs(m.weights @ y10) < 1e-12

    def test_rejects_small_band(self):
        with pytest.raises(ValueError):
            build_sphere2(3)


@pytest.mark.parametrize("builder", [lambda: build_circle(64),
                                     lambda: build_torus2(8),
                                     lambda: build_sphere2(6)])
def test_distance_axioms_sampled(builder, rng):
    m = builder()
    d = m.distance_matrix()
    assert np.allclose(d, d.T, atol=1e-12)
    assert np.allclose(np.diag(d), 0.0, atol=1e-12)
    n = m.n_nodes
    idx = rng.integers(0, n, size=(200, 3))
    for i, j, k in idx:
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-10


class TestLpNorm:
    def test_constant_l2(self, circle1024):
        f = GridFunction(circle1024, np.ones(1024))
        assert lp_norm(circle1024, f, 2) == pytest.approx(np.sqrt(2 * np.pi))

    def test_sup_norm(self, circle1024, rng):
        vals = rng.standard_normal(1024)
        f = GridFunction(circle1024, vals)
        assert lp_norm(circle1024, f, np.inf) == np.abs(vals).max()

    def test_cos_l4_closed_form(self, circle1024):
        # integral of cos^4 over the circle is 3*pi/4
        f = GridFunction(circle1024, np.cos(circle1024.nodes[:, 0]))
        assert lp_norm(circle1024, f, 4) == pytest.approx((3 * np.pi / 4) ** 0.25,
                                                          rel=1e-12)

    def test_rejects_p_below_one(self, circle1024):
        f = GridFunction(circle1024, np.ones(1024))
        with pytest.raises(ValueError):
            lp_norm(circle1024, f, 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
    def test_homogeneous_and_triangle(self, circle1024, rng, p):
        for _ in range(20):
            a = rng.standard_normal(1024)
            b = rng.standard_normal(1024)
            s = float(rng.uniform(-3, 3))
            fa, fb = GridFunction(circle1024, a), GridFunction(circle1024, b)
            fsum = GridFunction(circle1024, a + b)
            fscaled = GridFunction(circle1024, s * a)
            assert lp_norm(circle1024, fscaled, p) == pytest.approx(
                abs(s) * lp_norm(circle1024, fa, p), rel=1e-12, abs=1e-12)
            assert lp_norm(circle1024, fsum, p) <= (
                lp_norm(circle1024, fa, p) + lp_norm(circle1024, fb, p) + 1e-10)

    def test_large_p_approaches_sup(self, circle1024):
        # smooth function: L_64 within 5% of the max
        f = GridFunction(circle1024, np.cos(circle1024.nodes[:, 0]))
        p64 = lp_norm(circle1024, f, 64)
        sup = lp_norm(circle1024, f, np.inf)
        assert abs(p64 - sup) / sup < 0.05

    def test_zero_function(self, circle1024):
        f = GridFunction(circle1024, np.zeros(1024))
        assert lp_norm(circle1024, f, 3.0) == 0.0


class TestBallVolume:
    @pytest.mark.parametrize("builder,dim", [(lambda: build_circle(512), 1),
                                             (lambda: build_sphere2(16), 2)])
    def test_growth_exponent(self, builder, dim):
        m = builder()
        radii = np.geomspace(0.15, 1.0, 8)
        center = m.n_nodes // 3
        d = m.distance_matrix()[center]
        vols = np.array([m.weights[d <= r].sum() for r in radii])
        slope = np.polyfit(np.log(radii), np.log(vols), 1)[0]
        assert abs(slope - dim) < 0.3


def test_grid_function_validation(circle1024):
    with pytest.raises(ValueError):
        GridFunction(circle1024, np.ones(7))
    bad = np.ones(1024)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(circle1024, bad)


def test_models_are_reusable(circle1024):
    # distance matrix caching must not mutate observable state
    d1 = circle1024.distance_matrix()
    d2 = circle1024.distance_matrix()
    assert d1 is d2


def test_mesh_distance_axioms_sampled(icosphere3, rng):
    d = icosphere3.distance_matrix()
    assert np.allclose(d, d.T, atol=1e-12)
    assert np.allclose(np.diag(d), 0.0)
    n = icosphere3.n_nodes
    idx = rng.integers(0, n, size=(200, 3))
    for i, j, k in idx:
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-10
