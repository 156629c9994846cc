import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from besovlab import spectrum
from besovlab.cli import main
from besovlab.manifold import GridFunction, build_circle, lp_norm
from besovlab.mesh import cotangent_stiffness, icosphere, load_mesh, write_off
from besovlab.spectrum import (CoefVector, apply_power, build_eigensystem,
                               check_orthonormality, project, save_eigensystem,
                               synthesize)


class TestBuild:
    def test_circle_small_band(self):
        es = build_eigensystem(build_circle(64), 10.0)
        assert es.eigenvalues.tolist() == [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]

    def test_sphere_multiplicities(self, sphere16):
        es = build_eigensystem(sphere16, 7.0)
        vals, counts = np.unique(es.eigenvalues, return_counts=True)
        assert vals.tolist() == [0.0, 2.0, 6.0]
        assert counts.tolist() == [1, 3, 5]

    def test_mesh_second_eigenvalue_near_analytic(self, icosphere3_es):
        # unit sphere: lambda_1 = l(l+1) = 2
        assert icosphere3_es.eigenvalues[1] == pytest.approx(2.0, rel=0.1)

    def test_lambda0_constant_eigenfunction(self, circle1024_es, icosphere3_es):
        for es in (circle1024_es, icosphere3_es):
            assert es.eigenvalues[0] == 0.0
            u0 = es.eigenfunctions[:, 0]
            assert np.ptp(u0) < 1e-8 * np.abs(u0).max()

    def test_rejects_unresolved_band(self):
        m = build_circle(64)
        with pytest.raises(ValueError, match="unresolved"):
            build_eigensystem(m, 40000.0)

    def test_torus_eigenvalues_are_pair_sums(self, torus16):
        es = build_eigensystem(torus16, 8.0)
        expected = sorted(m1 * m1 + m2 * m2
                          for m1 in range(0, 3) for m2 in range(0, 3)
                          if m1 * m1 + m2 * m2 <= 8
                          for _ in range(max(1, 2 * (m1 > 0)) * max(1, 2 * (m2 > 0))))
        assert es.eigenvalues.tolist() == [float(v) for v in expected]


class TestOrthonormality:
    def test_circle_machine_precision(self, circle1024_es):
        assert check_orthonormality(circle1024_es) < 1e-12

    def test_single_eigenfunction_normalized(self, circle1024_es):
        u5 = circle1024_es.eigenfunctions[:, 5]
        w = circle1024_es.model.weights
        assert w @ (u5 * u5) == pytest.approx(1.0, abs=1e-12)

    def test_mesh_within_tolerance(self, icosphere3_es):
        assert check_orthonormality(icosphere3_es) < 1e-8

    def test_sphere_within_tolerance(self, sphere16_es):
        assert check_orthonormality(sphere16_es) < 1e-8

    def test_torus(self, torus16):
        es = build_eigensystem(torus16, 20.0)
        assert check_orthonormality(es) < 1e-12


class TestProjectSynthesize:
    def test_project_pure_eigenfunction(self, circle1024_es):
        f = GridFunction(circle1024_es.model,
                         circle1024_es.eigenfunctions[:, 5].copy())
        c = project(circle1024_es, f).coefficients
        expected = np.zeros(circle1024_es.n_eigen)
        expected[5] = 1.0
        assert np.abs(c - expected).max() < 1e-10

    def test_project_zero(self, circle1024_es):
        f = GridFunction(circle1024_es.model, np.zeros(1024))
        assert np.all(project(circle1024_es, f).coefficients == 0.0)

    def test_project_trig_combination(self, circle1024_es):
        x = circle1024_es.model.nodes[:, 0]
        f = GridFunction(circle1024_es.model, np.cos(3 * x) + 2 * np.sin(7 * x))
        c = project(circle1024_es, f).coefficients
        nz = np.nonzero(np.abs(c) > 1e-9)[0]
        labels = [circle1024_es.labels[i] for i in nz]
        assert labels == [("cos", 3), ("sin", 7)]
        assert c[nz[0]] == pytest.approx(np.sqrt(np.pi), rel=1e-12)
        assert c[nz[1]] == pytest.approx(2 * np.sqrt(np.pi), rel=1e-12)

    def test_roundtrip_bandlimited(self, circle1024_es, rng):
        c = CoefVector(rng.standard_normal(circle1024_es.n_eigen))
        f = synthesize(circle1024_es, c)
        back = project(circle1024_es, f).coefficients
        assert np.abs(back - c.coefficients).max() < 1e-10
        f2 = synthesize(circle1024_es, project(circle1024_es, f))
        assert np.abs(f2.values - f.values).max() < 1e-10

    def test_constant_coefficient(self, circle1024_es):
        c = np.zeros(circle1024_es.n_eigen)
        c[0] = 1.0
        f = synthesize(circle1024_es, CoefVector(c))
        assert np.allclose(f.values, 1 / np.sqrt(2 * np.pi), atol=1e-14)

    def test_parseval(self, circle1024_es, rng):
        c = rng.standard_normal(circle1024_es.n_eigen)
        f = synthesize(circle1024_es, CoefVector(c))
        assert lp_norm(circle1024_es.model, f, 2) ** 2 == pytest.approx(
            float(c @ c), abs=1e-10)

    def test_model_mismatch_rejected(self, circle1024_es):
        other = build_circle(64)
        f = GridFunction(other, np.zeros(64))
        with pytest.raises(ValueError):
            project(circle1024_es, f)

    def test_length_mismatch_rejected(self, circle1024_es):
        with pytest.raises(ValueError):
            synthesize(circle1024_es, CoefVector(np.ones(circle1024_es.n_eigen + 1)))


class TestApplyPower:
    def test_identity_at_zero(self, circle1024_es, rng):
        c = CoefVector(rng.standard_normal(circle1024_es.n_eigen))
        out = apply_power(circle1024_es, c, 0.0)
        assert np.array_equal(out.coefficients, c.coefficients)

    def test_single_mode(self, circle1024_es):
        c = np.zeros(circle1024_es.n_eigen)
        c[6] = 1.0
        out = apply_power(circle1024_es, CoefVector(c), 1.0).coefficients
        assert out[6] == circle1024_es.eigenvalues[6]
        assert np.count_nonzero(out) == 1

    def test_semigroup(self, circle1024_es, rng):
        c = CoefVector(rng.standard_normal(circle1024_es.n_eigen))
        twice = apply_power(circle1024_es, apply_power(circle1024_es, c, 0.5), 0.5)
        once = apply_power(circle1024_es, c, 1.0)
        assert np.abs(twice.coefficients - once.coefficients).max() < 1e-12

    def test_constant_survives_zero_power(self, circle1024_es):
        c = np.zeros(circle1024_es.n_eigen)
        c[0] = 3.0
        out = apply_power(circle1024_es, CoefVector(c), 0.0).coefficients
        assert out[0] == 3.0

    def test_rejects_negative(self, circle1024_es):
        with pytest.raises(ValueError):
            apply_power(circle1024_es, CoefVector(np.ones(3)), -0.5)


class TestJsonRoundTrip:
    def test_circle_roundtrip(self, tmp_path, circle1024_es):
        es = circle1024_es
        path = tmp_path / "es.json"
        save_eigensystem(es, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert np.array_equal(doc["eigenvalues"], es.eigenvalues)
        assert np.array_equal(doc["eigenfunctions"], es.eigenfunctions.ravel(order="C"))
        assert doc["labels"] == [list(lab) for lab in es.labels]

    def test_mesh_export_is_orthonormal(self, tmp_path, icosphere3, icosphere3_es):
        path = tmp_path / "mesh-es.json"
        save_eigensystem(icosphere3_es, path)
        with open(path) as fh:
            doc = json.load(fh)
        u = np.reshape(doc["eigenfunctions"], (icosphere3.n_nodes, -1))
        gram = u.T @ (u * icosphere3.weights[:, None])
        assert np.abs(gram - np.eye(len(doc["eigenvalues"]))).max() < 1e-8

    def test_failed_save_keeps_the_earlier_file(self, tmp_path, circle1024_es,
                                                monkeypatch):
        path = tmp_path / "es.json"
        save_eigensystem(circle1024_es, path)
        before = path.read_bytes()

        def broken(doc, fh):
            fh.write('{"format": "besovlab-eigen')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", broken)
        with pytest.raises(OSError, match="disk full"):
            save_eigensystem(circle1024_es, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["es.json"]


# -- mesh eigensolve against a dense oracle ---------------------------------

def dense_oracle(model):
    """Every eigenpair of S u = lam M u by scipy's dense generalized solver."""
    stiff = cotangent_stiffness(model.nodes, model.faces).toarray()
    return eigh(stiff, np.diag(model.weights))


def assert_matches_oracle(es, oracle):
    lam, vec = oracle
    k = es.n_eigen
    assert k == np.count_nonzero(lam <= es.band_limit)
    assert es.eigenvalues[0] == 0.0
    assert np.allclose(es.eigenvalues[1:], lam[1:k], rtol=1e-10, atol=0)
    # the two bases span the same space: the cross-Gram matrix is orthogonal
    cross = es.eigenfunctions.T @ (es.model.weights[:, None] * vec[:, :k])
    assert np.linalg.svd(cross, compute_uv=False).min() >= 1 - 1e-10
    assert check_orthonormality(es) < 1e-8


@pytest.fixture(scope="module")
def icospheres(tmp_path_factory, icosphere3):
    models = {3: icosphere3}
    for level in (1, 2):
        path = tmp_path_factory.mktemp("meshes") / f"icosphere{level}.off"
        write_off(path, *icosphere(level))
        models[level] = load_mesh(path)
    return models


@pytest.fixture(scope="module")
def oracles(icospheres):
    return {level: dense_oracle(m) for level, m in icospheres.items()}


def forbid(name):
    def solver(*args, **kwargs):
        raise AssertionError(f"{name} must not run here")
    return solver


class TestMeshEigensolve:
    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("band", [30.0, 64.0])
    def test_matches_dense_oracle(self, icospheres, oracles, level, band):
        es = build_eigensystem(icospheres[level], band)
        assert_matches_oracle(es, oracles[level])

    @settings(max_examples=30, deadline=None)
    @given(band=st.floats(0.5, 80.0))
    def test_never_splits_a_cluster(self, icospheres, oracles, band):
        lam = oracles[2][0]
        assume(abs(band - lam[-1]) > 1e-6 * lam[-1])
        if band > lam[-1]:    # icosphere(2) tops out at 78.2
            with pytest.raises(ValueError, match="cannot certify"):
                build_eigensystem(icospheres[2], band)
        else:
            es = build_eigensystem(icospheres[2], band)
            assert es.n_eigen == np.count_nonzero(lam <= band)

    @pytest.mark.parametrize("level", [2, 3])
    def test_bands_at_cluster_edges(self, icospheres, oracles, level):
        # the l(l+1) cluster holds oracle eigenvalues l^2 .. (l+1)^2 - 1
        lam = oracles[level][0]
        for l in range(9):
            lo, hi = lam[l * l], lam[(l + 1) ** 2 - 1]
            edges = [(hi + 1e-6 * max(1.0, hi), (l + 1) ** 2)]
            if l > 0:
                edges.append((lo * (1 - 1e-6), l * l))
            for band, count in edges:
                es = build_eigensystem(icospheres[level], band)
                assert es.n_eigen == count, (l, band)

    def test_small_band_never_runs_the_dense_solve(self, icospheres, oracles,
                                                   monkeypatch):
        monkeypatch.setattr(spectrum, "eigh", forbid("the dense solve"))
        es = build_eigensystem(icospheres[3], 64.0)
        assert_matches_oracle(es, oracles[3])

    def test_grows_k_until_the_band_is_covered(self, icospheres, oracles,
                                               monkeypatch):
        asked = []

        def counting(a, k, **kwargs):
            asked.append(k)
            return eigsh(a, k, **kwargs)

        monkeypatch.setattr(spectrum, "_weyl_k", lambda area, band: 1)
        monkeypatch.setattr(spectrum, "eigsh", counting)
        es = build_eigensystem(icospheres[3], 30.0)
        assert asked == [1, 2, 4, 8, 16, 32, 64]
        assert_matches_oracle(es, oracles[3])

    def test_bit_identical_across_builds(self, icospheres):
        a = build_eigensystem(icospheres[3], 30.0)
        # an unrelated solve advances ARPACK's own random start vector
        eigsh(sparse.diags(np.arange(1.0, 101.0)), 3)
        b = build_eigensystem(icospheres[3], 30.0)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenfunctions, b.eigenfunctions)

    def test_full_band_takes_the_dense_fallback(self, icospheres, oracles,
                                                monkeypatch):
        monkeypatch.setattr(spectrum, "eigsh", forbid("the sparse solve"))
        top = oracles[1][0][-1]
        es = build_eigensystem(icospheres[1], top * (1 + 1e-10))
        assert es.n_eigen == 42
        assert_matches_oracle(es, oracles[1])

    @pytest.mark.parametrize("factor", [
        1.01,    # above the top eigenvalue, under the Gershgorin bound
        10.0])   # above the Gershgorin bound
    def test_band_above_the_spectrum_cannot_certify(self, icospheres, oracles,
                                                    factor):
        band = factor * oracles[1][0][-1]
        with pytest.raises(ValueError, match="cannot certify"):
            build_eigensystem(icospheres[1], band)

    def test_band_above_the_gershgorin_bound_needs_no_solve(self, icospheres,
                                                            monkeypatch):
        monkeypatch.setattr(spectrum, "eigh", forbid("the dense solve"))
        monkeypatch.setattr(spectrum, "eigsh", forbid("the sparse solve"))
        with pytest.raises(ValueError, match="cannot certify"):
            build_eigensystem(icospheres[3], 1e4)   # the bound is 478

    def test_band_above_the_spectrum_exits_2(self, icospheres, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["spectrum", "--manifold", "mesh", "--mesh",
                     icospheres[1].params["path"], "--band", "25",
                     "--out", str(out)])
        assert code == 2
        assert "cannot certify" in capsys.readouterr().err

    def test_arpack_failure_is_a_runtime_error(self, icospheres, monkeypatch):
        def failing(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0),
                                      np.zeros((0, 0)))

        monkeypatch.setattr(spectrum, "eigsh", failing)
        with pytest.raises(RuntimeError, match="failed to converge"):
            build_eigensystem(icospheres[3], 30.0)
