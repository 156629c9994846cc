import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.special import gammaln, lpmv

from besovlab import cli, manifold, mesh, spectrum
from besovlab.cli import main
from besovlab.manifold import (GridFunction, build_circle, build_sphere2,
                               build_torus2, lp_norm, resolved_frequency)
from besovlab.mesh import cotangent_stiffness, icosphere, load_mesh, write_off
from besovlab.spectrum import (CoefVector, EigenSystem, apply_power,
                               build_eigensystem, check_orthonormality, project,
                               save_eigensystem, synthesize)


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

    @pytest.mark.parametrize("build", [build_circle, build_torus2])
    def test_no_eigenvalue_above_the_band(self, build):
        # the frequency cap rounds sqrt(band) up by 1e-9, so 4 - 1e-12 caps
        # the frequency at 2, whose eigenvalue 4 lies above the band
        es = build_eigensystem(build(16), 4.0 - 1e-12)
        assert es.eigenvalues[-1] < 4.0
        assert es.cutoff_index(es.band_limit) == es.n_eigen

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

    def test_rejects_a_label_count_other_than_the_eigenpair_count(self):
        es = build_eigensystem(build_circle(64), 10.0)
        for labels in (es.labels[:-1], es.labels + [("cos", 4)]):
            with pytest.raises(ValueError, match=f"{len(labels)} labels for 7"):
                EigenSystem(es.model, es.eigenvalues, es.eigenfunctions,
                            es.band_limit, labels)


class _Resolved(Exception):
    pass


class TestResolution:
    """n nodes per dimension resolve frequency m exactly when 2m < n."""

    @pytest.mark.parametrize("n", [8, 66, 512])
    def test_rule(self, n):
        assert resolved_frequency(n) == n // 2 - 1
        assert 2 * resolved_frequency(n) < n <= 2 * (resolved_frequency(n) + 1)

    @pytest.mark.parametrize("kind", ["circle", "torus2"])
    @pytest.mark.parametrize("n", [8, 66, 512])
    def test_default_band_builds_and_half_the_grid_is_unresolved(
            self, monkeypatch, kind, n):
        model, band = cli.MANIFOLDS[kind]({"nodes": n})
        assert band == float(resolved_frequency(n)) ** 2
        with pytest.raises(ValueError, match="unresolved"):
            build_eigensystem(model, (n / 2) ** 2)
        if kind == "torus2" and n > 8:
            # the full basis (over 3000 columns on 4356 nodes at n = 66)
            # does not fit a test: stop right after the resolution check
            def resolved(angles, m_max):
                raise _Resolved(m_max)

            monkeypatch.setattr(manifold, "_fourier_table", resolved)
            with pytest.raises(_Resolved):
                build_eigensystem(model, band)
            return
        es = build_eigensystem(model, band)
        assert es.eigenvalues[-1] == band


class TestBandLimitGuard:
    @pytest.mark.parametrize("model", ["circle1024", "torus16", "sphere16",
                                       "icosphere3"])
    @pytest.mark.parametrize("band", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_non_positive_and_non_finite_bands(self, request, monkeypatch,
                                                       model, band):
        # NaN used to reach int() or a mesh eigensolve at a NaN shift, and
        # an infinite band raised OverflowError
        for name in ("splu", "eigh", "eigsh"):
            monkeypatch.setattr(mesh, name, forbid(name))
        with pytest.raises(ValueError, match="band_limit must be positive and finite"):
            build_eigensystem(request.getfixturevalue(model), band)


def fourier_column(angles, kind, m):
    if kind == "const":
        return np.full(len(angles), 1.0 / np.sqrt(2 * np.pi))
    trig = np.cos if kind == "cos" else np.sin
    return trig(m * angles) / np.sqrt(np.pi)


def real_spherical_harmonic(l, m, nodes):
    """Real orthonormal spherical harmonic of degree l, order m at unit
    vectors, in closed form from scipy's associated Legendre function lpmv
    (Condon-Shortley sign included) and its normalization."""
    x = np.clip(nodes[:, 2], -1.0, 1.0)          # cos(colatitude)
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    am = abs(m)
    log_norm = 0.5 * (np.log(2 * l + 1.0) - np.log(4 * np.pi)
                      + gammaln(l - am + 1) - gammaln(l + am + 1))
    vals = np.exp(log_norm) * lpmv(am, l, x)
    if m == 0:
        return vals
    if m > 0:
        return np.sqrt(2.0) * vals * np.cos(m * phi)
    return np.sqrt(2.0) * vals * np.sin(am * phi)


def reference_basis(model, band):
    """(eigenvalues, labels, columns) of an analytic basis, written one
    closed-form column at a time and ordered by sorted() over
    (eigenvalue, label)."""
    m_max = int(np.floor(np.sqrt(band) + 1e-9))
    if model.kind == "circle":
        x = model.nodes[:, 0]
        entries = [(0.0, ("const",), fourier_column(x, "const", 0))] + [
            (float(m * m), (kind, m), fourier_column(x, kind, m))
            for m in range(1, m_max + 1) for kind in ("cos", "sin")]
    elif model.kind == "torus2":
        x, y = model.nodes[:, 0], model.nodes[:, 1]
        factors = [("const", 0)] + [(kind, m) for m in range(1, m_max + 1)
                                    for kind in ("cos", "sin")]
        entries = [(float(a[1] ** 2 + b[1] ** 2), (a, b),
                    fourier_column(x, *a) * fourier_column(y, *b))
                   for a in factors for b in factors
                   if a[1] ** 2 + b[1] ** 2 <= band]
    else:
        l_max = int(np.floor(0.5 * (np.sqrt(1 + 4 * band) - 1) + 1e-9))
        entries = [(float(l * (l + 1)), ("ylm", l, m),
                    real_spherical_harmonic(l, m, model.nodes))
                   for l in range(l_max + 1) for m in range(-l, l + 1)]
    entries.sort(key=lambda e: (e[0], e[1]))
    return (np.array([e[0] for e in entries]), [e[1] for e in entries],
            np.column_stack([e[2] for e in entries]))


class TestBasisColumns:
    @pytest.mark.parametrize("build,n,band", [
        (build_circle, 64, 31.0 ** 2), (build_circle, 512, 255.0 ** 2),
        (build_torus2, 16, 49.0), (build_torus2, 20, 81.0),
        (build_sphere2, 12, 156.0), (build_sphere2, 16, 272.0)])
    def test_analytic_basis_is_the_closed_form(self, build, n, band):
        model = build(n)
        es = build_eigensystem(model, band)
        lam, labels, cols = reference_basis(model, band)
        assert np.array_equal(es.eigenvalues, lam)
        assert es.labels == labels
        if model.kind == "sphere2":
            # one Legendre recurrence per order against lpmv per (l, m):
            # the same functions, computed in another order
            assert np.abs(es.eigenfunctions - cols).max() <= 1e-13
        else:
            assert np.array_equal(es.eigenfunctions, cols)
        assert es.eigenfunctions.flags.c_contiguous

    @pytest.mark.parametrize("band", [64.0, 300.0])    # sparse, dense solve
    def test_mesh_columns_have_a_positive_peak_and_index_labels(self, icosphere3,
                                                                band):
        es = build_eigensystem(icosphere3, band)
        for col in es.eigenfunctions.T:
            assert col[np.argmax(np.abs(col))] > 0
        assert es.labels == [("mesh", i) for i in range(es.n_eigen)]
        assert es.eigenfunctions.flags.c_contiguous


class TestOrthonormality:
    def test_circle_machine_precision(self, circle1024_es):
        assert check_orthonormality(circle1024_es) < 1e-12

    def test_single_eigenfunction_normalized(self, circle1024_es):
        u5 = circle1024_es.eigenfunctions[:, 5]
        w = circle1024_es.model.weights
        assert w @ (u5 * u5) == pytest.approx(1.0, abs=1e-12)

    def test_mesh_within_tolerance(self, icosphere3_es):
        assert check_orthonormality(icosphere3_es) < 1e-10

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

    @pytest.mark.parametrize("name", ["circle1024_es", "torus16_es", "sphere16_es",
                                      "icosphere3_es", "one_pair_es"])
    def test_export_is_the_one_shot_dump(self, tmp_path, request, name):
        # circle1024: several blocks; icosphere3: a ragged last block
        es = request.getfixturevalue(name)
        path = tmp_path / "es.json"
        save_eigensystem(es, path)
        assert mismatch(path.read_text(), json.dumps(reference_document(es))) is None

    @pytest.mark.parametrize("block", [1, 64, 100, 448])
    def test_export_at_block_boundaries(self, tmp_path, monkeypatch, block):
        # 64 x 7 = 448 values: one-value blocks, whole blocks, a ragged
        # last block, and the whole array as one block
        es = build_eigensystem(build_circle(64), 10.0)
        monkeypatch.setattr(spectrum, "_SAVE_BLOCK_VALUES", block)
        path = tmp_path / "es.json"
        save_eigensystem(es, path)
        assert mismatch(path.read_text(), json.dumps(reference_document(es))) is None

    def test_failed_save_keeps_the_earlier_file(self, tmp_path, circle1024_es,
                                                monkeypatch):
        path = tmp_path / "es.json"
        save_eigensystem(circle1024_es, path)
        before = path.read_bytes()
        dumps, encoded = json.dumps, []

        def broken(obj):
            # the header, then the first block of values, then the disk fills
            if len(encoded) == 2:
                raise OSError("disk full")
            encoded.append(obj)
            return dumps(obj)

        monkeypatch.setattr(json, "dumps", broken)
        with pytest.raises(OSError, match="disk full"):
            save_eigensystem(circle1024_es, path)
        assert len(encoded[1]) == spectrum._SAVE_BLOCK_VALUES
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["es.json"]


@pytest.fixture(scope="module")
def torus16_es(torus16):
    return build_eigensystem(torus16, 18.0)


@pytest.fixture(scope="module")
def one_pair_es():
    return build_eigensystem(build_circle(8), 0.5)


def mismatch(text, expected):
    """None if the texts agree, else the first differing offset with context.

    pytest's own diff of two megabyte-long lines takes minutes.
    """
    if text == expected:
        return None
    i = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
             min(len(text), len(expected)))
    return i, text[max(i - 40, 0):i + 40], expected[max(i - 40, 0):i + 40]


def reference_document(es):
    """The export format as one JSON document."""
    model = es.model
    return {
        "format": "besovlab-eigensystem",
        "model": {"kind": model.kind, "dim": model.dim, "n_nodes": model.n_nodes,
                  "total_measure": model.total_measure,
                  "params": {k: v for k, v in model.params.items()
                             if isinstance(v, (int, float, str))}},
        "band_limit": es.band_limit,
        "eigenvalues": es.eigenvalues.tolist(),
        "eigenfunctions": es.eigenfunctions.ravel(order="C").tolist(),
        "labels": [list(lab) for lab in es.labels],
    }


# -- mesh eigensolve against a dense oracle ---------------------------------

def dense_oracle(model, level):
    """Every eigenpair of S u = lam M u by scipy's dense generalized solver."""
    stiff = cotangent_stiffness(model.nodes, icosphere(level)[1]).toarray()
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
    assert check_orthonormality(es) < 1e-10


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
    return {level: dense_oracle(m, level) for level, m in icospheres.items()}


def cluster_edges(lam):
    """(band, eigenvalues under it) just outside the first nine l(l+1) clusters.

    The cluster of degree l holds oracle eigenvalues l^2 .. (l+1)^2 - 1.
    """
    edges = []
    for l in range(9):
        lo, hi = lam[l * l], lam[(l + 1) ** 2 - 1]
        edges.append((hi + 1e-6 * max(1.0, hi), (l + 1) ** 2))
        if l > 0:
            edges.append((lo * (1 - 1e-6), l * l))
    return edges


def symmetric_form(model, level):
    """M^-1/2 S M^-1/2, exactly symmetric: the pencil's eigenvalues."""
    stiff = cotangent_stiffness(model.nodes, icosphere(level)[1])
    scale = sparse.diags(1.0 / np.sqrt(model.weights))
    sym = scale @ stiff @ scale
    return 0.5 * (sym + sym.T)


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
        for band, count in cluster_edges(oracles[level][0]):
            es = build_eigensystem(icospheres[level], band)
            assert es.n_eigen == count, band

    def test_small_band_never_runs_the_dense_solve(self, icospheres, oracles,
                                                   monkeypatch):
        monkeypatch.setattr(mesh, "eigh", forbid("the dense solve"))
        es = build_eigensystem(icospheres[3], 64.0)
        assert_matches_oracle(es, oracles[3])

    def test_grows_k_until_the_band_is_covered(self, icospheres, oracles,
                                               monkeypatch):
        asked = []

        def counting(a, k, **kwargs):
            asked.append(k)
            return eigsh(a, k, **kwargs)

        # no count: the loop starts at one pair
        monkeypatch.setattr(mesh, "_count_below", lambda sym, shift: None)
        monkeypatch.setattr(mesh, "eigsh", counting)
        es = build_eigensystem(icospheres[3], 30.0)
        assert asked == [1, 2, 4, 8, 16, 32, 64]
        assert_matches_oracle(es, oracles[3])

    def test_counted_band_takes_one_solve(self, icospheres, oracles,
                                          monkeypatch):
        asked = []

        def counting(a, k, **kwargs):
            asked.append(k)
            return eigsh(a, k, **kwargs)

        monkeypatch.setattr(mesh, "eigsh", counting)
        es = build_eigensystem(icospheres[3], 64.0)
        assert asked == [65]
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
        monkeypatch.setattr(mesh, "eigsh", forbid("the sparse solve"))
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
        monkeypatch.setattr(mesh, "eigh", forbid("the dense solve"))
        monkeypatch.setattr(mesh, "eigsh", forbid("the sparse solve"))
        with pytest.raises(ValueError, match="cannot certify"):
            build_eigensystem(icospheres[3], 1e4)   # the bound is 478

    def test_band_above_the_spectrum_exits_2(self, tmp_path, capsys):
        mesh = tmp_path / "icosphere1.off"
        write_off(mesh, *icosphere(1))
        out = tmp_path / "o"
        code = main(["spectrum", "--manifold", "mesh", "--mesh", str(mesh),
                     "--band", "25", "--out", str(out)])
        assert code == 2
        assert "cannot certify" in capsys.readouterr().err

    def test_arpack_failure_is_a_runtime_error(self, icospheres, monkeypatch):
        def failing(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0),
                                      np.zeros((0, 0)))

        monkeypatch.setattr(mesh, "eigsh", failing)
        with pytest.raises(RuntimeError, match="failed to converge"):
            build_eigensystem(icospheres[3], 30.0)


class TestInertiaCount:
    @settings(max_examples=40, deadline=None)
    @given(frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_counts_the_eigenvalues_under_a_shift(self, icospheres, oracles,
                                                  frac):
        lam = oracles[2][0]
        shift = frac * lam[-1]
        assume(np.abs(lam - shift).min() > 1e-6 * shift)
        # a count at all means SuperLU kept its pivots on the diagonal
        count = mesh._count_below(symmetric_form(icospheres[2], 2), shift)
        assert count == np.count_nonzero(lam < shift)

    def test_counts_at_cluster_edges(self, icospheres, oracles):
        sym = symmetric_form(icospheres[3], 3)
        for shift, count in cluster_edges(oracles[3][0]):
            assert mesh._count_below(sym, shift) == count, shift

    @pytest.mark.parametrize("sym", [
        np.diag([0.0, 1.0, 2.0]),                           # singular factor
        np.array([[1.0, 1, 0], [1, 1, 1], [0, 1, 4]])])     # off-diagonal pivot
    def test_no_count_without_an_ldlt_factor(self, sym):
        assert mesh._count_below(sparse.csc_matrix(sym), 1.0) is None
