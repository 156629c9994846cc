import numpy as np
import pytest

from besovlab.filters import check_partition, make_bump, make_filter_family


class TestBump:
    def test_plateau(self):
        h = make_bump()
        assert h(0.5) == 1.0
        assert h(0.0) == 1.0
        assert h(1.0) == 1.0

    def test_support(self):
        h = make_bump()
        assert h(7.0) == 0.0
        assert h(4.0) == 0.0

    def test_midpoint_symmetry(self):
        assert make_bump()(2.5) == pytest.approx(0.5, abs=1e-15)

    def test_range_and_monotone(self):
        h = make_bump()
        lam = np.linspace(1.0, 4.0, 2000)
        vals = h(lam)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-15)

    @pytest.mark.parametrize("join", [1.0, 4.0])
    def test_smooth_joins(self, join):
        # first and second central differences continuous across the join
        h = make_bump()
        delta = 1e-4

        def d1(x):
            return (h(x + delta) - h(x - delta)) / (2 * delta)

        def d2(x):
            return (h(x + delta) - 2 * h(x) + h(x - delta)) / delta ** 2

        assert abs(d1(join + delta) - d1(join - delta)) < 10 * delta
        assert abs(d2(join + delta) - d2(join - delta)) < 10 * delta


class TestFilterFamily:
    def test_F_support(self):
        fam = make_filter_family(2)
        lam = np.linspace(0, 20, 4001)
        vals = fam.F(lam)
        assert np.all(vals[(lam < 1.0) | (lam > 16.0)] == 0.0)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_F1_below_support(self):
        fam = make_filter_family(2)
        assert fam.f_j(1, 0.5) == 0.0

    def test_Fj_is_rescaled_F1(self, rng):
        fam = make_filter_family(2)
        for _ in range(50):
            j = int(rng.integers(1, 9))
            lam = float(rng.uniform(0, 4.0 ** (j + 2)))
            assert fam.f_j(j, lam) == pytest.approx(
                fam.f_j(1, lam / 4.0 ** (j - 1)), abs=1e-15)

    def test_telescoping_sum(self, rng):
        fam = make_filter_family(2)
        for _ in range(30):
            J = int(rng.integers(0, 6))
            lam = float(rng.uniform(0, 4.0 ** (J + 1)))
            total = sum(fam.f_j(j, lam) for j in range(J + 1))
            assert total == pytest.approx(fam.h(lam / 4.0 ** J), abs=1e-12)

    def test_psi_example(self):
        fam = make_filter_family(2)
        assert fam.psi_j(1, 4.0) == pytest.approx(fam.F(4.0) / 4.0, abs=1e-15)

    def test_scaling_identity(self, rng):
        # F_j(lam) = 2^(-(j-1)k) Psi_j(lam) lam^(k/2)
        for k in (1, 2, 3):
            fam = make_filter_family(k)
            for _ in range(100):
                j = int(rng.integers(1, 8))
                lam = float(rng.uniform(1e-3, 4.0 ** (j + 2)))
                lhs = fam.f_j(j, lam)
                rhs = 2.0 ** (-(j - 1) * k) * fam.psi_j(j, lam) * lam ** (k / 2)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_psi_bounded_on_support(self):
        fam = make_filter_family(2)
        lam = np.linspace(0.01, 4.0 ** 5, 20000)
        for j in (1, 2, 3):
            vals = np.array([fam.psi_j(j, x) for x in lam[::97]])
            assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_disjoint_supports(self):
        fam = make_filter_family(2)
        lam = np.geomspace(1e-2, 4.0 ** 7, 3000)
        for j in range(0, 5):
            for jp in range(j + 2, 7):
                prod = fam.f_j(j, lam) * fam.f_j(jp, lam)
                assert np.all(prod == 0.0)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            make_filter_family(0)
        fam = make_filter_family(2)
        with pytest.raises(ValueError):
            fam.f_j(-1, 1.0)
        with pytest.raises(ValueError):
            fam.psi_j(0, 1.0)


class TestPartition:
    def test_dense_grid(self):
        fam = make_filter_family(2)
        grid = np.linspace(0.0, 4.0 ** 4, 10001)
        assert check_partition(fam, 4, grid) < 1e-12

    def test_trivial_level(self):
        fam = make_filter_family(2)
        grid = np.linspace(0.0, 1.0, 101)
        assert check_partition(fam, 0, grid) == 0.0

    def test_out_of_range_flagged(self):
        fam = make_filter_family(2)
        with pytest.raises(ValueError, match="certified range"):
            check_partition(fam, 2, np.array([4.0 ** 4]))
