import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab.filters import F, check_partition, f_j, h


class TestBump:
    def test_plateau(self):
        assert h(0.5) == 1.0
        assert h(0.0) == 1.0
        assert h(1.0) == 1.0

    def test_support(self):
        assert h(7.0) == 0.0
        assert h(4.0) == 0.0

    def test_midpoint_symmetry(self):
        assert h(2.5) == pytest.approx(0.5, abs=1e-15)

    def test_range_and_monotone(self):
        lam = np.linspace(1.0, 4.0, 2000)
        vals = h(lam)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-15)

    @pytest.mark.parametrize("join", [1.0, 4.0])
    def test_smooth_joins(self, join):
        # first and second central differences continuous across the join
        delta = 1e-4

        def d1(x):
            return (h(x + delta) - h(x - delta)) / (2 * delta)

        def d2(x):
            return (h(x + delta) - 2 * h(x) + h(x - delta)) / delta ** 2

        assert abs(d1(join + delta) - d1(join - delta)) < 10 * delta
        assert abs(d2(join + delta) - d2(join - delta)) < 10 * delta


class TestFilterFamily:
    def test_F_support(self):
        lam = np.linspace(0, 20, 4001)
        vals = F(lam)
        assert np.all(vals[(lam < 1.0) | (lam > 16.0)] == 0.0)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_F1_below_support(self):
        assert f_j(1, 0.5) == 0.0

    def test_Fj_is_rescaled_F1(self, rng):
        for _ in range(50):
            j = int(rng.integers(1, 9))
            lam = float(rng.uniform(0, 4.0 ** (j + 2)))
            assert f_j(j, lam) == pytest.approx(
                f_j(1, lam / 4.0 ** (j - 1)), abs=1e-15)

    def test_telescoping_sum(self, rng):
        for _ in range(30):
            J = int(rng.integers(0, 6))
            lam = float(rng.uniform(0, 4.0 ** (J + 1)))
            total = sum(f_j(j, lam) for j in range(J + 1))
            assert total == pytest.approx(h(lam / 4.0 ** J), abs=1e-12)

    def test_disjoint_supports(self):
        lam = np.geomspace(1e-2, 4.0 ** 7, 3000)
        for j in range(0, 5):
            for jp in range(j + 2, 7):
                prod = f_j(j, lam) * f_j(jp, lam)
                assert np.all(prod == 0.0)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            f_j(-1, 1.0)


class TestPartition:
    def test_dense_grid(self):
        grid = np.linspace(0.0, 4.0 ** 4, 10001)
        assert check_partition(4, grid) < 1e-12

    def test_trivial_level(self):
        grid = np.linspace(0.0, 1.0, 101)
        assert check_partition(0, grid) == 0.0

    def test_out_of_range_flagged(self):
        with pytest.raises(ValueError, match="certified range"):
            check_partition(2, np.array([4.0 ** 4]))

    @settings(max_examples=300, deadline=None)
    @given(J=st.integers(0, 9), frac=st.floats(0.0, 1.0))
    def test_partition_of_unity_property(self, J, frac):
        # every lambda in [0, 4^J]: the F_j (j <= J) sum to 1 and each lies in [0, 1]
        lam = frac * 4.0 ** J
        vals = [f_j(j, lam) for j in range(J + 1)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert abs(sum(vals) - 1.0) <= 1e-12
