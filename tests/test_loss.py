import math

import numpy as np
import pytest

from tshash.loss import LOSS_TAGS, LossKind, pair_loss, quadratic_coeffs

import oracle

EXP_NEG_ONE = 0.36787944117144233
SPLH_COEFF = -0.31606027941427884  # (exp(-1) - 1) / 2


class TestPairLoss:
    def test_ksh_perfect_agreement(self):
        assert pair_loss(LossKind("ksh", 8), 8, 1.0) == 0.0

    def test_ksh_total_disagreement(self):
        assert pair_loss(LossKind("ksh", 8), -8, 1.0) == 256.0

    def test_bre_similar_at_distance_zero(self):
        assert pair_loss(LossKind("bre", 4), 4, 1.0) == 0.0

    def test_splh_pinned_value(self):
        got = pair_loss(LossKind("splh", 8), 8, 1.0)
        assert abs(got - EXP_NEG_ONE) < 1e-15

    def test_ee_dissimilar_collapsed(self):
        # d_h = 0 happens at s = m
        assert pair_loss(LossKind("ee", 6), 6, -1.0) == 100.0

    def test_exph_dissimilar_at_max_distance(self):
        # d_h = 8 happens at s = -m
        assert pair_loss(LossKind("exph", 8), -8, -1.0) == 1.0

    def test_ee_zero_affinity_contributes_nothing(self):
        assert pair_loss(LossKind("ee", 4), 2, 0.0) == 0.0

    def test_rejects_out_of_range_s(self):
        with pytest.raises(ValueError):
            pair_loss(LossKind("ksh", 4), 6, 1.0)

    def test_rejects_parity_violation(self):
        with pytest.raises(ValueError):
            pair_loss(LossKind("ksh", 4), 1, 1.0)

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            LossKind("foo", 4)

    @pytest.mark.parametrize("tag", LOSS_TAGS)
    def test_matches_direct_formulas(self, tag):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(1, 65))
            s = int(rng.integers(0, m + 1)) * 2 - m
            y = float(rng.choice([-1.0, 1.0]))
            kind = LossKind(tag, m)
            assert pair_loss(kind, s, y) == pytest.approx(
                oracle.direct_pair_loss(tag, m, s, y), abs=1e-12
            )

    @pytest.mark.parametrize("tag", LOSS_TAGS)
    def test_depends_only_on_inner_product(self, tag):
        # two code pairs with equal s must have equal loss
        rng = np.random.default_rng(11)
        m = 16
        kind = LossKind(tag, m)
        z = rng.choice([-1, 1], size=(4, m))
        s_ab = int(z[0] @ z[1])
        flip = z[[1, 0]]  # swapped order, same s
        s_ba = int(flip[0] @ flip[1])
        assert s_ab == s_ba
        assert pair_loss(kind, s_ab, 1.0) == pair_loss(kind, s_ba, 1.0)

    def test_similar_pair_minimum_at_full_agreement(self):
        m = 10
        s_grid = np.arange(-m, m + 1, 2)
        for tag in ("ksh", "bre", "splh", "ee"):
            kind = LossKind(tag, m)
            vals = [pair_loss(kind, int(s), 1.0) for s in s_grid]
            assert np.argmin(vals) == len(s_grid) - 1, tag

    def test_dissimilar_pair_minimum_at_full_disagreement(self):
        m = 10
        s_grid = np.arange(-m, m + 1, 2)
        for tag in ("ksh", "bre", "splh"):
            kind = LossKind(tag, m)
            vals = [pair_loss(kind, int(s), -1.0) for s in s_grid]
            assert np.argmin(vals) == 0, tag

    def test_bre_is_scaled_ksh(self):
        for m in (2, 4, 8, 31):
            ksh, bre = LossKind("ksh", m), LossKind("bre", m)
            for s in range(-m, m + 1, 2):
                for y in (-1.0, 1.0):
                    assert pair_loss(bre, s, y) == pytest.approx(
                        pair_loss(ksh, s, y) / (4.0 * m * m), abs=1e-12
                    )

    def test_vectorized_matches_scalar(self):
        kind = LossKind("splh", 8)
        s = np.array([-8, -2, 0, 8])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        vec = pair_loss(kind, s, y)
        for idx in range(4):
            assert vec[idx] == pair_loss(kind, int(s[idx]), float(y[idx]))


class TestQuadraticCoeff:
    def test_ksh_worked_example(self):
        kind = LossKind("ksh", 1)
        a, c = quadratic_coeffs(kind, 0, 1.0)
        assert (a, c) == (-2.0, 2.0)
        assert a * (1 * 1) + c == 0.0
        assert a * (-1 * 1) + c == 4.0

    def test_splh_pinned_coefficient(self):
        kind = LossKind("splh", 2)
        a, c = quadratic_coeffs(kind, 1, 1.0)
        assert abs(a - SPLH_COEFF) < 1e-12

    def test_indifferent_bit_gives_zero_coefficient(self):
        # KSH with y=0 is s^2, symmetric around sbar when sbar=0
        kind = LossKind("ksh", 3)
        a, _ = quadratic_coeffs(kind, 0, 0.0)
        assert a == 0.0

    def test_rejects_bad_context(self):
        kind = LossKind("ksh", 4)
        with pytest.raises(ValueError):
            quadratic_coeffs(kind, np.array([4]), np.array([1.0]))  # |sbar| > m-1
        with pytest.raises(ValueError):
            quadratic_coeffs(kind, np.array([2]), np.array([1.0]))  # parity

    @pytest.mark.parametrize("tag", LOSS_TAGS)
    def test_reduction_equals_restricted_loss(self, tag):
        rng = np.random.default_rng(23)
        for _ in range(300):
            m = int(rng.integers(1, 65))
            sbar = int(rng.integers(0, m)) * 2 - (m - 1)
            y = float(rng.choice([-1.0, 1.0]))
            kind = LossKind(tag, m)
            a, c = quadratic_coeffs(kind, sbar, y)
            for z1 in (-1, 1):
                for z2 in (-1, 1):
                    direct = pair_loss(kind, sbar + z1 * z2, y)
                    assert abs(a * z1 * z2 + c - direct) <= 1e-9

    def test_vectorized_coefficients_match_single(self):
        kind = LossKind("ee", 8)
        rng = np.random.default_rng(3)
        sbar = rng.integers(0, 8, size=50) * 2 - 7
        y = rng.choice([-1.0, 1.0], size=50)
        a_vec, c_vec = quadratic_coeffs(kind, sbar, y)
        for idx in range(50):
            a, c = quadratic_coeffs(kind, int(sbar[idx]), float(y[idx]))
            assert a_vec[idx] == a and c_vec[idx] == c
