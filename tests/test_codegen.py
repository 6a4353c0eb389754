import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from tshash.codegen import (
    BqpInstance,
    CodeMatrix,
    SpectralResidualWarning,
    TrainConfig,
    box_relax,
    learn_codes,
    pairwise_objective,
    spectral_relax,
    update_bit,
)
from tshash.data import (
    PairSupervision,
    generate_clusters,
    supervision_from_distance,
    supervision_from_labels,
)
from tshash.loss import LOSS_TAGS, LossKind, quadratic_coeffs

import oracle


def random_bqp(rng, n, scale=1.0):
    a = rng.normal(scale=scale, size=(n, n))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    return BqpInstance.from_dense(a)


def random_pair_bqp(rng, n):
    """Instance on all n(n-1)/2 pairs with its random pair coefficients."""
    i, j = np.triu_indices(n, 1)
    return BqpInstance(n, i, j), rng.normal(size=i.size)


def bit_coefficients(sup, codes, k, kind):
    """Pair coefficients a for updating bit k, computed as learn_codes does."""
    s = np.sum(codes.bits[sup.i].astype(np.int64) * codes.bits[sup.j], axis=1)
    sbar = s - codes.bits[sup.i, k].astype(np.int64) * codes.bits[sup.j, k]
    a, _ = quadratic_coeffs(kind, sbar, sup.y)
    return a


def rounded(v):
    return np.where(v >= 0, 1, -1)


def random_supervision(rng, n, pairs):
    entries = set()
    while len(entries) < pairs:
        a, b = rng.choice(n, size=2, replace=False)
        key = (min(a, b), max(a, b))
        entries.add(key)
    return PairSupervision.from_entries(
        n, [(a, b, float(rng.choice([-1.0, 1.0]))) for a, b in sorted(entries)]
    )


class TestCodeMatrix:
    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            CodeMatrix(np.array([[1, 0], [-1, 1]]))

    def test_immutable(self):
        cm = CodeMatrix(np.array([[1, -1]]))
        with pytest.raises(ValueError):
            cm.bits[0, 0] = -1


class TestBqpInstance:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            BqpInstance.from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            BqpInstance.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_quad_matches_dense_form(self):
        rng = np.random.default_rng(0)
        bqp = random_bqp(rng, 7)
        z = rng.normal(size=7)
        assert bqp.quad(z) == pytest.approx(z @ bqp.dense() @ z, rel=1e-12)

    def test_gershgorin_dominates_spectrum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            bqp = random_bqp(rng, 9)
            radius = np.abs(np.linalg.eigvalsh(bqp.dense())).max()
            assert bqp.gershgorin_bound() >= radius - 1e-12


class TestAssemble:
    def test_empty_supervision_gives_zero_matrix(self):
        empty = np.empty(0, dtype=np.int64)
        bqp = BqpInstance(3, empty, empty)
        incumbent = np.array([1, -1, 1], dtype=np.int8)
        col, delta = update_bit(bqp, np.empty(0), incumbent)
        assert bqp.matrix.nnz == 0
        assert col.tolist() == [1, -1, 1] and delta == 0.0

    def test_single_pair_worked_example(self):
        sup = PairSupervision.from_entries(2, [(0, 1, 1.0)])
        codes = CodeMatrix(np.ones((2, 1), dtype=np.int8))
        bqp = BqpInstance(sup.n, sup.i, sup.j)
        bqp.set_coefficients(bit_coefficients(sup, codes, 0, LossKind("ksh", 1)))
        dense = bqp.dense()
        assert dense[0, 1] == -2.0 and dense[1, 0] == -2.0

    def test_symmetry_on_random_supervision(self):
        rng = np.random.default_rng(3)
        sup = random_supervision(rng, 12, 20)
        codes = CodeMatrix(rng.choice([-1, 1], size=(12, 4)).astype(np.int8))
        bqp = BqpInstance(sup.n, sup.i, sup.j)
        bqp.set_coefficients(bit_coefficients(sup, codes, 1, LossKind("ee", 4)))
        dense = bqp.dense()
        assert np.array_equal(dense, dense.T)
        assert not np.diagonal(dense).any()

    def test_coefficients_rewritten_in_place(self):
        # One structure serves every bit: each scatter replaces all values.
        rng = np.random.default_rng(4)
        bqp, a = random_pair_bqp(rng, 6)
        bqp.set_coefficients(rng.normal(size=a.size))
        bqp.set_coefficients(a)
        dense = bqp.dense()
        i, j = np.triu_indices(6, 1)
        assert np.array_equal(dense[i, j], a) and np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("tag", LOSS_TAGS)
    def test_quadratic_form_fidelity(self, tag):
        # z_k' A z_k plus the per-pair constants must equal the doubled sum
        # of restricted pair losses, for any column and any loss; and the
        # change update_bit reports must equal the change in that sum.
        rng = np.random.default_rng(17)
        for _ in range(15):
            n, m = 10, 5
            kind = LossKind(tag, m)
            sup = random_supervision(rng, n, 18)
            codes = CodeMatrix(rng.choice([-1, 1], size=(n, m)).astype(np.int8))
            k = int(rng.integers(m))
            bqp = BqpInstance(sup.n, sup.i, sup.j)
            a = bit_coefficients(sup, codes, k, kind)
            bqp.set_coefficients(a)

            const = 0.0
            for p, q, y in zip(sup.i, sup.j, sup.y):
                sbar = int(codes.bits[p] @ codes.bits[q]) - int(codes.bits[p, k]) * int(codes.bits[q, k])
                hi = oracle.direct_pair_loss(tag, m, sbar + 1, float(y))
                lo = oracle.direct_pair_loss(tag, m, sbar - 1, float(y))
                const += hi + lo  # ordered-pair sum of c = (hi + lo) / 2
            direct = oracle.total_objective(tag, m, codes.bits, zip(sup.i, sup.j, sup.y))
            assert bqp.quad(codes.bits[:, k]) + const == pytest.approx(direct, abs=1e-8)

            col, delta = update_bit(bqp, a, codes.bits[:, k], seed=k)
            bits = codes.bits.copy()
            bits[:, k] = col
            after = oracle.total_objective(tag, m, bits, zip(sup.i, sup.j, sup.y))
            assert delta == pytest.approx(after - direct, abs=1e-8)


class TestSpectralRelax:
    def test_exchange_matrix(self):
        bqp = BqpInstance.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        v = spectral_relax(bqp)
        assert np.sum(v**2) == pytest.approx(2.0, rel=1e-12)
        assert bqp.quad(v) == pytest.approx(-2.0, abs=1e-9)
        assert v[0] * v[1] < 0

    def test_zero_matrix(self):
        bqp = BqpInstance.from_dense(np.zeros((4, 4)))
        v = spectral_relax(bqp)
        assert np.sum(v**2) == pytest.approx(4.0, rel=1e-12)
        assert bqp.quad(v) == 0.0

    def test_monte_carlo_domination(self):
        rng = np.random.default_rng(5)
        bqp = random_bqp(rng, 10)
        v = spectral_relax(bqp)
        base = bqp.quad(v)
        for _ in range(1000):
            u = rng.normal(size=10)
            u *= np.sqrt(10.0) / np.linalg.norm(u)
            assert base <= bqp.quad(u) + 1e-9

    @pytest.mark.parametrize("n", [700, 1000])
    @pytest.mark.parametrize("supervision", ["labels", "distance"])
    @pytest.mark.parametrize("tag", ["ksh", "exph"])
    def test_matches_dense_minimum_eigenvalue(self, n, supervision, tag):
        # Real per-bit instances whose spectral gap is small next to the
        # spectral radius: the Rayleigh quotient of the returned vector must
        # still be the smallest eigenvalue.
        ds = generate_clusters(n, 10, 3, 0.3, seed=n)
        if supervision == "labels":
            sup = supervision_from_labels(ds, 20, seed=3)
        else:
            sup = supervision_from_distance(ds, 5.0, 20, seed=3)
        m = 8
        rng = np.random.default_rng(n + 1)
        codes = CodeMatrix(rng.choice([-1, 1], size=(n, m)))
        bqp = BqpInstance(n, sup.i, sup.j)
        bqp.set_coefficients(bit_coefficients(sup, codes, 3, LossKind(tag, m)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", SpectralResidualWarning)
            v = spectral_relax(bqp, seed=2)
        assert np.sum(v**2) == pytest.approx(float(n), rel=1e-12)
        want = np.linalg.eigvalsh(bqp.dense())[0]
        assert bqp.quad(v) / n == pytest.approx(want, rel=1e-8)

    def test_nonconvergence_warns_and_falls_back(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((30, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        rng = np.random.default_rng(9)
        bqp = random_bqp(rng, 30)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            v = spectral_relax(bqp, seed=0)
        assert np.sum(v**2) == pytest.approx(30.0, rel=1e-12)
        start = np.random.default_rng(0).standard_normal(30)
        assert np.allclose(v, start * (np.sqrt(30.0) / np.linalg.norm(start)), rtol=1e-12)

    def test_wrong_eigenpair_warns_and_is_kept(self, monkeypatch):
        rng = np.random.default_rng(10)
        bqp = random_bqp(rng, 30)
        wrong = rng.normal(size=30)
        wrong /= np.linalg.norm(wrong)

        def wrong_pair(*args, **kwargs):
            return np.array([-1.0]), wrong[:, None]

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", wrong_pair)
        with pytest.warns(SpectralResidualWarning, match="relative residual"):
            v = spectral_relax(bqp, seed=0)
        sign = 1.0 if wrong[np.argmax(np.abs(wrong))] > 0 else -1.0
        assert np.allclose(v, sign * np.sqrt(30.0) * wrong, rtol=1e-12)
        # Tracing counts every RuntimeWarning from spectral_relax as a fallback.
        assert not issubclass(SpectralResidualWarning, RuntimeWarning)

    def test_norm_constraint(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 17):
            bqp = random_bqp(rng, n) if n > 1 else BqpInstance.from_dense(np.zeros((1, 1)))
            v = spectral_relax(bqp)
            assert np.sum(v**2) == pytest.approx(float(n), rel=1e-12)


class TestBoxRelax:
    def test_two_variable_vertex_solution(self):
        bqp = BqpInstance.from_dense(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        z = box_relax(bqp, np.array([0.1, 0.1]))
        assert bqp.quad(z) == pytest.approx(-2.0, abs=1e-4)
        assert np.all(np.abs(z) <= 1.0)

    def test_zero_matrix_returns_clamped_init(self):
        bqp = BqpInstance.from_dense(np.zeros((3, 3)))
        z = box_relax(bqp, np.array([2.0, -7.0, 0.25]))
        assert np.array_equal(z, [1.0, -1.0, 0.25])

    def test_objective_never_increases_vs_init(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            bqp = random_bqp(rng, n)
            init = rng.normal(scale=2.0, size=n)
            z = box_relax(bqp, init)
            assert np.all(np.abs(z) <= 1.0 + 1e-15)
            assert bqp.quad(z) <= bqp.quad(np.clip(init, -1, 1)) + 1e-12

    def test_rejects_non_finite_init(self):
        bqp = BqpInstance.from_dense(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            box_relax(bqp, np.array([np.nan, 0.0]))


class TestRoundAndSelect:
    def test_sign_rounding_with_zero_positive(self):
        # Point 2 is in no pair, so both relaxed solutions hold an exact 0
        # there; it rounds to +1.
        bqp = BqpInstance(3, np.array([0]), np.array([1]))
        a = np.array([-1.0])
        bqp.set_coefficients(a)
        assert spectral_relax(bqp)[2] == 0.0
        col, delta = update_bit(bqp, a, np.array([1, -1, -1]))
        assert col.tolist() == [1, 1, 1] and delta == -4.0

    def test_incumbent_wins_ties(self):
        bqp = BqpInstance(2, np.array([0]), np.array([1]))
        incumbent = np.array([-1, -1], dtype=np.int8)
        col, delta = update_bit(bqp, np.array([-1.0]), incumbent)
        assert rounded(spectral_relax(bqp)).tolist() == [1, 1]  # only ties
        assert col.tolist() == [-1, -1] and delta == 0.0

    def test_incumbent_kept_when_optimal(self):
        bqp = BqpInstance(2, np.array([0]), np.array([1]))
        col, delta = update_bit(bqp, np.array([-1.0]), np.array([1, 1]))
        assert col.tolist() == [1, 1] and delta == 0.0

    def test_selected_dominates_all_candidates(self):
        rng = np.random.default_rng(19)
        for trial in range(50):
            n = int(rng.integers(2, 10))
            bqp, a = random_pair_bqp(rng, n)
            incumbent = rng.choice([-1, 1], size=n).astype(np.int8)
            out, delta = update_bit(bqp, a, incumbent, seed=trial)
            v0 = spectral_relax(bqp, seed=trial)
            v1 = box_relax(bqp, v0)
            out_val = bqp.quad(out)
            assert out_val <= bqp.quad(incumbent)
            assert out_val <= bqp.quad(rounded(v0))
            assert out_val <= bqp.quad(rounded(v1))
            assert delta == out_val - bqp.quad(incumbent)


class TestLearnCodes:
    def test_single_similar_pair_agrees(self):
        sup = PairSupervision.from_entries(2, [(0, 1, 1.0)])
        cfg = TrainConfig(loss=LossKind("ksh", 1), seed=3)
        codes, trace = learn_codes(sup, cfg)
        assert codes.bits[0, 0] == codes.bits[1, 0]
        assert trace[-1].objective == 0.0

    def test_three_point_exhaustive_optimum(self):
        sup = PairSupervision.from_entries(3, [(0, 1, 1.0), (0, 2, -1.0), (1, 2, -1.0)])
        kind = LossKind("bre", 2)
        cfg = TrainConfig(loss=kind, seed=1)
        codes, trace = learn_codes(sup, cfg)
        pairs = [(0, 1, 1.0), (0, 2, -1.0), (1, 2, -1.0)]
        best = min(
            oracle.total_objective("bre", 2, np.array(combo).reshape(3, 2), pairs)
            for combo in itertools.product((-1, 1), repeat=6)
        )
        assert trace[-1].objective == pytest.approx(best, abs=1e-12)

    def test_empty_supervision_trace_is_zero(self):
        cfg = TrainConfig(loss=LossKind("ksh", 3), sweeps=2, seed=7)
        codes, trace = learn_codes(PairSupervision(5), cfg)
        assert codes.bits.shape == (5, 3)
        assert len(trace) == 6 and all(e.objective == 0.0 for e in trace)

    @pytest.mark.parametrize("tag", LOSS_TAGS)
    def test_trace_monotone_non_increasing(self, tag):
        rng = np.random.default_rng(29)
        for trial in range(3):
            n = 30
            sup = random_supervision(rng, n, 60)
            cfg = TrainConfig(loss=LossKind(tag, 8), sweeps=2, seed=trial)
            _, trace = learn_codes(sup, cfg)
            objs = [e.objective for e in trace]
            assert all(b <= a for a, b in zip(objs, objs[1:])), tag

    @pytest.mark.parametrize("tag", LOSS_TAGS)
    def test_trace_tail_matches_direct_objective(self, tag):
        # The trace accumulates per-bit changes; after two sweeps it must
        # still equal the objective evaluated from scratch.
        rng = np.random.default_rng(31)
        sup = random_supervision(rng, 20, 40)
        kind = LossKind(tag, 6)
        cfg = TrainConfig(loss=kind, sweeps=2, seed=5)
        codes, trace = learn_codes(sup, cfg)
        direct = oracle.total_objective(tag, 6, codes.bits, zip(sup.i, sup.j, sup.y))
        assert trace[-1].objective == pytest.approx(direct, rel=1e-12)
        assert pairwise_objective(sup, codes, kind) == pytest.approx(direct, rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        sup = random_supervision(rng, 25, 50)
        cfg = TrainConfig(loss=LossKind("ee", 4), seed=23)
        a, trace_a = learn_codes(sup, cfg)
        b, trace_b = learn_codes(sup, cfg)
        assert np.array_equal(a.bits, b.bits)
        assert trace_a == trace_b

    def test_trace_covers_every_bit_update(self):
        rng = np.random.default_rng(41)
        sup = random_supervision(rng, 12, 20)
        cfg = TrainConfig(loss=LossKind("ksh", 5), sweeps=3, seed=0)
        _, trace = learn_codes(sup, cfg)
        assert [(e.sweep, e.bit) for e in trace] == [
            (s, k) for s in range(3) for k in range(5)
        ]
