import itertools
import warnings

import numpy as np
import pytest

from tshash import codegen
from tshash.codegen import (
    BqpInstance,
    CodeMatrix,
    LowRankBqp,
    SpectralResidualWarning,
    TrainConfig,
    box_relax,
    learn_codes,
    pairwise_objective,
    spectral_relax,
    update_bit,
)
from tshash.data import (
    Dataset,
    PairSupervision,
    generate_clusters,
    supervision_from_distance,
    supervision_from_labels,
)
from tshash.loss import LOSS_TAGS, LossKind, quadratic_coeffs

import oracle


def dense_bqp(a):
    """Instance over the nonzero upper-triangle entries of a symmetric matrix a."""
    a = np.asarray(a, dtype=np.float64)
    i, j = np.nonzero(np.triu(a, 1))
    bqp = BqpInstance(a.shape[0], i, j)
    bqp.set_coefficients(a[i, j])
    return bqp


def random_bqp(rng, n, scale=1.0):
    a = rng.normal(scale=scale, size=(n, n))
    return dense_bqp((a + a.T) / 2.0)


def random_pair_bqp(rng, n):
    """Instance on all n(n-1)/2 pairs with its random pair coefficients."""
    i, j = np.triu_indices(n, 1)
    return BqpInstance(n, i, j), rng.normal(size=i.size)


def bit_coefficients(sup, codes, k, kind):
    """Pair coefficients a for updating bit k, computed as learn_codes does."""
    i, j, y = sup.arrays()
    s = np.sum(codes.bits[i].astype(np.int64) * codes.bits[j], axis=1)
    sbar = s - codes.bits[i, k].astype(np.int64) * codes.bits[j, k]
    a, _ = quadratic_coeffs(kind, sbar, y)
    return a


def rounded(v):
    return np.where(v >= 0, 1, -1)


def random_supervision(rng, n, pairs):
    entries = set()
    while len(entries) < pairs:
        a, b = rng.choice(n, size=2, replace=False)
        key = (min(a, b), max(a, b))
        entries.add(key)
    i, j = np.array(sorted(entries), dtype=np.int64).reshape(-1, 2).T
    # One draw per pair, in sorted order: one sized draw would consume rng differently.
    y = [float(rng.choice([-1.0, 1.0])) for _ in range(i.size)]
    return PairSupervision(n, i, j, y)


class TestCodeMatrix:
    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            CodeMatrix(np.array([[1, 0], [-1, 1]]))

    def test_immutable(self):
        cm = CodeMatrix(np.array([[1, -1]]))
        with pytest.raises(ValueError):
            cm.bits[0, 0] = -1


def lexsort_csr(n, i, j):
    """Reference CSR layout: indptr, column indices and each slot's pair, by (row, column)."""
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr, cols[order], np.tile(np.arange(i.size), 2)[order]


class TestBqpInstance:
    @pytest.mark.parametrize("n, pairs", [(1, 0), (4, 0), (2, 1), (9, 36), (40, 200), (300, 5000)])
    def test_layout_matches_lexsort(self, n, pairs):
        rng = np.random.default_rng(n + pairs)
        i, j = np.triu_indices(n, 1)
        keep = rng.choice(i.size, size=pairs, replace=False)
        flip = rng.random(pairs) < 0.5  # pairs in any order, either way round
        i, j = np.where(flip, j[keep], i[keep]), np.where(flip, i[keep], j[keep])
        bqp = BqpInstance(n, i, j)
        csr = bqp.matrix
        assert csr.nnz == 2 * pairs and not csr.toarray().any()
        indptr, indices, slot_pair = lexsort_csr(n, i, j)
        assert np.array_equal(csr.indptr, indptr) and np.array_equal(csr.indices, indices)
        row = np.repeat(np.arange(n), np.diff(csr.indptr))
        assert np.all(np.diff(row * n + csr.indices) > 0)  # sorted within each row
        bqp.set_coefficients(np.arange(1.0, pairs + 1))
        assert np.array_equal(csr.data, slot_pair + 1.0)

    @pytest.mark.parametrize("i, j", [
        pytest.param([0, 0], [1, 1], id="duplicate"),
        pytest.param([0, 2], [2, 0], id="mirrored"),
        pytest.param([1], [1], id="self"),
        pytest.param([0, 2], [1, 2], id="self-among-others"),
    ])
    def test_rejects_coinciding_entries(self, i, j):
        with pytest.raises(ValueError, match="distinct, unordered and off the diagonal"):
            BqpInstance(3, np.array(i), np.array(j))

    def test_quad_matches_dense_form(self):
        rng = np.random.default_rng(0)
        bqp = random_bqp(rng, 7)
        z = rng.normal(size=7)
        assert bqp.quad(z) == pytest.approx(z @ bqp.matrix.toarray() @ z, rel=1e-12)

    def test_gershgorin_dominates_spectrum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            bqp = random_bqp(rng, 9)
            radius = np.abs(np.linalg.eigvalsh(bqp.matrix.toarray())).max()
            assert bqp.gershgorin_bound() >= radius - 1e-12

    @pytest.mark.parametrize("n, pairs", [(1, 0), (5, 0), (2, 1), (30, 20), (50, 400), (200, 3000)])
    def test_gershgorin_equals_scipy_row_sums(self, n, pairs):
        # Row sums cached by set_coefficients, bit for bit those of scipy's
        # abs(matrix).sum(axis=1), with rows of points in no pair among them.
        rng = np.random.default_rng(n * pairs + 3)
        i, j = np.triu_indices(n, 1)
        keep = rng.choice(i.size, size=pairs, replace=False)
        bqp = BqpInstance(n, i[keep], j[keep])
        assert bqp.gershgorin_bound() == 0.0
        for scale in (1.0, 1e-3, 1e5):
            bqp.set_coefficients(rng.normal(scale=scale, size=pairs))
            want = float(abs(bqp.matrix).sum(axis=1).max()) if pairs else 0.0
            assert bqp.gershgorin_bound() == want


class TestAssemble:
    def test_empty_supervision_gives_zero_matrix(self):
        empty = np.empty(0, dtype=np.int64)
        bqp = BqpInstance(3, empty, empty)
        incumbent = np.array([1, -1, 1], dtype=np.int8)
        col, delta = update_bit(bqp, incumbent)
        assert bqp.matrix.nnz == 0
        assert col.tolist() == [1, -1, 1] and delta == 0.0

    def test_single_pair_worked_example(self):
        sup = PairSupervision(2, [0], [1], [1.0])
        codes = CodeMatrix(np.ones((2, 1), dtype=np.int8))
        bqp = BqpInstance(sup.n, *sup.arrays()[:2])
        bqp.set_coefficients(bit_coefficients(sup, codes, 0, LossKind("ksh", 1)))
        dense = bqp.matrix.toarray()
        assert dense[0, 1] == -2.0 and dense[1, 0] == -2.0

    def test_symmetry_on_random_supervision(self):
        rng = np.random.default_rng(3)
        sup = random_supervision(rng, 12, 20)
        codes = CodeMatrix(rng.choice([-1, 1], size=(12, 4)).astype(np.int8))
        bqp = BqpInstance(sup.n, *sup.arrays()[:2])
        bqp.set_coefficients(bit_coefficients(sup, codes, 1, LossKind("ee", 4)))
        dense = bqp.matrix.toarray()
        assert np.array_equal(dense, dense.T)
        assert not np.diagonal(dense).any()

    def test_coefficients_rewritten_in_place(self):
        # One structure serves every bit: each scatter replaces all values.
        rng = np.random.default_rng(4)
        bqp, a = random_pair_bqp(rng, 6)
        bqp.set_coefficients(rng.normal(size=a.size))
        bqp.set_coefficients(a)
        dense = bqp.matrix.toarray()
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
            bqp = BqpInstance(sup.n, *sup.arrays()[:2])
            a = bit_coefficients(sup, codes, k, kind)
            bqp.set_coefficients(a)

            const = 0.0
            for p, q, y in zip(*sup.arrays()):
                sbar = int(codes.bits[p] @ codes.bits[q]) - int(codes.bits[p, k]) * int(codes.bits[q, k])
                hi = oracle.direct_pair_loss(tag, m, sbar + 1, float(y))
                lo = oracle.direct_pair_loss(tag, m, sbar - 1, float(y))
                const += hi + lo  # ordered-pair sum of c = (hi + lo) / 2
            direct = oracle.total_objective(tag, m, codes.bits, zip(*sup.arrays()))
            assert bqp.quad(codes.bits[:, k]) + const == pytest.approx(direct, abs=1e-8)

            col, delta = update_bit(bqp, codes.bits[:, k], seed=k)
            bits = codes.bits.copy()
            bits[:, k] = col
            after = oracle.total_objective(tag, m, bits, zip(*sup.arrays()))
            assert delta == pytest.approx(after - direct, abs=1e-8)


class TestSpectralRelax:
    def test_exchange_matrix(self):
        bqp = dense_bqp(np.array([[0.0, 1.0], [1.0, 0.0]]))
        v = spectral_relax(bqp)
        assert np.sum(v**2) == pytest.approx(2.0, rel=1e-12)
        assert bqp.quad(v) == pytest.approx(-2.0, abs=1e-9)
        assert v[0] * v[1] < 0

    def test_zero_matrix(self):
        bqp = dense_bqp(np.zeros((4, 4)))
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
        bqp = BqpInstance(n, *sup.arrays()[:2])
        bqp.set_coefficients(bit_coefficients(sup, codes, 3, LossKind(tag, m)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", SpectralResidualWarning)
            v = spectral_relax(bqp, seed=2)
        assert np.sum(v**2) == pytest.approx(float(n), rel=1e-12)
        want = np.linalg.eigvalsh(bqp.matrix.toarray())[0]
        assert bqp.quad(v) / n == pytest.approx(want, rel=1e-8)

    def test_nonconvergence_warns_and_falls_back(self, monkeypatch):
        # A cap of 15 products stops Lanczos before a 30 x 30 random matrix
        # converges: the cap is checked each time the basis of 20 fills.
        monkeypatch.setattr(codegen, "_LANCZOS_MATVECS_PER_ROW", 0.5)
        rng = np.random.default_rng(9)
        bqp = random_bqp(rng, 30)
        calls = []
        matvec = bqp.matvec
        monkeypatch.setattr(bqp, "matvec", lambda z: calls.append(z) or matvec(z))
        assert bqp.min_eigenpair(rng.normal(size=30)) is None
        assert len(calls) == 20
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

        monkeypatch.setattr(bqp, "min_eigenpair", lambda v0: (-1.0, wrong))
        with pytest.warns(SpectralResidualWarning, match="relative residual"):
            v = spectral_relax(bqp, seed=0)
        sign = 1.0 if wrong[np.argmax(np.abs(wrong))] > 0 else -1.0
        assert np.allclose(v, sign * np.sqrt(30.0) * wrong, rtol=1e-12)
        # Tracing counts every RuntimeWarning from spectral_relax as a fallback.
        assert not issubclass(SpectralResidualWarning, RuntimeWarning)

    def test_norm_constraint(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 17):
            bqp = random_bqp(rng, n) if n > 1 else dense_bqp(np.zeros((1, 1)))
            v = spectral_relax(bqp)
            assert np.sum(v**2) == pytest.approx(float(n), rel=1e-12)


def components(rng, sizes, edges):
    """Pairs and coefficients of random blocks of the given sizes, laid out
    one after another, with at most `edges` pairs in each and none between."""
    i, j, a, start = [], [], [], 0
    for size in sizes:
        ii, jj = np.triu_indices(size, 1)
        keep = rng.choice(ii.size, size=min(edges, ii.size), replace=False)
        i.append(ii[keep] + start)
        j.append(jj[keep] + start)
        a.append(rng.normal(size=keep.size))
        start += size
    return np.concatenate(i), np.concatenate(j), np.concatenate(a)


class TestLanczos:
    """BqpInstance.min_eigenpair against dense eigvalsh, on every shape the
    Krylov basis meets: smaller than the basis, larger than it (restarts),
    disconnected, with zero rows and with a repeated minimum."""

    def check(self, bqp, seed=0):
        v0 = np.random.default_rng(seed).standard_normal(bqp.n)
        val, v = bqp.min_eigenpair(v0)
        dense = bqp.matrix.toarray()
        bound = bqp.gershgorin_bound()
        assert val == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-12 * bound)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(dense @ v - val * v) <= 1e-11 * bound
        return val, v

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 19, 20, 21, 60, 250])
    def test_matches_dense_below_and_above_basis(self, n):
        rng = np.random.default_rng(n)
        if n == 1:
            bqp = BqpInstance(1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
            assert self.check(bqp) == (0.0, pytest.approx(np.array([1.0])))
            return
        bqp, a = random_pair_bqp(rng, n)
        bqp.set_coefficients(a)
        self.check(bqp, seed=n)

    def test_sparse_instances_restart(self):
        rng = np.random.default_rng(4)
        sup = random_supervision(rng, 300, 1500)
        codes = CodeMatrix(rng.choice([-1, 1], size=(300, 8)))
        bqp = BqpInstance(300, *sup.arrays()[:2])
        for tag in ("ksh", "exph", "ee"):
            bqp.set_coefficients(bit_coefficients(sup, codes, 2, LossKind(tag, 8)))
            self.check(bqp, seed=1)

    def test_disconnected_components(self):
        rng = np.random.default_rng(5)
        i, j, a = components(rng, [40, 3, 25, 2], 120)
        bqp = BqpInstance(70, i, j)
        bqp.set_coefficients(a)
        self.check(bqp)

    def test_points_in_no_pair_are_exact_zeros(self):
        rng = np.random.default_rng(6)
        i, j, a = components(rng, [30, 45], 200)
        n = 90  # points 75-89 are in no pair
        bqp = BqpInstance(n, i, j)
        bqp.set_coefficients(a)
        val, v = self.check(bqp)
        assert val < 0.0 and np.all(v[75:] == 0.0)
        # A stored pair whose coefficient is 0 leaves a zero row too.
        bqp = BqpInstance(4, np.array([0, 2]), np.array([1, 3]))
        bqp.set_coefficients(np.array([-1.0, 0.0]))
        _, v = self.check(bqp)
        assert v[2] == 0.0 and v[3] == 0.0

    def test_repeated_minimum_eigenvalue(self):
        # Two copies of one block: every eigenvalue has multiplicity two.
        rng = np.random.default_rng(7)
        i, j, a = components(rng, [35], 150)
        bqp = BqpInstance(70, np.concatenate([i, i + 35]), np.concatenate([j, j + 35]))
        bqp.set_coefficients(np.concatenate([a, a]))
        vals = np.linalg.eigvalsh(bqp.matrix.toarray())
        assert vals[1] - vals[0] < 1e-12 * bqp.gershgorin_bound()
        self.check(bqp)

    def test_exactly_invariant_to_power_of_two_scale(self):
        # Every step is homogeneous in A, so scaling A by 2^e scales the
        # eigenvalue by 2^e and leaves the vector's bits alone.
        rng = np.random.default_rng(8)
        sup = random_supervision(rng, 200, 900)
        codes = CodeMatrix(rng.choice([-1, 1], size=(200, 8)))
        a = bit_coefficients(sup, codes, 5, LossKind("exph", 8))
        v0 = rng.standard_normal(200)
        bqp = BqpInstance(200, *sup.arrays()[:2])
        bqp.set_coefficients(a)
        val, v = bqp.min_eigenpair(v0)
        for e in (-8, 3, 10):
            bqp.set_coefficients(a * 2.0**e)
            val_e, v_e = bqp.min_eigenpair(v0)
            assert val_e == val * 2.0**e
            assert np.array_equal(v_e, v)


class TestBoxRelax:
    def test_two_variable_vertex_solution(self):
        bqp = dense_bqp(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        z = box_relax(bqp, np.array([0.1, 0.1]))
        assert bqp.quad(z) == pytest.approx(-2.0, abs=1e-4)
        assert np.all(np.abs(z) <= 1.0)

    def test_zero_matrix_returns_clamped_init(self):
        bqp = dense_bqp(np.zeros((3, 3)))
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
        bqp = dense_bqp(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            box_relax(bqp, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("form", ["pair", "low_rank"])
    def test_asks_for_each_product_once(self, monkeypatch, form):
        # A.z of an accepted point serves its objective and the next gradient.
        rng = np.random.default_rng(17)
        n, m, k = 60, 8, 3
        sup = full_label_supervision(n, 4, seed=17)
        bits = rng.choice([-1, 1], size=(n, m)).astype(np.int8)
        build = pair_form if form == "pair" else low_rank_form
        bqp = build(sup, bits, k, LossKind("ksh", m))
        init = rng.normal(size=n)
        want = box_relax(bqp, init)

        seen = []
        matvec = bqp.matvec

        def counted(z):
            seen.append(np.array(z, dtype=np.float64))
            return matvec(z)

        monkeypatch.setattr(bqp, "matvec", counted)
        assert np.array_equal(box_relax(bqp, init), want)
        assert len(seen) > 2  # the start and at least one accepted step
        assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))


class TestRoundAndSelect:
    def test_sign_rounding_with_zero_positive(self):
        # Point 2 is in no pair, so both relaxed solutions hold an exact 0
        # there; it rounds to +1.
        bqp = BqpInstance(3, np.array([0]), np.array([1]))
        a = np.array([-1.0])
        bqp.set_coefficients(a)
        assert spectral_relax(bqp)[2] == 0.0
        col, delta = update_bit(bqp, np.array([1, -1, -1]))
        assert col.tolist() == [1, 1, 1] and delta == -4.0

    def test_incumbent_wins_ties(self):
        bqp = BqpInstance(2, np.array([0]), np.array([1]))
        bqp.set_coefficients(np.array([-1.0]))
        incumbent = np.array([-1, -1], dtype=np.int8)
        col, delta = update_bit(bqp, incumbent)
        assert rounded(spectral_relax(bqp)).tolist() == [1, 1]  # only ties
        assert col.tolist() == [-1, -1] and delta == 0.0

    def test_incumbent_kept_when_optimal(self):
        bqp = BqpInstance(2, np.array([0]), np.array([1]))
        bqp.set_coefficients(np.array([-1.0]))
        col, delta = update_bit(bqp, np.array([1, 1]))
        assert col.tolist() == [1, 1] and delta == 0.0

    def test_selected_dominates_all_candidates(self):
        rng = np.random.default_rng(19)
        for trial in range(50):
            n = int(rng.integers(2, 10))
            bqp, a = random_pair_bqp(rng, n)
            bqp.set_coefficients(a)
            incumbent = rng.choice([-1, 1], size=n).astype(np.int8)
            out, delta = update_bit(bqp, incumbent, seed=trial)
            v0 = spectral_relax(bqp, seed=trial)
            v1 = box_relax(bqp, v0)
            out_val = bqp.quad(out)
            assert out_val <= bqp.quad(incumbent)
            assert out_val <= bqp.quad(rounded(v0))
            assert out_val <= bqp.quad(rounded(v1))
            assert delta == out_val - bqp.quad(incumbent)


class TestLearnCodes:
    def test_single_similar_pair_agrees(self):
        sup = PairSupervision(2, [0], [1], [1.0])
        cfg = TrainConfig(loss=LossKind("ksh", 1), seed=3)
        codes, trace = learn_codes(sup, cfg)
        assert codes.bits[0, 0] == codes.bits[1, 0]
        assert trace[-1].objective == 0.0

    def test_three_point_exhaustive_optimum(self):
        sup = PairSupervision(3, [0, 0, 1], [1, 2, 2], [1.0, -1.0, -1.0])
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
        direct = oracle.total_objective(tag, 6, codes.bits, zip(*sup.arrays()))
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

    def test_pair_products_in_ragged_blocks(self, monkeypatch):
        rng = np.random.default_rng(41)
        sup = random_supervision(rng, 20, 40)
        i, j, _ = sup.arrays()
        cfg = TrainConfig(loss=LossKind("exph", 5), sweeps=2, seed=9)
        codes, trace = learn_codes(sup, cfg)
        monkeypatch.setattr("tshash.data._BLOCK_ENTRIES", 3 * 5)  # 13 blocks of 3 pairs, then 1
        s = codegen._pair_products(codes.bits, i, j)
        assert s.dtype == np.int64
        assert np.array_equal(s, (codes.bits[i].astype(np.int64) * codes.bits[j]).sum(axis=1))
        again, trace_again = learn_codes(sup, cfg)
        assert np.array_equal(again.bits, codes.bits) and trace_again == trace

    @pytest.mark.parametrize("tag", LOSS_TAGS)
    def test_coefficients_match_quadratic_coeffs(self, monkeypatch, tag):
        # Each bit's coefficients, looked up in the (y, sbar) table, must equal
        # quadratic_coeffs evaluated pair by pair on the codes of that moment.
        sup = supervision_from_labels(generate_clusters(24, 3, 2, 0.3, seed=4), 5, seed=2)
        assert sup.labels is None and set(sup.arrays()[2].tolist()) == {-1.0, 1.0}
        for m in (1, 2, 8, 33, 64):
            coeffs, columns = [], []

            class Recording(BqpInstance):
                def set_coefficients(self, a):
                    coeffs.append(np.array(a))
                    super().set_coefficients(a)

            def recording_update(bqp, incumbent, seed=0):
                before = np.array(incumbent)
                col, delta = update_bit(bqp, incumbent, seed)
                columns.append((before, col))
                return col, delta

            monkeypatch.setattr(codegen, "BqpInstance", Recording)
            monkeypatch.setattr(codegen, "update_bit", recording_update)
            kind = LossKind(tag, m)
            learn_codes(sup, TrainConfig(loss=kind, sweeps=2, seed=m))
            assert len(coeffs) == len(columns) == 2 * m
            # The first sweep's incumbents are the initial codes, column by column.
            bits = np.column_stack([before for before, _ in columns[:m]])
            for step, a in enumerate(coeffs):
                k = step % m
                assert np.array_equal(columns[step][0], bits[:, k])
                assert np.array_equal(a, bit_coefficients(sup, CodeMatrix(bits.copy()), k, kind))
                bits[:, k] = columns[step][1]

    def test_trace_covers_every_bit_update(self):
        rng = np.random.default_rng(41)
        sup = random_supervision(rng, 12, 20)
        cfg = TrainConfig(loss=LossKind("ksh", 5), sweeps=3, seed=0)
        _, trace = learn_codes(sup, cfg)
        assert [(e.sweep, e.bit) for e in trace] == [
            (s, k) for s in range(3) for k in range(5)
        ]

    # On affinities of +-1, bre's (d_h/m - y01)^2 is ksh's (s - m y)^2 over
    # 4m^2, so a solver that is invariant to the loss's scale must give the
    # same codes. At m = 8, 4m^2 = 256 is a power of two and every scaled
    # float is exact, so the traces stand in that ratio exactly.
    @pytest.mark.parametrize("form", ["labels", "pairs"])
    def test_bre_is_ksh_over_4m_squared(self, form):
        m = 8
        if form == "labels":
            sup = full_label_supervision(40, 3, seed=3)
            assert sup.labels is not None
        else:
            sup = supervision_from_labels(generate_clusters(60, 3, 2, 0.3, seed=4), 5, seed=2)
            assert sup.labels is None
        ksh_codes, ksh_trace = learn_codes(sup, TrainConfig(loss=LossKind("ksh", m), sweeps=2, seed=1))
        bre_codes, bre_trace = learn_codes(sup, TrainConfig(loss=LossKind("bre", m), sweeps=2, seed=1))
        assert np.array_equal(bre_codes.bits, ksh_codes.bits)
        assert [e.objective * 4 * m * m for e in bre_trace] == [e.objective for e in ksh_trace]
        assert ksh_trace[-1].objective < ksh_trace[0].objective  # the codes moved


def full_label_supervision(n, classes, seed):
    """All n(n-1)/2 pairs of a labelled set: one class, `classes` classes, or
    one class per point ("each")."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) if classes == "each" else rng.integers(0, classes, size=n)
    return supervision_from_labels(Dataset(np.zeros((n, 1)), labels), max(n - 1, 1), seed=0)


def pair_form(sup, bits, k, kind):
    """Bit k's BqpInstance on the materialized pairs, as the pair path builds it."""
    bqp = BqpInstance(sup.n, *sup.arrays()[:2])
    bqp.set_coefficients(bit_coefficients(sup, CodeMatrix(bits), k, kind))
    return bqp


def low_rank_form(sup, bits, k, kind):
    bqp = LowRankBqp(sup.labels, kind)
    bqp.set_rest(np.delete(bits, k, axis=1))
    return bqp


class TestLowRankForm:
    """LowRankBqp against the pair form on the same full label supervision."""

    @pytest.mark.parametrize("classes", [1, 3, "each"])
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    @pytest.mark.parametrize("tag", ["ksh", "bre"])
    def test_matches_pair_form(self, tag, n, classes):
        rng = np.random.default_rng(n)
        sup = full_label_supervision(n, classes, seed=n + 1)
        exact = tag == "ksh"  # integer coefficients: every sum is exact
        for m in (1, 2, 8, 33):
            kind = LossKind(tag, m)
            bits = rng.choice([-1, 1], size=(n, m)).astype(np.int8)
            k = int(rng.integers(m))
            low, pairs = low_rank_form(sup, bits, k, kind), pair_form(sup, bits, k, kind)
            assert low.n == pairs.n == n

            want = pairs.gershgorin_bound()
            assert low.gershgorin_bound() == (want if exact else pytest.approx(want, rel=1e-12))
            for z in [bits[:, k], *rng.choice([-1, 1], size=(5, n))]:
                want = pairs.quad(z)
                assert low.quad(z) == (want if exact else pytest.approx(want, rel=1e-12))
            for z in rng.normal(size=(3, n)):
                got, want = low.matvec(z), pairs.matvec(z)
                if n == 1:  # A = 0; only rounding in the diagonal cancellation remains
                    assert np.abs(got).max() <= 1e-14 * np.abs(z).max()
                else:
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("classes", [1, 3, "each"])
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    @pytest.mark.parametrize("tag", ["ksh", "bre"])
    def test_objective_matches_pairs(self, tag, n, classes):
        rng = np.random.default_rng(2 * n)
        sup = full_label_supervision(n, classes, seed=n + 2)
        for m in (1, 2, 8, 33):
            kind = LossKind(tag, m)
            bits = rng.choice([-1, 1], size=(n, m)).astype(np.int8)
            want = pairwise_objective(sup, CodeMatrix(bits), kind)
            got = LowRankBqp(sup.labels, kind).objective(bits)
            assert got == (want if tag == "ksh" else pytest.approx(want, rel=1e-12))

    @pytest.mark.parametrize("classes", [1, 3, "each"])
    @pytest.mark.parametrize("n", [2, 7, 300])
    @pytest.mark.parametrize("tag", ["ksh", "bre"])
    def test_min_eigenpair_matches_dense(self, tag, n, classes):
        # n = 2 with m = 8 or 33, and n = 7 with m = 33, have n < m - 1. The
        # class-constant codes put R's columns in the span of the labels.
        rng = np.random.default_rng(3 * n)
        sup = full_label_supervision(n, classes, seed=n + 4)
        for m in (1, 2, 8, 33):
            kind = LossKind(tag, m)
            per_class = rng.choice([-1, 1], size=(sup.labels.max() + 1, m)).astype(np.int8)
            for bits in (rng.choice([-1, 1], size=(n, m)).astype(np.int8), per_class[sup.labels]):
                k = int(rng.integers(m))
                low = low_rank_form(sup, bits, k, kind)
                dense = pair_form(sup, bits, k, kind).matrix.toarray()
                val, v = low.min_eigenpair(rng.normal(size=n))
                assert val == pytest.approx(np.linalg.eigvalsh(dense)[0], rel=1e-10)
                assert np.linalg.norm(dense @ v - val * v) <= 1e-10 * low.gershgorin_bound()
                assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-10)

    # With one class per point the minimum eigenvalue of A has multiplicity
    # about n - m. A spectral fallback or a large residual fails the test.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.filterwarnings("error::tshash.codegen.SpectralResidualWarning")
    @pytest.mark.parametrize("classes", [1, 3, "each"])
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    @pytest.mark.parametrize("tag", ["ksh", "bre"])
    def test_learn_codes_trace(self, tag, n, classes):
        sup = full_label_supervision(n, classes, seed=n + 3)
        for m in (1, 2, 8, 33):
            kind = LossKind(tag, m)
            codes, trace = learn_codes(sup, TrainConfig(loss=kind, sweeps=2, seed=m))
            objs = [e.objective for e in trace]
            assert all(b <= a for a, b in zip(objs, objs[1:]))
            want = pairwise_objective(sup, codes, kind)
            if tag == "ksh":
                assert objs[-1] == want
            else:  # a running sum: its rounding scales with where it started
                assert objs[-1] == pytest.approx(want, rel=1e-12, abs=1e-12 * objs[0])

    def test_ksh_trace_is_integer(self):
        sup = full_label_supervision(40, 4, seed=5)
        _, trace = learn_codes(sup, TrainConfig(loss=LossKind("ksh", 8), sweeps=2, seed=1))
        assert all(float(e.objective).is_integer() for e in trace)

    @pytest.mark.parametrize(
        "tag, labelled, low_rank",
        [
            ("ksh", True, True),
            ("bre", True, True),
            ("exph", True, False),
            ("splh", True, False),
            ("ee", True, False),
            ("ksh", False, False),
        ],
    )
    def test_form_chosen_from_input(self, monkeypatch, tag, labelled, low_rank):
        sup = full_label_supervision(12, 3, seed=6)
        if not labelled:
            sup = PairSupervision(sup.n, *sup.arrays())
        built = []

        def record(cls):
            def build(*args, **kwargs):
                built.append(cls.__name__)
                return cls(*args, **kwargs)
            return build

        monkeypatch.setattr(codegen, "BqpInstance", record(BqpInstance))
        monkeypatch.setattr(codegen, "LowRankBqp", record(LowRankBqp))
        learn_codes(sup, TrainConfig(loss=LossKind(tag, 4), seed=0))
        assert built == ["LowRankBqp" if low_rank else "BqpInstance"]

    @pytest.mark.parametrize("tag", ["exph", "splh", "ee"])
    def test_pair_path_on_built_pairs(self, tag):
        sup = full_label_supervision(40, 4, seed=8)
        cfg = TrainConfig(loss=LossKind(tag, 6), sweeps=2, seed=3)
        codes, trace = learn_codes(sup, cfg)
        want_codes, want_trace = learn_codes(PairSupervision(sup.n, *sup.arrays()), cfg)
        assert codes.bits.tobytes() == want_codes.bits.tobytes()
        assert trace == want_trace

    def test_rejects_other_losses(self):
        sup = full_label_supervision(5, 2, seed=7)
        for tag in ("splh", "ee", "exph"):
            with pytest.raises(ValueError, match="low-rank"):
                LowRankBqp(sup.labels, LossKind(tag, 4))

    def test_rejects_wrong_rest_shape(self):
        bqp = LowRankBqp(np.array([0, 1, 1]), LossKind("ksh", 4))
        with pytest.raises(ValueError, match="shape"):
            bqp.set_rest(np.ones((3, 4), dtype=np.int8))
