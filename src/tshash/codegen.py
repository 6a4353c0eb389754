"""Binary code inference by cyclic per-bit quadratic updates.

One sweep visits every bit column in order. With all other bits frozen, the
pairwise code loss restricted to bit k collapses to a quadratic form
z.T A z over the n column entries (see loss.quadratic_coeffs). A bit's
problem comes in one of two forms, chosen by learn_codes from its input:

- LowRankBqp, for label-form supervision and a loss with a Gram form (ksh,
  bre; see loss._gram_scale). A.z then costs O(n(m + c)) from the codes and
  labels, no pair is stored, and numpy alone is needed.
- BqpInstance, for every other input. The pairs never change between
  updates, so the sparse structure of A is built once; per bit, each pair's
  coefficient is one lookup in a (y, sbar) table, and A.z is a product with
  scipy's CSR matrix; scipy.sparse.linalg is never loaded.

Each form supplies only A.z (matvec) and the absolute row sums of A, which
its setter fills. Their base _BitProblem derives the rest once: n, z.T A z
(quad), the Gershgorin bound, and the minimum eigenpair (min_eigenpair) by
one thick-restart Lanczos iteration in numpy (_lanczos_min) on A.z. That is
all that spectral_relax and box_relax ask of a form.

update_bit takes either form, relaxes it twice (sphere, then box),
sign-rounds the relaxed solutions and keeps the best of {rounded
candidates, current column}, so the training objective never increases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import PairSupervision, _row_blocks, derive_seed
from .loss import LossKind, _gram_scale, pair_loss, quadratic_coeffs

__all__ = [
    "CodeMatrix",
    "BqpInstance",
    "LowRankBqp",
    "SpectralResidualWarning",
    "TrainConfig",
    "TraceEntry",
    "spectral_relax",
    "box_relax",
    "update_bit",
    "learn_codes",
    "pairwise_objective",
]

# Projected-gradient limits of the box relaxation.
_BOX_MAX_ITERS = 200
_BOX_TOL = 1e-6

# Largest accepted ||Av - lambda v|| / gershgorin_bound() of an eigenpair.
_RESIDUAL_TOL = 1e-6

# Thick-restart Lanczos of both forms: the most basis vectors held, the
# Ritz vectors kept at a restart, the converged ||Ax - theta x|| /
# gershgorin_bound(), and the cap on matrix-vector products, per row of A.
_LANCZOS_BASIS = 20
_LANCZOS_KEEP = 10
_LANCZOS_TOL = 1e-12
_LANCZOS_MATVECS_PER_ROW = 10


class SpectralResidualWarning(UserWarning):
    """A bit problem's eigenpair has a relative residual above _RESIDUAL_TOL.

    Not a RuntimeWarning: those mark the random-vector fallback.
    """


@dataclass(eq=False)
class CodeMatrix:
    """n x m matrix of {-1, +1} codes, one row per training point."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.ascontiguousarray(self.bits, dtype=np.int8)
        if self.bits.ndim != 2:
            raise ValueError("bits must be 2-D")
        if not np.isin(self.bits, (-1, 1)).all():
            raise ValueError("code entries must be -1 or +1")
        self.bits.flags.writeable = False

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @property
    def m(self) -> int:
        return self.bits.shape[1]


class _BitProblem:
    """One bit's problem z.T A z, known through A.z and the absolute row sums of A.

    A form supplies matvec and the array _row_sums (row i's sum of
    |A[i, j]|), which its setter fills; the order n, the objective, the
    Gershgorin bound and the minimum eigenpair follow from those two.
    """

    _row_sums: np.ndarray

    @property
    def n(self) -> int:
        return self._row_sums.size

    def quad(self, z: np.ndarray) -> float:
        """Quadratic objective z.T A z."""
        z = np.asarray(z, dtype=np.float64)
        return float(z @ self.matvec(z))

    def gershgorin_bound(self) -> float:
        """Upper bound on the spectral radius (max absolute row sum).

        The row sums come from the form's setter, so this copies nothing.
        """
        return float(self._row_sums.max(initial=0.0))

    def min_eigenpair(self, v0: np.ndarray) -> tuple[float, np.ndarray] | None:
        """Minimum eigenvalue and unit eigenvector by thick-restart Lanczos from v0.

        None if _lanczos_min reaches its cap on matrix-vector products. For
        a nonzero eigenvalue the eigenvector is exactly 0 on a zero row of A
        (a point in no pair, say), so those entries are set to 0 rather than
        left at rounding level.
        """
        pair = _lanczos_min(self.matvec, v0, self.gershgorin_bound())
        if pair is not None and pair[0] != 0.0:
            pair[1][self._row_sums == 0.0] = 0.0
        return pair


class BqpInstance(_BitProblem):
    """Per-bit binary quadratic problem z.T A z on a fixed set of point pairs.

    Each pair p = (i[p], j[p]) owns the two entries A[i, j] = A[j, i];
    every other entry, the diagonal included, is zero. Duplicate, mirrored
    and self pairs raise ValueError. The CSR structure (sorted within rows,
    zero at first) is built once; set_coefficients rewrites it in place.
    """

    def __init__(self, n: int, i: np.ndarray, j: np.ndarray):
        # Imported here so that commands which never train do not load scipy.
        from scipy import sparse

        # Pair p's two entries hold p + 1; the conversion sorts them into CSR
        # order, so .data then maps each slot to its pair.
        ids = np.tile(np.arange(1.0, i.size + 1), 2)
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        self.matrix = sparse.coo_matrix((ids, (rows, cols)), shape=(n, n)).tocsr()
        if self.matrix.nnz != ids.size:  # the conversion summed coinciding entries
            raise ValueError("pairs must be distinct, unordered and off the diagonal")
        self._slot_pair = self.matrix.data.astype(np.intp) - 1
        self.matrix.data[:] = 0.0
        self._rows = np.flatnonzero(np.diff(self.matrix.indptr))  # the non-empty rows
        self._row_sums = np.zeros(n)

    def set_coefficients(self, a: np.ndarray) -> None:
        """Set A[i, j] = A[j, i] = a[p] for every pair p.

        Also sums |a| over each row's stored slots into _row_sums, in the
        order that scipy's abs(matrix).sum(axis=1) takes.
        """
        data = self.matrix.data
        np.take(np.asarray(a, dtype=np.float64), self._slot_pair, out=data)
        if data.size:
            starts = self.matrix.indptr[self._rows]
            self._row_sums[self._rows] = np.add.reduceat(np.abs(data), starts)

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """A.z for a vector z."""
        return self.matrix @ z


def _lanczos_min(matvec, v0: np.ndarray, bound: float) -> tuple[float, np.ndarray] | None:
    """Minimum eigenpair of a symmetric A by thick-restart Lanczos (Wu and Simon).

    The rows of v are an orthonormal basis of a Krylov space from v0, each
    new vector orthogonalised by classical Gram-Schmidt run twice, and the
    rows of av hold A times them. The Ritz pair (theta, x) of the smallest
    eigenvalue of v av^T is returned once ||Ax - theta x||, from the stored
    products, is at most _LANCZOS_TOL * bound (bound >= A's spectral
    radius), or at once when the basis spans an invariant subspace, where
    it is exact. When the basis is full, the _LANCZOS_KEEP lowest Ritz
    vectors and their products are kept and the next Lanczos direction
    extends them, with no extra product. None once the products reach
    _LANCZOS_MATVECS_PER_ROW times A's order without convergence.
    """
    n = v0.size
    size = min(_LANCZOS_BASIS, n)
    keep = min(_LANCZOS_KEEP, size - 1)
    tol = _LANCZOS_TOL * bound
    v, av = np.empty((size, n)), np.empty((size, n))
    v[0] = v0 / np.linalg.norm(v0)
    av[0] = matvec(v[0])
    k, products = 1, 1
    while True:
        w = av[k - 1].copy()
        for _ in range(2):
            w -= (v[:k] @ w) @ v[:k]
        beta = np.linalg.norm(w)
        invariant = beta <= tol
        if k == size or invariant:
            h = v[:k] @ av[:k].T
            theta, y = np.linalg.eigh((h + h.T) / 2.0)
            x, ax = y[:, 0] @ v[:k], y[:, 0] @ av[:k]
            if invariant or np.linalg.norm(ax - theta[0] * x) <= tol:
                return float(theta[0]), x
            if products >= _LANCZOS_MATVECS_PER_ROW * n:
                return None
            v[:keep], av[:keep] = y[:, :keep].T @ v[:k], y[:, :keep].T @ av[:k]
            k = keep
        v[k] = w / beta
        av[k] = matvec(v[k])
        k, products = k + 1, products + 1


class LowRankBqp(_BitProblem):
    """Bit k's problem for ksh or bre when every pair of a labelled set is supervised.

    With R the n x (m-1) codes without bit k, and Y = 2CC^T - 11^T from the
    one-hot labels C (y_ij = +1 on same-class pairs, -1 otherwise), the ksh
    matrix is A = 2(RR^T - mY) + 2I: the off-diagonal entries are the pair
    coefficients 2(sbar_ij - m y_ij), and 2I cancels the diagonal
    2(m - 1 - m). bre's is that over 4m^2 (loss._gram_scale). A is never
    formed: matvec computes A.z from R and per-class sums of z, in
    O(n(m + c)). set_rest fixes R for the next bit.
    """

    def __init__(self, labels: np.ndarray, kind: LossKind):
        self._scale = _gram_scale(kind)
        if self._scale is None:
            raise ValueError(f"no low-rank form for the {kind.tag} loss")
        classes, self._classes = np.unique(labels, return_inverse=True)
        n = self._classes.size
        # Points ordered by class, and where each class starts, for class sums.
        self._order = np.argsort(self._classes, kind="stable")
        self._starts = np.searchsorted(self._classes[self._order], np.arange(classes.size))
        self._m = kind.m
        self._rest = np.zeros((n, kind.m - 1))
        self._row_sums = np.zeros(n)

    def _class_sums(self, codes: np.ndarray) -> np.ndarray:
        """C^T codes in int64: one row of column sums per class."""
        return np.add.reduceat(codes[self._order], self._starts, axis=0, dtype=np.int64)

    def set_rest(self, rest: np.ndarray) -> None:
        """Fix the other bits: rest is the n x (m-1) code matrix without bit k."""
        rest = np.asarray(rest)
        if rest.shape != self._rest.shape:
            raise ValueError(f"rest must have shape {self._rest.shape}")
        sums = self._class_sums(rest)
        # (YR)_i = 2 (C^T R)[class of i] - 1^T R, in integers.
        yr = 2 * sums[self._classes] - rest.sum(axis=0, dtype=np.int64)
        # |sbar_ij| <= m - 1, so |a_ij| = 2(m - y_ij sbar_ij) and row i of |A|
        # sums to 2((n - 1)m - (r_i . (YR)_i - (m - 1))), the j = i term
        # removed, exact in integers before scaling. Unscaled, every |a_ij| >= 2,
        # so for n >= 2 no row of A is zero.
        ysbar = np.einsum("ij,ij->i", rest, yr, dtype=np.int64) - (self._m - 1)
        rows = (self.n - 1) * self._m - ysbar
        self._row_sums = 2.0 * self._scale * rows
        np.copyto(self._rest, rest)

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """A.z for a vector z, in O(n(m + c))."""
        sums = np.bincount(self._classes, weights=z, minlength=self._starts.size)
        yz = 2.0 * sums[self._classes] - z.sum()
        out = self._rest @ (self._rest.T @ z)
        out -= self._m * yz
        out += z
        out *= 2.0 * self._scale
        return out

    def objective(self, bits: np.ndarray) -> float:
        """Training objective of the n x m codes bits over all ordered pairs.

        For ksh it is ||BB^T - mY||_F^2 = ||B^T B||^2 - 2m(2||C^T B||^2 -
        ||1^T B||^2) + m^2 n^2 (the diagonal terms are zero), computed in
        int64; bre's is that divided by 4m^2.
        """
        b = np.asarray(bits, dtype=np.int64)
        m, n = self._m, self.n
        gram = b.T @ b
        agree = 2 * np.sum(self._class_sums(b) ** 2) - np.sum(b.sum(axis=0) ** 2)
        total = int(np.sum(gram**2)) - 2 * m * int(agree) + m * m * n * n
        return float(total) * self._scale


class TraceEntry(NamedTuple):
    sweep: int
    bit: int
    objective: float


@dataclass
class TrainConfig:
    """Settings for code inference."""

    loss: LossKind
    sweeps: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")

    @property
    def m(self) -> int:
        """Code length, fixed by the loss."""
        return self.loss.m


def _pair_products(bits: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Inner products of code rows i and j (one value per stored pair).

    The pairs go in _row_blocks m wide, so the gathered code rows take one
    block's bytes, not two P x m arrays. The sums are integers, so the
    blocks change no value.
    """
    s = np.empty(i.size, dtype=np.int64)
    for rows in _row_blocks(i.size, bits.shape[1]):
        np.sum(bits[i[rows]] * bits[j[rows]], axis=1, dtype=np.int64, out=s[rows])
    return s


def _total_loss(kind: LossKind, s: np.ndarray, y: np.ndarray) -> float:
    return 2.0 * float(np.sum(pair_loss(kind, s, y)))


def pairwise_objective(sup: PairSupervision, codes: CodeMatrix, kind: LossKind) -> float:
    """Total loss over all defined ordered pairs (each stored pair twice)."""
    if codes.n != sup.n:
        raise ValueError("code matrix and supervision cover different point counts")
    i, j, y = sup.arrays()
    return _total_loss(kind, _pair_products(codes.bits, i, j), y)


def spectral_relax(bqp: _BitProblem, *, seed: int = 0) -> np.ndarray:
    """Minimizer of z.T A z over the sphere ||z||^2 = n.

    The solution is the minimum-eigenvalue eigenvector of A, from
    bqp.min_eigenpair: thick-restart Lanczos iteration, for either form,
    from a start vector drawn from seed. It is signed so that its
    largest-magnitude entry is positive and scaled to squared norm n. If
    Lanczos does not converge within its cap on matrix-vector products, a
    RuntimeWarning saying so is emitted (tracing counts these) and the
    seeded start vector of the right norm is returned instead; the caller's
    rounding guard makes this safe. An eigenpair whose residual
    ||Av - lambda v|| exceeds _RESIDUAL_TOL times the Gershgorin bound emits
    a SpectralResidualWarning; its vector is still returned.
    """
    n = bqp.n
    radius = bqp.gershgorin_bound()
    if radius == 0.0:
        return np.ones(n)

    v0 = np.random.default_rng(seed).standard_normal(n)
    pair = bqp.min_eigenpair(v0)
    if pair is None:
        warnings.warn(
            "Lanczos did not converge; falling back to a random start vector",
            RuntimeWarning,
        )
        return v0 * (np.sqrt(n) / np.linalg.norm(v0))
    val, v = pair
    residual = np.linalg.norm(bqp.matvec(v) - val * v) / radius
    if residual > _RESIDUAL_TOL:
        warnings.warn(
            f"spectral eigenpair has relative residual {residual:.3g}",
            SpectralResidualWarning,
        )
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v * (np.sqrt(n) / np.linalg.norm(v))


def box_relax(bqp: _BitProblem, init: np.ndarray) -> np.ndarray:
    """Projected-gradient descent on z.T A z over the box [-1, 1]^n.

    Starts from init clamped into the box; every accepted step satisfies an
    Armijo decrease condition, so the returned objective never exceeds the
    clamped start's. Terminates when the unit-step projected gradient drops
    below _BOX_TOL in max norm, or after _BOX_MAX_ITERS steps.
    """
    init = np.asarray(init, dtype=np.float64)
    if init.shape != (bqp.n,):
        raise ValueError(f"init must have shape ({bqp.n},)")
    if not np.isfinite(init).all():
        raise ValueError("init entries must be finite")

    z = np.clip(init, -1.0, 1.0)
    lipschitz = 2.0 * bqp.gershgorin_bound()
    if lipschitz == 0.0:
        return z

    # A.z of the accepted point gives both f and the next gradient, so each
    # point costs one product.
    az = bqp.matvec(z)
    f = float(z @ az)
    step = 1.0 / lipschitz
    max_step = 1e6 / lipschitz
    for _ in range(_BOX_MAX_ITERS):
        grad = 2.0 * az
        if np.max(np.abs(np.clip(z - grad, -1.0, 1.0) - z)) <= _BOX_TOL:
            break
        moved = False
        for _ in range(80):
            z_new = np.clip(z - step * grad, -1.0, 1.0)
            decrease = float(grad @ (z_new - z))
            az_new = bqp.matvec(z_new)
            f_new = float(z_new @ az_new)
            if decrease < 0.0 and f_new <= f + 0.1 * decrease:
                moved = True
                break
            step *= 0.5
        if not moved:
            break  # no further float-representable descent
        z, az, f = z_new, az_new, f_new
        step = min(step * 2.0, max_step)
    return z


def _sign_round(v: np.ndarray) -> np.ndarray:
    """Sign rounding with the convention sign(0) = +1."""
    return np.where(np.asarray(v, dtype=np.float64) >= 0.0, 1, -1).astype(np.int8)


def update_bit(
    bqp: _BitProblem, incumbent: np.ndarray, seed: int = 0
) -> tuple[np.ndarray, float]:
    """One bit update: the new column and its change in objective.

    bqp already holds bit k's problem, in either form. update_bit relaxes
    it over the sphere (seeded by seed) and then the box, and sign-rounds
    both relaxed solutions. Each candidate is scored by z.T A z, which
    differs from the ordered-pair training objective only by a constant
    (see loss.py), and the incumbent wins all ties, so the returned change
    is never positive.
    """
    v0 = spectral_relax(bqp, seed=seed)
    v1 = box_relax(bqp, v0)
    best = np.array(incumbent, dtype=np.int8)
    start = best_val = bqp.quad(best)
    for cand in (v0, v1):
        col = _sign_round(cand)
        val = bqp.quad(col)
        if val < best_val:
            best, best_val = col, val
    return best, best_val - start


def learn_codes(
    sup: PairSupervision, cfg: TrainConfig
) -> tuple[CodeMatrix, list[TraceEntry]]:
    """Infer the code matrix by cyclic per-bit updates (the inference step).

    Returns the codes together with an objective trace holding the total
    pairwise loss after every bit update. The trace starts from the exact
    objective of the random initial codes and adds the change that each
    update_bit call reports; those changes are never positive, so the
    trace is non-increasing by construction. Label-form supervision with
    ksh or bre takes LowRankBqp and never builds the pairs; any other input
    takes BqpInstance, on the pairs from sup.arrays(), and sets each bit's
    coefficients by one lookup in the 2 x m table of a over (y, sbar).
    """
    n, m = sup.n, cfg.m
    kind = cfg.loss
    rng = np.random.default_rng(cfg.seed)
    bits = (rng.integers(0, 2, size=(n, m), dtype=np.int8) * 2 - 1).astype(np.int8)

    low_rank = sup.labels is not None and _gram_scale(kind) is not None
    if low_rank:
        bqp = LowRankBqp(sup.labels, kind)
        objective = bqp.objective(bits)
    else:
        i, j, y = sup.arrays()
        bqp = BqpInstance(n, i, j)
        s = _pair_products(bits, i, j)
        objective = _total_loss(kind, s, y)
        # a depends only on (sbar, y): row y > 0, column (sbar + m - 1) / 2.
        table, _ = quadratic_coeffs(kind, np.arange(1 - m, m, 2), np.array([[-1.0], [1.0]]))
        row = (y > 0).astype(np.intp)
    trace: list[TraceEntry] = []
    for sweep in range(cfg.sweeps):
        for k in range(m):
            if low_rank:
                bqp.set_rest(np.delete(bits, k, axis=1))
            else:
                sbar = s - bits[i, k].astype(np.int64) * bits[j, k]
                bqp.set_coefficients(table[row, (sbar + m - 1) >> 1])
            col, delta = update_bit(bqp, bits[:, k], derive_seed(cfg.seed, sweep, k))
            bits[:, k] = col
            if not low_rank:
                s = sbar + col[i].astype(np.int64) * col[j]
            objective += delta
            trace.append(TraceEntry(sweep, k, objective))
    return CodeMatrix(bits), trace
