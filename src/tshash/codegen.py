"""Binary code inference by cyclic per-bit quadratic updates.

One sweep visits every bit column in order. With all other bits frozen, the
pairwise code loss restricted to bit k collapses to a quadratic form
z.T A z over the n column entries (see loss.quadratic_coeffs). The pairs
never change between updates, so the sparse structure of A is built once
and only its coefficients are rewritten per bit. update_bit relaxes each
instance twice (sphere, then box), sign-rounds the relaxed solutions and
keeps the best of {rounded candidates, current column}, so the training
objective never increases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import PairSupervision
from .loss import LossKind, pair_loss, quadratic_coeffs

__all__ = [
    "CodeMatrix",
    "BqpInstance",
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

# Largest accepted ||Av - lambda v|| / gershgorin_bound() of a Lanczos eigenpair.
_RESIDUAL_TOL = 1e-6


class SpectralResidualWarning(UserWarning):
    """Lanczos returned an eigenpair whose relative residual exceeds _RESIDUAL_TOL.

    Not a RuntimeWarning: those mark the random-vector fallback.
    """


@dataclass
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


class BqpInstance:
    """Per-bit binary quadratic problem z.T A z on a fixed set of point pairs.

    Each pair p = (i[p], j[p]) owns the two entries A[i, j] = A[j, i];
    every other entry, the diagonal included, is zero. The CSR structure is
    built once; set_coefficients rewrites the pair values in place.
    """

    def __init__(self, n: int, i: np.ndarray, j: np.ndarray):
        # Imported here so that commands which never train do not load scipy.
        from scipy import sparse

        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        # CSR slot -> pair index, so that .data = a[_slot_pair].
        self._slot_pair = np.concatenate([np.arange(i.size), np.arange(i.size)])[order]
        self.matrix = sparse.csr_matrix(
            (np.zeros(order.size), cols[order], indptr), shape=(n, n)
        )

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "BqpInstance":
        """Instance over the nonzero upper-triangle entries of a dense matrix,
        which must be square, symmetric and zero on the diagonal."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if a.size and np.abs(a - a.T).max() > 1e-12:
            raise ValueError("coefficient matrix must be symmetric")
        if np.diagonal(a).any():
            raise ValueError("coefficient matrix must have a zero diagonal")
        i, j = np.nonzero(np.triu(a, 1))
        bqp = cls(a.shape[0], i, j)
        bqp.set_coefficients(a[i, j])
        return bqp

    def set_coefficients(self, a: np.ndarray) -> None:
        """Set A[i, j] = A[j, i] = a[p] for every pair p."""
        np.take(np.asarray(a, dtype=np.float64), self._slot_pair, out=self.matrix.data)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def quad(self, z: np.ndarray) -> float:
        """Quadratic objective z.T A z."""
        z = np.asarray(z, dtype=np.float64)
        return float(z @ (self.matrix @ z))

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def gershgorin_bound(self) -> float:
        """Upper bound on the spectral radius (max absolute row sum)."""
        if self.matrix.nnz == 0:
            return 0.0
        return float(abs(self.matrix).sum(axis=1).max())


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
    """Inner products of code rows i and j (one value per stored pair)."""
    return np.sum(bits[i] * bits[j], axis=1, dtype=np.int64)


def _total_loss(kind: LossKind, s: np.ndarray, y: np.ndarray) -> float:
    return 2.0 * float(np.sum(pair_loss(kind, s, y)))


def pairwise_objective(sup: PairSupervision, codes: CodeMatrix, kind: LossKind) -> float:
    """Total loss over all defined ordered pairs (each stored pair twice)."""
    if codes.n != sup.n:
        raise ValueError("code matrix and supervision cover different point counts")
    i, j, y = sup.arrays()
    return _total_loss(kind, _pair_products(codes.bits, i, j), y)


def spectral_relax(bqp: BqpInstance, *, seed: int = 0) -> np.ndarray:
    """Minimizer of z.T A z over the sphere ||z||^2 = n.

    The solution is the minimum-eigenvalue eigenvector of A, found by
    Lanczos iteration (ARPACK) on the sparse matrix from a start vector
    drawn from seed, signed so that its largest-magnitude entry is positive
    and scaled to squared norm n. If ARPACK does not converge, a
    RuntimeWarning saying so is emitted (tracing counts these) and the
    seeded random vector of the right norm is returned instead; the
    caller's rounding guard makes this safe. A converged eigenpair whose
    residual ||Av - lambda v|| exceeds _RESIDUAL_TOL times the Gershgorin
    bound emits a SpectralResidualWarning; its vector is still returned.
    """
    # Imported here so that commands which never train do not load ARPACK.
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = bqp.n
    radius = bqp.gershgorin_bound()
    if radius == 0.0:
        return np.ones(n)

    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        vals, vecs = eigsh(bqp.matrix, k=1, which="SA", v0=v0)
    except ArpackNoConvergence:
        warnings.warn(
            "Lanczos did not converge; falling back to a random start vector",
            RuntimeWarning,
        )
        return v0 * (np.sqrt(n) / np.linalg.norm(v0))
    v = vecs[:, 0]
    residual = np.linalg.norm(bqp.matrix @ v - vals[0] * v) / radius
    if residual > _RESIDUAL_TOL:
        warnings.warn(
            f"Lanczos eigenpair has relative residual {residual:.3g}",
            SpectralResidualWarning,
        )
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v * (np.sqrt(n) / np.linalg.norm(v))


def box_relax(
    bqp: BqpInstance, init: np.ndarray, max_iters: int = _BOX_MAX_ITERS, tol: float = _BOX_TOL
) -> np.ndarray:
    """Projected-gradient descent on z.T A z over the box [-1, 1]^n.

    Starts from init clamped into the box; every accepted step satisfies an
    Armijo decrease condition, so the returned objective never exceeds the
    clamped start's. Terminates when the unit-step projected gradient drops
    below tol in max norm.
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

    mat = bqp.matrix
    f = bqp.quad(z)
    step = 1.0 / lipschitz
    max_step = 1e6 / lipschitz
    for _ in range(max_iters):
        grad = 2.0 * (mat @ z)
        if np.max(np.abs(np.clip(z - grad, -1.0, 1.0) - z)) <= tol:
            break
        moved = False
        for _ in range(80):
            z_new = np.clip(z - step * grad, -1.0, 1.0)
            decrease = float(grad @ (z_new - z))
            f_new = bqp.quad(z_new)
            if decrease < 0.0 and f_new <= f + 0.1 * decrease:
                moved = True
                break
            step *= 0.5
        if not moved:
            break  # no further float-representable descent
        z, f = z_new, f_new
        step = min(step * 2.0, max_step)
    return z


def _sign_round(v: np.ndarray) -> np.ndarray:
    """Sign rounding with the convention sign(0) = +1."""
    return np.where(np.asarray(v, dtype=np.float64) >= 0.0, 1, -1).astype(np.int8)


def update_bit(
    bqp: BqpInstance, a: np.ndarray, incumbent: np.ndarray, seed: int = 0
) -> tuple[np.ndarray, float]:
    """One bit update: the new column and its change in objective.

    Writes the pair coefficients a into bqp, relaxes the problem over the
    sphere (seeded by seed) and then the box, and sign-rounds both relaxed
    solutions. Each candidate is scored by z.T A z, which differs from the
    ordered-pair training objective only by a constant (see loss.py), and
    the incumbent wins all ties, so the returned change is never positive.
    """
    bqp.set_coefficients(a)
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


def _spectral_seed(seed: int, sweep: int, k: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(sweep, k)).generate_state(1)[0])


def learn_codes(
    sup: PairSupervision, cfg: TrainConfig
) -> tuple[CodeMatrix, list[TraceEntry]]:
    """Infer the code matrix by cyclic per-bit updates (the inference step).

    Returns the codes together with an objective trace holding the total
    pairwise loss after every bit update. The trace starts from the exact
    objective of the random initial codes and adds the change that each
    update_bit call reports; those changes are never positive, so the
    trace is non-increasing by construction.
    """
    n = sup.n
    kind = cfg.loss
    rng = np.random.default_rng(cfg.seed)
    bits = (rng.integers(0, 2, size=(n, cfg.m), dtype=np.int8) * 2 - 1).astype(np.int8)

    i, j, y = sup.arrays()
    bqp = BqpInstance(n, i, j)
    s = _pair_products(bits, i, j)
    objective = _total_loss(kind, s, y)
    trace: list[TraceEntry] = []
    for sweep in range(cfg.sweeps):
        for k in range(cfg.m):
            sbar = s - bits[i, k].astype(np.int64) * bits[j, k]
            a, _ = quadratic_coeffs(kind, sbar, y)
            col, delta = update_bit(bqp, a, bits[:, k], _spectral_seed(cfg.seed, sweep, k))
            bits[:, k] = col
            s = sbar + col[i].astype(np.int64) * col[j]
            objective += delta
            trace.append(TraceEntry(sweep, k, objective))
    return CodeMatrix(bits), trace
