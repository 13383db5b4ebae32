"""Structured and general sparse linear solvers and condition numbers.

Every implicit scheme routes through one sparse LU, ``SparseFactor``: the
per-column cyclic systems of the first toy model through ``solve_cyclic``,
which factors each ``CyclicTridiag`` once and refines with a compensated
residual; the global systems of the second through ``assemble`` as plain
scipy CSR matrices. The condition-number studies go through ``cond2``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SingularMatrixError", "ConvergenceError",
    "CyclicTridiag", "SolveStats", "SparseFactor",
    "solve_cyclic", "assemble", "cond2",
]

PIVOT_BREAKDOWN = 1e-30
SOLVE_TOL = 1e-12  # relative residual bound of SparseFactor.solve
MAX_REFINE = 10  # refinement passes SparseFactor.solve and solve_cyclic may take
ONE_PASS_K = 1e5  # solve_cyclic stops after one pass when its contraction is <= K * u
COND_TOL = 1e-6  # stop threshold of cond2's error estimate, not a bound on its error
COND_MAX_ITER = 10000

_ULP = np.finfo(float).eps  # u = 2**-52, the spacing of doubles in [1, 2)
_RESIDUAL_BLOCK = 8192  # entries per block of _cyclic_residual, sized for cache
_DEKKER = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves


def _two_sum(a: float, b: float) -> tuple:
    """Exact sum a + b = hi + lo of two doubles (Knuth's TwoSum)."""
    hi = a + b
    bb = hi - a
    return hi, (a - (hi - bb)) + (b - bb)


def _split(x):
    """Dekker's split x = hi + lo into two 26-bit halves."""
    hi = _DEKKER * x
    hi -= hi - x
    return hi, x - hi


def _two_prod(a: float, x: np.ndarray, x_split: tuple):
    """Exact product a*x = p + e in working precision; x_split is _split(x)."""
    (ah, al), (xh, xl) = _split(a), x_split
    p = a * x
    e = ah * xh - p
    e += ah * xl
    e += al * xh
    e += al * xl
    return p, e


def _two_diff(a: np.ndarray, b: np.ndarray):
    """Exact difference a - b = s + err (Knuth's TwoSum of a and -b)."""
    s = a - b
    bb = s - a
    err = s - bb
    np.subtract(a, err, out=err)
    bb += b
    err -= bb
    return s, err


def _max_abs(a: np.ndarray) -> float:
    """max |a| (0 when empty, NaN if any entry is) without an |a| temporary."""
    return max(a.max(initial=0.0), -a.min(initial=0.0))


def _shift_down(a: np.ndarray) -> np.ndarray:
    """Rows moved down by one, cyclically: out[j] = a[j - 1]."""
    out = np.empty_like(a)
    out[1:] = a[:-1]
    out[:1] = a[-1:]
    return out


class SingularMatrixError(RuntimeError):
    """Factorization or elimination hit a (numerically) singular matrix."""


class ConvergenceError(RuntimeError):
    """An iterative process failed to reach its tolerance."""


# ---------------------------------------------------------------------------
# cyclic bidiagonal systems


@dataclass(frozen=True)
class CyclicTridiag:
    """Constant-coefficient cyclic lower-bidiagonal matrix.

    ``d`` on the diagonal, ``s`` on the subdiagonal entries (j, j-1), and
    ``s`` in the top-right corner (1, n), which closes the periodic stencil.
    ``d_lo`` is an optional exact low-order part of the diagonal: the stiff
    schemes build d as eps + beta, and rounding that sum would perturb the
    smallest eigenvalue (exactly eps) by u * beta, which dominates eps for
    eps below 1e-5 or so. ``from_sum`` keeps the residue. The first
    ``solve_cyclic`` factors ``to_sparse()``, which leaves d_lo out; d_lo
    enters through the residual of the refinement.
    """

    n: int
    d: float
    s: float
    d_lo: float = 0.0

    @classmethod
    def from_sum(cls, n: int, d1: float, d2: float, s: float) -> "CyclicTridiag":
        """Diagonal given as the exact sum d1 + d2."""
        hi, lo = _two_sum(d1, d2)
        return cls(n, hi, s, lo)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        np.fill_diagonal(a, self.d)
        for j in range(1, self.n):
            a[j, j - 1] = self.s
        a[0, self.n - 1] += self.s
        return a

    def to_sparse(self) -> sp.csr_matrix:
        # at n = 1 the corner entry falls on the diagonal and is summed into it
        j = np.arange(self.n)
        return assemble(self.n, self.n, np.concatenate([j, j[1:], [0]]),
                        np.concatenate([j, j[:-1], [self.n - 1]]),
                        np.concatenate([np.full(self.n, self.d), np.full(self.n, self.s)]))

    @functools.cached_property
    def _factor(self) -> "SparseFactor":
        """``SparseFactor`` of ``to_sparse()``, built on the first solve.

        Raises SingularMatrixError when a pivot of the elimination along the
        cycle, d or d + s (-s/d)^(n-1), breaks down; errors are not cached.
        """
        d, s = self.d, self.s
        if abs(d) < PIVOT_BREAKDOWN:
            raise SingularMatrixError(f"singular matrix: diagonal pivot {d!r}")
        if self.n == 1 and abs(d + s) < PIVOT_BREAKDOWN:
            raise SingularMatrixError("singular matrix: 1x1 cyclic system")
        closure = d + s * np.prod(np.full(self.n - 1, -s / d))
        if not np.isfinite(closure) or abs(closure) < PIVOT_BREAKDOWN:
            raise SingularMatrixError(
                f"singular matrix: cyclic closure pivot {closure!r} (d={d!r}, s={s!r})")
        return SparseFactor(self.to_sparse())

    @functools.cached_property
    def _one_pass(self) -> bool:
        """Whether one refinement pass of ``solve_cyclic`` already gives the
        rounded solution; see there for the rule."""
        n = self.n
        lam_f = self.d + self.s * np.exp(-2j * np.pi * np.arange(n) / n)
        delta = self.d_lo + (_two_sum(self.d, self.s)[1] if n == 1 else 0.0)
        lam = np.abs(lam_f + delta)
        rho = lam.max() / lam.min() * _ULP + abs(delta) / np.abs(lam_f).min()
        return bool(rho <= ONE_PASS_K * _ULP)


def _cyclic_residual(M: CyclicTridiag, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - d*x - s*x_{j-1} (cyclic) with compensated products and sums.

    The stiff solves divide by eigenvalues as small as eps while the matrix
    entries stay O(1), so a residual formed in plain arithmetic is pure
    cancellation noise there; the correction passes need the extra digits
    to bring the forward error down to O(u) instead of O(cond * u).
    """
    if x.ndim == 2 and x.shape[1] > 1 and x.size > _RESIDUAL_BLOCK:
        # column blocks keep the dozen temporaries below in cache
        step = max(1, _RESIDUAL_BLOCK // M.n)
        r = np.empty_like(x)
        for j in range(0, x.shape[1], step):
            r[:, j:j + step] = _cyclic_residual(M, x[:, j:j + step], rhs[:, j:j + step])
        return r
    x_split = _split(x)
    p1, e1 = _two_prod(M.d, x, x_split)
    p2, e2 = _two_prod(M.s, x, x_split)  # s * x_{j-1} once shifted down
    r, c1 = _two_diff(rhs, p1)
    r, c2 = _two_diff(r, _shift_down(p2))
    c1 += c2
    c1 -= e1
    c1 -= _shift_down(e2)
    c1 -= M.d_lo * x
    r += c1
    return r


def solve_cyclic(M: CyclicTridiag, rhs: np.ndarray) -> np.ndarray:
    """Solve the cyclic bidiagonal system ``M x = rhs``.

    M's sparse LU is built once and reused; passes of refinement with the
    compensated residual keep the forward error near machine level even
    for nearly singular systems. The LU factors M' = ``to_sparse()``, which
    differs from M by delta I: delta is d_lo, plus at n = 1 the rounding of
    d + s, which assembly sums into one entry. Both are circulant, with
    spectra lam'_k = d + s e^{-2 pi i k/n} (fl(d + s) at n = 1) and
    lam_k = lam'_k + delta, so a pass scales the error by at most
    rho = cond2(M) u + |delta| / min|lam'_k|, with cond2(M) =
    max|lam_k| / min|lam_k|. The first pass always runs and leaves about
    rho^2 |x|. When rho <= ``ONE_PASS_K`` u that is at most 4.9e-22 |x|, far
    below the u/2 |x| of rounding, and the solve stops there. (Only where
    the exact solution sits on a rounding tie, which takes specially
    structured d and s, may further passes round it the other way.) Otherwise,
    passes repeat while the correction exceeds u * max|x| and still
    shrinks, up to ``MAX_REFINE``.

    ``rhs`` may be a (n,) vector or an (n, k) batch of right-hand sides.
    Raises SingularMatrixError on pivot breakdown (magnitude < 1e-30).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != M.n:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match dimension {M.n}")
    factor = M._factor
    x = factor.raw_solve(rhs)
    last = np.inf
    for _ in range(MAX_REFINE):
        corr = factor.raw_solve(_cyclic_residual(M, x, rhs))
        x += corr
        if M._one_pass:
            break
        size = _max_abs(corr)
        if not (_ULP * _max_abs(x) < size < last):
            break
        last = size
    return x


# ---------------------------------------------------------------------------
# general sparse systems


def assemble(n_rows: int, n_cols: int, rows, cols, vals) -> sp.csr_matrix:
    """Build a CSR matrix from coordinate arrays, 0-based indices.

    Duplicate coordinates are summed. Raises IndexError for out-of-range
    indices and ValueError for non-finite values.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
            raise IndexError(f"triplet index out of range for {n_rows} x {n_cols}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite triplet value")
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    csr = coo.tocsr()
    csr.sum_duplicates()
    return csr


@dataclass
class SolveStats:
    """Outcome record of one linear solve."""

    residual_norm: float
    iterations: int


class SparseFactor:
    """Sparse LU factorization reused across many right-hand sides.

    The factorization is immutable once built; ``solve`` is reentrant.
    """

    def __init__(self, A: sp.csr_matrix):
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        self.matrix = A
        self.norm1 = float(abs(A).sum(axis=0).max()) if A.nnz else 0.0
        try:
            self._lu = spla.splu(A.tocsc())
        except RuntimeError as exc:
            if "singular" in str(exc).lower():
                raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
            raise

    def raw_solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float), trans=trans)

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, SolveStats]:
        """Solve with iterative refinement down to ``SOLVE_TOL * max(1, |rhs|_2)``.

        Works on (n,) vectors and (n, k) batches (the bound is enforced per
        column). The effective tolerance is floored at 100*eps*|A|_1 because
        the residual of the correctly rounded solution already sits at
        O(eps*|A|*|x|); refinement keeps going below the tolerance while it
        still makes progress. Raises ConvergenceError with the achieved
        residual if refinement stalls above the bound.
        """
        rhs = np.asarray(rhs, dtype=float)
        A = self.matrix
        eff_tol = max(SOLVE_TOL, 100.0 * np.finfo(float).eps * max(1.0, self.norm1))
        x = self._lu.solve(rhs)
        its = 0
        scale = np.maximum(1.0, np.linalg.norm(rhs, axis=0))
        r = rhs - A @ x
        rel = np.max(np.linalg.norm(r, axis=0) / scale)
        while its < MAX_REFINE and np.isfinite(rel) and rel > 0.05 * eff_tol:
            x_next = x + self._lu.solve(r)
            r_next = rhs - A @ x_next
            rel_next = np.max(np.linalg.norm(r_next, axis=0) / scale)
            if not (rel_next < rel):
                break
            x, r, rel = x_next, r_next, rel_next
            its += 1
        if not np.isfinite(rel) or rel > eff_tol:
            raise ConvergenceError(
                f"sparse solve stalled at relative residual {rel:.3e} (tol {eff_tol:.1e})")
        return x, SolveStats(float(rel), its)


# ---------------------------------------------------------------------------
# condition number


def _iterate_extreme(apply_op, v0: np.ndarray):
    """Power iteration on an SPD operator; returns its top eigenvalue.

    Stops once change * r / (1 - r) drops below ``COND_TOL * |lam|``, with r
    the ratio of the last two changes capped at 0.999. That bounds the error
    only while r is steady and below 0.999; near-equal top eigenvalues make
    it stop early and low. Returns (eigenvalue, converged_flag, last_change).
    """
    v = v0 / np.linalg.norm(v0)
    lam_prev = 0.0
    change_prev = np.inf
    for it in range(1, COND_MAX_ITER + 1):
        w = apply_op(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, True, 0.0
        lam = float(v @ w)
        v = w / nw
        change = abs(lam - lam_prev)
        if lam != 0.0 and it >= 3:
            ratio = change / change_prev if change_prev > 0 else 0.0
            ratio = min(ratio, 0.999)
            remaining = change * ratio / (1.0 - ratio)
            if remaining <= COND_TOL * abs(lam) or change == 0.0:
                return lam, True, change / max(abs(lam), 1e-300)
        lam_prev = lam
        change_prev = change if change > 0 else change_prev
    rel = change / max(abs(lam), 1e-300)
    return lam, rel <= 100 * COND_TOL, rel


def cond2(A: sp.csr_matrix) -> float:
    """2-norm condition number estimate sigma_max / sigma_min.

    sigma_max comes from power iteration on A^T A, sigma_min from inverse
    iteration through a sparse LU factorization (two triangular solves per
    step, never an explicit inverse). Deterministic start vector. Raises
    SingularMatrixError for singular input and ConvergenceError when the
    iteration has clearly not settled after ``COND_MAX_ITER`` iterations.
    The estimate reads low, and is within COND_TOL only if each extreme
    singular value is well apart from the next (see ``_iterate_extreme``).
    """
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"matrix must be square, got {A.shape}")
    rng = np.random.default_rng(0x5EED + n)
    v0 = rng.standard_normal(n)

    At = A.T  # built once: A.T makes and checks a new CSC matrix per call
    lam_max, ok_max, rel_max = _iterate_extreme(lambda v: At @ (A @ v), v0)
    if not ok_max:
        raise ConvergenceError(
            f"power iteration for sigma_max not settled after {COND_MAX_ITER} iterations "
            f"(last relative change {rel_max:.2e})")
    if lam_max <= 0.0:
        raise SingularMatrixError("matrix has numerically zero largest singular value")

    factor = SparseFactor(A)

    def inv_op(v: np.ndarray) -> np.ndarray:
        return factor.raw_solve(factor.raw_solve(v, trans="T"))

    lam_inv, ok_min, rel_min = _iterate_extreme(inv_op, rng.standard_normal(n))
    if not ok_min:
        raise ConvergenceError(
            f"inverse iteration for sigma_min not settled after {COND_MAX_ITER} iterations "
            f"(last relative change {rel_min:.2e})")
    if lam_inv <= 0.0 or not np.isfinite(lam_inv):
        raise SingularMatrixError("matrix has numerically zero smallest singular value")
    return float(np.sqrt(lam_max) * np.sqrt(lam_inv))
