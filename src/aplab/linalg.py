"""Structured and general sparse linear solvers, DFT along y, conditioning.

Every implicit scheme routes through here: the per-column cyclic systems of
the first toy model through ``solve_cyclic``, the global systems of the
second through ``assemble``/``solve_sparse``, and the condition-number
studies through ``cond2``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.signal import lfilter

__all__ = [
    "SingularMatrixError", "ConvergenceError",
    "CyclicTridiag", "SparseMatrix", "SolveStats", "SparseFactor",
    "solve_cyclic", "assemble", "solve_sparse", "cond2",
    "dft_y", "idft_y", "dft_wavenumbers",
]

PIVOT_BREAKDOWN = 1e-30
SOLVE_TOL = 1e-12  # relative residual bound of SparseFactor.solve
MAX_REFINE = 10  # refinement passes SparseFactor.solve may take
COND_TOL = 1e-6  # relative accuracy cond2's power iterations stop at
COND_MAX_ITER = 10000

_DEKKER = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves


def _two_prod(a: float, x: np.ndarray):
    """Exact product a*x = p + e in working precision (Dekker splitting)."""
    p = a * x
    ah = _DEKKER * a
    ah = ah - (ah - a)
    al = a - ah
    xh = _DEKKER * x
    xh = xh - (xh - x)
    xl = x - xh
    e = ((ah * xh - p) + ah * xl + al * xh) + al * xl
    return p, e


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


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
    eps below 1e-5 or so. ``from_sum`` keeps the residue.
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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the matrix; works on (n,) vectors and (n, k) batches."""
        y = self.d * x
        y[1:] += self.s * x[:-1]
        y[:1] += self.s * x[-1:]
        return y

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        np.fill_diagonal(a, self.d)
        for j in range(1, self.n):
            a[j, j - 1] = self.s
        a[0, self.n - 1] += self.s
        return a

    def to_sparse(self) -> "SparseMatrix":
        # at n = 1 the corner entry falls on the diagonal and is summed into it
        j = np.arange(self.n)
        return assemble(self.n, self.n, np.concatenate([j, j[1:], [0]]),
                        np.concatenate([j, j[:-1], [self.n - 1]]),
                        np.concatenate([np.full(self.n, self.d), np.full(self.n, self.s)]))

    @functools.cached_property
    def _sweep_constants(self) -> tuple:
        """Constants of ``_cyclic_sweep``, computed on the first solve.

        The ``lfilter`` coefficients (b, a), the powers v_j = phi^j as a
        vector and as a column, and the closure pivot; at n = 1 only the
        pivot d + s of the 1x1 system. Raises SingularMatrixError on pivot
        breakdown; an error is not cached, so every solve raises it again.
        """
        d, s = self.d, self.s
        if abs(d) < PIVOT_BREAKDOWN:
            raise SingularMatrixError(f"singular matrix: diagonal pivot {d!r}")
        if self.n == 1:
            dd = d + s
            if abs(dd) < PIVOT_BREAKDOWN:
                raise SingularMatrixError("singular matrix: 1x1 cyclic system")
            return None, None, None, None, dd
        v = np.cumprod(np.full(self.n - 1, -s / d))
        closure = d + s * v[-1]
        if not np.isfinite(closure) or abs(closure) < PIVOT_BREAKDOWN:
            raise SingularMatrixError(
                f"singular matrix: cyclic closure pivot {closure!r} (d={d!r}, s={s!r})")
        return np.array([1.0 / d]), np.array([1.0, s / d]), v, v[:, None], closure


def _cyclic_sweep(M: CyclicTridiag, rhs: np.ndarray) -> np.ndarray:
    """One bordered-elimination pass; rhs shape (n,) or (n, k)."""
    b, a, v, v_col, closure = M._sweep_constants
    if M.n == 1:
        return rhs / closure
    # first n-1 rows express x_j = u_j + v_j * x_n with v_j = phi^j, phi = -s/d
    u = lfilter(b, a, rhs[:-1], axis=0)
    t = (rhs[-1] - M.s * u[-1]) / closure
    x = np.empty_like(rhs, dtype=float)
    x[:-1] = u + (v if rhs.ndim == 1 else v_col) * t
    x[-1] = t
    return x


def _cyclic_residual(M: CyclicTridiag, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - d*x - s*x_{j-1} (cyclic) with compensated products and sums.

    The stiff solves divide by eigenvalues as small as eps while the matrix
    entries stay O(1), so a residual formed in plain arithmetic is pure
    cancellation noise there; the correction pass needs the extra digits to
    bring the forward error down to O(u) instead of O(cond * u).
    """
    p1, e1 = _two_prod(M.d, x)
    x_prev = np.empty_like(x)
    x_prev[1:] = x[:-1]
    x_prev[:1] = x[-1:]
    p2, e2 = _two_prod(M.s, x_prev)
    r, c1 = _two_sum(rhs, -p1)
    r, c2 = _two_sum(r, -p2)
    return r + (c1 + c2 - e1 - e2 - M.d_lo * x)


def solve_cyclic(M: CyclicTridiag, rhs: np.ndarray) -> np.ndarray:
    """Solve the cyclic bidiagonal system ``M x = rhs`` in O(n).

    Elimination carries the corner column as a bordered unknown t = x_n:
    rows 1..n-1 give x_j = u_j + (-s/d)^j t, the last row closes t. One
    refinement pass with a compensated residual keeps the forward error
    near machine level even for nearly singular systems. Accuracy is
    specified for |s| <= |d| (the regime the schemes produce); for |s| > |d|
    the powers (-s/d)^j grow and accuracy degrades with n.

    ``rhs`` may be a (n,) vector or an (n, k) batch of right-hand sides.
    Raises SingularMatrixError on pivot breakdown (magnitude < 1e-30).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != M.n:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match dimension {M.n}")
    x = _cyclic_sweep(M, rhs)
    resid = _cyclic_residual(M, x, rhs)
    x = x + _cyclic_sweep(M, resid)
    return x


# ---------------------------------------------------------------------------
# general sparse systems


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Compressed sparse row matrix with finite, duplicate-free entries."""

    csr: sp.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.csr @ x

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


def assemble(n_rows: int, n_cols: int, rows, cols, vals) -> SparseMatrix:
    """Build a SparseMatrix from coordinate arrays, 0-based indices.

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
    return SparseMatrix(csr)


@dataclass
class SolveStats:
    """Outcome record of one linear solve."""

    residual_norm: float
    iterations: int


class SparseFactor:
    """Sparse LU factorization reused across many right-hand sides.

    The factorization is immutable once built; ``solve`` is reentrant.
    """

    def __init__(self, M: SparseMatrix):
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"matrix must be square, got {M.shape}")
        self.matrix = M
        self.norm1 = float(abs(M.csr).sum(axis=0).max()) if M.csr.nnz else 0.0
        try:
            self._lu = spla.splu(M.csr.tocsc())
        except RuntimeError as exc:
            if "singular" in str(exc).lower():
                raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
            raise

    def raw_solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float), trans=trans)

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, SolveStats]:
        """Solve with iterative refinement down to ``SOLVE_TOL * max(1, |rhs|_2)``.

        Works on (n,) vectors and (n, k) batches (the bound is enforced per
        column). The effective tolerance is floored at 100*eps*|M|_1 because
        the residual of the correctly rounded solution already sits at
        O(eps*|M|*|x|); refinement keeps going below the tolerance while it
        still makes progress. Raises ConvergenceError with the achieved
        residual if refinement stalls above the bound.
        """
        rhs = np.asarray(rhs, dtype=float)
        A = self.matrix.csr
        eff_tol = max(SOLVE_TOL, 100.0 * np.finfo(float).eps * max(1.0, self.norm1))
        x = self._lu.solve(rhs)
        its = 0
        scale = np.maximum(1.0, np.linalg.norm(rhs, axis=0))
        rel = np.max(np.linalg.norm(rhs - A @ x, axis=0) / scale)
        while its < MAX_REFINE and np.isfinite(rel) and rel > 0.05 * eff_tol:
            x_next = x + self._lu.solve(rhs - A @ x)
            rel_next = np.max(np.linalg.norm(rhs - A @ x_next, axis=0) / scale)
            if not (rel_next < rel):
                break
            x, rel = x_next, rel_next
            its += 1
        if not np.isfinite(rel) or rel > eff_tol:
            raise ConvergenceError(
                f"sparse solve stalled at relative residual {rel:.3e} (tol {eff_tol:.1e})")
        return x, SolveStats(float(rel), its)


def solve_sparse(M: SparseMatrix, rhs: np.ndarray) -> tuple[np.ndarray, SolveStats]:
    """Direct sparse LU solve of ``M x = rhs`` with refinement to ``SOLVE_TOL``."""
    return SparseFactor(M).solve(rhs)


# ---------------------------------------------------------------------------
# condition number


def _iterate_extreme(apply_op, v0: np.ndarray):
    """Power iteration on an SPD operator; returns its top eigenvalue.

    Stops when the geometric-series estimate of the remaining relative error
    drops below ``COND_TOL``. Returns (eigenvalue, converged_flag, last_change).
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


def cond2(M: SparseMatrix) -> float:
    """2-norm condition number estimate sigma_max / sigma_min.

    sigma_max comes from power iteration on M^T M, sigma_min from inverse
    iteration through a sparse LU factorization (two triangular solves per
    step, never an explicit inverse). Deterministic start vector. Raises
    SingularMatrixError for singular input and ConvergenceError when the
    iteration has clearly not settled after ``COND_MAX_ITER`` iterations.
    """
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError(f"matrix must be square, got {M.shape}")
    A = M.csr
    rng = np.random.default_rng(0x5EED + n)
    v0 = rng.standard_normal(n)

    lam_max, ok_max, rel_max = _iterate_extreme(lambda v: A.T @ (A @ v), v0)
    if not ok_max:
        raise ConvergenceError(
            f"power iteration for sigma_max not settled after {COND_MAX_ITER} iterations "
            f"(last relative change {rel_max:.2e})")
    if lam_max <= 0.0:
        raise SingularMatrixError("matrix has numerically zero largest singular value")

    factor = SparseFactor(M)

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


# ---------------------------------------------------------------------------
# discrete Fourier transform along y


def dft_wavenumbers(m: int) -> np.ndarray:
    """Centered integer mode indices -floor(m/2) .. ceil(m/2)-1."""
    return np.arange(-(m // 2), m - m // 2)


@functools.lru_cache(maxsize=8)
def _dft_matrices(m: int):
    ks = dft_wavenumbers(m)
    j = np.arange(m)
    fwd = np.exp(-2j * np.pi * np.outer(ks, j) / m) / m
    inv = np.exp(2j * np.pi * np.outer(j, ks) / m)
    return fwd, inv


def dft_y(values: np.ndarray) -> np.ndarray:
    """DFT along axis 0: coefficient k = (1/m) sum_j values_j e^{-2pi i k j/m}.

    Coefficients are returned in the centered order of ``dft_wavenumbers``.
    """
    values = np.asarray(values)
    m = values.shape[0]
    if m < 1:
        raise ValueError("dft needs at least one sample")
    return np.fft.fftshift(np.fft.fft(values, axis=0), axes=0) / m


def idft_y(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``dft_y``: values_j = sum_k c_k e^{+2pi i k j/m}."""
    coeffs = np.asarray(coeffs, dtype=complex)
    m = coeffs.shape[0]
    if m < 1:
        raise ValueError("idft needs at least one coefficient")
    return np.fft.ifft(np.fft.ifftshift(coeffs, axes=0), axis=0) * m
