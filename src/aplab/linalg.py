"""Structured and general sparse linear solvers and condition numbers.

Every implicit scheme routes through one sparse LU, ``SparseFactor``: the
per-column cyclic systems of the first toy model through ``solve_cyclic``,
which factors each ``CyclicTridiag`` once (systems of at most ``DENSE_MAX_N``
unknowns through their explicit inverse instead) and refines with a
compensated residual; the global systems of the second as scipy CSR matrices,
built where they are defined. The condition-number studies go through ``cond2``.
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
    "solve_cyclic", "cond2",
]

PIVOT_BREAKDOWN = 1e-30
SOLVE_TOL = 1e-12  # relative residual bound of SparseFactor.solve
MAX_REFINE = 10  # refinement passes SparseFactor.solve and solve_cyclic may take
ONE_PASS_K = 1e5  # solve_cyclic stops after one pass when its contraction is <= K * u
DENSE_MAX_N = 32  # cyclic systems up to this size take their raw solves from a dense inverse
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


def _split(a: float) -> tuple:
    """Dekker's split a = hi + lo of a scalar into two 26-bit halves."""
    hi = _DEKKER * a
    hi -= hi - a
    return hi, a - hi


def _split_into(x: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Dekker's split x = hi + lo of an array, written into hi and lo."""
    np.multiply(_DEKKER, x, out=hi)
    np.subtract(hi, x, out=lo)
    hi -= lo
    np.subtract(x, hi, out=lo)


def _two_prod(a: float, x: np.ndarray, xh: np.ndarray, xl: np.ndarray,
              p: np.ndarray, e: np.ndarray, tmp: np.ndarray) -> None:
    """Exact product a*x = p + e in working precision, written into p and e;
    (xh, xl) is the split of x and tmp a scratch array."""
    ah, al = _split(a)
    np.multiply(a, x, out=p)
    np.multiply(ah, xh, out=e)
    e -= p
    for c, y in ((ah, xl), (al, xh), (al, xl)):
        np.multiply(c, y, out=tmp)
        e += tmp


def _two_diff(a: np.ndarray, b: np.ndarray, s: np.ndarray, err: np.ndarray,
              tmp: np.ndarray) -> None:
    """Exact difference a - b = s + err (Knuth's TwoSum of a and -b), written
    into s and err, neither of which may overlap a or b; tmp is scratch."""
    np.subtract(a, b, out=s)
    np.subtract(s, a, out=tmp)
    np.subtract(s, tmp, out=err)
    np.subtract(a, err, out=err)
    tmp += b
    err -= tmp


def _max_abs(a: np.ndarray) -> float:
    """max |a| (0 when empty, NaN if any entry is) without an |a| temporary."""
    return max(a.max(initial=0.0), -a.min(initial=0.0))


def _column_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=0)``, bit for bit. On a C-ordered (n, k)
    array with k > 1, that norm sums the squares row by row, which einsum
    does too without a squares temporary and a strided reduction. Other
    layouts sum each column pairwise, so they keep the norm."""
    if a.ndim == 2 and a.shape[1] > 1 and a.flags.c_contiguous:
        return np.sqrt(np.einsum("ij,ij->j", a, a))
    return np.linalg.norm(a, axis=0)


def _shift_down(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows moved down by one, cyclically, into out: out[j] = a[j - 1]."""
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
        return self.to_sparse().toarray()

    def to_sparse(self) -> sp.csr_matrix:
        # at n = 1 the corner entry falls on the diagonal and is summed into it
        n = self.n
        return (self.d * sp.eye(n, format="csr")
                + self.s * (sp.eye(n, k=-1, format="csr") + sp.eye(n, k=n - 1, format="csr")))

    def check_pivots(self) -> None:
        """Raise SingularMatrixError when a pivot of the elimination along the
        cycle, d or d + s (-s/d)^(n-1), breaks down (magnitude < 1e-30).
        Closed form: nothing is factored."""
        d, s = self.d, self.s
        if abs(d) < PIVOT_BREAKDOWN:
            raise SingularMatrixError(f"singular matrix: diagonal pivot {float(d)}")
        closure = d + s * np.float64(-s / d) ** (self.n - 1)
        if not np.isfinite(closure) or abs(closure) < PIVOT_BREAKDOWN:
            raise SingularMatrixError(
                f"singular matrix: cyclic closure pivot {float(closure)} "
                f"(d={float(d)}, s={float(s)})")

    @functools.cached_property
    def _factor(self) -> "SparseFactor | _DenseInverse":
        """What ``solve_cyclic`` takes its raw solves from, built on the first
        solve once ``check_pivots`` passes; errors are not cached. Up to
        ``DENSE_MAX_N`` unknowns that is the inverse of ``to_dense()``: one
        small matrix product costs a few microseconds where SuperLU's
        per-call and per-column overhead costs tens. Larger systems get the
        ``SparseFactor`` of ``to_sparse()``. Both leave d_lo out."""
        self.check_pivots()
        if self.n <= DENSE_MAX_N:
            return _DenseInverse(self.to_dense())
        return SparseFactor(self.to_sparse())

    def _work(self, shape: tuple) -> "_CyclicWork":
        """``solve_cyclic``'s buffers for right-hand sides of ``shape``, made at
        the first solve of that shape and kept for the next. They live and
        die with this matrix, which a stepper keeps for its run: a step that
        allocates them afresh makes glibc return them to the system and
        fault them in again on every step."""
        work = self.__dict__.get("_work_buffers")
        if work is None or work.shape != shape:
            work = self.__dict__["_work_buffers"] = _CyclicWork(shape)
        return work

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


class _DenseInverse:
    """Raw solves through the explicit inverse of a small matrix: not
    backward stable in general, so only for systems that ``solve_cyclic``
    refines with its compensated residual."""

    def __init__(self, A: np.ndarray):
        try:
            self.inverse = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"dense inverse failed: {exc}") from exc

    def raw_solve(self, rhs: np.ndarray) -> np.ndarray:
        # column-major like SuperLU's, so the residual's column blocks are contiguous
        return np.matmul(self.inverse, rhs, out=np.empty(rhs.shape, order="F"))


class _CyclicWork:
    """Work buffers of ``solve_cyclic`` for one right-hand-side shape: the
    residual, and the seven block temporaries of ``_cyclic_residual``.

    Column-major, like the solutions ``SparseFactor.raw_solve`` returns, so
    that column blocks are contiguous. A batch of more than one column and
    more than ``_RESIDUAL_BLOCK`` entries is worked in blocks of
    ``_RESIDUAL_BLOCK // n`` columns (at least one), which keeps the
    temporaries in cache.
    """

    def __init__(self, shape: tuple):
        self.shape = shape
        n, k = shape[0], (shape[1] if len(shape) == 2 else 1)
        blocked = len(shape) == 2 and k > 1 and n * k > _RESIDUAL_BLOCK
        self.width = max(1, _RESIDUAL_BLOCK // n) if blocked else max(k, 1)
        self.residual = np.empty(shape, order="F")
        block = (n, self.width) if len(shape) == 2 else (n,)
        self.blocks = [np.empty(block, order="F") for _ in range(7)]


def _cyclic_residual(M: CyclicTridiag, x: np.ndarray, rhs: np.ndarray,
                     work: _CyclicWork) -> np.ndarray:
    """rhs - d*x - s*x_{j-1} (cyclic) with compensated products and sums,
    written into ``work.residual``, which it returns.

    The stiff solves divide by eigenvalues as small as eps while the matrix
    entries stay O(1), so a residual formed in plain arithmetic is pure
    cancellation noise there; the correction passes need the extra digits
    to bring the forward error down to O(u) instead of O(cond * u).
    """
    if x.ndim == 1:
        _residual_block(M, x, rhs, work.residual, work.blocks)
        return work.residual
    k, width = x.shape[1], work.width
    for j in range(0, k, width):
        cols = slice(j, j + width)
        blocks = [b[:, :min(width, k - j)] for b in work.blocks]
        _residual_block(M, x[:, cols], rhs[:, cols], work.residual[:, cols], blocks)
    return work.residual


def _residual_block(M: CyclicTridiag, x: np.ndarray, rhs: np.ndarray, r: np.ndarray,
                    blocks: list) -> None:
    """The compensated residual of one block of columns, written into r;
    ``blocks`` holds seven scratch arrays of x's shape."""
    xh, xl, p1, e1, p2, e2, tmp = blocks
    _split_into(x, xh, xl)
    _two_prod(M.d, x, xh, xl, p1, e1, tmp)
    _two_prod(M.s, x, xh, xl, p2, e2, tmp)  # s * x_{j-1} once shifted down
    r1, c1 = xh, xl  # the split is spent
    _two_diff(rhs, p1, r1, c1, tmp)
    _two_diff(r1, _shift_down(p2, out=p1), r, p2, tmp)
    c1 += p2
    c1 -= e1
    c1 -= _shift_down(e2, out=p1)
    np.multiply(M.d_lo, x, out=tmp)
    c1 -= tmp
    r += c1


def solve_cyclic(M: CyclicTridiag, rhs: np.ndarray) -> np.ndarray:
    """Solve the cyclic bidiagonal system ``M x = rhs``.

    M's raw solve (``M._factor``) is built once and reused: the explicit
    inverse of M' for n <= ``DENSE_MAX_N``, its sparse LU otherwise. Passes
    of refinement with the compensated residual keep the forward error near
    machine level even for nearly singular systems, and make the result
    independent of which of the two gave the first iterate. M' =
    ``to_dense()`` = ``to_sparse()`` differs from M by delta I: delta is
    d_lo, plus at n = 1 the rounding of d + s, which assembly sums into one
    entry. Both are circulant, with spectra lam'_k = d + s e^{-2 pi i k/n}
    (fl(d + s) at n = 1) and lam_k = lam'_k + delta, so an LU pass scales
    the error by at most rho = cond2(M) u + |delta| / min|lam'_k|, with
    cond2(M) = max|lam_k| / min|lam_k|. The inverse and its product add a
    factor of order n to the first term, at most 32 here. The first pass
    always runs and leaves about rho^2 |x|. When rho <= ``ONE_PASS_K`` u
    that is at most 4.9e-22 |x| (5e-19 |x| with the factor 32), still far
    below the u/2 |x| of rounding, and the solve stops there. (Only where
    the exact solution sits on a rounding tie, which takes specially
    structured d and s, may further passes round it the other way.) Otherwise,
    passes repeat while the correction exceeds u * max|x| and still
    shrinks, up to ``MAX_REFINE``.

    ``rhs`` may be a (n,) vector or an (n, k) batch of right-hand sides; the
    solution is a fresh array. The residual and its temporaries go to
    buffers M keeps (``M._work``), so one M serves one solve at a time.
    Raises SingularMatrixError on pivot breakdown (magnitude < 1e-30).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != M.n:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match dimension {M.n}")
    factor = M._factor
    work = M._work(rhs.shape)
    x = factor.raw_solve(rhs)
    last = np.inf
    for _ in range(MAX_REFINE):
        corr = factor.raw_solve(_cyclic_residual(M, x, rhs, work))
        x += corr
        if M._one_pass:
            break
        size = _max_abs(corr)
        # freed before the next raw_solve allocates its own, which then
        # takes this block back instead of growing the heap
        del corr
        if not (_ULP * _max_abs(x) < size < last):
            break
        last = size
    return x


# ---------------------------------------------------------------------------
# general sparse systems


def _norm1_and_dominance(A: sp.csr_matrix) -> tuple[float, bool]:
    """|A|_1 and whether A is column diagonally dominant. The n-sized
    temporaries die here, before ``splu``: held across it, they fragmented
    the heap and lifted the stiff-steps peak RSS by 5 MiB in most runs."""
    col_abs = np.asarray(abs(A).sum(axis=0)).ravel()
    return (float(col_abs.max()) if A.nnz else 0.0,
            bool(np.all(2.0 * np.abs(A.diagonal()) >= col_abs)))


@dataclass
class SolveStats:
    """Outcome record of one linear solve."""

    residual_norm: float
    iterations: int


class SparseFactor:
    """Sparse LU factorization reused across many right-hand sides.

    The factorization is immutable once built; ``solve`` is reentrant.
    A column diagonally dominant A, |a_jj| >= sum_{i != j} |a_ij| for all j,
    is ordered by minimum degree on A + A^T in SuperLU's symmetric mode.
    Elimination keeps that dominance (Wilkinson), so partial pivoting takes
    every pivot on the diagonal of any symmetric permutation: the same GEPP,
    with less fill. Other matrices keep COLAMD; symmetric mode would pivot
    them off the diagonal and fill in. ``raw_solve`` keeps the LU's dtype.
    """

    def __init__(self, A: sp.csr_matrix):
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        self.matrix = A
        self.norm1, dominant = _norm1_and_dominance(A)
        order = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}
        try:
            self._lu = spla.splu(A.tocsc(), **(order if dominant else {}))
        except RuntimeError as exc:
            if "singular" in str(exc).lower():
                raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
            raise

    def raw_solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        return self._lu.solve(np.asarray(rhs), trans=trans)

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
        x = self.raw_solve(rhs)
        its = 0
        scale = np.maximum(1.0, _column_norms(rhs))
        r = A @ x
        np.subtract(rhs, r, out=r)
        rel = np.max(_column_norms(r) / scale)
        while its < MAX_REFINE and np.isfinite(rel) and rel > 0.05 * eff_tol:
            x_next = self.raw_solve(r)
            x_next += x
            r_next = A @ x_next
            np.subtract(rhs, r_next, out=r_next)
            rel_next = np.max(_column_norms(r_next) / scale)
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


def _iterate_extreme(apply_op, v0: np.ndarray, method: str, which: str) -> float:
    """Power iteration on an SPD operator; returns its top eigenvalue.

    Stops once change * r / (1 - r) drops below ``COND_TOL * |lam|``, with r
    the ratio of the last two changes capped at 0.999. That bounds the error
    only while r is steady and below 0.999; near-equal top eigenvalues make
    it stop early and low. Raises ConvergenceError, naming ``method``, when
    the iteration has clearly not settled after ``COND_MAX_ITER`` iterations,
    and SingularMatrixError, naming the ``which`` singular value, as soon as
    an iterate's norm, or at the end the eigenvalue, is not finite and > 0.
    """
    v = v0 / np.linalg.norm(v0)
    lam_prev = 0.0
    change_prev = np.inf
    for it in range(1, COND_MAX_ITER + 1):
        w = apply_op(v)
        nw = np.linalg.norm(w)
        if not (np.isfinite(nw) and nw > 0.0):
            raise SingularMatrixError(f"matrix has numerically zero {which} singular value")
        lam = float(v @ w)
        v = w / nw
        change = abs(lam - lam_prev)
        if lam != 0.0 and it >= 3:
            ratio = change / change_prev if change_prev > 0 else 0.0
            ratio = min(ratio, 0.999)
            remaining = change * ratio / (1.0 - ratio)
            if remaining <= COND_TOL * abs(lam) or change == 0.0:
                break
        lam_prev = lam
        change_prev = change if change > 0 else change_prev
    else:
        rel = change / max(abs(lam), 1e-300)
        if not rel <= 100 * COND_TOL:
            raise ConvergenceError(f"{method} not settled after {COND_MAX_ITER} iterations "
                                   f"(last relative change {rel:.2e})")
    if lam <= 0.0 or not np.isfinite(lam):
        raise SingularMatrixError(f"matrix has numerically zero {which} singular value")
    return lam


def cond2(A: sp.csr_matrix) -> float:
    """2-norm condition number estimate sigma_max / sigma_min.

    sigma_max comes from power iteration on A^T A, sigma_min from inverse
    iteration through a sparse LU factorization (two triangular solves per
    step, never an explicit inverse). Deterministic start vector. Raises
    SingularMatrixError for singular input and ConvergenceError when the
    iteration has clearly not settled after ``COND_MAX_ITER`` iterations.
    The estimate reads low, and is within COND_TOL only if each extreme
    singular value is well apart from the next (see ``_iterate_extreme``).
    Both iterations run on A 2^-e (e: exponent of max |a|), which is exact and keeps A^T A finite.
    """
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"matrix must be square, got {A.shape}")
    A = A.copy()
    A.data = np.ldexp(A.data, -np.frexp(_max_abs(A.data))[1])
    rng = np.random.default_rng(0x5EED + n)
    At = A.T  # built once: A.T makes and checks a new CSC matrix per call
    lam_max = _iterate_extreme(lambda v: At @ (A @ v), rng.standard_normal(n),
                               "power iteration for sigma_max", "largest")
    factor = SparseFactor(A)
    lam_inv = _iterate_extreme(lambda v: factor.raw_solve(factor.raw_solve(v, trans="T")),
                               rng.standard_normal(n), "inverse iteration for sigma_min",
                               "smallest")
    return float(np.sqrt(lam_max) * np.sqrt(lam_inv))
