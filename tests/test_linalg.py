from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from aplab import linalg
from aplab.aligned_schemes import aligned_lagrange_matrix
from aplab.analysis import cond_family_aligned
from aplab.grid import make_grid2d
from aplab.linalg import (
    MAX_REFINE,
    SOLVE_TOL,
    ConvergenceError,
    CyclicTridiag,
    SingularMatrixError,
    SparseFactor,
    cond2,
    solve_cyclic,
)
from aplab.rotating_schemes import assemble_imp, assemble_lagrange_rot, upwind_rotation_matrix


def test_solve_cyclic_identity():
    rhs = np.array([3.0, -1.0, 2.0, 0.5])
    x = solve_cyclic(CyclicTridiag(4, 1.0, 0.0), rhs)
    assert np.array_equal(x, rhs)


def test_solve_cyclic_singular_at_eps_zero():
    # d = eps + beta, s = -beta with eps = 0: row sums vanish, constant
    # vector sits in the kernel; plus the 1x1 and zero-diagonal breakdowns
    # (at n = 1 the closure pivot d + s (-s/d)^0 is the entry d + s itself)
    for n, d, s, message in [(16, 1.0, -1.0, "cyclic closure pivot"),
                             (1, 1.0, -1.0, "cyclic closure pivot"),
                             (4, 0.0, 1.0, "diagonal pivot")]:
        M = CyclicTridiag(n, d, s)
        for _ in range(2):  # the breakdown is raised again, not cached away
            with pytest.raises(SingularMatrixError, match=message):
                solve_cyclic(M, np.ones(n))


def test_solve_cyclic_against_dense_oracle():
    rng = np.random.default_rng(7)
    M = CyclicTridiag(16, 1.5, -0.5)
    rhs = rng.standard_normal(16)
    x = solve_cyclic(M, rhs)
    x_ref = np.linalg.solve(M.to_dense(), rhs)
    assert np.max(np.abs(x - x_ref)) <= 1e-12


def test_solve_cyclic_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 65))
        d = float(rng.uniform(1.0, 2.0)) * (1 if rng.random() < 0.5 else -1)
        s = float(rng.uniform(-0.9, 0.9))
        rhs = rng.standard_normal(n)
        x = solve_cyclic(CyclicTridiag(n, d, s), rhs)
        x_ref = np.linalg.solve(CyclicTridiag(n, d, s).to_dense(), rhs)
        scale = max(1.0, np.max(np.abs(x_ref)))
        assert np.max(np.abs(x - x_ref)) <= 1e-11 * scale


def test_solve_cyclic_batched_rhs():
    rng = np.random.default_rng(3)
    for n, k in [(12, 5), (300, 40)]:  # the second spans several residual blocks
        M = CyclicTridiag(n, 1.2, 0.3)
        rhs = rng.standard_normal((n, k))
        x = solve_cyclic(M, rhs)
        for j in range(k):
            assert np.allclose(x[:, j], solve_cyclic(M, rhs[:, j]), rtol=0, atol=1e-13)


def test_solve_cyclic_shape_mismatch():
    with pytest.raises(ValueError):
        solve_cyclic(CyclicTridiag(4, 1.0, 0.0), np.ones(5))


def _exact_cyclic(M: CyclicTridiag, rhs) -> list:
    """Rational solution of M x = rhs, with M's diagonal taken as d + d_lo."""
    d, s = Fraction(M.d) + Fraction(M.d_lo), Fraction(M.s)
    # x_j = a_j + b_j * t with t = x_{n-1}; the corner row closes t
    a, b = [], []
    a_prev, b_prev = Fraction(0), Fraction(1)  # x_{-1} is t itself
    for r in rhs:
        a_prev, b_prev = (Fraction(r) - s * a_prev) / d, -s * b_prev / d
        a.append(a_prev)
        b.append(b_prev)
    t = a[-1] / (1 - b[-1])
    return [aj + bj * t for aj, bj in zip(a, b)]


@pytest.mark.parametrize("n", [1, 2, 7, 64])
@pytest.mark.parametrize("beta", [0.37, 1.0, 12.5])
def test_solve_cyclic_against_rational_oracle(n, beta):
    # the stiff schemes' system: d = eps + beta kept exact, s = -beta, with
    # condition number about (eps + 2 beta) / eps
    rhs = np.random.default_rng(n).standard_normal(n)
    u = np.finfo(float).eps
    for eps in (1.0, 1e-3, 1e-6, 1e-9, 1e-12):
        M = CyclicTridiag.from_sum(n, eps, beta, -beta)
        exact = np.array([float(v) for v in _exact_cyclic(M, rhs)])
        err = np.max(np.abs(solve_cyclic(M, rhs) - exact))
        assert err <= 2 * u * np.max(np.abs(exact)), (eps, err)


def _exact_dense(M: CyclicTridiag, rhs) -> np.ndarray:
    """M x = rhs by rational Gaussian elimination of the full matrix, with
    d + d_lo on the diagonal and the corner s summed in at n = 1; each
    column of ``rhs`` solved exactly, then rounded once to double."""
    n = M.n
    A = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        A[j][j] += Fraction(M.d) + Fraction(M.d_lo)
        A[j][(j - 1) % n] += Fraction(M.s)
    x = np.empty_like(rhs)
    for c in range(rhs.shape[1]):
        rows = [A[i][:] + [Fraction(rhs[i, c])] for i in range(n)]
        for k in range(n):
            p = next(i for i in range(k, n) if rows[i][k] != 0)
            rows[k], rows[p] = rows[p], rows[k]
            for i in range(k + 1, n):
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
        sol = [Fraction(0)] * n
        for k in reversed(range(n)):
            tail = sum(rows[k][j] * sol[j] for j in range(k + 1, n))
            sol[k] = (rows[k][n] - tail) / rows[k][k]
        x[:, c] = [float(v) for v in sol]  # Fraction -> float rounds to nearest
    return x


_DENSE_BETAS = (0.01, 1.0, 100.0)
_DENSE_EPS = (1.0, 1e-3, 1e-6, 1e-9)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("beta", _DENSE_BETAS)
def test_dense_path_gives_the_rounded_exact_solution(n, beta):
    # systems this small take their raw solves from the explicit inverse;
    # the compensated refinement must still land on the exact solution of
    # the discrete system rounded to double, entry by entry
    assert n <= linalg.DENSE_MAX_N
    rhs = np.random.default_rng(100 * n + int(beta * 100)).standard_normal((n, 3))
    for eps in _DENSE_EPS:
        M = CyclicTridiag.from_sum(n, eps, beta, -beta)
        assert isinstance(M._factor, linalg._DenseInverse)
        x = solve_cyclic(M, rhs)
        assert np.array_equal(x, _exact_dense(M, rhs)), (eps, M._one_pass)


@pytest.mark.parametrize("n", [16, 32])
def test_dense_path_leaves_nothing_for_another_pass(n):
    # one more compensated pass moves no entry by half an ulp of max|x|
    u = np.finfo(float).eps
    rng = np.random.default_rng(n)
    for beta in _DENSE_BETAS:
        for eps in _DENSE_EPS:
            M = CyclicTridiag.from_sum(n, eps, beta, -beta)
            rhs = rng.standard_normal((n, 20))
            x = solve_cyclic(M, rhs)
            r = linalg._cyclic_residual(M, x, rhs, M._work(rhs.shape))
            moved = np.max(np.abs(x + M._factor.raw_solve(r) - x))
            assert moved <= 0.5 * u * np.max(np.abs(x)), (beta, eps, M._one_pass)


def test_dense_path_ends_at_its_size_limit():
    limit = linalg.DENSE_MAX_N
    assert limit == 32
    assert isinstance(CyclicTridiag(limit, 2.0, -1.0)._factor, linalg._DenseInverse)
    assert isinstance(CyclicTridiag(limit + 1, 2.0, -1.0)._factor, SparseFactor)
    # both return batches column-major: numpy sums micro-macro's column
    # means in an order that depends on the layout, so row-major moves bytes
    for n in (limit, limit + 1):
        x = solve_cyclic(CyclicTridiag(n, 2.0, -1.0), np.ones((n, 5)))
        assert x.flags.f_contiguous and not x.flags.c_contiguous


def test_dense_path_checks_pivots_before_inverting(monkeypatch):
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    for n, d, s in [(16, 1.0, -1.0), (1, 1.0, -1.0), (4, 0.0, 1.0)]:
        M = CyclicTridiag(n, d, s)
        for _ in range(2):  # raised again on the second solve, not cached away
            with pytest.raises(SingularMatrixError):
                solve_cyclic(M, np.ones(n))
    assert not inverted
    solve_cyclic(CyclicTridiag(4, 2.0, -1.0), np.ones(4))
    assert len(inverted) == 1


def test_dense_path_reports_a_singular_inverse(monkeypatch):
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(SingularMatrixError, match="dense inverse"):
        solve_cyclic(CyclicTridiag(7, 2.0, -1.0), np.ones(7))


@pytest.mark.parametrize("shape", [(16000, 2), (800, 2), (14, 400), (400, 200),
                                   (16000,), (7,), (800, 1)])
def test_column_norms_match_numpy_bit_for_bit(shape):
    # SparseFactor.solve's refinement stops and statistics read these norms;
    # a numpy release that sums them in another order would show here
    rng = np.random.default_rng(shape[0])
    for _ in range(5):
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8)
        layouts = [a] if a.ndim == 1 else [a, np.asfortranarray(a)]
        for b in layouts:
            assert np.array_equal(linalg._column_norms(b), np.linalg.norm(b, axis=0))


# (n, right-hand sides per system)
_ONE_PASS_SHAPES = [(1, 2000), (2, 1000), (7, 300), (400, 5), (8000, 1)]


def test_one_pass_matches_the_refinement_loop(monkeypatch):
    # wherever the stop rule takes one pass, the loop's further passes
    # would change no bit. eps and beta are drawn log-uniformly: round
    # values such as n = 2, eps = 1, beta = 12.5 give exact solutions that
    # sit on a rounding tie, which one pass may break the other way
    rng = np.random.default_rng(2024)
    cases = []
    for n, k in _ONE_PASS_SHAPES:
        for _ in range(40):
            eps = 10.0 ** rng.uniform(-6.0, np.log10(5.0))
            beta = 10.0 ** rng.uniform(np.log10(3.5e-4), np.log10(51.0))
            M = CyclicTridiag.from_sum(n, eps, beta, -beta)
            if M._one_pass:
                rhs = rng.standard_normal((n, k))
                cases.append((M, rhs, solve_cyclic(M, rhs)))
    assert len(cases) >= 100
    # the refinement loop, whatever the rule says
    monkeypatch.setattr(CyclicTridiag, "_one_pass", property(lambda self: False))
    for M, rhs, x in cases:
        assert np.array_equal(solve_cyclic(M, rhs), x), M


def test_one_pass_rule_sees_the_factored_scalar(monkeypatch):
    # at n = 1 the condition number is 1, but the factored scalar fl(d + s)
    # is off from eps by about u * beta: one pass leaves a relative error
    # near (u * beta / eps)^2, so the rule keeps the loop
    M = CyclicTridiag.from_sum(1, 1e-9, 1.0, -1.0)
    assert not M._one_pass
    rhs = np.array([0.7])
    exact = float(_exact_cyclic(M, rhs)[0])
    u = np.finfo(float).eps
    assert abs(solve_cyclic(M, rhs)[0] - exact) <= 2 * u * abs(exact)
    monkeypatch.setattr(CyclicTridiag, "_one_pass", property(lambda self: True))
    assert abs(solve_cyclic(M, rhs)[0] - exact) > 2 * u * abs(exact)


def test_one_pass_rule_keeps_the_loop_for_stiff_field_output():
    # the default aligned-run y-system (201 x 201 grid, dt = 0.01) at eps = 1e-6
    beta = 0.01 / (2.0 * np.pi / 200)
    assert not CyclicTridiag.from_sum(200, 1e-6, beta, -beta)._one_pass
    assert CyclicTridiag.from_sum(200, 1.0, beta, -beta)._one_pass


# (n, right-hand-side shape, eps): a vector; n = 1; a batch worked in blocks of
# 40 columns; a batch worked one column at a time; a stiff system that takes
# more than one refinement pass
_REUSE_CASES = [(50, (50,), 1.0), (1, (1, 3), 1.0), (200, (200, 200), 1.0),
                (8000, (8000, 2), 1.0), (200, (200, 200), 1e-6)]


@pytest.mark.parametrize("n,shape,eps", _REUSE_CASES)
def test_solve_cyclic_reused_buffers_match_fresh_ones(n, shape, eps):
    # later solves run through the buffers the first one filled, so stale
    # contents would show against a matrix whose buffers are new
    beta = 0.01 / (2.0 * np.pi / 200)
    M = CyclicTridiag.from_sum(n, eps, beta, -beta)
    assert M._one_pass == (eps == 1.0)
    rng = np.random.default_rng(n)
    first, second = rng.standard_normal(shape), rng.standard_normal(shape)
    x1 = solve_cyclic(M, first)
    kept = x1.copy()
    for rhs, poison in ((second, False), (first, True)):
        if poison:  # a read before a write would carry the NaN into x
            work = M._work(rhs.shape)
            for buf in (work.residual, *work.blocks):
                buf.fill(np.nan)
        fresh = CyclicTridiag.from_sum(n, eps, beta, -beta)
        assert np.array_equal(solve_cyclic(M, rhs), solve_cyclic(fresh, rhs))
    # the solution is the caller's, not a buffer of M
    assert np.array_equal(x1, kept)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_cyclic_to_sparse_matches_dense(n):
    M = CyclicTridiag(n, 1.5, -0.25)
    assert np.array_equal(M.to_sparse().toarray(), M.to_dense())


def cyclic_matvec(M: CyclicTridiag, x: np.ndarray) -> np.ndarray:
    """Matrix-free oracle of ``M @ x`` (d_lo left out) on (n,) vectors and
    (n, k) batches: d x_j + s x_{j-1}, cyclically."""
    return M.d * x + M.s * np.roll(x, 1, axis=0)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_cyclic_matvec_and_solve(n):
    M = CyclicTridiag(n, 1.5, -0.25)
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        y = cyclic_matvec(M, x)
        assert np.allclose(y, M.to_dense() @ x, rtol=0, atol=1e-15)
        assert np.max(np.abs(solve_cyclic(M, y) - x)) <= 1e-14


def test_sparse_factor_identity():
    M = sp.csr_matrix((np.ones(4), (np.arange(4), np.arange(4))), shape=(4, 4))
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    x, stats = SparseFactor(M).solve(e1)
    assert np.allclose(x, e1, rtol=0, atol=1e-14)
    assert stats.residual_norm <= 1e-12


def test_sparse_factor_against_dense_oracle():
    rng = np.random.default_rng(11)
    n = 20
    dense = rng.standard_normal((n, n))
    dense += n * np.eye(n)
    rows, cols = np.indices((n, n))
    M = sp.csr_matrix((dense.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
    rhs = rng.standard_normal(n)
    x, stats = SparseFactor(M).solve(rhs)
    x_ref = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - x_ref)) <= 1e-10
    assert stats.residual_norm <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_sparse_factor_singular():
    # second row entirely zero
    M = sp.csr_matrix(([1.0], ([0], [0])), shape=(2, 2))
    with pytest.raises(SingularMatrixError):
        SparseFactor(M).solve(np.ones(2))


def test_sparse_factor_stall_reports_the_achieved_residual(monkeypatch):
    # Hilbert(10) has cond ~ 1.6e13: the residual of the rounded solution
    # stays above the bound, so the first pass of refinement does not lower
    # it and the solve gives up, as the gamma = 1.5 rotating run does
    A = sp.csr_matrix(sla.hilbert(10))
    b = np.ones(10)
    factor = SparseFactor(A)
    raw_solves = []

    def record(rhs, trans="N", real=factor.raw_solve):
        out = real(rhs, trans)
        raw_solves.append(out.copy())  # solve adds the iterate into out
        return out

    monkeypatch.setattr(factor, "raw_solve", record)
    with pytest.raises(ConvergenceError, match="sparse solve stalled") as info:
        factor.solve(b)
    iterates = np.cumsum(raw_solves, axis=0)
    rel = [np.linalg.norm(b - A @ x, axis=0) / np.linalg.norm(b, axis=0) for x in iterates]
    assert len(rel) <= MAX_REFINE and rel[-1] >= rel[-2] > SOLVE_TOL  # the break
    assert f"relative residual {rel[-2]:.3e} " in str(info.value)


def test_sparse_factor_reuse():
    rng = np.random.default_rng(5)
    n = 8
    i = np.arange(n)
    M = sp.csr_matrix((np.r_[np.full(n, 2.0), np.full(n, 0.5)],
                       (np.r_[i, i], np.r_[i, (i + 1) % n])), shape=(n, n))
    factor = SparseFactor(M)
    for _ in range(3):
        rhs = rng.standard_normal(n)
        x, _ = factor.solve(rhs)
        assert np.max(np.abs(M @ x - rhs)) <= 1e-12


def _rotation_matrices(n: int = 12, dt: float = 0.05, eps: float = 1e-3) -> dict:
    g = make_grid2d(-3, 3, -3, 3, n, n)
    U = upwind_rotation_matrix(g)
    Id = sp.identity(U.shape[0], format="csr")
    return {"imp": assemble_imp(g, eps, dt),
            "shifted": U - complex(-eps, 0.4) * Id,
            "schur": dt * (U @ U) + eps * U + (g.dx * g.dy) ** 0.91 * Id,
            "block": assemble_lagrange_rot(g, eps, dt)}


@pytest.mark.parametrize("name, ordering", [
    ("cyclic", "MMD_AT_PLUS_A"), ("imp", "MMD_AT_PLUS_A"), ("shifted", "MMD_AT_PLUS_A"),
    ("schur", "COLAMD"), ("aligned", "COLAMD"), ("block", "COLAMD")])
def test_sparse_factor_orders_by_column_dominance(monkeypatch, name, ordering):
    # the column diagonally dominant matrices get the symmetric-mode ordering,
    # the others COLAMD; both solve to the refinement tolerance
    matrices = {"cyclic": CyclicTridiag(64, 1.0 + 1e-3, -1.0).to_sparse(),
                "aligned": aligned_lagrange_matrix(16, 2.0, 1e-3), **_rotation_matrices()}
    A = matrices[name]
    seen = []
    real_splu = spla.splu

    def splu(M, **kw):
        seen.append(kw.get("permc_spec", "COLAMD"))
        return real_splu(M, **kw)

    monkeypatch.setattr(linalg.spla, "splu", splu)
    factor = SparseFactor(A)
    assert seen == [ordering]
    b = np.random.default_rng(9).standard_normal(A.shape[0])
    x, stats = factor.solve(b)
    assert np.linalg.norm(b - A @ x) <= SOLVE_TOL * max(1.0, np.linalg.norm(b))
    assert stats.residual_norm <= SOLVE_TOL


def test_symmetric_ordering_stores_less_than_colamd():
    A = _rotation_matrices(n=40)["imp"]
    assert SparseFactor(A)._lu.nnz < spla.splu(A.tocsc()).nnz


def test_cond2_identity():
    M = sp.csr_matrix((np.ones(5), (np.arange(5), np.arange(5))), shape=(5, 5))
    assert cond2(M) == pytest.approx(1.0, rel=1e-6)


def test_cond2_diagonal():
    M = sp.csr_matrix(([10.0, 1.0], ([0, 1], [0, 1])), shape=(2, 2))
    assert cond2(M) == pytest.approx(10.0, rel=1e-6)


def test_cond2_cyclic_against_svd_oracle():
    eps, beta, n = 1e-4, 1.0, 64
    M = CyclicTridiag(n, eps + beta, -beta)
    est = cond2(M.to_sparse())
    sv = np.linalg.svd(M.to_dense(), compute_uv=False)
    ref = sv[0] / sv[-1]
    assert abs(est - ref) <= 0.02 * ref


def test_cond2_cyclic_against_closed_form():
    # the cyclic bidiagonal matrix is circulant, hence normal: its singular
    # values are |d + s e^{-i theta_k}| on the unit roots
    eps, beta, n = 1e-3, 2.0, 48
    M = CyclicTridiag(n, eps + beta, -beta)
    theta = 2.0 * np.pi * np.arange(n) / n
    sv = np.abs((eps + beta) - beta * np.exp(-1j * theta))
    ref = sv.max() / sv.min()
    est = cond2(M.to_sparse())
    assert abs(est - ref) <= 0.02 * ref


def test_cond2_scale_invariance():
    c1 = cond2(CyclicTridiag(32, 1.01, -1.0).to_sparse())
    c2 = cond2(CyclicTridiag(32, 137.0 * 1.01, -137.0).to_sparse())
    assert c2 == pytest.approx(c1, rel=1e-4)


def test_cond2_zero_matrix_is_singular():
    with pytest.raises(SingularMatrixError, match="zero largest singular value"):
        cond2(sp.csr_matrix((4, 4)))


def test_cond2_stops_at_a_non_finite_iterate(monkeypatch):
    # at beta = 1e200 the scaled Lagrange matrix has a numerically zero
    # smallest singular value (a dense SVD reads 0): the first inverse-iteration
    # step overflows, and cond2 must stop there, not iterate on NaN
    A = cond_family_aligned("lagrange", 7, 1e200)(1e-2)
    calls = []

    def counted(self, rhs, trans="N", real=SparseFactor.raw_solve):
        calls.append(trans)
        return real(self, rhs, trans)

    monkeypatch.setattr(SparseFactor, "raw_solve", counted)
    with pytest.raises(SingularMatrixError, match="zero smallest singular value"):
        cond2(A)
    assert 1 <= len(calls) <= 4


@pytest.mark.parametrize("cap, method", [(2, "power iteration for sigma_max"),
                                         (3, "inverse iteration for sigma_min")])
def test_cond2_reports_an_unsettled_iteration(monkeypatch, cap, method):
    # sigma_max of diag(1, 2, 1000) settles by the third iteration, sigma_min
    # (next singular value twice as large) only after a few more
    monkeypatch.setattr(linalg, "COND_MAX_ITER", cap)
    with pytest.raises(ConvergenceError, match=f"{method} not settled after {cap} iterations"):
        cond2(sp.csr_matrix(np.diag([1.0, 2.0, 1000.0])))
    monkeypatch.setattr(linalg, "COND_MAX_ITER", 6)
    assert cond2(sp.csr_matrix(np.diag([1.0, 2.0, 1000.0]))) == pytest.approx(1000.0, rel=1e-5)


def test_cond2_rejects_rectangular():
    with pytest.raises(ValueError):
        cond2(sp.csr_matrix(([1.0], ([0], [0])), shape=(2, 3)))
