import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aplab.linalg import (
    ConvergenceError,
    CyclicTridiag,
    SingularMatrixError,
    SparseFactor,
    assemble,
    cond2,
    dft_wavenumbers,
    dft_y,
    idft_y,
    solve_cyclic,
    solve_sparse,
)


def test_solve_cyclic_identity():
    rhs = np.array([3.0, -1.0, 2.0, 0.5])
    x = solve_cyclic(CyclicTridiag(4, 1.0, 0.0), rhs)
    assert np.array_equal(x, rhs)


def test_solve_cyclic_singular_at_eps_zero():
    # d = eps + beta, s = -beta with eps = 0: row sums vanish, constant
    # vector sits in the kernel; plus the 1x1 and zero-diagonal breakdowns
    for n, d, s, message in [(16, 1.0, -1.0, "cyclic closure pivot"),
                             (1, 1.0, -1.0, "1x1 cyclic system"),
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
    M = CyclicTridiag(12, 1.2, 0.3)
    rhs = rng.standard_normal((12, 5))
    x = solve_cyclic(M, rhs)
    for k in range(5):
        assert np.allclose(x[:, k], solve_cyclic(M, rhs[:, k]), rtol=0, atol=1e-13)


def test_solve_cyclic_shape_mismatch():
    with pytest.raises(ValueError):
        solve_cyclic(CyclicTridiag(4, 1.0, 0.0), np.ones(5))


def test_assemble_empty():
    M = assemble(3, 3, [], [], [])
    assert np.array_equal(M.to_dense(), np.zeros((3, 3)))
    assert np.array_equal(M.matvec(np.ones(3)), np.zeros(3))


def test_assemble_sums_duplicates():
    M = assemble(3, 3, [1, 1], [1, 1], [2.0, 3.0])
    dense = M.to_dense()
    assert dense[1, 1] == 5.0
    assert np.count_nonzero(dense) == 1


def test_assemble_rejects_bad_input():
    with pytest.raises(IndexError):
        assemble(2, 2, [2], [0], [1.0])
    with pytest.raises(IndexError):
        assemble(2, 2, [0], [-1], [1.0])
    with pytest.raises(ValueError):
        assemble(2, 2, [0], [0], [np.nan])


@pytest.mark.parametrize("n", [1, 2, 7])
def test_cyclic_to_sparse_matches_dense(n):
    M = CyclicTridiag(n, 1.5, -0.25)
    assert np.array_equal(M.to_sparse().to_dense(), M.to_dense())


@pytest.mark.parametrize("n", [1, 2, 7])
def test_cyclic_matvec_and_solve(n):
    M = CyclicTridiag(n, 1.5, -0.25)
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        y = M.matvec(x)
        # the same arithmetic as the np.roll form of the stencil
        assert np.array_equal(y, M.d * x + M.s * np.roll(x, 1, axis=0))
        assert np.max(np.abs(solve_cyclic(M, y) - x)) <= 1e-14


def test_solve_sparse_identity():
    M = assemble(4, 4, np.arange(4), np.arange(4), np.ones(4))
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    x, stats = solve_sparse(M, e1)
    assert np.allclose(x, e1, rtol=0, atol=1e-14)
    assert stats.residual_norm <= 1e-12


def test_solve_sparse_against_dense_oracle():
    rng = np.random.default_rng(11)
    n = 20
    dense = rng.standard_normal((n, n))
    dense += n * np.eye(n)
    rows, cols = np.indices((n, n))
    M = assemble(n, n, rows, cols, dense)
    rhs = rng.standard_normal(n)
    x, stats = solve_sparse(M, rhs)
    x_ref = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - x_ref)) <= 1e-10
    assert stats.residual_norm <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_solve_sparse_singular():
    # second row entirely zero
    M = assemble(2, 2, [0], [0], [1.0])
    with pytest.raises(SingularMatrixError):
        solve_sparse(M, np.ones(2))


def test_sparse_factor_reuse():
    rng = np.random.default_rng(5)
    n = 8
    i = np.arange(n)
    M = assemble(n, n, np.r_[i, i], np.r_[i, (i + 1) % n],
                 np.r_[np.full(n, 2.0), np.full(n, 0.5)])
    factor = SparseFactor(M)
    for _ in range(3):
        rhs = rng.standard_normal(n)
        x, _ = factor.solve(rhs)
        assert np.max(np.abs(M.matvec(x) - rhs)) <= 1e-12


def test_cond2_identity():
    M = assemble(5, 5, np.arange(5), np.arange(5), np.ones(5))
    assert cond2(M) == pytest.approx(1.0, rel=1e-6)


def test_cond2_diagonal():
    M = assemble(2, 2, [0, 1], [0, 1], [10.0, 1.0])
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


def test_cond2_rejects_rectangular():
    with pytest.raises(ValueError):
        cond2(assemble(2, 3, [0], [0], [1.0]))


def test_dft_wavenumbers():
    assert np.array_equal(dft_wavenumbers(8), np.arange(-4, 4))
    assert np.array_equal(dft_wavenumbers(5), np.arange(-2, 3))


def test_dft_constant():
    c = 3.25
    coeffs = dft_y(np.full(8, c))
    ks = dft_wavenumbers(8)
    assert coeffs[ks == 0][0] == pytest.approx(c, abs=1e-13)
    assert np.max(np.abs(coeffs[ks != 0])) <= 1e-13


def test_dft_two_mode_profile():
    m = 8
    y = 2.0 * np.pi * np.arange(m) / m
    coeffs = dft_y(np.cos(2.0 * y) + 1.0)
    ks = dft_wavenumbers(m)
    for k, expected in [(-2, 0.5), (0, 1.0), (2, 0.5)]:
        assert abs(coeffs[ks == k][0] - expected) <= 1e-12
    others = np.abs(coeffs[(ks != -2) & (ks != 0) & (ks != 2)])
    assert np.max(others) <= 1e-12


def test_dft_round_trip():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(13)
    back = idft_y(dft_y(v))
    assert np.max(np.abs(back - v)) <= 1e-12
    assert np.max(np.abs(back.imag)) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=48))
def test_dft_parseval(values):
    v = np.asarray(values)
    coeffs = dft_y(v)
    lhs = float(np.sum(v ** 2)) / v.size
    rhs = float(np.sum(np.abs(coeffs) ** 2))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=48))
def test_dft_round_trip_property(values):
    v = np.asarray(values)
    back = idft_y(dft_y(v))
    assert np.max(np.abs(back - v)) <= 1e-12 * max(1.0, np.max(np.abs(v)))
