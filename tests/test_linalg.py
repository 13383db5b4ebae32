from fractions import Fraction

import numpy as np
import pytest

from aplab.linalg import (
    ConvergenceError,
    CyclicTridiag,
    SingularMatrixError,
    SparseFactor,
    assemble,
    cond2,
    solve_cyclic,
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


def test_assemble_empty():
    M = assemble(3, 3, [], [], [])
    assert np.array_equal(M.toarray(), np.zeros((3, 3)))
    assert np.array_equal(M @ np.ones(3), np.zeros(3))


def test_assemble_sums_duplicates():
    M = assemble(3, 3, [1, 1], [1, 1], [2.0, 3.0])
    dense = M.toarray()
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
    M = assemble(4, 4, np.arange(4), np.arange(4), np.ones(4))
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
    M = assemble(n, n, rows, cols, dense)
    rhs = rng.standard_normal(n)
    x, stats = SparseFactor(M).solve(rhs)
    x_ref = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - x_ref)) <= 1e-10
    assert stats.residual_norm <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_sparse_factor_singular():
    # second row entirely zero
    M = assemble(2, 2, [0], [0], [1.0])
    with pytest.raises(SingularMatrixError):
        SparseFactor(M).solve(np.ones(2))


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
        assert np.max(np.abs(M @ x - rhs)) <= 1e-12


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
