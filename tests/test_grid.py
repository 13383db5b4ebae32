import numpy as np
import pytest

from aplab.grid import Field2D, make_grid2d, sample


def test_make_grid2d_standard_square():
    g = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 201, 201)
    assert g.dx == pytest.approx(2.0 * np.pi / 200.0, rel=0, abs=0)
    assert g.dy == pytest.approx(2.0 * np.pi / 200.0, rel=0, abs=0)
    assert g.nx == 201 and g.ny == 201


def test_make_grid2d_centered_square():
    g = make_grid2d(-3.0, 3.0, -3.0, 3.0, 160, 160)
    assert g.dx == 6.0 / 159.0
    assert g.dy == 6.0 / 159.0


def test_make_grid2d_smallest_legal():
    g = make_grid2d(0.0, 1.0, 0.0, 1.0, 3, 3)
    assert g.dx == 0.5
    assert g.dy == 0.5


def test_make_grid2d_rejects_bad_counts_and_bounds():
    with pytest.raises(ValueError):
        make_grid2d(0.0, 1.0, 0.0, 1.0, 2, 3)
    with pytest.raises(ValueError):
        make_grid2d(0.0, 1.0, 0.0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        make_grid2d(1.0, 1.0, 0.0, 1.0, 3, 3)
    with pytest.raises(ValueError):
        make_grid2d(0.0, 1.0, 2.0, 1.0, 3, 3)
    # bounds a few ulps apart, or too far apart, give no usable spacing
    with pytest.raises(ValueError, match="spacings"):
        make_grid2d(0.0, 5e-324, 0.0, 1.0, 3, 3)
    with pytest.raises(ValueError, match="spacings"):
        make_grid2d(0.0, 1.0, -1e308, 1e308, 3, 3)


def test_node_coordinates():
    g = make_grid2d(-3.0, 3.0, 0.0, 1.0, 4, 5)
    assert np.allclose(g.x_nodes(), [-3.0, -1.0, 1.0])
    assert np.allclose(g.y_nodes(), [0.0, 0.25, 0.5, 0.75])
    assert g.lx == 6.0 and g.ly == 1.0


def test_sample_constant():
    g = make_grid2d(0.0, 1.0, 0.0, 1.0, 5, 5)
    f = sample(g, lambda x, y: 1.0)
    assert np.all(f.values == 1.0)
    assert f.values.shape == (4, 4)


def test_sample_product_mode_zero_at_origin():
    g = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 201, 201)
    f = sample(g, lambda x, y: np.sin(x) * (np.cos(2.0 * y) + 1.0))
    assert f.values[0, 0] == 0.0


def test_sample_gaussian_center_value():
    # 41 nodes put the origin exactly on a node (index 20)
    g = make_grid2d(-3.0, 3.0, -3.0, 3.0, 41, 41)
    f = sample(g, lambda x, y: np.exp(-2.0 * (x ** 2 + y ** 2)))
    assert f.values[20, 20] == 1.0


def test_sample_rejects_non_finite():
    g = make_grid2d(0.0, 1.0, 0.0, 1.0, 4, 4)
    with pytest.raises(FloatingPointError):
        sample(g, lambda x, y: x * np.nan)


def test_sample_periodic_shift_invariance():
    g = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 33, 17)

    def f_in(x, y):
        return np.sin(x) * (np.cos(2.0 * y) + 1.0)

    base = sample(g, f_in)
    shifted = sample(g, lambda x, y: f_in(x + g.lx, y + g.ly))
    assert np.allclose(base.values, shifted.values, rtol=0.0, atol=1e-12)


def test_field_shape_validation():
    g = make_grid2d(0.0, 1.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        Field2D(g, np.zeros((4, 4)))
    with pytest.raises(FloatingPointError):
        Field2D(g, np.full((3, 3), np.inf))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_rejects_a_single_non_finite_entry(bad):
    g = make_grid2d(0.0, 1.0, 0.0, 1.0, 5, 5)
    for i, j in [(0, 0), (1, 2), (3, 3)]:
        vals = np.ones((4, 4))
        vals[i, j] = bad
        with pytest.raises(FloatingPointError):
            Field2D(g, vals)


def test_field_accepts_finite_entries_whose_sum_overflows():
    g = make_grid2d(0.0, 1.0, 0.0, 1.0, 4, 4)
    vals = np.zeros((3, 3))
    vals[0, 0] = vals[2, 1] = 1e308
    with np.errstate(over="ignore"):
        f = Field2D(g, vals)
        assert f.mass() == f.values.sum() == np.inf


def test_field_mass_is_the_sum_of_its_values():
    g = make_grid2d(0.0, 1.0, 0.0, 1.0, 33, 17)
    f = Field2D(g, np.asfortranarray(np.random.default_rng(3).standard_normal((32, 16))))
    assert f.mass() == float(f.values.sum())


def test_field_values_immutable():
    g = make_grid2d(0.0, 1.0, 0.0, 1.0, 4, 4)
    f = Field2D(g, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_field_full_values_closure():
    g = make_grid2d(0.0, 1.0, 0.0, 1.0, 4, 4)
    vals = np.arange(9.0).reshape(3, 3)
    f = Field2D(g, vals)
    full = f.full_values()
    assert full.shape == (4, 4)
    assert np.array_equal(full[-1, :], full[0, :])
    assert np.array_equal(full[:, -1], full[:, 0])
    assert np.array_equal(full[:-1, :-1], vals)


def test_field_with_values():
    g = make_grid2d(0.0, 1.0, 0.0, 1.0, 4, 4)
    f = Field2D(g, np.zeros((3, 3)))
    f2 = f.with_values(np.ones((3, 3)))
    assert f2.grid is g
    assert np.all(f2.values == 1.0) and np.all(f.values == 0.0)
