"""Grids, fields, quadrature, and field CSV output."""

import numpy as np
import pytest

from degenflow import (
    ConfigError,
    Field,
    Grid,
    NumericalError,
    ShapeError,
    WeightSpec,
    build_grid,
    cell_volumes,
    integrate,
    quad_weights,
    surface_area,
    weight_on_grid,
    write_field_csv,
)
from degenflow.discretization import grid_dimension


def _node_coordinates(g):
    """Per-axis nodal coordinates broadcast to the grid shape."""
    return np.meshgrid(*g.axes, indexing="ij")


def test_interval_grid_layout():
    g = build_grid("interval", 1.0, 8)
    assert g.shape == (9,)
    assert g.h == (0.125,)
    assert g.dim == 1
    assert g.boundary_mask[0] and g.boundary_mask[-1]
    assert g.boundary_mask.sum() == 2


def test_radial_grid_layout():
    g = build_grid("radial", 2.0, 10, n=3)
    assert g.shape == (11,)
    assert g.dim == 3
    # only the outer node is Dirichlet; the origin is a symmetry point
    assert not g.boundary_mask[0]
    assert g.boundary_mask[-1]
    assert g.boundary_mask.sum() == 1


def test_tensor_grid_layout():
    g = build_grid("tensor2d", 1.0, 4)
    assert g.shape == (5, 5)
    assert g.dim == 2
    assert g.boundary_mask.sum() == 16  # full edge ring
    assert not g.boundary_mask[2, 2]


@pytest.mark.parametrize("bad", [3, 0, -1])
def test_resolution_floor(bad):
    with pytest.raises(ConfigError):
        build_grid("interval", 1.0, bad)


def test_radial_needs_dimension():
    with pytest.raises(ConfigError):
        build_grid("radial", 1.0, 8)
    with pytest.raises(ConfigError):
        build_grid("radial", 1.0, 8, n=1)


def test_unknown_mode():
    with pytest.raises(ConfigError):
        build_grid("hex", 1.0, 8)
    with pytest.raises(ConfigError):
        grid_dimension("hex")


@pytest.mark.parametrize("mode, n, dim", [
    ("interval", None, 1), ("interval", 3, 1), ("tensor2d", None, 2), ("tensor2d", 3, 2),
    ("radial", 2, 2), ("radial", 3.0, 3),
])
def test_grid_dimension_is_the_grid_rule(mode, n, dim):
    """The dimension rule is the one build_grid applies: the mode fixes it
    on interval and tensor grids, and a radial grid takes n."""
    assert grid_dimension(mode, n) == dim == build_grid(mode, 1.0, 8, n=n).dim


def test_field_shape_check():
    g = build_grid("interval", 1.0, 8)
    with pytest.raises(ShapeError):
        Field(g, np.zeros(5))


def test_quadrature_interval_polynomial():
    # trapezoid is exact on affine integrands
    g = build_grid("interval", 1.0, 16)
    f = Field(g, 2.0 * g.axes[0] + 1.0)
    assert integrate(f) == pytest.approx(2.0, rel=1e-14)


def test_quadrature_radial_measures_ball():
    # integral of 1 over B_R in R^n
    n, R = 2, 3.0
    g = build_grid("radial", R, 64, n=n)
    one = Field(g, np.ones(g.shape))
    exact = surface_area(n) * R**n / n
    assert integrate(one) == pytest.approx(exact, rel=1e-12)
    # cell volumes tile the same ball exactly
    assert cell_volumes(g).sum() == pytest.approx(exact, rel=1e-12)


def test_quadrature_tensor_separable():
    g = build_grid("tensor2d", 1.0, 32)
    x, y = _node_coordinates(g)
    f = Field(g, x * y)
    assert integrate(f) == pytest.approx(0.25, rel=1e-12)


def test_quad_weights_sum_to_measure():
    g = build_grid("interval", 2.0, 10)
    assert quad_weights(g).sum() == pytest.approx(2.0)
    g2 = build_grid("tensor2d", 2.0, 10)
    assert quad_weights(g2).sum() == pytest.approx(4.0)


def test_integrate_with_weight():
    # integral of r * r dr over [0,1] interval grid, weight |x|
    g = build_grid("interval", 1.0, 400)
    f = Field(g, g.axes[0])
    w = WeightSpec.power(1.0)
    assert integrate(f, weight=w) == pytest.approx(1.0 / 3.0, rel=1e-5)


def test_integrate_rejects_nonfinite():
    g = build_grid("interval", 1.0, 8)
    vals = np.zeros(g.shape)
    vals[3] = np.inf
    with pytest.raises(NumericalError):
        integrate(Field(g, vals))


def test_weight_on_grid_variants():
    g = build_grid("interval", 1.0, 8)
    assert np.all(weight_on_grid(None, g) == 1.0)
    arr = np.linspace(0.0, 1.0, 9)
    assert weight_on_grid(arr, g) is arr
    with pytest.raises(ShapeError):
        weight_on_grid(np.zeros(5), g)


@pytest.mark.parametrize("mode,kw", [("interval", {}), ("radial", {"n": 2}), ("tensor2d", {})])
def test_field_csv_roundtrip(tmp_path, mode, kw):
    g = build_grid(mode, 1.0, 6, **kw)
    rng = np.random.default_rng(42)
    f = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "field.csv"
    write_field_csv(f, path, header_lines=("example",))
    lines = path.read_text().splitlines()
    coords = "x,y" if mode == "tensor2d" else ("x" if mode == "interval" else "r")
    assert lines[:2] == ["# example", f"{coords},value"]
    # 17 significant digits read back to the same doubles
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    expect = [c.ravel() for c in _node_coordinates(g)] + [f.values.ravel()]
    np.testing.assert_array_equal(data, np.column_stack(expect))


@pytest.mark.parametrize("mode", ["interval", "tensor2d", "radial"])
def test_field_csv_bytes_match_per_row_format(tmp_path, mode):
    """The writer formats all values in one pass through a format string
    built from the coordinates; its bytes are those of formatting every
    row's coordinates and value with .17g."""
    g = build_grid(mode, 3.0, 6, n=2)
    vals = np.random.default_rng(2).standard_normal(g.shape).ravel()
    vals[:6] = [-0.0, 1e-300, 5e-324, 1e17, -1e17, 1e300]
    f = Field(g, vals.reshape(g.shape))
    path = tmp_path / "field.csv"
    write_field_csv(f, path, header_lines=("a = 1", "b"))
    coords = {"interval": "x", "tensor2d": "x,y", "radial": "r"}[mode]
    expected = f"# a = 1\n# b\n{coords},value\n"
    for row in zip(*(c.ravel() for c in _node_coordinates(g)), f.values.ravel()):
        expected += ",".join(f"{v:.17g}" for v in row) + "\n"
    assert path.read_bytes() == expected.encode()
