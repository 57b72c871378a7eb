"""Uniform grids on intervals, balls, and squares, with their node measure.

Three modes share one Grid type:

* interval  -- [0, extent] with Dirichlet nodes at both ends,
* radial    -- radii [0, extent] of an n-ball; r=0 is a symmetry node and
               only the rim is Dirichlet; the node measure is the volume
               of each node's shell, the sphere surface factor included,
* tensor2d  -- [0, extent]**2 tensor grid with Dirichlet edges.

resolution counts cells per axis, so a grid has resolution+1 nodes per
axis.  cell_volumes is the package's one node measure: the operator's
variational inner product, every integral, the recorded trajectory and the
eigenfunction's normalisation all take it.  On interval and tensor grids it
is the composite trapezoid weights; on radial grids the shell volumes tile
the ball exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError
from .weight_models import eval_radial, surface_area

MODE_INTERVAL = "interval"
MODE_RADIAL = "radial"
MODE_TENSOR2D = "tensor2d"
_MODES = (MODE_INTERVAL, MODE_RADIAL, MODE_TENSOR2D)


@dataclass(frozen=True, eq=False)
class Grid:
    mode: str
    axes: tuple
    h: tuple
    dim: int
    extent: float
    boundary_mask: np.ndarray

    @property
    def shape(self):
        return tuple(len(a) for a in self.axes)

    @functools.cached_property
    def interior(self):
        """Raveled indices of the non-Dirichlet nodes: the solvers' unknowns."""
        idx = np.flatnonzero(~self.boundary_mask.ravel())
        idx.flags.writeable = False
        return idx

    def scatter(self, x):
        """The Field that is x on self.interior and exactly 0.0 elsewhere."""
        values = np.zeros(self.shape)
        values.ravel()[self.interior] = x
        return Field(self, values)

    def radius(self):
        """Distance of every node from the origin, shaped like the grid."""
        if self.mode == MODE_TENSOR2D:
            x, y = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
            return np.hypot(x, y)
        return np.abs(self.axes[0])


def grid_dimension(mode, n=None):
    """Space dimension of a grid mode: 1 on the interval, 2 on the tensor
    grid, and the integer n >= 2 that a radial grid needs."""
    if mode not in _MODES:
        raise ConfigError(f"unknown grid mode {mode!r}", keys=("mode",))
    if mode == MODE_RADIAL:
        if n is None or int(n) != n or n < 2:
            raise ConfigError("radial mode needs an integer dimension n >= 2", keys=("n",))
        return int(n)
    return 1 if mode == MODE_INTERVAL else 2


def build_grid(mode, extent, resolution, n=None):
    """Build a uniform grid with `resolution` cells per axis; n is read on
    radial grids only."""
    dim = grid_dimension(mode, n)
    if not extent > 0.0:
        raise ConfigError(f"extent must be positive, got {extent}", keys=("extent",))
    resolution = int(resolution)
    if resolution < 4:
        raise ConfigError(f"resolution must be at least 4 cells, got {resolution}",
                          keys=("resolution",))

    nodes = np.linspace(0.0, float(extent), resolution + 1)
    h = float(extent) / resolution

    axes = (nodes, nodes) if mode == MODE_TENSOR2D else (nodes,)
    # Dirichlet nodes: both ends of every axis, but only the rim of a ball
    mask = np.zeros((resolution + 1,) * len(axes), dtype=bool)
    mask[-1] = mask[..., -1] = True
    mask[0] = mask[..., 0] = mode != MODE_RADIAL
    return Grid(mode, axes, (h,) * len(axes), dim, float(extent), mask)


@dataclass(eq=False)
class Field:
    """Nodal values on a grid.  Dirichlet nodes are expected to carry the
    boundary value (zero throughout this package)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ShapeError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = vals

    def copy(self):
        return Field(self.grid, self.values.copy())


def _trap_1d(m, h):
    w = np.full(m, h)
    w[0] = w[-1] = h / 2.0
    return w


def cell_volumes(grid):
    """Finite-volume node weights: the measure of the cell each node owns,
    the trapezoid weights on interval and tensor grids."""
    if grid.mode == MODE_INTERVAL:
        return _trap_1d(grid.shape[0], grid.h[0])
    if grid.mode == MODE_TENSOR2D:
        return np.outer(_trap_1d(grid.shape[0], grid.h[0]), _trap_1d(grid.shape[1], grid.h[1]))
    r = grid.axes[0]
    h = grid.h[0]
    n = grid.dim
    lo = np.clip(r - h / 2.0, 0.0, None)
    hi = np.minimum(r + h / 2.0, grid.extent)
    return surface_area(n) * (hi**n - lo**n) / n


def weight_on_grid(spec, grid):
    """Weight values at every node: constant 1 for None, else the radial
    weight spec evaluated at the node radii."""
    if spec is None:
        return np.ones(grid.shape)
    return eval_radial(spec, grid.radius())


def integrate(field, weight=None):
    """Weighted integral of a field: its values times the weight, summed
    against the cell volumes."""
    grid = field.grid
    return quadrature_sum(cell_volumes(grid) * weight_on_grid(weight, grid), field.values)


def quadrature_sum(nodal_weights, vals):
    """integrate with its node weights, the cell volumes times the weight,
    computed once by the caller."""
    if not np.isfinite(vals).all():
        raise NumericalError("field contains non-finite values")
    return float(np.sum(nodal_weights * vals))


def _g17(values):
    return [f"{v:.17g}" for v in np.asarray(values, dtype=float).ravel().tolist()]


def write_field_csv(field, path, header_lines=()):
    """One row per node: coordinates then value.  The coordinate prefixes
    make one format string, which formats every value in one pass."""
    grid = field.grid
    if grid.mode == MODE_TENSOR2D:
        names = "x,y"
        xs, ys = (_g17(a) for a in grid.axes)
        # the rows of one x line are xi + tail[j] over the y nodes, in the
        # C order of the values; joining on xi builds them in one call
        tail = [f",{yi},%.17g\n" for yi in ys]
        rows = "".join(xi + xi.join(tail) for xi in xs)
    else:
        names = "x" if grid.mode == MODE_INTERVAL else "r"
        rows = "".join(f"{c},%.17g\n" for c in _g17(grid.axes[0]))
    head = "".join(f"# {line}\n" for line in header_lines) + f"{names},value\n"
    with open(path, "w") as fh:
        fh.write(head + rows % tuple(field.values.ravel().tolist()))
