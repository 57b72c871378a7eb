"""Discrete weighted p-Laplacian in flux form, with its energy and reactions.

The operator is defined as the exact negative gradient of a discrete
energy, taken in the inner product weighted by the finite-volume node
measures.  One formulation serves every grid mode.  Each face F carries a
coefficient cw_F = c_F * omega_F (quadrature weight times face weight
value) and a face gradient G_F = (M_1 u, ..., M_k u)_F given by sparse face
matrices M_k, built once per (grid, weight) by face_operator and stored
stacked, all k of them as one k*F x N matrix in scipy's CSR arrays (a Csr),
built by numpy from 1-d stencils; its products run scipy's compiled CSR
kernels (banded.sparsetools), with no scipy.sparse import:

* interval and radial grids: k = 1, M_1 = A the normal difference on the
  half-nodes, so the energy is the midpoint-rule value of
  (1/p) * integral of omega * |u'|**p;
* tensor grids: k = 2, A the normal difference and B the tangential
  derivative averaged from the two neighboring centered differences.  The
  faces of both axes are stacked and cw carries a factor 1/2, which makes
  the energy the symmetrized face form.

With s = sum_k (M_k u)**2 the energy is

    (1/p) * sum over faces of cw_F * s_F**(p/2),

which is convex for p >= 2, so implicit steps inherit the energy-decay
inequality.  Its gradient is sum_k M_k^T (cw * s**((p-2)/2) * M_k u) and
apply_plaplacian is exactly that gradient divided by the node measures; no
separately discretized divergence is involved.  The p = 2 Hessian is
sum_k M_k^T diag(cw) M_k.  A FaceFlux holds one state's face gradient, from
which its operator, energy and face conductances are all computed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .banded import sparsetools
from .discretization import MODE_RADIAL, MODE_TENSOR2D, Field, _trap_1d, cell_volumes
from .errors import ConfigError
from .weight_models import eval_radial, surface_area

REACTION_NONE = "none"
REACTION_POWER = "power"
REACTION_EXP_FORCED = "exp_forced"
_FAMILIES = (REACTION_NONE, REACTION_POWER, REACTION_EXP_FORCED)


@dataclass(frozen=True)
class ReactionSpec:
    """Reaction term f(x, t, u).  All families vanish at u = 0."""

    family: str = REACTION_NONE
    alpha0: float = 0.0
    sigma: float = 2.0
    c6: float = 0.0
    lambda1_ref: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown reaction family {self.family!r}")
        if self.family != REACTION_NONE and not self.sigma > 1.0:
            raise ConfigError(f"reaction exponent sigma must exceed 1, got {self.sigma}")
        for name in ("alpha0", "c6"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"reaction coefficient {name} must be nonnegative")

    @staticmethod
    def none():
        return ReactionSpec(REACTION_NONE)

    @staticmethod
    def power(alpha0, sigma):
        return ReactionSpec(REACTION_POWER, alpha0=alpha0, sigma=sigma)

    @staticmethod
    def exp_forced(c6, sigma, lambda1_ref):
        return ReactionSpec(
            REACTION_EXP_FORCED, c6=c6, sigma=sigma, lambda1_ref=lambda1_ref
        )


def _coefficient(spec, t):
    if spec.family == REACTION_POWER:
        return spec.alpha0
    if spec.family == REACTION_EXP_FORCED:
        return spec.c6 * np.exp(spec.lambda1_ref * spec.sigma * t)
    return 0.0


def reaction_eval(spec, t, u):
    """Evaluate f(t, u); u may be an array.  The built-in families are
    space-independent."""
    if t < 0.0:
        raise ConfigError(f"reaction time must be nonnegative, got {t}")
    u = np.asarray(u, dtype=float)
    if spec.family == REACTION_NONE:
        return np.zeros_like(u)
    return _coefficient(spec, t) * np.abs(u) ** (spec.sigma - 1.0) * u


def reaction_derivative(spec, t, u):
    """Pointwise derivative of the reaction with respect to u."""
    if t < 0.0:
        raise ConfigError(f"reaction time must be nonnegative, got {t}")
    u = np.asarray(u, dtype=float)
    if spec.family == REACTION_NONE:
        return np.zeros_like(u)
    return _coefficient(spec, t) * spec.sigma * np.abs(u) ** (spec.sigma - 1.0)


def _check_p(p):
    if not p >= 2.0:
        raise ConfigError(f"diffusion exponent p must be at least 2, got {p}")


def _two_point(m, left, right):
    """The (m - 1) x m map v -> left * v[i] + right * v[i + 1] as a stencil:
    the (columns, values) arrays of its rows, columns sorted.  At
    (-1/h, 1/h) it is the forward difference, at (1/2, 1/2) the mean."""
    cols = np.arange(m - 1)[:, None] + [0, 1]
    return cols, np.broadcast_to([left, right], cols.shape)


def _centered(m, h):
    """m x m nodal derivative, the stencil of np.gradient(edge_order=1):
    centered inside, one-sided at both ends."""
    vals = np.tile([-0.5 / h, 0.5 / h], (m, 1))
    vals[[0, -1]] = [-1.0 / h, 1.0 / h]
    return np.clip(np.arange(m)[:, None] + [-1, 1], 0, m - 1), vals


def _kron(a, b):
    """The stencil of the Kronecker product of the stencils a and b: row
    (i, j) holds columns a_i * m + b_j, m the columns of b, in sorted order."""
    (ca, va), (cb, vb) = a, b
    rows = len(ca) * len(cb)
    return ((ca[:, None, :, None] * (cb.max() + 1) + cb[None, :, None, :]).reshape(rows, -1),
            (va[:, None, :, None] * vb[None, :, None, :]).reshape(rows, -1))


class Csr(NamedTuple):
    """A sparse matrix in scipy's CSR format with int32 indices, its fields
    in the order scipy's compiled kernels (sparsetools) take them; matrix @ x
    for a vector x is their CSR product."""

    rows: int
    cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __matmul__(self, x):
        y = np.zeros(self.rows)
        sparsetools.csr_matvec(*self, x, y)
        return y


def _stack(stencils, columns, n):
    """The Csr of the rows of stencils stacked, over n columns restricted to
    the sorted ones listed in columns, renumbered in that order."""
    widths = np.concatenate([np.full(len(c), c.shape[1]) for c, _ in stencils])
    new = np.full(n, -1, dtype=np.int32)
    new[columns] = np.arange(len(columns))
    cols = new[np.concatenate([c.ravel() for c, _ in stencils])]
    keep = cols >= 0
    indptr = np.cumsum(np.r_[0, keep])[np.r_[0, np.cumsum(widths)]].astype(np.int32)
    vals = np.concatenate([v.ravel() for _, v in stencils])
    return Csr(len(widths), len(columns), indptr, cols[keep], vals[keep])


def _matmat(a, b):
    """The Csr product a @ b by scipy's compiled kernel, as scipy.sparse
    computes it: entries that sum to zero are dropped, columns unsorted."""
    nnz = sparsetools.csr_matmat_maxnnz(a.rows, b.cols, a.indptr, a.indices, b.indptr, b.indices)
    c = Csr(a.rows, b.cols, np.empty(a.rows + 1, dtype=np.int32), np.empty(nnz, dtype=np.int32),
            np.empty(nnz))
    sparsetools.csr_matmat(a.rows, b.cols, *a[2:], *b[2:], *c[2:])
    return c


@dataclass(frozen=True, eq=False)
class FaceOperator:
    """Face coefficients and the stacked face matrix of one (grid, weight).

    cw holds c_F * omega_F per face (times 1/2 on tensor grids).  matrix is
    the k*F x N Csr of all k face matrices M_k stacked, the normal
    difference A in the first F rows, and transpose its transpose, stored so
    that no call transposes.  Faces are ordered axis by axis, each axis
    raveled in C order; columns are the raveled nodes.  vol holds the cell
    volumes of the grid, in its shape.  The interior operator restricts
    matrix to the columns of the interior nodes, transpose to their rows and
    vol to their entries, as a vector: it describes the states that vanish
    on the Dirichlet nodes by their interior values, and a FaceFlux works on
    it unchanged.
    """

    cw: np.ndarray
    matrix: Csr
    transpose: Csr
    vol: np.ndarray


def face_operator(grid, weight, interior=False):
    """The FaceOperator of (grid, weight), over all nodes or, with
    interior, over grid.interior, built once and then reused; the interior
    one keeps no full matrix.  Grid and WeightSpec compare by identity and
    are frozen, so the cache key is the objects and the flag; the cache
    keeps at most eight operators."""
    return _face_operator(grid, weight, bool(interior))


@functools.lru_cache(maxsize=8)
def _face_operator(grid, weight, interior):
    if grid.mode != MODE_TENSOR2D:
        x = grid.axes[0]
        h = grid.h[0]
        mid = 0.5 * (x[:-1] + x[1:])
        if grid.mode == MODE_RADIAL:
            c = surface_area(grid.dim) * mid ** (grid.dim - 1) * h
        else:
            c = np.full(mid.shape, h)
        rad = np.abs(mid)
        stencils = [_two_point(len(x), -1.0 / h, 1.0 / h)]
    else:
        x, y = grid.axes
        hx, hy = grid.h
        # normal spacing times the trapezoid weight of the tangential node
        twx, twy = _trap_1d(len(x), hx), _trap_1d(len(y), hy)
        c = 0.5 * np.concatenate([np.tile(hx * twy, len(x) - 1),
                                  np.repeat(hy * twx, len(y) - 1)])
        fx = 0.5 * (x[:-1] + x[1:])
        fy = 0.5 * (y[:-1] + y[1:])
        rad = np.concatenate([
            np.hypot(fx[:, None], y[None, :]).ravel(),
            np.hypot(x[:, None], fy[None, :]).ravel(),
        ])
        nx, ny = len(x), len(y)
        eye_x, eye_y = ((np.arange(m)[:, None], np.ones((m, 1))) for m in (nx, ny))
        stencils = [_kron(_two_point(nx, -1.0 / hx, 1.0 / hx), eye_y),
                    _kron(eye_x, _two_point(ny, -1.0 / hy, 1.0 / hy)),
                    _kron(_two_point(nx, 0.5, 0.5), _centered(ny, hy)),
                    _kron(_centered(nx, hx), _two_point(ny, 0.5, 0.5))]
    cw = c if weight is None else c * eval_radial(weight, rad)
    vol = cell_volumes(grid)
    matrix = _stack(stencils, grid.interior if interior else np.arange(vol.size), vol.size)
    if interior:
        vol = vol.ravel()[grid.interior]
    transpose = Csr(matrix.cols, matrix.rows, np.empty(matrix.cols + 1, dtype=np.int32),
                    np.empty_like(matrix.indices), np.empty_like(matrix.data))
    sparsetools.csr_tocsc(*matrix, *transpose[2:])
    # every caller of the cache gets these same arrays
    for values in (cw, vol, matrix.data, transpose.data):
        values.flags.writeable = False
    return FaceOperator(cw, matrix, transpose, vol)


def _s_pow(s, expo):
    """s**expo with the convention 0**negative = 0 (flux vanishes there),
    and the scalar 1 for expo = 0."""
    if expo == 0.0:
        return 1.0
    if expo > 0.0:
        return s**expo
    out = np.zeros_like(s)
    mask = s > 0.0
    out[mask] = s[mask] ** expo
    return out


class FaceFlux:
    """The face gradient g = (M_1 u, ..., M_k u) of the state u = values, one
    row per face matrix from one product with the stacked matrix, and
    s = sum_k g_k**2; it describes values only while they are not changed.
    The energy and the divergence each take the one power s**((p-2)/2) of
    the flux coefficient cw * s**((p-2)/2) when called; it is not kept, as
    a copy on the flux would hold a face array alive as long as the flux."""

    def __init__(self, op, values, p):
        _check_p(p)
        self.op, self.values, self.p = op, values, p
        g = (op.matrix @ values.ravel()).reshape(-1, op.cw.size)
        s = g[0] * g[0]
        for row in g[1:]:
            s += row * row
        self.g, self.s = g, s

    def _flux_coefficient(self):
        """The flux coefficient cw * s**((p-2)/2) of each face."""
        return self.op.cw * _s_pow(self.s, (self.p - 2.0) / 2.0)

    def divergence(self):
        """sum_k M_k^T (cw * s**((p-2)/2) * g_k) divided by minus the cell
        volumes, in the shape of op.vol; Dirichlet nodes are not zeroed."""
        grad = self.op.transpose @ (self._flux_coefficient() * self.g).ravel()
        return -grad.reshape(self.op.vol.shape) / self.op.vol

    def energy(self):
        """(1/p) * sum over faces of cw * s**(p/2), taken as
        cw * s**((p-2)/2) * s: the divergence's power, which costs less
        than s**(p/2), and equal to it up to round-off."""
        return float(np.sum(self._flux_coefficient() * self.s) / self.p)

    def conductance(self):
        """Face conductances kappa = cw * s**((p-4)/2) * ((p-2) a**2 + s),
        the slope of the flux cw * s**((p-2)/2) * a in the normal difference
        a = A u (the first F rows of g); A^T diag(kappa) A is the linearized
        stiffness.  On interval and radial grids, whose face gradient is a
        alone, that is the exact energy Hessian.  On tensor grids it holds
        the tangential part B u fixed and drops the B rows' derivative,
        which keeps the matrix at the compact stencil of A; ROS2 keeps its
        order with it, and the damped Newton loop tolerates the mismatch."""
        a, p = self.g[0], self.p
        return self.op.cw * _s_pow(self.s, (p - 4.0) / 2.0) * ((p - 2.0) * a * a + self.s)


def energy(u, weight, p):
    """Discrete diffusion energy (1/p) * integral of omega * |grad u|**p."""
    return FaceFlux(face_operator(u.grid, weight), u.values, p).energy()


def apply_plaplacian(u, weight, p):
    """div(omega * |grad u|**(p-2) * grad u) at the nodes, zero on Dirichlet
    nodes.  Equals minus the energy gradient in the cell-volume inner
    product, exactly at the discrete level."""
    grid = u.grid
    out = FaceFlux(face_operator(grid, weight), u.values, p).divergence()
    out[grid.boundary_mask] = 0.0
    return Field(grid, out)


def variational_dot(grid, a, b):
    """Inner product sum(vol * a * b) matching the operator's gradient
    structure: <apply_plaplacian(u), v> = -d/d eps energy(u + eps v)."""
    return float(np.sum(cell_volumes(grid) * a * b))


def energy_hessian_matrix(grid, weight, interior=False):
    """Exact Hessian of the p=2 energy, sum_k M_k^T diag(cw) M_k, over all
    nodes or, with interior, over the interior nodes, as its entries on and
    below the diagonal (data, row, col), sorted by row and then column.

    This is the stiffness matrix of the weighted linear diffusion; it serves
    as the p=2 operator matrix and, over the interior, as the Newton matrix
    at p=2 and the 1d eigensolver preconditioner.  It is the product
    (transpose @ diag(cw)) @ matrix, summed as scipy.sparse sums it."""
    op = face_operator(grid, weight, interior)
    n = op.matrix.rows
    index = np.arange(n + 1, dtype=np.int32)
    cw = Csr(n, n, index, index[:-1], np.tile(op.cw, n // op.cw.size))
    hessian = _matmat(_matmat(op.transpose, cw), op.matrix)
    row = np.repeat(np.arange(hessian.rows), np.diff(hessian.indptr))
    order = np.lexsort((hessian.indices[: len(row)], row))
    data, row, col = hessian.data[order], row[order], hessian.indices[order].astype(np.intp)
    return data[row >= col], row[row >= col], col[row >= col]
