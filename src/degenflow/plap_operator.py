"""Discrete weighted p-Laplacian in flux form, with its energy and reactions.

The operator is defined as the exact negative gradient of a discrete
energy, taken in the inner product weighted by the finite-volume node
measures.  One formulation serves every grid mode.  Each face F carries a
coefficient cw_F = c_F * omega_F (quadrature weight times face weight
value) and a face gradient G_F = (M_1 u, ..., M_k u)_F given by sparse face
matrices M_k, built once per (grid, weight) by face_operator and stored
stacked, all k of them as one k*F x N matrix in scipy's CSR arrays (a Csr),
built by numpy from 1-d stencils; its products run scipy's compiled kernels
(banded.sparsetools), with no scipy.sparse import:

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
separately discretized divergence is involved.  A FaceFlux holds one
state's face gradient, from which its operator, energy and face
conductances are all computed.

No transpose is stored.  The stacked matrix's CSR arrays are the CSC arrays
of its transpose, so the gradient's products with M_k^T are one csc_matvec
on them, which sums each node's terms from zero in increasing face order.
Every Hessian is sum_r M[r]^T kappa_r M[r] over some of the stacked rows r:
over all of them with kappa = cw for the p = 2 energy, over the F rows of
the normal difference with the face conductances for the p > 2 Newton
matrix.  hessian_map gives both as one sparse map from kappa to the lower
entries, built once per operator.
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
            raise ConfigError(f"unknown reaction family {self.family!r}", keys=("reaction",))
        if self.family != REACTION_NONE and not self.sigma > 1.0:
            raise ConfigError(f"reaction exponent sigma must exceed 1, got {self.sigma}",
                              keys=("sigma",))
        for name in ("alpha0", "c6"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"reaction coefficient {name} must be nonnegative",
                                  keys=(name,))

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
    for a vector x is their CSR product, and for a C-ordered array x of
    vectors as columns, each column's by the same sums."""

    rows: int
    cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __matmul__(self, x):
        if x.ndim == 2:
            y = np.zeros((self.rows, x.shape[1]))
            sparsetools.csr_matvecs(self.rows, self.cols, x.shape[1], *self[2:], x.ravel(),
                                    y.ravel())
            return y
        y = np.zeros(self.rows)
        sparsetools.csr_matvec(*self, x, y)
        return y

    @classmethod
    def symmetric(cls, data, row, col, n):
        """The Csr of the symmetric n x n matrix whose entries on and below
        the diagonal are data at (row, col), each row's columns sorted."""
        upper = row > col
        key = np.concatenate([row * n + col, col[upper] * n + row[upper]])
        order = np.argsort(key)
        rows, cols = np.divmod(key[order], n)
        return cls(n, n, np.searchsorted(rows, np.arange(n + 1)).astype(np.int32),
                   cols.astype(np.int32), np.concatenate([data, data[upper]])[order])


def _stack(stencils, columns, n):
    """The Csr of the rows of the stencils, an iterable, stacked, over n
    columns restricted to the sorted ones listed in columns, renumbered in
    that order.  Each stencil's int64 columns are renumbered to int32 as it
    arrives, by map, as a loop variable would keep the last ones alive
    while the next are built."""
    new = np.full(n, -1, dtype=np.int32)
    new[columns] = np.arange(len(columns))
    cols, vals = zip(*map(lambda stencil: (new[stencil[0]], stencil[1]), stencils))
    rows = np.concatenate([np.count_nonzero(c >= 0, axis=1).astype(np.int32) for c in cols])
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(rows, out=indptr[1:])
    # concatenated, then masked: a two-pass fill into preallocated arrays cost 30x eigensolve faults
    cols = np.concatenate([c.ravel() for c in cols])
    keep = cols >= 0
    cols = cols[keep]
    vals = np.concatenate([v.ravel() for v in vals])
    return Csr(len(rows), len(columns), indptr, cols, vals[keep])


@dataclass(frozen=True, eq=False)
class FaceOperator:
    """Face coefficients and the stacked face matrix of one (grid, weight).

    cw holds c_F * omega_F per face (times 1/2 on tensor grids).  matrix is
    the k*F x N Csr of all k face matrices M_k stacked, the normal
    difference A in the first F rows, and the only matrix stored: its CSR
    arrays are the CSC arrays of its transpose, whose product
    FaceFlux.divergence takes by scipy's csc_matvec.  Faces are ordered
    axis by axis, each axis raveled in C order; columns are the raveled
    nodes.  vol holds the cell volumes of the grid, in its shape.  The
    interior operator restricts matrix to the columns of the interior nodes
    and vol to their entries, as a vector: it describes the states that
    vanish on the Dirichlet nodes by their interior values, and a FaceFlux
    works on it unchanged.
    """

    cw: np.ndarray
    matrix: Csr
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
        stencils = (_kron(a, b) for a, b in (
            (_two_point(nx, -1.0 / hx, 1.0 / hx), eye_y),
            (eye_x, _two_point(ny, -1.0 / hy, 1.0 / hy)),
            (_two_point(nx, 0.5, 0.5), _centered(ny, hy)),
            (_centered(nx, hx), _two_point(ny, 0.5, 0.5))))
    cw = c if weight is None else c * eval_radial(weight, rad)
    vol = cell_volumes(grid)
    matrix = _stack(stencils, grid.interior if interior else np.arange(vol.size), vol.size)
    if interior:
        vol = vol.ravel()[grid.interior]
    # every caller of the cache gets these same arrays
    for values in (cw, vol, matrix.data):
        values.flags.writeable = False
    return FaceOperator(cw, matrix, vol)


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


def face_squares(op, values):
    """FaceFlux's face gradient g on op and s = sum_k g_k**2 of values, a
    raveled state or raveled states as the columns of an array."""
    g = (op.matrix @ values).reshape(-1, op.cw.size, *values.shape[1:])
    s = g[0] * g[0]
    for row in g[1:]:
        s += row * row
    return g, s


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
        self.g, self.s = face_squares(op, values.ravel())

    def _flux_coefficient(self):
        """The flux coefficient cw * s**((p-2)/2) of each face."""
        return self.op.cw * _s_pow(self.s, (self.p - 2.0) / 2.0)

    def divergence(self):
        """sum_k M_k^T (cw * s**((p-2)/2) * g_k) divided by minus the cell
        volumes, in the shape of op.vol; Dirichlet nodes are not zeroed.  The
        sum is the transpose's product, by csc_matvec on matrix's arrays."""
        m = self.op.matrix
        grad = np.zeros(m.cols)
        flux = (self._flux_coefficient() * self.g).ravel()
        sparsetools.csc_matvec(m.cols, m.rows, *m[2:], flux, grad)
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


@functools.lru_cache(maxsize=8)
def hessian_map(op, rows):
    """The lower entries of sum_r M[r]^T kappa_r M[r] over the first rows
    rows r of op's stacked face matrix M, as their positions (row, col),
    sorted by row and then column, and the Csr map from kappa to their
    values, each the sum of M[r, i] * M[r, j] * kappa_r in increasing r.
    Built once per (op, rows), op compared by identity; the cache keeps at
    most eight maps."""
    m = op.matrix
    ptr = m.indptr[: rows + 1]
    idx, val = m.indices[: ptr[-1]].astype(np.intp), m.data[: ptr[-1]]
    # each entry a of a row pairs with the entries b <= a of that row, whose
    # columns are sorted, so a's column is the larger; the pairs come in
    # increasing r and a stable sort keeps that order within an entry
    start = np.repeat(ptr[:-1], np.diff(ptr))
    pairs = np.arange(len(idx)) - start + 1
    a = np.repeat(np.arange(len(idx)), pairs)
    b = start[a] + np.arange(len(a)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    key = idx[a] * m.cols + idx[b]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    row, col = np.divmod(key[first], m.cols)
    face = np.repeat(np.arange(rows, dtype=np.int32), np.diff(ptr))
    terms = Csr(len(first), rows, np.append(first, len(key)).astype(np.int32), face[a][order],
                (val[a] * val[b])[order])
    # every caller of the cache gets these same arrays
    for values in (row, col, *terms[2:]):
        values.flags.writeable = False
    return row, col, terms


def energy_hessian_matrix(grid, weight, interior=False):
    """Exact Hessian of the p=2 energy, sum_k M_k^T diag(cw) M_k, over all
    nodes or, with interior, over the interior nodes, as its entries on and
    below the diagonal (data, row, col), sorted by row and then column.

    This is the stiffness matrix of the weighted linear diffusion; it serves
    as the p=2 operator matrix and, over the interior, as the 1d eigensolver
    preconditioner.  Its values are hessian_map's map over all k*F stacked
    rows applied to cw repeated k times."""
    op = face_operator(grid, weight, interior)
    row, col, terms = hessian_map(op, op.matrix.rows)
    return terms @ np.tile(op.cw, op.matrix.rows // op.cw.size), row, col
