"""Discrete weighted p-Laplacian in flux form, with its energy and reactions.

The operator is defined as the exact negative gradient of a discrete
energy, taken in the inner product weighted by the finite-volume node
measures.  One formulation serves every grid mode.  Each face F carries a
coefficient cw_F = c_F * omega_F (quadrature weight times face weight
value) and a face gradient G_F = (M_1 u, ..., M_k u)_F given by sparse face
matrices M_k, built once per (grid, weight) by face_operator and stored
stacked, all k of them as one k*F x N matrix:

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

import numpy as np
import scipy.sparse as sp

from .discretization import (
    MODE_RADIAL,
    MODE_TENSOR2D,
    Field,
    cell_volumes,
)
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


def _difference(m, h):
    """(m - 1) x m forward difference (v[i + 1] - v[i]) / h."""
    inv = np.full(m - 1, 1.0 / h)
    return sp.diags_array([-inv, inv], offsets=[0, 1], shape=(m - 1, m))


def _average(m):
    """(m - 1) x m mean of neighboring values."""
    half = np.full(m - 1, 0.5)
    return sp.diags_array([half, half], offsets=[0, 1], shape=(m - 1, m))


def _centered(m, h):
    """m x m nodal derivative, the stencil of np.gradient(edge_order=1):
    centered inside, one-sided at both ends."""
    lower = np.full(m - 1, -0.5 / h)
    upper = np.full(m - 1, 0.5 / h)
    lower[-1] = -1.0 / h
    upper[0] = 1.0 / h
    main = np.zeros(m)
    main[0], main[-1] = -1.0 / h, 1.0 / h
    return sp.diags_array([lower, main, upper], offsets=[-1, 0, 1])


@dataclass(frozen=True, eq=False)
class FaceOperator:
    """Face coefficients and the stacked face matrix of one (grid, weight).

    cw holds c_F * omega_F per face (times 1/2 on tensor grids).  matrix is
    the k*F x N CSR matrix of all k face matrices M_k stacked, the normal
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
    matrix: sp.csr_array
    transpose: sp.csr_array
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
        matrix = _difference(len(x), h)
    else:
        x, y = grid.axes
        hx, hy = grid.h
        eye_x, eye_y = sp.eye_array(len(x)), sp.eye_array(len(y))
        # normal spacing times the trapezoid weight of the tangential node
        twx = np.full(len(x), hx)
        twx[0] = twx[-1] = hx / 2.0
        twy = np.full(len(y), hy)
        twy[0] = twy[-1] = hy / 2.0
        c = 0.5 * np.concatenate([np.tile(hx * twy, len(x) - 1),
                                  np.repeat(hy * twx, len(y) - 1)])
        fx = 0.5 * (x[:-1] + x[1:])
        fy = 0.5 * (y[:-1] + y[1:])
        rad = np.concatenate([
            np.hypot(fx[:, None], y[None, :]).ravel(),
            np.hypot(x[:, None], fy[None, :]).ravel(),
        ])
        # CSR throughout: no COO intermediate to convert and sort
        matrix = sp.vstack([sp.kron(_difference(len(x), hx), eye_y, format="csr"),
                            sp.kron(eye_x, _difference(len(y), hy), format="csr"),
                            sp.kron(_average(len(x)), _centered(len(y), hy), format="csr"),
                            sp.kron(_centered(len(x), hx), _average(len(y)), format="csr")],
                           format="csr")
    cw = c if weight is None else c * eval_radial(weight, rad)
    matrix, vol = sp.csr_array(matrix), cell_volumes(grid)
    if interior:
        matrix, vol = matrix[:, grid.interior], vol.ravel()[grid.interior]
    transpose = matrix.T.tocsr()
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
        which keeps the matrix at the compact stencil of A; the damped
        Newton loop tolerates the mismatch."""
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
    """Exact Hessian of the p=2 energy, sum_k M_k^T diag(cw) M_k, as a
    sparse matrix over all nodes or, with interior, over the interior nodes.

    This is the stiffness matrix of the weighted linear diffusion; it serves
    as the p=2 operator matrix and, over the interior, as the Newton matrix
    at p=2 and the 1d eigensolver preconditioner.
    """
    op = face_operator(grid, weight, interior)
    cw = sp.diags_array(np.tile(op.cw, op.matrix.shape[0] // op.cw.size))
    return (op.transpose @ cw @ op.matrix).tocsr()
