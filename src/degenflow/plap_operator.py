"""Discrete weighted p-Laplacian in flux form, with its energy and reactions.

The operator is defined as the exact negative gradient of a discrete
energy, taken in the inner product weighted by the finite-volume node
measures.  One formulation serves every grid mode.  Each face F carries a
coefficient cw_F = c_F * omega_F (quadrature weight times face weight
value) and a face gradient G_F = (M_1 u, ..., M_k u)_F given by sparse face
matrices M_k, built once per (grid, weight) by face_operator:

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
sum_k M_k^T diag(cw) M_k.
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
REACTION_BOUNDED_POWER = "bounded_power"
REACTION_EXP_FORCED = "exp_forced"
_FAMILIES = (REACTION_NONE, REACTION_POWER, REACTION_BOUNDED_POWER, REACTION_EXP_FORCED)


@dataclass(frozen=True)
class ReactionSpec:
    """Reaction term f(x, t, u).  All families vanish at u = 0."""

    family: str = REACTION_NONE
    alpha0: float = 0.0
    sigma: float = 2.0
    c3: float = 0.0
    c4: float = 0.0
    m: float = 2.0
    c6: float = 0.0
    lambda1_ref: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown reaction family {self.family!r}")
        if self.family != REACTION_NONE and not self.sigma > 1.0:
            raise ConfigError(f"reaction exponent sigma must exceed 1, got {self.sigma}")
        if self.family == REACTION_BOUNDED_POWER and not self.m > 1.0:
            raise ConfigError(f"forcing growth exponent m must exceed 1, got {self.m}")
        for name in ("alpha0", "c3", "c4", "c6"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"reaction coefficient {name} must be nonnegative")

    @staticmethod
    def none():
        return ReactionSpec(REACTION_NONE)

    @staticmethod
    def power(alpha0, sigma):
        return ReactionSpec(REACTION_POWER, alpha0=alpha0, sigma=sigma)

    @staticmethod
    def bounded_power(c3, c4, m, sigma):
        return ReactionSpec(REACTION_BOUNDED_POWER, c3=c3, c4=c4, m=m, sigma=sigma)

    @staticmethod
    def exp_forced(c6, sigma, lambda1_ref):
        return ReactionSpec(
            REACTION_EXP_FORCED, c6=c6, sigma=sigma, lambda1_ref=lambda1_ref
        )


def _coefficient(spec, t):
    if spec.family == REACTION_POWER:
        return spec.alpha0
    if spec.family == REACTION_BOUNDED_POWER:
        return spec.c3 + spec.c4 * t**spec.m
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
    """Face coefficients and face matrices of one (grid, weight).

    cw holds c_F * omega_F per face (times 1/2 on tensor grids),
    components the CSR face matrices with the normal difference A first,
    and transposes their transposes, stored so that no call transposes.
    Faces are ordered axis by axis, each axis raveled in C order; columns
    are the raveled nodes.  vol holds the cell volumes of the grid, in its
    shape.
    """

    cw: np.ndarray
    components: tuple
    transposes: tuple
    vol: np.ndarray


@functools.lru_cache(maxsize=8)
def face_operator(grid, weight):
    """The FaceOperator of (grid, weight), built once and then reused.

    Grid and WeightSpec compare by identity and are frozen, so the cache
    key is the pair of objects; the cache keeps at most eight of them.
    """
    if grid.mode != MODE_TENSOR2D:
        x = grid.axes[0]
        h = grid.h[0]
        mid = 0.5 * (x[:-1] + x[1:])
        if grid.mode == MODE_RADIAL:
            c = surface_area(grid.dim) * mid ** (grid.dim - 1) * h
        else:
            c = np.full(mid.shape, h)
        rad = np.abs(mid)
        components = [_difference(len(x), h)]
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
        components = [
            sp.vstack([sp.kron(_difference(len(x), hx), eye_y),
                       sp.kron(eye_x, _difference(len(y), hy))]),
            sp.vstack([sp.kron(_average(len(x)), _centered(len(y), hy)),
                       sp.kron(_centered(len(x), hx), _average(len(y)))]),
        ]
    cw = c if weight is None else c * eval_radial(weight, rad)
    components = tuple(sp.csr_array(m) for m in components)
    transposes = tuple(m.T.tocsr() for m in components)
    vol = cell_volumes(grid)
    # every caller of the cache gets these same arrays
    for values in (cw, vol, *(m.data for m in components + transposes)):
        values.flags.writeable = False
    return FaceOperator(cw, components, transposes, vol)


def _face_gradient(op, v):
    """Face gradient components M_k v and s = sum_k (M_k v)**2."""
    g = [m @ v for m in op.components]
    return g, sum(gk * gk for gk in g)


def energy(u, weight, p):
    """Discrete diffusion energy (1/p) * integral of omega * |grad u|**p."""
    _check_p(p)
    op = face_operator(u.grid, weight)
    _, s = _face_gradient(op, u.values.ravel())
    return float(np.sum(op.cw * s ** (p / 2.0)) / p)


def _s_pow(s, expo):
    """s**expo with the convention 0**negative = 0 (flux vanishes there)."""
    if expo >= 0.0:
        return s**expo
    out = np.zeros_like(s)
    mask = s > 0.0
    out[mask] = s[mask] ** expo
    return out


def apply_plaplacian(u, weight, p):
    """div(omega * |grad u|**(p-2) * grad u) at the nodes, zero on Dirichlet
    nodes.  Equals minus the energy gradient in the cell-volume inner
    product, exactly at the discrete level."""
    _check_p(p)
    grid = u.grid
    op = face_operator(grid, weight)
    g, s = _face_gradient(op, u.values.ravel())
    flux = op.cw * _s_pow(s, (p - 2.0) / 2.0)
    grad = sum(mt @ (flux * gk) for mt, gk in zip(op.transposes, g))
    out = -grad.reshape(grid.shape) / op.vol
    out[grid.boundary_mask] = 0.0
    return Field(grid, out)


def variational_dot(grid, a, b):
    """Inner product sum(vol * a * b) matching the operator's gradient
    structure: <apply_plaplacian(u), v> = -d/d eps energy(u + eps v)."""
    return float(np.sum(cell_volumes(grid) * a * b))


def energy_hessian_matrix(grid, weight):
    """Exact Hessian of the p=2 energy, sum_k M_k^T diag(cw) M_k, as a
    sparse matrix over all nodes.

    This is the stiffness matrix of the weighted linear diffusion; it serves
    as the p=2 operator matrix and the Newton Jacobian at p=2.
    """
    op = face_operator(grid, weight)
    cw = sp.diags_array(op.cw)
    return sum(mt @ cw @ m for m, mt in zip(op.components, op.transposes)).tocsr()


def face_conductance(u, weight, p):
    """Face conductances kappa of the flux-linearized Jacobian.

    The linearized stiffness is K = A^T diag(kappa) A with A the normal
    difference, the first component of face_operator(grid, weight), and
    diffusion_jacobian is -K divided by the cell volumes.  With s = |G|**2,
    kappa is the slope of the flux in the normal difference,
    kappa = cw * s**((p-4)/2) * ((p-2) (A u)**2 + s); on tensor grids the
    tangential part of G is held fixed.
    """
    op = face_operator(u.grid, weight)
    g, s = _face_gradient(op, u.values.ravel())
    return op.cw * _s_pow(s, (p - 4.0) / 2.0) * ((p - 2.0) * g[0] * g[0] + s)


def diffusion_jacobian(u, weight, p):
    """Sparse approximation of d(apply_plaplacian)/du over all nodes.

    Exact at p = 2, where it is minus the energy Hessian over the cell
    volumes, and exact for every p on interval and radial grids, whose face
    gradient is the normal difference alone.  For p > 2 it is
    -A^T diag(kappa) A / cell volumes with kappa from face_conductance.  On
    tensor grids that holds the tangential component B u fixed, which keeps
    the matrix at the compact stencil of A; the damped Newton loop tolerates
    the mismatch, and a step it cannot converge is retried with a smaller dt.

    This is the reference form.  The time stepper solves the same
    Jacobian in the symmetric form V + dt K on the interior nodes,
    assembled once per run from face_conductance, and never calls this
    function.
    """
    _check_p(p)
    grid = u.grid
    if p == 2.0:
        k = energy_hessian_matrix(grid, weight)
    else:
        op = face_operator(grid, weight)
        kappa = face_conductance(u, weight, p)
        k = op.transposes[0] @ sp.diags_array(kappa) @ op.components[0]
    inv_vol = sp.diags_array(1.0 / cell_volumes(grid).ravel())
    return (-(inv_vol @ k)).tocsr()
