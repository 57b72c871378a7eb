"""Discrete weighted p-Laplacian in flux form, with its energy and reactions.

The operator is defined as the exact negative gradient of a discrete
energy, taken in the inner product weighted by the finite-volume node
measures.  In 1d modes the energy is the midpoint-rule value of
(1/p) * integral of omega * |u'|**p, with the flux omega*|u'|**(p-2)*u'
living on half-nodes.  On tensor grids each face carries the full face
gradient magnitude: the normal difference plus the tangential derivative
averaged from the two neighboring centered differences.  The energy is the
symmetrized face form

    (1/(2p)) * sum over faces of c_F * omega_F * |G_F|**p,

which is convex for p >= 2, so implicit steps inherit the energy-decay
inequality.  apply_plaplacian is the analytic gradient of exactly this
energy; no separately discretized divergence is involved.

An optional regularization eps_reg replaces |G| by sqrt(|G|**2 + eps**2).
The default is 0 and every solver output reports the value used.
"""

from __future__ import annotations

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


def reaction_eval(spec, x, t, u):
    """Evaluate f(x, t, u); u may be an array.  x is accepted for interface
    uniformity, the built-in families are space-independent."""
    if t < 0.0:
        raise ConfigError(f"reaction time must be nonnegative, got {t}")
    u = np.asarray(u, dtype=float)
    if spec.family == REACTION_NONE:
        return np.zeros_like(u)
    return _coefficient(spec, t) * np.abs(u) ** (spec.sigma - 1.0) * u


def reaction_derivative(spec, x, t, u):
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


def _face_weights_1d(grid, weight):
    """Face quadrature weights c_f and face weight values."""
    x = grid.axes[0]
    h = grid.h[0]
    mid = 0.5 * (x[:-1] + x[1:])
    if weight is None:
        wf = np.ones(mid.shape)
    else:
        wf = eval_radial(weight, np.abs(mid))
    if grid.mode == MODE_RADIAL:
        c = surface_area(grid.dim) * mid ** (grid.dim - 1) * h
    else:
        c = np.full(mid.shape, h)
    return c, wf


def _tensor_face_data(grid, weight, axis):
    """Per-face quadrature weight and weight value along one axis."""
    x, y = grid.axes
    hx, hy = grid.h
    twx = np.full(len(x), hx)
    twx[0] = twx[-1] = hx / 2.0
    twy = np.full(len(y), hy)
    twy[0] = twy[-1] = hy / 2.0
    if axis == 0:
        fx = 0.5 * (x[:-1] + x[1:])
        c = hx * twy[None, :] * np.ones((len(fx), 1))
        rad = np.hypot(fx[:, None], y[None, :])
    else:
        fy = 0.5 * (y[:-1] + y[1:])
        c = hy * twx[:, None] * np.ones((1, len(fy)))
        rad = np.hypot(x[:, None], fy[None, :])
    wf = np.ones(rad.shape) if weight is None else eval_radial(weight, rad)
    return c, wf


def _nodal_deriv(v, h, axis):
    return np.gradient(v, h, axis=axis, edge_order=1)


def _nodal_deriv_adjoint(w, h, axis):
    """Adjoint (plain transpose) of _nodal_deriv as a linear map."""
    w = np.moveaxis(w, axis, -1)
    out = np.zeros_like(w)
    inv2 = 1.0 / (2.0 * h)
    inv = 1.0 / h
    out[..., 2:] += w[..., 1:-1] * inv2
    out[..., :-2] -= w[..., 1:-1] * inv2
    out[..., 0] -= w[..., 0] * inv
    out[..., 1] += w[..., 0] * inv
    out[..., -1] += w[..., -1] * inv
    out[..., -2] -= w[..., -1] * inv
    return np.moveaxis(out, -1, axis)


def _tensor_face_fields(v, grid, axis):
    """Normal difference a and averaged tangential derivative b on faces."""
    hx, hy = grid.h
    if axis == 0:
        a = (v[1:, :] - v[:-1, :]) / hx
        dy = _nodal_deriv(v, hy, axis=1)
        b = 0.5 * (dy[:-1, :] + dy[1:, :])
    else:
        a = (v[:, 1:] - v[:, :-1]) / hy
        dx = _nodal_deriv(v, hx, axis=0)
        b = 0.5 * (dx[:, :-1] + dx[:, 1:])
    return a, b


def energy(u, weight, p, eps_reg=0.0):
    """Discrete diffusion energy (1/p) * integral of omega * |grad u|**p."""
    _check_p(p)
    grid = u.grid
    v = u.values
    e2 = eps_reg * eps_reg
    if grid.mode != MODE_TENSOR2D:
        c, wf = _face_weights_1d(grid, weight)
        g = np.diff(v) / grid.h[0]
        s = g * g + e2
        return float(np.sum(c * wf * s ** (p / 2.0)) / p)
    total = 0.0
    for axis in range(2):
        c, wf = _tensor_face_data(grid, weight, axis)
        a, b = _tensor_face_fields(v, grid, axis)
        s = a * a + b * b + e2
        total += np.sum(c * wf * s ** (p / 2.0))
    return float(total / (2.0 * p))


def _s_pow(s, expo):
    """s**expo with the convention 0**negative = 0 (flux vanishes there)."""
    if expo >= 0.0:
        return s**expo
    out = np.zeros_like(s)
    mask = s > 0.0
    out[mask] = s[mask] ** expo
    return out


def _energy_gradient(v, grid, weight, p, eps_reg):
    """Analytic gradient of energy() with respect to the nodal values."""
    e2 = eps_reg * eps_reg
    if grid.mode != MODE_TENSOR2D:
        h = grid.h[0]
        c, wf = _face_weights_1d(grid, weight)
        g = np.diff(v) / h
        s = g * g + e2
        flux = c * wf * _s_pow(s, (p - 2.0) / 2.0) * g
        grad = np.zeros_like(v)
        grad[1:] += flux / h
        grad[:-1] -= flux / h
        return grad

    hx, hy = grid.h
    grad = np.zeros_like(v)
    for axis, h_n, h_t in ((0, hx, hy), (1, hy, hx)):
        c, wf = _tensor_face_data(grid, weight, axis)
        a, b = _tensor_face_fields(v, grid, axis)
        s = a * a + b * b + e2
        coef = 0.5 * c * wf * _s_pow(s, (p - 2.0) / 2.0)
        ga = coef * a
        gb = coef * b
        if axis == 0:
            grad[1:, :] += ga / h_n
            grad[:-1, :] -= ga / h_n
            spread = np.zeros_like(v)
            spread[:-1, :] += 0.5 * gb
            spread[1:, :] += 0.5 * gb
            grad += _nodal_deriv_adjoint(spread, h_t, axis=1)
        else:
            grad[:, 1:] += ga / h_n
            grad[:, :-1] -= ga / h_n
            spread = np.zeros_like(v)
            spread[:, :-1] += 0.5 * gb
            spread[:, 1:] += 0.5 * gb
            grad += _nodal_deriv_adjoint(spread, h_t, axis=0)
    return grad


def apply_plaplacian(u, weight, p, eps_reg=0.0):
    """div(omega * |grad u|**(p-2) * grad u) at the nodes, zero on Dirichlet
    nodes.  Equals minus the energy gradient in the cell-volume inner
    product, exactly at the discrete level."""
    _check_p(p)
    grid = u.grid
    grad = _energy_gradient(u.values, grid, weight, p, eps_reg)
    out = -grad / cell_volumes(grid)
    out[grid.boundary_mask] = 0.0
    return Field(grid, out)


def variational_dot(grid, a, b):
    """Inner product sum(vol * a * b) matching the operator's gradient
    structure: <apply_plaplacian(u), v> = -d/d eps energy(u + eps v)."""
    return float(np.sum(cell_volumes(grid) * a * b))


def _face_difference_matrix(m, h):
    return sp.diags_array([-np.full(m - 1, 1.0 / h), np.full(m - 1, 1.0 / h)],
                          offsets=[0, 1], shape=(m - 1, m)).tocsr()


def _face_average_matrix(m):
    return sp.diags_array([np.full(m - 1, 0.5), np.full(m - 1, 0.5)],
                          offsets=[0, 1], shape=(m - 1, m)).tocsr()


def _nodal_derivative_matrix(m, h):
    d = sp.lil_array((m, m))
    inv2 = 1.0 / (2.0 * h)
    for j in range(1, m - 1):
        d[j, j - 1] = -inv2
        d[j, j + 1] = inv2
    d[0, 0] = -1.0 / h
    d[0, 1] = 1.0 / h
    d[m - 1, m - 2] = -1.0 / h
    d[m - 1, m - 1] = 1.0 / h
    return d.tocsr()


def energy_hessian_matrix(grid, weight):
    """Exact Hessian of the p=2 energy as a sparse matrix over all nodes.

    This is the stiffness matrix of the weighted linear diffusion; it serves
    as the p=2 operator matrix, the Newton Jacobian at p=2, and the
    preconditioner for the eigensolver.
    """
    if grid.mode != MODE_TENSOR2D:
        m = grid.shape[0]
        c, wf = _face_weights_1d(grid, weight)
        d = _face_difference_matrix(m, grid.h[0])
        return (d.T @ sp.diags_array(c * wf) @ d).tocsr()

    nx, ny = grid.shape
    hx, hy = grid.h
    k = sp.csr_array((grid.n_nodes, grid.n_nodes))
    for axis in range(2):
        c, wf = _tensor_face_data(grid, weight, axis)
        cw = sp.diags_array((c * wf).ravel())
        if axis == 0:
            a_mat = sp.kron(_face_difference_matrix(nx, hx), sp.eye_array(ny))
            b_mat = sp.kron(_face_average_matrix(nx), sp.eye_array(ny)) @ sp.kron(
                sp.eye_array(nx), _nodal_derivative_matrix(ny, hy)
            )
        else:
            a_mat = sp.kron(sp.eye_array(nx), _face_difference_matrix(ny, hy))
            b_mat = sp.kron(sp.eye_array(nx), _face_average_matrix(ny)) @ sp.kron(
                _nodal_derivative_matrix(nx, hx), sp.eye_array(ny)
            )
        k = k + 0.5 * (a_mat.T @ cw @ a_mat) + 0.5 * (b_mat.T @ cw @ b_mat)
    return k.tocsr()


def face_coefficients(grid, weight):
    """Face quadrature weight times face weight value, c_F * omega_F.

    One array per axis, in the face order of face_difference_matrix.  The
    values depend only on (grid, weight), so a caller that linearizes
    repeatedly computes them once.
    """
    if grid.mode != MODE_TENSOR2D:
        c, wf = _face_weights_1d(grid, weight)
        return [c * wf]
    return [c * wf for c, wf in (_tensor_face_data(grid, weight, axis) for axis in range(2))]


def face_difference_matrix(grid):
    """Sparse map A from nodal values to normal differences on every face.

    Rows are the faces of all axes in turn, each axis raveled in C order;
    columns are the nodes.
    """
    if grid.mode != MODE_TENSOR2D:
        return _face_difference_matrix(grid.shape[0], grid.h[0])
    nx, ny = grid.shape
    hx, hy = grid.h
    return sp.vstack([
        sp.kron(_face_difference_matrix(nx, hx), sp.eye_array(ny)),
        sp.kron(sp.eye_array(nx), _face_difference_matrix(ny, hy)),
    ]).tocsr()


def face_conductance(u, face_coef, p, linearization="newton", eps_reg=0.0):
    """Face conductances kappa of the flux-linearized Jacobian.

    The linearized stiffness is K = A^T diag(kappa) A with A from
    face_difference_matrix, and diffusion_jacobian is -K divided by the
    cell volumes.  face_coef is face_coefficients(grid, weight).  "newton"
    takes the slope of the flux in the normal difference, with the
    tangential part of the face gradient frozen on tensor grids; "picard"
    takes the lagged coefficient |G|**(p-2).
    """
    grid = u.grid
    v = u.values
    e2 = eps_reg * eps_reg
    if grid.mode != MODE_TENSOR2D:
        fields, half = [(np.diff(v) / grid.h[0], 0.0)], 1.0
    else:
        fields, half = [_tensor_face_fields(v, grid, axis) for axis in range(2)], 0.5
    kappa = []
    for cw, (a, b) in zip(face_coef, fields):
        s = a * a + b * b + e2
        if linearization == "newton":
            slope = _s_pow(s, (p - 4.0) / 2.0) * ((p - 1.0) * a * a + b * b + e2)
        else:
            slope = _s_pow(s, (p - 2.0) / 2.0)
        kappa.append((half * cw * slope).ravel())
    return np.concatenate(kappa)


def diffusion_jacobian(u, weight, p, linearization="newton", eps_reg=0.0):
    """Sparse approximation of d(apply_plaplacian)/du over all nodes.

    Exact in 1d modes (and everywhere at p = 2).  On tensor grids for p > 2
    the tangential part of the face gradient is frozen, which keeps the
    matrix at the compact stencil; the damped Newton loop tolerates the
    mismatch and falls back to Picard when it does not.

    linearization "picard" drops the (p-1) flux-slope factor and uses the
    lagged-coefficient matrix omega * |G|**(p-2) instead.

    This is the reference form, -K / cell volumes with K assembled here as a
    sparse product.  The time stepper solves the same linearization in the
    symmetric form V + dt K on the interior nodes, assembled once per run
    from face_conductance, and never calls this function.
    """
    _check_p(p)
    grid = u.grid
    if p == 2.0:
        k = energy_hessian_matrix(grid, weight)
    else:
        a = face_difference_matrix(grid)
        kappa = face_conductance(u, face_coefficients(grid, weight), p, linearization, eps_reg)
        k = a.T @ sp.diags_array(kappa) @ a
    inv_vol = sp.diags_array(1.0 / cell_volumes(grid).ravel())
    return (-(inv_vol @ k)).tocsr()
