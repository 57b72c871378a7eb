"""First eigenpair of the weighted p-Laplacian with zero boundary values.

The eigenvalue is the minimum over nonzero fields vanishing on the
boundary of

    R(u) = integral(omega * |grad u|**p) / integral(omega * |u|**p),

computed with the same discrete energy the evolution operator derives
from, so eigenpairs satisfy apply_plaplacian(u) + lam * omega * |u|**(p-2) * u = 0
at the discrete level.  Minimization is projected preconditioned descent:
the search direction solves the interior p = 2 stiffness system, factored
once by band Cholesky (banded module; for p = 2 the iteration reduces to
inverse power iteration), steps are backtracked until R decreases, and
iterates are folded to their absolute value, which never increases R and
steers toward the positive principal mode.  A weight that vanishes on a
whole region makes that stiffness singular, which raises a NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla  # noqa: F401  unused; perfbench/tracer.py swaps this name

from .banded import BandPattern, lower_entries
from .discretization import (
    Field,
    cell_volumes,
    integrate,
    weight_on_grid,
    write_field_csv,
)
from .errors import ConfigError, ConvergenceError
from .jsonio import write_json
from .plap_operator import apply_plaplacian, energy, energy_hessian_matrix

NORMALIZE_MASS = "unit_mass"
NORMALIZE_P_NORM = "unit_p_norm"


@dataclass
class EigenPair:
    eigenvalue: float
    eigenfunction: Field
    residual: float
    iterations: int
    p: float
    normalization: str = NORMALIZE_MASS

    def to_json(self, path):
        payload = {
            "lambda1": self.eigenvalue,
            "residual": self.residual,
            "iterations": self.iterations,
            "normalization": self.normalization,
            "p": self.p,
            "grid_mode": self.eigenfunction.grid.mode,
            "extent": self.eigenfunction.grid.extent,
        }
        write_json(path, payload)

    def to_csv(self, path):
        write_field_csv(
            self.eigenfunction,
            path,
            header_lines=(
                "eigenvalue = %.17g" % float(self.eigenvalue),
                "residual = %.17g" % float(self.residual),
                "p = %.17g" % float(self.p),
            ),
        )


def _p_mass(measure, values, p):
    # measure is cell volume times weight: the cell-volume measure keeps the
    # quotient variationally paired with apply_plaplacian, so minimizers
    # solve the nodewise eigenequation
    return float(np.sum(measure * np.abs(values) ** p))


def _quotient(u, weight, p, eps_reg, measure):
    denom = _p_mass(measure, u.values, p)
    if denom <= 0.0:
        raise ConfigError("Rayleigh quotient of a field with zero weighted p-norm")
    return float(p * energy(u, weight, p, eps_reg) / denom)


def rayleigh_quotient(u, weight, p, eps_reg=0.0):
    """R(u) = p * energy(u) / integral(omega |u|^p).  Raises on zero field."""
    measure = cell_volumes(u.grid) * weight_on_grid(weight, u.grid)
    return _quotient(u, weight, p, eps_reg, measure)


def _normalize(values, grid, measure, p, normalization):
    if normalization == NORMALIZE_MASS:
        scale = integrate(Field(grid, values))
    elif normalization == NORMALIZE_P_NORM:
        scale = _p_mass(measure, values, p) ** (1.0 / p)
    else:
        raise ConfigError(f"unknown normalization {normalization!r}")
    if not np.isfinite(scale) or scale == 0.0:
        raise ConvergenceError("eigensolver iterate collapsed to zero")
    return values / scale


def _residual_norm(grid, lap, lam, wvals, u, p):
    zero_order = lam * wvals * np.abs(u) ** (p - 2.0) * u
    zero_order[grid.boundary_mask] = 0.0
    num = np.linalg.norm((lap + zero_order).ravel())
    den = np.linalg.norm(zero_order.ravel())
    if den == 0.0:
        return float("inf")
    return float(num / den)


def smallest_eigenpair(
    grid,
    weight,
    p,
    tol=None,
    max_iter=50_000,
    normalization=NORMALIZE_MASS,
    eps_reg=0.0,
    initial=None,
):
    """Principal Dirichlet eigenpair by preconditioned projected descent.

    Returns an EigenPair whose residual is || L u + lam w |u|^{p-2} u || /
    || lam w |u|^{p-2} u || over all nodes.  Raises ConvergenceError with
    the best iterate attached when the residual target is not met.
    """
    if tol is None:
        tol = 1e-6 if p == 2.0 else 1e-4
    wvals = weight_on_grid(weight, grid)
    interior = ~grid.boundary_mask
    idx = np.flatnonzero(interior.ravel())

    data, row, col = lower_entries(energy_hessian_matrix(grid, weight)[idx][:, idx])
    band = BandPattern(row, col, len(idx))
    factor = band.factor(band.fill(data, 0.0, symmetric=True))
    vol = cell_volumes(grid)
    measure = vol * wvals

    if initial is not None:
        vals = np.array(initial.values, dtype=float)
    else:
        vals = np.where(interior, 1.0, 0.0).astype(float)
        # a few smoothing solves bend the flat start toward the ground mode
        for _ in range(3):
            rhs = (measure * vals).ravel()[idx]
            vals = np.zeros(grid.n_nodes)
            vals[idx] = band.solve(factor, rhs)
            vals = vals.reshape(grid.shape)
            vals /= np.abs(vals).max()
    vals[grid.boundary_mask] = 0.0
    vals = np.abs(vals)
    vals = _normalize(vals, grid, measure, p, normalization)

    def quotient(v):
        return _quotient(Field(grid, v), weight, p, eps_reg, measure)

    r_val = quotient(vals)
    best = (r_val, vals.copy(), np.inf, 0)
    for it in range(1, max_iter + 1):
        u = Field(grid, vals)
        lap = apply_plaplacian(u, weight, p, eps_reg).values
        res = _residual_norm(grid, lap, r_val, wvals, vals, p)
        if res < best[2]:
            best = (r_val, vals.copy(), res, it - 1)
        if res <= tol:
            return EigenPair(r_val, Field(grid, vals), res, it - 1, p, normalization)

        # residual of the Euler-Lagrange equation in the volume inner product
        g = vol * (lap + r_val * wvals * np.abs(vals) ** (p - 2.0) * vals)
        direction = np.zeros(grid.n_nodes)
        direction[idx] = band.solve(factor, g.ravel()[idx])
        direction = direction.reshape(grid.shape)

        tau = 1.0
        accepted = False
        for _ in range(40):
            trial = vals + tau * direction
            trial = np.abs(trial)
            trial[grid.boundary_mask] = 0.0
            try:
                trial = _normalize(trial, grid, measure, p, normalization)
                r_trial = quotient(trial)
            except (ConvergenceError, ConfigError):
                tau *= 0.5
                continue
            if r_trial <= r_val + 1e-15 * abs(r_val):
                vals, r_val = trial, r_trial
                accepted = True
                break
            tau *= 0.5
        if not accepted:
            break

    lam, bv, res, its = best
    raise ConvergenceError(
        f"eigensolver stalled at residual {res:.3e} (target {tol:.1e}) "
        f"after {its} accepted iterations",
        best=EigenPair(lam, Field(grid, bv), res, its, p, normalization),
        residual=res,
        iterations=its,
    )
