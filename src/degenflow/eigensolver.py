"""First eigenpair of the weighted p-Laplacian with zero boundary values.

The eigenvalue is the minimum over nonzero fields vanishing on the
boundary of

    R(u) = integral(omega * |grad u|**p) / integral(omega * |u|**p),

computed with the same discrete energy the evolution operator derives from,
so eigenpairs satisfy apply_plaplacian(u) + lam * omega * |u|**(p-2) * u = 0
at the discrete level.  Minimization is preconditioned nonlinear conjugate
gradients.  On interval and radial grids the preconditioner solves the
p = 2 Hessian A^T diag(cw) A, A the difference of the face operator, by its
tridiagonal band Cholesky factor (banded module).  On tensor grids it is
P = S L0^{-1} S, with L0 the constant-coefficient interior 5-point
stiffness (4 on the diagonal, -1 to each grid neighbour) and
S = diag(omega^{-1/2}) at the interior nodes: an operator equivalent to the
weighted 5-point stiffness and the p = 2 Hessian (Faber, Manteuffel &
Parter, Adv. Appl. Math. 1990).  L0 is solved exactly by the type-I sine
transform, which diagonalizes it (Buzbee, Golub & Nielson, SIAM J. Numer.
Anal. 1970), in O(n log n) work and O(n) memory where a band factor costs
resolution**4 and resolution**3.  The search direction is
the Polak-Ribiere+ combination of the preconditioned gradient with the
previous direction, restarted from the preconditioned gradient whenever it
is not a descent direction.  Steps are backtracked until R decreases; then
one interpolation step evaluates R at the minimizer of the quadratic through
R(0), R'(0) and R(tau) and keeps that point if R is lower there.  Iterates
are folded to their absolute value, which never increases R and steers
toward the positive principal mode.  A solve whose best residual stops
improving, as it does once R moves only at round-off, ends with a
ConvergenceError.  Inner products and norms are numpy sums, not BLAS
calls, so the result does not depend on the BLAS thread count.  A weight
that vanishes on a whole region makes the Hessian singular, and one that
vanishes at an interior node of a tensor grid leaves S undefined; both
raise a FactorError, a NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # noqa: F401  unused; perfbench/tracer.py swaps this name

from .banded import BandPattern, FactorError, lower_entries
from .discretization import (
    MODE_TENSOR2D,
    Field,
    quad_weights,
    quadrature_sum,
    weight_on_grid,
    write_field_csv,
)
from .errors import ConfigError, ConvergenceError
from .jsonio import write_json
from .plap_operator import apply_plaplacian, energy, face_operator

NORMALIZE_MASS = "unit_mass"
NORMALIZE_P_NORM = "unit_p_norm"

# iterations without a new best residual after which a solve counts as
# stalled: once R moves only at round-off, steps keep being accepted
# without lowering the residual
STALL_ITERATIONS = 40
MAX_ITERATIONS = 50_000


@dataclass
class EigenPair:
    eigenvalue: float
    eigenfunction: Field
    residual: float
    iterations: int
    p: float
    normalization: str = NORMALIZE_MASS
    # residual of every iterate, the last one included, and the number of
    # iterations whose direction fell back to the preconditioned gradient
    residual_history: list = field(default_factory=list)
    restarts: int = 0
    # Rayleigh-quotient evaluations, and line searches whose interpolated
    # point was kept
    quotient_evals: int = 0
    interpolated_steps: int = 0

    def to_json(self, path):
        payload = {
            "lambda1": self.eigenvalue,
            "residual": self.residual,
            "iterations": self.iterations,
            "residual_history": list(self.residual_history),
            "restarts": self.restarts,
            "quotient_evals": self.quotient_evals,
            "interpolated_steps": self.interpolated_steps,
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


def _quotient(u, weight, p, measure):
    denom = _p_mass(measure, u.values, p)
    if denom <= 0.0:
        raise ConfigError("Rayleigh quotient of a field with zero weighted p-norm")
    return float(p * energy(u, weight, p) / denom)


def _normalize(values, qw, measure, p, normalization):
    if normalization == NORMALIZE_MASS:
        scale = quadrature_sum(qw, values)
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
    total = lap + zero_order
    num = np.sqrt(np.sum(total * total))
    den = np.sqrt(np.sum(zero_order * zero_order))
    if den == 0.0:
        return float("inf")
    return float(num / den)


def _sine_transform_solve(w):
    """x -> S L0^{-1} S x for x on the m x m interior nodes of a tensor grid
    in natural order, with L0 the constant-coefficient 5-point stiffness
    and S = diag(w^{-1/2}) for the m x m interior weights w."""
    import scipy.fft  # only tensor eigensolves need it; keeps the CLI import fast

    bad = np.flatnonzero(~(w > 0.0))
    if len(bad):
        raise FactorError(f"linear solve failed: not positive definite at column {bad[0]}")
    m = len(w)
    # the type-I sine transform diagonalizes the 1d stiffness tridiag(-1, 2, -1)
    # with eigenvalues mu_k = 2 - 2 cos(k pi / (m + 1)), k = 1..m
    mu = 2.0 - 2.0 * np.cos(np.arange(1, m + 1) * np.pi / (m + 1))
    eig = mu[:, None] + mu[None, :]
    s = 1.0 / np.sqrt(w)

    def solve(x):
        y = scipy.fft.dstn(s * x.reshape(m, m), type=1)
        return (s * scipy.fft.idstn(y / eig, type=1)).ravel()

    return solve


def smallest_eigenpair(
    grid,
    weight,
    p,
    tol=None,
    normalization=NORMALIZE_MASS,
):
    """Principal Dirichlet eigenpair by preconditioned Polak-Ribiere+
    conjugate gradients on the Rayleigh quotient, with restart.

    The preconditioner is the sine-transform solve S L0^{-1} S on tensor
    grids and the band Cholesky factor of the p = 2 Hessian on interval and
    radial grids.  The start is the flat interior field after three
    preconditioner solves.  Each line search halves tau from 1 until R
    decreases, then tries the minimizer tau* of the quadratic through
    R(0), R'(0) = -(p / M) <g, d> and R(tau), M the p-mass of the iterate,
    g the Euler-Lagrange residual and d the direction; the point at tau*
    is kept when 0 < tau* <= 4 tau and R is lower there.  tol defaults to
    1e-6 at p = 2 and 1e-4 otherwise; normalization is NORMALIZE_MASS or
    NORMALIZE_P_NORM.

    Returns an EigenPair whose residual is || L u + lam w |u|^{p-2} u || /
    || lam w |u|^{p-2} u || over all nodes, with the residual of every
    iterate, the restart count, the number of quotient evaluations and
    the number of kept interpolation steps.  Raises ConvergenceError with
    the best iterate attached when the residual target is not met: the
    line search fails, MAX_ITERATIONS are spent, or STALL_ITERATIONS pass
    without a new best residual.  Raises FactorError when the weight leaves
    the preconditioner singular or, on tensor grids, undefined.
    """
    if tol is None:
        tol = 1e-6 if p == 2.0 else 1e-4
    wvals = weight_on_grid(weight, grid)
    interior = ~grid.boundary_mask
    idx = np.flatnonzero(interior.ravel())

    op = face_operator(grid, weight)
    if grid.mode == MODE_TENSOR2D:
        solve = _sine_transform_solve(wvals[1:-1, 1:-1])
    else:
        # the p = 2 Hessian A^T diag(cw) A, tridiagonal
        a = op.components[0][:, idx]
        data, row, col = lower_entries(a.T @ sp.diags_array(op.cw) @ a)
        band = BandPattern(row, col, len(idx))
        factor = band.factor(band.fill(data, 0.0, symmetric=True))

        def solve(x):
            return band.solve(factor, x)

    vol = op.vol
    measure = vol * wvals
    qw = quad_weights(grid)

    vals = np.where(interior, 1.0, 0.0)
    # a few smoothing solves bend the flat start toward the ground mode
    for _ in range(3):
        rhs = (measure * vals).ravel()[idx]
        vals = np.zeros(grid.n_nodes)
        vals[idx] = solve(rhs)
        vals = vals.reshape(grid.shape)
        vals /= np.abs(vals).max()
    vals = _normalize(np.abs(vals), qw, measure, p, normalization)

    evals = 0

    def quotient(v):
        nonlocal evals
        evals += 1
        return _quotient(Field(grid, v), weight, p, measure)

    def point(vals, direction, tau):
        # the folded, normalized iterate vals + tau * direction and its R,
        # or R = inf when that iterate is zero
        trial = np.abs(vals + tau * direction)
        trial[grid.boundary_mask] = 0.0
        try:
            trial = _normalize(trial, qw, measure, p, normalization)
            return trial, quotient(trial)
        except (ConvergenceError, ConfigError):
            return None, np.inf

    def pair(lam, v, res, its):
        return EigenPair(lam, Field(grid, v), res, its, p, normalization, history,
                         restarts, evals, interpolated)

    r_val = quotient(vals)
    best = (r_val, vals.copy(), np.inf, 0)
    history = []
    restarts = interpolated = 0
    for it in range(1, MAX_ITERATIONS + 1):
        u = Field(grid, vals)
        lap = apply_plaplacian(u, weight, p).values
        res = _residual_norm(grid, lap, r_val, wvals, vals, p)
        history.append(res)
        if res < best[2]:
            best = (r_val, vals.copy(), res, it - 1)
        if res <= tol:
            return pair(r_val, vals, res, it - 1)
        if it - 1 - best[3] >= STALL_ITERATIONS:
            break

        # residual of the Euler-Lagrange equation in the volume inner product,
        # a descent direction of R, on the interior unknowns
        g = (vol * (lap + r_val * wvals * np.abs(vals) ** (p - 2.0) * vals)).ravel()[idx]
        pg = solve(g)
        if it == 1:
            step = pg
        else:
            # Polak-Ribiere+ conjugate direction, restarted when it is not
            # a descent direction
            beta = max(0.0, float(np.sum(g * (pg - pg_prev)) / np.sum(g_prev * pg_prev)))
            step = pg + beta * step
            if beta == 0.0 or np.sum(g * step) <= 0.0:
                step = pg
                restarts += 1
        g_prev, pg_prev = g, pg
        direction = np.zeros(grid.n_nodes)
        direction[idx] = step
        direction = direction.reshape(grid.shape)

        tau = 1.0
        for _ in range(40):
            trial, r_trial = point(vals, direction, tau)
            if r_trial <= r_val + 1e-15 * abs(r_val):
                break
            tau *= 0.5
        else:
            break
        # one interpolation step: the minimizer of the quadratic through
        # R(0), R'(0) = -(p / M) <g, d> and R(tau), kept if R is lower there
        slope = -p / _p_mass(measure, vals, p) * float(np.sum(g * step))
        curvature = (r_trial - r_val - slope * tau) / tau**2
        tau_q = -slope / (2.0 * curvature) if curvature > 0.0 else np.inf
        if tau_q <= 4.0 * tau:
            trial_q, r_q = point(vals, direction, tau_q)
            if r_q < r_trial:
                trial, r_trial = trial_q, r_q
                interpolated += 1
        vals, r_val = trial, r_trial

    lam, bv, res, its = best
    raise ConvergenceError(
        f"eigensolver stalled at residual {res:.3e} (target {tol:.1e}) "
        f"after {its} accepted iterations",
        best=pair(lam, bv, res, its),
        residual=res,
        iterations=its,
    )
