"""First eigenpair of the weighted p-Laplacian with zero boundary values.

The eigenvalue is the minimum over nonzero fields vanishing on the
boundary of

    R(u) = integral(omega * |grad u|**p) / integral(omega * |u|**p),

computed with the same discrete energy the evolution operator derives from,
so eigenpairs satisfy apply_plaplacian(u) + lam * omega * |u|**(p-2) * u = 0
at the discrete level; with the mass exponent sigma + 1 it gives the steady
state of a power reaction (steady_state), whose unstable mode, at p = 2,
inverse iteration finds (unstable_mode).  Minimization is preconditioned
nonlinear conjugate gradients on the interior node values, through the face
operator the Newton solves use as well: one FaceFlux per evaluated point
gives both its quotient (energy) and, at an accepted point, its residual
(divergence).  The eigenfunction is scattered into a Field, exactly 0.0 on
the Dirichlet nodes, once, when the EigenPair is built.  On interval and
radial grids the preconditioner solves the interior p = 2 Hessian, which is
tridiagonal there, by its band Cholesky factor (banded module).  On tensor
grids it is P = S L0^{-1} S, with L0 the constant-coefficient interior
5-point stiffness (4 on the diagonal, -1 to each grid neighbour) and
S = diag(omega^{-1/2}) at the interior nodes: an operator equivalent to the
weighted 5-point stiffness and the p = 2 Hessian (Faber, Manteuffel &
Parter, Adv. Appl. Math. 1990).  L0 is solved exactly by the type-I sine
transform, which diagonalizes it (Buzbee, Golub & Nielson, SIAM J. Numer.
Anal. 1970), in O(n log n) work and O(n) memory where a band factor costs
resolution**4 and resolution**3.  The transform is scipy's compiled
pocketfft, one in-place call over both axes, loaded by file path on the
first tensor eigensolve (banded.scipy_extension): no other command maps
it, and scipy.fft's Python layer is never imported.  The search direction
is the Polak-Ribiere+ combination of the preconditioned gradient with the
previous direction, restarted from the preconditioned gradient whenever
it is not a descent direction.  Steps are backtracked by halving until R
decreases; then one interpolation step evaluates R at the minimizer of the
quadratic through R(0), R'(0) and R(tau) and keeps that point if R is lower
there.  The first search starts at tau = 1 and each later one where the
last search's quadratic says halving from 1 would stop, so a search that
lands where the last one did pays no rejected trial (the initial step of
Nocedal & Wright, Numerical Optimization, section 3.5); a start accepted
far short of the quadratic's minimizer is doubled while R still
decreases, so a start that came out small does not stay small.  Iterates
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

import functools
from dataclasses import dataclass, field

import numpy as np

from .banded import BandPattern, FactorError, scipy_extension
from .banded import _spla_on_access as __getattr__  # noqa: F401  resolves spla
from .discretization import (
    MODE_TENSOR2D,
    Field,
    cell_volumes,
    quadrature_sum,
    weight_on_grid,
    write_field_csv,
)
from .errors import ConfigError, ConvergenceError
from .jsonio import write_json
from .plap_operator import FaceFlux, energy_hessian_matrix, face_operator

# iterations without a new best residual after which a solve counts as
# stalled: once R moves only at round-off, steps keep being accepted
# without lowering the residual
STALL_ITERATIONS = 40
MAX_ITERATIONS = 50_000
STEADY_STATE_TOL = 1e-8  # far inside timestepper.CERTIFICATE_MARGIN
MODE_TOL = 1e-10  # unstable_mode's bound on its last iterate's move


@dataclass
class EigenPair:
    eigenvalue: float
    eigenfunction: Field
    residual: float
    iterations: int
    p: float
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


def _normalize(values, vol):
    # unit mass: the integral of the field over the cell volumes is 1
    scale = quadrature_sum(vol, values)
    if not np.isfinite(scale) or scale == 0.0:
        raise ConvergenceError("eigensolver iterate collapsed to zero")
    return values / scale


def _quadratic_minimizer(r0, slope, tau, r_tau):
    """Minimizer of the quadratic through R(0) = r0, R'(0) = slope < 0 and
    R(tau) = r_tau, or inf when that quadratic is not convex."""
    curvature = (r_tau - r0 - slope * tau) / tau**2
    return -slope / (2.0 * curvature) if curvature > 0.0 else np.inf


@functools.cache
def _pocketfft():
    """scipy's compiled pocketfft, whose dst(type=1, inorm=0) is the
    unnormalized type-I sine transform along every axis, as scipy.fft.dstn."""
    return scipy_extension("fft._pocketfft", "pypocketfft")


def _sine_transform_solve(w):
    """x -> S L0^{-1} S x for x on the m x m interior nodes of a tensor grid
    in natural order, with L0 the constant-coefficient 5-point stiffness
    and S = diag(w^{-1/2}) for the m x m interior weights w."""
    bad = np.flatnonzero(~(w > 0.0))
    if len(bad):
        raise FactorError(f"linear solve failed: not positive definite at column {bad[0]}")
    m = len(w)
    # the type-I sine transform diagonalizes the 1d stiffness tridiag(-1, 2, -1)
    # with eigenvalues mu_k = 2 - 2 cos(k pi / (m + 1)), k = 1..m; applied
    # twice along both axes it scales by (2 (m + 1))**2, which the divisor
    # takes up in place of the inverse transform's normalization
    mu = 2.0 - 2.0 * np.cos(np.arange(1, m + 1) * np.pi / (m + 1))
    eig = (mu[:, None] + mu[None, :]) * (2.0 * (m + 1)) ** 2
    s = 1.0 / np.sqrt(w)
    dst = _pocketfft().dst

    def solve(x):
        y = s * x.reshape(m, m)
        dst(y, type=1, inorm=0, out=y, nthreads=1)
        y /= eig
        dst(y, type=1, inorm=0, out=y, nthreads=1)
        y *= s
        return y.ravel()

    return solve


def check_tol(tol):
    """Raise ConfigError unless the residual target tol lies in (0, 1): a
    target of 0 or below is never met, and one of 1 or more is met by the
    start, which is no eigenfunction."""
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"eigensolver tol must lie in (0, 1), got {tol}", keys=("tol",))


def smallest_eigenpair(grid, weight, p, tol=None, q=None, weighted_mass=True):
    """Principal Dirichlet eigenpair by preconditioned Polak-Ribiere+
    conjugate gradients on the Rayleigh quotient, with restart: R(u) =
    p E(u) / M(u)^(p/q) with M = sum m u^q, m = vol * w (vol when not
    weighted_mass) and q = p by default.  Its minimizer solves
    -div(w |grad u|^(p-2) grad u) = mu (m / vol) u^(q-1), mu = R M^(p/q-1).

    The preconditioner is the sine-transform solve S L0^{-1} S on tensor
    grids and the band Cholesky factor of the interior p = 2 Hessian on
    interval and radial grids.  The start is the flat interior field after
    three preconditioner solves.  Each line search halves tau from its start
    until R decreases, then tries the minimizer tau* of the quadratic through
    R(0), R'(0) = -(p / M^(p/q)) <g, d> and R(tau), M the mass of the iterate,
    g the Euler-Lagrange residual and d the direction; the point at tau*
    is kept when 0 < tau* <= 4 tau and R is lower there.  The first search
    starts at 1.  On the quadratic R(t) < R(0) exactly when t < 2 tau*, so
    after a search whose tau* was kept the next starts at
    min(1, max(tau, 2^floor(log2(2 tau*)))), the step halving from 1 would
    accept there; after any other search it starts at the accepted tau.  A
    start accepted at its first trial is doubled, up to 1, while tau* lies
    past 2 tau and R(2 tau) passes the decrease test, tau* taken again at
    each new tau, so the interpolation extrapolates at most to 2 tau.  tol
    defaults to 1e-6 at p = 2 and 1e-4 otherwise, and must lie in (0, 1)
    (check_tol).
    The eigenfunction has unit mass: its integral, sum V phi over the cell
    volumes V, is 1.

    Returns an EigenPair whose eigenvalue is R and residual || L u + mu
    (m / vol) u^{q-1} || / || mu (m / vol) u^{q-1} || over the interior
    nodes, with the residual of every iterate, the restart count, the
    number of quotient evaluations and the number of kept interpolation
    steps.  Raises ConvergenceError with
    the best iterate attached when the residual target is not met: the
    line search fails, MAX_ITERATIONS are spent, or STALL_ITERATIONS pass
    without a new best residual.  Raises FactorError when the weight leaves
    the preconditioner singular or, on tensor grids, undefined.
    """
    if tol is None:
        tol = 1e-6 if p == 2.0 else 1e-4
    check_tol(tol)
    # every vector below holds the values at the interior nodes grid.interior
    wvals = weight_on_grid(weight, grid)
    w = wvals.ravel()[grid.interior]
    if grid.mode == MODE_TENSOR2D:
        solve = _sine_transform_solve(wvals[1:-1, 1:-1])
    else:
        data, row, col = energy_hessian_matrix(grid, weight, interior=True)
        band = BandPattern(row, col, len(w))
        factor = band.factor(band.fill(data, 0.0))

        def solve(x):
            return band.solve(factor, x)

    op = face_operator(grid, weight, interior=True)
    vol = op.vol
    q = p if q is None else q
    density = w if weighted_mass else np.ones(len(w))
    measure = vol * density

    x = np.ones(len(w))
    # a few smoothing solves bend the flat start toward the ground mode
    for _ in range(3):
        x = solve(measure * x)
        x /= np.abs(x).max()
    x = _normalize(np.abs(x), vol)

    evals = 0

    def quotient(x):
        # R(x), the q-mass of x >= 0 and the FaceFlux of x, which gives the
        # energy in R and the operator in the next residual
        nonlocal evals
        evals += 1
        # x >= 0, so x**(q-1) * x is its q-th power; numpy squares at q = 3
        mass = float(np.sum(measure * x ** (q - 1.0) * x))
        if mass <= 0.0:
            raise ConfigError("Rayleigh quotient of a field with zero weighted q-norm")
        flux = FaceFlux(op, x, p)
        return float(p * flux.energy() / mass ** (p / q)), mass, flux

    def point(x, step, tau):
        # the folded, normalized iterate x + tau * step, its R, mass and
        # FaceFlux, or R = inf when that iterate is zero
        try:
            trial = _normalize(np.abs(x + tau * step), vol)
            return (trial, *quotient(trial))
        except (ConvergenceError, ConfigError):
            return None, np.inf, None, None

    def decreases(r):
        # the line search's test of a trial's R against the iterate's
        return r <= r_val + 1e-15 * abs(r_val)

    def pair(lam, x, res, its):
        return EigenPair(lam, grid.scatter(x), res, its, p, history, restarts, evals,
                         interpolated)

    r_val, m_val, flux = quotient(x)
    best = (r_val, x, np.inf, 0)
    history = []
    restarts = interpolated = 0
    tau_start = 1.0
    for it in range(1, MAX_ITERATIONS + 1):
        # mu density x^(q-1), with M^0 = 1 exactly at q = p
        zero_order = r_val * m_val ** (p / q - 1.0) * density * x ** (q - 2.0) * x
        total = flux.divergence() + zero_order
        # each flux is dropped once used, or one held through the next
        # point's build raises the peak memory
        flux = None
        den = np.sqrt(np.sum(zero_order * zero_order))
        res = float(np.sqrt(np.sum(total * total)) / den) if den else np.inf
        history.append(res)
        if res < best[2]:
            best = (r_val, x, res, it - 1)
        if res <= tol:
            return pair(r_val, x, res, it - 1)
        if it - 1 - best[3] >= STALL_ITERATIONS:
            break

        # residual of the Euler-Lagrange equation in the volume inner product,
        # a descent direction of R
        g = vol * total
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

        tau = tau_start
        for _ in range(40):
            trial, r_trial, m_trial, flux = point(x, step, tau)
            if decreases(r_trial):
                break
            flux = None
            tau *= 0.5
        else:
            break
        # one interpolation step: the minimizer of the quadratic through
        # R(0), R'(0) = -(p / M^(p/q)) <g, d> and R(tau), kept if R is lower
        slope = -p / m_val ** (p / q) * float(np.sum(g * step))
        tau_q = _quadratic_minimizer(r_val, slope, tau, r_trial)
        if tau == tau_start:
            # a start accepted at its first trial may lie far inside the
            # decrease: double it while the minimizer lies past 2 tau and
            # R(2 tau) passes the test, so the interpolation extrapolates
            # at most to 2 tau
            while tau < 1.0 and tau_q > 2.0 * tau:
                doubled = point(x, step, 2.0 * tau)
                if not decreases(doubled[1]):
                    break
                trial, r_trial, m_trial, flux = doubled
                tau *= 2.0
                tau_q = _quadratic_minimizer(r_val, slope, tau, r_trial)
            doubled = None
        kept = False
        if tau_q <= 4.0 * tau:
            trial_q, r_q, m_q, flux_q = point(x, step, tau_q)
            kept = r_q < r_trial
            if kept:
                trial, r_trial, m_trial, flux = trial_q, r_q, m_q, flux_q
                interpolated += 1
            flux_q = None
        # R(t) < R(0) on the quadratic exactly when t < 2 tau_q: after a kept
        # interpolation the next search starts at the step that halving from
        # 1 would accept there, else at tau
        tau_start = tau
        if kept:
            tau_start = min(1.0, max(tau, 2.0 ** np.floor(np.log2(2.0 * tau_q))))
        x, r_val, m_val = trial, r_trial, m_trial

    lam, bx, res, its = best
    raise ConvergenceError(
        f"eigensolver stalled at residual {res:.3e} (target {tol:.1e}) "
        f"after {its} accepted iterations",
        best=pair(lam, bx, res, its),
        residual=res,
        iterations=its,
    )


def steady_state(grid, weight, p, alpha0, sigma, tol=STEADY_STATE_TOL):
    """The positive Field U solving -div(w |grad U|^(p-2) grad U) = alpha0
    U^sigma, sigma > p - 1, zero on the boundary, to the relative residual
    tol: c v for v the minimizer at q = sigma + 1 with the mass measure vol,
    and c^(sigma - p + 1) = mu / alpha0.  tol = None takes
    smallest_eigenpair's default for p.  Raises ConvergenceError."""
    q = sigma + 1.0
    pair = smallest_eigenpair(grid, weight, p, tol=tol, q=q, weighted_mass=False)
    v = pair.eigenfunction.values
    vol = cell_volumes(grid).ravel()[grid.interior]
    mu = pair.eigenvalue * float(np.sum(vol * v.ravel()[grid.interior] ** q)) ** (p / q - 1.0)
    return Field(grid, (mu / alpha0) ** (1.0 / (sigma - p + 1.0)) * v)


def unstable_mode(state, alpha0, sigma):
    """(nu1, e): the least eigenvalue of J e = nu V e, J = K - V f'(U) at the
    p = 2, unit-weight steady state U = state of f(u) = alpha0 u^sigma, which
    is negative, and its mode e > 0 as a Field with sum V e^2 = 1.  Inverse
    iteration with the band Cholesky factor of the positive definite
    M-matrix K + V (max f'(U) - f'(U)), until an iterate moves by at most
    MODE_TOL in the max norm.  Raises ConvergenceError after MAX_ITERATIONS."""
    grid = state.grid
    data, row, col = energy_hessian_matrix(grid, None, interior=True)
    vol = cell_volumes(grid).ravel()[grid.interior]
    slope = sigma * alpha0 * state.values.ravel()[grid.interior] ** (sigma - 1.0)
    band = BandPattern(row, col, len(vol))
    factor = band.factor(band.fill(data, vol * (slope.max() - slope)))
    x = np.ones(len(vol))
    for _ in range(MAX_ITERATIONS):
        y = band.solve(factor, vol * x)
        # (A y, y) / (V y, y) with A y = V x
        nu = float(np.sum(vol * x * y) / np.sum(vol * y * y)) - slope.max()
        y /= np.sqrt(np.sum(vol * y * y))
        if np.abs(y - x).max() <= MODE_TOL:
            return nu, grid.scatter(y)
        x = y
    raise ConvergenceError(f"unstable mode not converged in {MAX_ITERATIONS} iterations")
