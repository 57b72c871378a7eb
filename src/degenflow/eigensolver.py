"""First eigenpair of the weighted p-Laplacian with zero boundary values.

The eigenvalue is the minimum over nonzero fields vanishing on the
boundary of

    R(u) = integral(omega * |grad u|**p) / integral(omega * |u|**p),

computed with the same discrete energy the evolution operator derives from,
so eigenpairs satisfy apply_plaplacian(u) + lam * omega * |u|**(p-2) * u = 0
at the discrete level.  Minimization is preconditioned nonlinear conjugate
gradients on the vector of interior node values, through the interior face
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
resolution**4 and resolution**3.  The transform runs on numpy's real FFT
of each row's odd extension, which numpy loads with itself, so it adds
no import to a tensor eigensolve.  The search direction is the
Polak-Ribiere+ combination of the preconditioned gradient with the
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

from .banded import BandPattern, FactorError
from .banded import _spla_on_access as __getattr__  # noqa: F401  resolves spla
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
from .plap_operator import FaceFlux, energy_hessian_matrix, face_operator

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


def _normalize(values, qw):
    # unit mass: the quadrature integral of the field is 1
    scale = quadrature_sum(qw, values)
    if not np.isfinite(scale) or scale == 0.0:
        raise ConvergenceError("eigensolver iterate collapsed to zero")
    return values / scale


def _dst_rows(x, ext):
    """Minus the type-I sine transform of each row of x, unnormalized as
    scipy's dst(type=1): the imaginary part of the real FFT of the row's
    odd extension (0, x, 0, -reversed x), written into ext, an
    (m, 2 (m + 1)) buffer whose columns 0 and m + 1 stay zero.  Passes are
    applied in pairs, so their signs cancel exactly and none is negated."""
    m = x.shape[1]
    ext[:, 1 : m + 1] = x
    ext[:, m + 2 :] = -x[:, ::-1]
    return np.fft.rfft(ext, axis=1).imag[:, 1 : m + 1]


def _dst2(x, ext):
    """Type-I sine transform of the m x m array x along both axes, as
    scipy's dstn(x, type=1): a row pass of the transpose transforms the
    columns, then a row pass of its transpose the rows, and the two passes'
    signs cancel."""
    return _dst_rows(_dst_rows(x.T, ext).T, ext)


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
    ext = np.zeros((m, 2 * (m + 1)))

    def solve(x):
        y = _dst2(s * x.reshape(m, m), ext)
        return (s * _dst2(y / eig, ext)).ravel()

    return solve


def check_tol(tol):
    """Raise ConfigError unless the residual target tol lies in (0, 1): a
    target of 0 or below is never met, and one of 1 or more is met by the
    start, which is no eigenfunction."""
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"eigensolver tol must lie in (0, 1), got {tol}", keys=("tol",))


def smallest_eigenpair(grid, weight, p, tol=None):
    """Principal Dirichlet eigenpair by preconditioned Polak-Ribiere+
    conjugate gradients on the Rayleigh quotient, with restart.

    The preconditioner is the sine-transform solve S L0^{-1} S on tensor
    grids and the band Cholesky factor of the interior p = 2 Hessian on
    interval and radial grids.  The start is the flat interior field after
    three preconditioner solves.  Each line search halves tau from 1 until R
    decreases, then tries the minimizer tau* of the quadratic through
    R(0), R'(0) = -(p / M) <g, d> and R(tau), M the p-mass of the iterate,
    g the Euler-Lagrange residual and d the direction; the point at tau*
    is kept when 0 < tau* <= 4 tau and R is lower there.  tol defaults to
    1e-6 at p = 2 and 1e-4 otherwise, and must lie in (0, 1) (check_tol).
    The eigenfunction has unit mass: its integral over the domain is 1.

    Returns an EigenPair whose residual is || L u + lam w |u|^{p-2} u || /
    || lam w |u|^{p-2} u || over the interior nodes, with the residual of
    every iterate, the restart count, the number of quotient evaluations
    and the number of kept interpolation steps.  Raises ConvergenceError with
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
    measure = vol * w
    qw = quad_weights(grid).ravel()[grid.interior]

    x = np.ones(len(w))
    # a few smoothing solves bend the flat start toward the ground mode
    for _ in range(3):
        x = solve(measure * x)
        x /= np.abs(x).max()
    x = _normalize(np.abs(x), qw)

    evals = 0

    def quotient(x):
        # R(x), the p-mass of x >= 0 and the FaceFlux of x, which gives the
        # energy in R and the operator in the next residual
        nonlocal evals
        evals += 1
        # x >= 0, so x**(p-1) * x is its p-th power; numpy squares at p = 3
        mass = float(np.sum(measure * x ** (p - 1.0) * x))
        if mass <= 0.0:
            raise ConfigError("Rayleigh quotient of a field with zero weighted p-norm")
        flux = FaceFlux(op, x, p)
        return float(p * flux.energy() / mass), mass, flux

    def point(x, step, tau):
        # the folded, normalized iterate x + tau * step, its R, p-mass and
        # FaceFlux, or R = inf when that iterate is zero
        try:
            trial = _normalize(np.abs(x + tau * step), qw)
            return (trial, *quotient(trial))
        except (ConvergenceError, ConfigError):
            return None, np.inf, None, None

    def pair(lam, x, res, its):
        return EigenPair(lam, grid.scatter(x), res, its, p, history, restarts, evals,
                         interpolated)

    r_val, m_val, flux = quotient(x)
    best = (r_val, x, np.inf, 0)
    history = []
    restarts = interpolated = 0
    for it in range(1, MAX_ITERATIONS + 1):
        zero_order = r_val * w * x ** (p - 2.0) * x
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

        tau = 1.0
        for _ in range(40):
            trial, r_trial, m_trial, flux = point(x, step, tau)
            if r_trial <= r_val + 1e-15 * abs(r_val):
                break
            flux = None
            tau *= 0.5
        else:
            break
        # one interpolation step: the minimizer of the quadratic through
        # R(0), R'(0) = -(p / M) <g, d> and R(tau), kept if R is lower there
        slope = -p / m_val * float(np.sum(g * step))
        curvature = (r_trial - r_val - slope * tau) / tau**2
        tau_q = -slope / (2.0 * curvature) if curvature > 0.0 else np.inf
        if tau_q <= 4.0 * tau:
            trial_q, r_q, m_q, flux_q = point(x, step, tau_q)
            if r_q < r_trial:
                trial, r_trial, m_trial, flux = trial_q, r_q, m_q, flux_q
                interpolated += 1
            flux_q = None
        x, r_val, m_val = trial, r_trial, m_trial

    lam, bx, res, its = best
    raise ConvergenceError(
        f"eigensolver stalled at residual {res:.3e} (target {tol:.1e}) "
        f"after {its} accepted iterations",
        best=pair(lam, bx, res, its),
        residual=res,
        iterations=its,
    )
