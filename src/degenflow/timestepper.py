"""Time marching for u_t = div(omega |grad u|^{p-2} grad u) + f.

The state of a run is the vector x of interior unknowns from start to
finish, and the semi-discrete system it solves is

    x' = F(t, x) = L_p x + f(x, t),

with L_p the divergence of the interior face operator
(plap_operator.face_operator with interior=True), so a step neither reads
nor writes the Dirichlet nodes, the recorded sup norm, integrals and energy
are taken from x, and only a snapshot is scattered into a Field, exactly
0.0 on the Dirichlet nodes.  Without a reaction term no reaction is
evaluated.

run_simulation advances it by ROS2 (Verwer, Spee, Blom & Hundsdorfer,
SIAM J. Sci. Comput. 1999), a two-stage linearly implicit W-method.  With
gamma = 1 + 1/sqrt(2) and M the Newton matrix below at gamma * dt,

    M k1 = V F(t, x)
    M k2 = V (F(t + dt, x + dt k1) - 2 k1)
    x_new = x + 1.5 dt k1 + 0.5 dt k2.

It is L-stable, and of order 2 whatever matrix stands in for the Jacobian
(Steihaug & Wolfbrandt, Math. Comp. 1979), so one band factorization
serves both stages, and the frozen-tangential matrix of tensor grids at
p > 2 serves as it is.  The embedded first-order state x + dt k1 gives the
step's error e = ||0.5 dt (k1 + k2)||_inf / ||x_new||_inf.  A step is
accepted when e <= LTE_TOL, and the next dt is
dt min(2, 0.9 sqrt(LTE_TOL / e)), at least 0.2 dt after a rejection; a
matrix that is not positive definite halves dt.  dt never drops below
DT_MIN, but for the last step onto t_end.  F(t, x) and f'(x) are taken
once per state and reused across rejected attempts.

step_implicit is one backward-Euler step, the solution v of

    v - u_old - dt * (L_p v + f(x, t + dt, v)) = 0,

by damped Newton to a residual of NEWTON_TOL times the state's scale; the
property tests check its energy decrease, maximum principle and comparison
ordering step by step.  Each Newton update factors a fresh matrix at the
current iterate and solves

    (V + dt K - dt V f') delta = -V r,

which is (I - dt J - dt f') delta = -r multiplied by V into symmetric form,
with V the interior cell volumes and K the interior stiffness: the matrix
of _NewtonSystem, built once per run and factored by band Cholesky
(banded module).  It is positive definite whenever dt f' < 1 at every
interior node, and it stays so along the branch of solutions continued
from the current state up to a fold, past which there is no solution to
find, so a matrix that is not positive definite (FactorError) fails the
step.  At p > 2 the Newton system keeps the FaceFlux of the last interior
vector evaluated, so a state's matrix, recorded energy and rate share one
FaceFlux; at p = 2 none is built.

run_simulation classifies the outcome as completed, decayed, or blown up,
by the rules its docstring lists in the order it applies them.  Blow-up
can never be observed literally on a finite grid, so those rules are
operational: a sup-norm cap, a ramping failure at DT_MIN, a proven bracket
on the blow-up time (BlowupBracket), or a steady state that certifies the
flow's eventual kind.  bisect_dichotomy brackets the amplitude that
separates decay from blow-up, by runs it is handed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .banded import BandPattern, FactorError
from .banded import _spla_on_access as __getattr__  # noqa: F401  resolves spla
from .diagnostics import EARLY_FACTOR, _line_fit, bernoulli_time
from .discretization import MODE_TENSOR2D, Field, weight_on_grid
from .errors import ConfigError, NumericalError
from .jsonio import write_json
from .plap_operator import (
    REACTION_POWER,
    Csr,
    FaceFlux,
    ReactionSpec,
    face_operator,
    face_squares,
    hessian_map,
    reaction_derivative,
    reaction_eval,
)

KIND_COMPLETED = "Completed"
KIND_DECAYED = "Decayed"
KIND_BLOWUP = "BlowUp"
# run_simulation's end at the fit window: BlowUp with no tail fit
_FIT_WINDOW = "fit window"

_CSV_COLUMNS = ("t", "dt", "sup_abs_u", "mass", "g", "energy")

NEWTON_MAX = 30  # Newton iterations per backward-Euler step
NEWTON_TOL = 1e-10  # its residual tolerance, relative to the state's scale
# ROS2's diagonal coefficient, which makes it L-stable
GAMMA = 1.0 + 1.0 / math.sqrt(2.0)
# relative margin around a certificate U, far wider than U's solve error
CERTIFICATE_MARGIN = 1e-4
# an attempt that fails at DT_MIN ends the run; a sup norm of CAP_FACTOR times
# the initial sup (CAP_FACTOR for zero data) is blow-up
DT_MIN = 1e-12
CAP_FACTOR = 1e8
# the bound on a run step's relative error estimate
LTE_TOL = 2e-2
# a run ends once the proven blow-up bracket is this narrow relative to T_lo
BRACKET_REL = 1e-3
# at p = 2 a run takes the energies of at most this many recorded states in
# one batch, which holds the states and their face gradients
ENERGY_CHUNK = 64


@dataclass(frozen=True)
class ProblemSpec:
    grid: object
    weight: object
    p: float
    reaction: ReactionSpec
    initial: Field
    t_end: float
    dt0: float
    dt_max: float = 0.1  # bounds every step's dt
    snapshot_times: tuple = ()

    def __post_init__(self):
        self.check_exponents(self.p, getattr(self.weight, "theta_w", 0.0))
        self.check_schedule(self.t_end, self.dt0, self.dt_max, self.snapshot_times)
        if self.initial.grid is not self.grid:
            raise ConfigError("initial data must live on the problem grid")
        bdry = np.abs(self.initial.values[self.grid.boundary_mask])
        if bdry.size and bdry.max() > 1e-12:
            raise ConfigError("initial data must vanish on the Dirichlet boundary")

    @staticmethod
    def check_exponents(p, theta):
        """The check of p and the power weight's exponent theta."""
        if not p >= 2.0:
            raise ConfigError(f"p must be >= 2, got {p}", keys=("p",))
        if not 0.0 <= theta < p:
            raise ConfigError(f"weight exponent theta_w must lie in [0, p); got {theta} with "
                              f"p={p}", keys=("theta_w", "p"))

    @staticmethod
    def check_schedule(t_end, dt0, dt_max, snapshot_times):
        """The checks of the time schedule, which need no grid or data."""
        if not t_end > 0.0:
            raise ConfigError("t_end must be positive", keys=("t_end",))
        if not DT_MIN <= dt0 <= dt_max:
            raise ConfigError(f"need {DT_MIN:g} <= dt0 <= dt_max", keys=("dt0", "dt_max"))
        outside = [ts for ts in snapshot_times if not 0.0 <= ts <= t_end]
        if outside:
            raise ConfigError(f"snapshot time {outside[0]} outside [0, t_end = {t_end}]",
                              keys=("snapshot_times", "t_end"))

    @functools.cached_property
    def sup0(self):
        """sup |u0|, taken once per spec."""
        return float(np.abs(self.initial.values).max())

    def cap_value(self):
        return CAP_FACTOR * self.sup0 if self.sup0 > 0.0 else CAP_FACTOR


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    dt_used: list = field(default_factory=list)
    sup_abs_u: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    weighted_mass: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)

    def append(self, t, dt, sup, m, g, en):
        if self.times and t <= self.times[-1]:
            raise NumericalError("trajectory times must increase", trajectory=self)
        self.times.append(t)
        self.dt_used.append(dt)
        self.sup_abs_u.append(sup)
        self.mass.append(m)
        self.weighted_mass.append(g)
        self.energy.append(en)

    def to_csv(self, path, header_lines=()):
        """One row per recorded state, every value formatted in one pass."""
        cols = (self.times, self.dt_used, self.sup_abs_u, self.mass, self.weighted_mass,
                self.energy)
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        head = "".join(f"# {line}\n" for line in header_lines) + ",".join(_CSV_COLUMNS) + "\n"
        with open(path, "w") as fh:
            fh.write(head + row * len(self.times) % tuple(v for r in zip(*cols) for v in r))


class BlowupBracket:
    """The proven bracket [t_lo, t_hi] on the blow-up time T of the
    semi-discrete flow at p = 2 with f(u) = alpha0 |u|^(sigma-1) u, the
    unit weight and an interval or radial grid, tightened by every state
    handed to update.  Both bounds are Bernoulli blow-up times with
    C = alpha0 (diagnostics.bernoulli_time):

    - lower, from any state: K is an M-matrix and f acts node by node, so
      sup |u| grows at most like y' = alpha0 y^sigma and
      T >= t + sup^(1-sigma) / (alpha0 (sigma - 1));
    - upper, from a state u >= 0: g = sum V phi u over the probability
      weights V phi of the eigenfunction (K phi = lambda1 V phi, sum V phi
      = 1) obeys g' >= -lambda1 g + alpha0 g^sigma by Jensen's inequality
      (Kaplan, CPAM 1963), so while alpha0 g^(sigma-1) > lambda1,
      T <= t + ln(alpha0 / (alpha0 - lambda1 g^(1-sigma))) / (lambda1 (sigma - 1)).

    The upper bound holds up to the eigenpair's residual.  A trajectory of
    the flow keeps t_lo <= t_hi; a gap t_lo - t_hi > 0 proves that the
    states are not on one trajectory, and bounds the time error from
    below.  t_hi is inf until the upper bound applies."""

    def __init__(self, lambda1, alpha0, sigma):
        self.lambda1, self.alpha0, self.sigma = lambda1, alpha0, sigma
        self.t_lo, self.t_hi = 0.0, math.inf

    def update(self, t, sup, g, nonnegative):
        """Tighten the bracket by the state at time t with sup norm sup and
        weighted mass g; returns the state's own upper bound, inf where it
        does not apply."""
        if sup > 0.0:
            self.t_lo = max(self.t_lo, t + bernoulli_time(0.0, self.alpha0, self.sigma, sup))
        own = math.inf
        if nonnegative and g > 0.0:
            t_up = bernoulli_time(self.lambda1, self.alpha0, self.sigma, g)
            if t_up is not None:
                own = t + t_up
                self.t_hi = min(self.t_hi, own)
        return own

    @property
    def closed(self):
        """Whether it is consistent and at most BRACKET_REL t_lo wide."""
        return self.consistent and self.t_hi - self.t_lo <= BRACKET_REL * self.t_lo

    @property
    def consistent(self):
        """Whether t_lo <= t_hi, as on every trajectory of the flow."""
        return self.t_lo <= self.t_hi


@dataclass
class RunOutcome:
    kind: str
    trajectory: Trajectory
    t_est: float = float("nan")
    t_lo: float = float("nan")
    t_hi: float = float("nan")
    rate_fit: float = float("nan")
    steps: int = 0
    factorizations: int = 0
    rejected_attempts: int = 0
    # when the steady state certified the kind; None on a run to its end
    certified_at: float | None = None
    # the proven blow-up bracket where its bounds hold, else None
    bounds: BlowupBracket | None = None

    def payload(self):
        """The classification, blow-up estimate, decay rate, solver counts,
        final sup norm and initial weighted mass g0, as outcome.json and the
        solve summary write them, with certified_at and certificate if set.
        bounds_consistent and bounds_gap = t_lo - t_hi are those of the
        proven blow-up bracket, null where its bounds do not hold (and the
        gap null while t_hi is inf).  A run's attempts each take one
        factorization and no Newton iteration; newton_iters_total stays, as
        0, for the readers of the key."""
        traj, bounds = self.trajectory, self.bounds
        return {
            "kind": self.kind,
            "T_est": self.t_est,
            "T_lo": self.t_lo,
            "T_hi": self.t_hi,
            "rate_fit": self.rate_fit,
            "steps": self.steps,
            "newton_iters_total": 0,
            "factorizations": self.factorizations,
            "rejected_attempts": self.rejected_attempts,
            "final_sup": traj.sup_abs_u[-1] if traj.times else None,
            "g0": traj.weighted_mass[0] if traj.times else None,
            "bounds_consistent": None if bounds is None else bounds.consistent,
            "bounds_gap": None if bounds is None else bounds.t_lo - bounds.t_hi,
            **({"certified_at": self.certified_at, "certificate": "steady_state"}
               if self.certified_at is not None else {}),
        }

    def to_json(self, path, extra=None):
        """payload() with the final time and the entries of extra."""
        payload = self.payload()
        payload["final_time"] = self.trajectory.times[-1] if self.trajectory.times else None
        payload.update(extra or {})
        write_json(path, payload)


class _NewtonSystem(BandPattern):
    """Interior Newton matrix V (1 - dt f') + dt K of one (grid, weight, p),
    the rate F and the backward-Euler residual whose Jacobian the matrix
    approximates, all on the vector of interior unknowns.  A ROS2 step
    factors the matrix at gamma * dt.

    op is the grid's interior FaceOperator, face_operator(grid, weight,
    interior=True), so a FaceFlux of an interior vector is the flux of the
    state that is zero on the Dirichlet nodes, and its divergence is the
    operator at the interior nodes.  The lower-triangle pattern is the
    Jacobian's own and fixed for the run, and K's entries there are
    P @ kappa through the sparse map P = conductance_map of
    plap_operator.hessian_map, shared by every system on one operator and
    p: over the F rows of A with the face conductances kappa at p > 2, over
    all stacked rows with kappa = cw, the constant interior energy Hessian,
    at p = 2.  K = sum_r M[r]^T kappa_r M[r] with kappa >= 0 is positive
    semidefinite and V is positive, so the matrix is positive definite
    whenever dt f' < 1 at every interior node; it is always
    factored by band Cholesky, and one that is not positive definite
    raises FactorError.  The matrix is the Jacobian of the residual on
    interval and radial grids and at p = 2; on tensor grids at p > 2 it
    drops the tangential part of the flux derivative (FaceFlux.conductance),
    and Newton converges only linearly.

    The system keeps the FaceFlux of the last interior vector evaluated, by
    identity, so at p > 2 a state's recorded energy, rate and matrix share
    one face gradient.  At p = 2 no FaceFlux is built: the rate is a product
    with the stiffness, a sixth of the time of a FaceFlux and its divergence
    on a 64-cell interval and half on a 32 x 32 square (2-core x86-64 host).
    Vectors handed to it must therefore not be changed in place.
    """

    def __init__(self, grid, weight, p):
        self.grid, self.p = grid, p
        self.op = op = face_operator(grid, weight, interior=True)
        self.vol = op.vol
        self.last_flux = None
        # all stacked rows at p = 2, whose kappa is cw; the rows of A at p > 2
        row, col, self.conductance_map = hessian_map(
            op, op.matrix.rows if p == 2.0 else op.cw.size)
        super().__init__(row, col, len(self.vol))
        if p == 2.0:
            # the constant stiffness, kept whole as the Csr that rate()
            # applies and filled once as the band that matrix() scales a copy of
            k_data = self.conductance_map @ np.tile(op.cw, op.matrix.rows // op.cw.size)
            self.k_band = self.fill(k_data, 0.0)
            self.stiffness = Csr.symmetric(k_data, row, col, len(self.vol))

    def flux(self, x):
        """The FaceFlux of the interior vector x, kept until another vector
        is evaluated."""
        if self.last_flux is None or self.last_flux.values is not x:
            self.last_flux = FaceFlux(self.op, x, self.p)
        return self.last_flux

    def energies(self, states):
        """FaceFlux.energy of each interior vector in states, bit for bit;
        at p = 2 by one product of the stacked face matrix with the states
        as columns, each state's cw * s summed along a contiguous row."""
        if self.p != 2.0:
            return [self.flux(x).energy() for x in states]
        s = face_squares(self.op, np.stack(states, axis=1))[1]
        return (np.sum((self.op.cw[:, None] * s).T.copy(), axis=1) / 2.0).tolist()

    def rate(self, x, t, reaction):
        """The rate F(t, x) at the interior vector x: the FaceFlux
        divergence, which at p = 2 is minus the stiffness times x over the
        cell volumes, plus the reaction."""
        if self.p == 2.0:
            rate = -(self.stiffness @ x) / self.vol
        else:
            rate = self.flux(x).divergence()
        if reaction.family != "none":
            rate += reaction_eval(reaction, t, x)
        return rate

    def residual(self, x, x_old, t_new, dt, reaction):
        """The backward-Euler residual at the interior vector x."""
        return x - x_old - dt * self.rate(x, t_new, reaction)

    def matrix(self, x, dt, drea):
        """The system at the interior vector x with reaction slopes drea, as
        the band array that factor() takes.  At p = 2 that is dt times the
        stiffness band filled at construction, with vol * (1 - dt * drea)
        added to its diagonal row, the same bits as a fresh fill; at p > 2
        the band is filled from the conductances of the FaceFlux of x."""
        diag = self.vol * (1.0 - dt * drea)
        if self.p == 2.0:
            band = dt * self.k_band
            band[self.kd] += diag
            return band
        return self.fill(dt * (self.conductance_map @ self.flux(x).conductance()), diag)


def _count(stats, key):
    if stats is not None:
        stats[key] = stats.get(key, 0) + 1


def step_implicit(system, x_old, t, dt, spec, stats=None):
    """One backward-Euler step of the interior vector x_old from t to
    t + dt on a _NewtonSystem by damped Newton; returns the new interior
    vector.

    stats, when given, counts "newton_iters" and "factorizations".  Every
    update factors the matrix at the current iterate and takes the first
    of the steps 1, 1/2, 1/4, 1/8 along it that lowers the residual.  The
    step ends when the residual is at most NEWTON_TOL * max(sup |x_old|,
    min(1, sup |u0|)), u0 the initial data of spec.  It raises
    NumericalError on a nonfinite update, on an update none of whose steps
    lowers the residual and after NEWTON_MAX updates, and FactorError, a
    NumericalError, on a matrix that is not positive definite.
    """
    if not 0.0 < dt <= spec.dt_max:
        raise ConfigError(f"dt {dt} outside (0, {spec.dt_max}]")
    if not np.isfinite(x_old).all():
        raise NumericalError("nonfinite state entering step")

    t_new = t + dt
    scale = max(float(np.abs(x_old).max()), min(1.0, spec.sup0))
    tol = NEWTON_TOL * scale
    reaction = spec.reaction
    x = x_old
    r = system.residual(x, x_old, t_new, dt, reaction)
    rnorm = np.abs(r).max()
    for _ in range(NEWTON_MAX):
        _count(stats, "newton_iters")
        if rnorm <= tol:
            return x
        drea = reaction_derivative(reaction, t_new, x) if reaction.family != "none" else 0.0
        _count(stats, "factorizations")
        delta = system.solve(system.factor(system.matrix(x, dt, drea)), -system.vol * r)
        if not np.isfinite(delta).all():
            raise NumericalError("nonfinite Newton update")
        for damping in (1.0, 0.5, 0.25, 0.125):
            trial = x + damping * delta
            tr = system.residual(trial, x_old, t_new, dt, reaction)
            tnorm = np.abs(tr).max()
            if np.isfinite(tnorm) and tnorm < rnorm:
                x, r, rnorm = trial, tr, tnorm
                break
        else:
            raise NumericalError(f"stalled at residual {rnorm:.2e} (tol {tol:.2e})")
    if rnorm <= tol:
        return x
    raise NumericalError(f"no convergence in {NEWTON_MAX} iterations "
                         f"(residual {rnorm:.2e}, tol {tol:.2e})")


def _step_field(u, t, dt, spec, stats=None):
    """step_implicit of the Field u on a Newton system of its own, returned
    as a Field; the package exports it as step_implicit."""
    system = _NewtonSystem(u.grid, spec.weight, spec.p)
    x = step_implicit(system, u.values.ravel()[u.grid.interior], t, dt, spec, stats)
    return u.grid.scatter(x)


def _fit_exponential_rate(times, sups, sup0):
    """Decay rate alpha from log sup = c - alpha t on a mid-decay window."""
    t = np.asarray(times)
    s = np.asarray(sups)
    ok = (s > 1e-7 * sup0) & (s < 1e-2 * sup0) & (s > 0.0)
    if ok.sum() < 5:
        ok = s > 0.0
        ok[: len(s) // 2] = False
    if ok.sum() < 2:
        return float("nan")
    coef, _ = _line_fit(t[ok], np.log(s[ok]))
    return float(-coef[1])


def certificate_holds(spec):
    """Whether a steady state U certifies the runs of spec: p = 2 with a
    power reaction, alpha0 > 0 (without it there is no positive steady
    state and no blow-up), on an interval or radial grid, whose two-point
    fluxes make K an M-matrix, so that the semi-discrete flow keeps data
    below U below it and data above it above.  The verdict is one on that
    flow, so no condition on the steps enters."""
    return (spec.reaction.family == REACTION_POWER and spec.reaction.alpha0 > 0.0
            and spec.p == 2.0 and spec.grid.mode != MODE_TENSOR2D)


def run_simulation(spec, eigenpair=None, certificate=None, fit_window=False):
    """March to t_end by ROS2 with error control; classify the outcome.

    The trajectory's g column is integral(omega * u0 * u) when an eigenpair
    is supplied and integral(omega * u) otherwise.  The state is the
    interior vector x throughout; only snapshots are scattered into Fields.
    The last step lands on t_end, shorter than DT_MIN if less is left.

    The first of these rules that holds at a recorded state, t = 0
    included, ends the run:

    1. the bracket closes: BlowUp, T_est the tail fit clamped into it;
    2. with fit_window, the state passes the fit window: BlowUp, no T_est;
    3. sup |x| reaches spec.cap_value(): BlowUp;
    4. sup |x| falls below 1e-8 sup |u0|: Decayed, with a fitted rate;
    5. the certificate gives x a kind: that kind at certified_at, no time or rate.

    An attempt that fails at DT_MIN, by its error or its factorization,
    ends the run as BlowUp if the last recorded sup norms (at least 3, at
    most 10) strictly increase, and raises NumericalError otherwise; at
    sigma >= 3 with no bracket this rule, not the cap, ends blow-ups.  A
    run that reaches t_end is Completed.  A blow-up that rule 1 or 2 did not
    end reports the tail fit (estimate_blowup_time), clamped into the
    bracket where that is consistent and T_hi finite.

    The bracket, the outcome's bounds, is a BlowupBracket tightened by
    every recorded state where certificate_holds, the weight is the unit
    one and an eigenpair is supplied.  It closes where it is consistent and
    at most BRACKET_REL T_lo wide; an inconsistent one never ends a run.
    blowup-scan sets fit_window on the runs it only fits C on; a state
    passes the fit window when it is nonnegative, keeps the bracket
    consistent, has g > EARLY_FACTOR g(0) and an upper bound of its own at
    most t_end.  g only grows from there (alpha0 g^(sigma-1) > lambda1), so
    diagnostics.fit_bernoulli_constant has every state it reads, but the
    tail is too short for a fit.

    certificate, a steady state U as a Field for which certificate_holds
    (else ConfigError), gives a state at most (1 - CERTIFICATE_MARGIN - dev)
    U at every interior node Decayed, and one at least (1 +
    CERTIFICATE_MARGIN + dev) U BlowUp.  dev bounds the deviation |y - x| / U
    of the semi-discrete flow y from the data from the recorded state x,
    taking each step's error estimate as its local error: a step adds its
    estimate relative to U, and a deviation w <= dev U grows at most at the
    rate max(f'(xi) - f(U) / U) over the nodes, xi at most the larger state
    plus dev U, because K U = V f(U), K is an M-matrix and f acts node by
    node.  dev is 0 at t = 0 and ends certification at 1.  So a verdict is
    the eventual kind of the flow from the data: run in full, the run may
    still be Completed at t_end.  At p = 2 the energies are taken
    ENERGY_CHUNK states at a time (_NewtonSystem.energies), all before the
    trajectory is handed out.
    """
    grid = spec.grid
    reaction = spec.reaction
    idx = grid.interior
    wvals = weight_on_grid(spec.weight, grid)
    gweight = wvals if eigenpair is None else wvals * eigenpair.eigenfunction.values
    cap = spec.cap_value()
    decay_floor = 1e-8 * spec.sup0

    traj = Trajectory()
    system = _NewtonSystem(grid, spec.weight, spec.p)
    vol = system.vol
    # integrate's node weights for the g column at the interior nodes
    vol_g = vol * gweight.ravel()[idx]

    bounds = None
    if certificate_holds(spec) and spec.weight is None and eigenpair is not None:
        bounds = BlowupBracket(eigenpair.eigenvalue, reaction.alpha0, reaction.sigma)

    if certificate is not None:
        if not certificate_holds(spec):
            raise ConfigError("a steady state certifies runs only at p = 2 with alpha0 > 0 "
                              "on an interval or radial grid")
        u_cert = certificate.values.ravel()[idx]
        # f(U) / U, which is V^-1 K U / U since U is steady
        f_over_u = reaction_eval(reaction, 0.0, u_cert) / u_cert
    dev = 0.0  # the bound on |flow from the data - x| / U
    certified_at = None
    pending = sorted(set(spec.snapshot_times))

    # the recorded states whose energy is still to be taken, kept as they
    # are: ROS2 never changes a state in place
    unmeasured = []

    def take_energies():
        if unmeasured:
            traj.energy[len(traj.energy) - len(unmeasured):] = system.energies(unmeasured)
            unmeasured.clear()

    def record(t, dt, x, sup):
        # record the state x at t and return what ends the run there: a
        # kind, _FIT_WINDOW or None
        nonlocal certified_at
        g = float(vol_g @ x)
        traj.append(t, dt, sup, float(vol @ x), g, None)
        unmeasured.append(x)
        # at p > 2 the state's kept FaceFlux gives its energy at once
        if spec.p != 2.0 or len(unmeasured) == ENERGY_CHUNK:
            take_energies()
        while pending and t >= pending[0] - 1e-12:
            traj.snapshots[pending.pop(0)] = grid.scatter(x)
        if bounds is not None:
            own = bounds.update(t, sup, g, x.min() >= 0.0)
            if bounds.closed:
                return KIND_BLOWUP
            if (fit_window and bounds.consistent and own <= spec.t_end
                    and g > EARLY_FACTOR * traj.weighted_mass[0]):
                return _FIT_WINDOW
        if sup >= cap:
            return KIND_BLOWUP
        if sup < decay_floor:
            return KIND_DECAYED
        if certificate is None or dev >= 1.0:
            return None
        margin = CERTIFICATE_MARGIN + dev
        kind = (KIND_DECAYED if (x <= (1.0 - margin) * u_cert).all() else
                KIND_BLOWUP if (x >= (1.0 + margin) * u_cert).all() else None)
        certified_at = t if kind else None
        return kind

    x = spec.initial.values.ravel()[idx]
    t, dt = 0.0, spec.dt0
    factorizations = rejected = 0
    rate_x = None  # F(t, x) of the current state, with f'(x) in drea

    # a rejected attempt may overflow; its nonfinite state fails the error
    # test.  Every way out of the run takes the energies still to be taken.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            end = record(t, 0.0, x, spec.sup0)
            while end is None and t < spec.t_end - 1e-14:
                dt = min(dt, spec.dt_max, spec.t_end - t)
                # land exactly on the next snapshot time when the floor allows
                # it (min with dt_max: the float gap can overshoot it by
                # roundoff, which the snapshot pop tolerance then absorbs)
                if pending and t + dt > pending[0] - 1e-14 and pending[0] - t >= DT_MIN:
                    dt = min(pending[0] - t, spec.dt_max)
                if rate_x is None:
                    rate_x = system.rate(x, t, reaction)
                    drea = (reaction_derivative(reaction, t, x) if reaction.family != "none"
                            else 0.0)

                factorizations += 1
                try:
                    lu = system.factor(system.matrix(x, GAMMA * dt, drea))
                except FactorError:
                    shrink = 0.5
                else:
                    k1 = system.solve(lu, vol * rate_x)
                    rate_1 = system.rate(x + dt * k1, t + dt, reaction)
                    k2 = system.solve(lu, vol * (rate_1 - 2.0 * k1))
                    x_new = x + 1.5 * dt * k1 + 0.5 * dt * k2
                    sup = float(np.abs(x_new).max())
                    err = 0.5 * dt * float(np.abs(k1 + k2).max())
                    e = err / sup if err > 0.0 else 0.0
                    if e <= LTE_TOL and math.isfinite(sup):
                        if certificate is not None and dev < 1.0:
                            # a deviation w <= dev U grows at most at the rate
                            # max(f'(xi) - f(U) / U), xi between the two states
                            xi = np.maximum(np.abs(x), np.abs(x_new)) + dev * u_cert
                            growth = float((reaction_derivative(reaction, t, xi)
                                            - f_over_u).max())
                            amp = max(dt * growth, 0.0)
                            dev = ((dev * math.exp(amp) if amp < 40.0 else math.inf)
                                   + 0.5 * dt * float((np.abs(k1 + k2) / u_cert).max()))
                        t += dt
                        x, rate_x = x_new, None
                        end = record(t, dt, x, sup)
                        grow = min(2.0, 0.9 * math.sqrt(LTE_TOL / e)) if e > 0.0 else 2.0
                        dt = max(dt * grow, DT_MIN)
                        continue
                    # a nonfinite state, whose e may be anything, shrinks the most
                    shrink = (max(0.2, 0.9 * math.sqrt(LTE_TOL / e))
                              if LTE_TOL < e < math.inf and math.isfinite(sup) else 0.2)

                rejected += 1
                if dt > DT_MIN:
                    dt = max(dt * shrink, DT_MIN)
                    continue
                # a retry from the same state, t and dt would fail the same
                # way; it is blow-up if the sup norm is ramping
                tail = traj.sup_abs_u[-10:]
                if len(tail) < 3 or not np.all(np.diff(tail) > 0.0):
                    raise NumericalError("step failure at DT_MIN without blow-up signature",
                                         trajectory=traj)
                end = KIND_BLOWUP
        finally:
            take_energies()

    common = dict(steps=len(traj.times) - 1, factorizations=factorizations,
                  rejected_attempts=rejected, bounds=bounds)
    if end is None or certified_at is not None:
        return RunOutcome(end or KIND_COMPLETED, traj, certified_at=certified_at, **common)
    if end == KIND_DECAYED:
        rate = _fit_exponential_rate(traj.times, traj.sup_abs_u, spec.sup0)
        return RunOutcome(KIND_DECAYED, traj, rate_fit=rate, **common)
    if end == _FIT_WINDOW:
        return RunOutcome(KIND_BLOWUP, traj, t_lo=bounds.t_lo, t_hi=bounds.t_hi, **common)
    sigma = spec.reaction.sigma if spec.reaction.family != "none" else 2.0
    t_est, t_lo, t_hi = estimate_blowup_time(traj, sigma, t_end=spec.t_end)
    if bounds is not None and bounds.consistent and bounds.t_hi < math.inf:
        t_lo, t_hi = bounds.t_lo, bounds.t_hi
        t_est = min(max(t_est, t_lo), t_hi)
    return RunOutcome(KIND_BLOWUP, traj, t_est=t_est, t_lo=t_lo, t_hi=t_hi, **common)


def check_rel_tol(rel_tol):
    """Raise ConfigError unless rel_tol > 0 and 1 + rel_tol, the bracket
    ratio that ends a scan, exceeds 1 in floating point: at rel_tol <= 2^-53
    adjacent floats never meet it, and their midpoint rounds to an end."""
    if not rel_tol > 0.0:
        raise ConfigError("scan rel_tol must be positive", keys=("rel_tol",))
    if not 1.0 + rel_tol > 1.0:
        raise ConfigError(f"scan rel_tol must exceed 2^-53, got {rel_tol}", keys=("rel_tol",))


def bisect_dichotomy(probe, values, rel_tol, predicted=None):
    """Bracket the critical amplitude between decay and blow-up.

    probe(a) runs the problem at amplitude a and returns its RunOutcome.
    The distinct values are probed first, in increasing order.  Then, while
    the largest decayed amplitude a_lo lies below the smallest blown-up one
    a_hi and a_hi / a_lo > 1 + rel_tol, it probes A (1 + rel_tol)^(-1/2) and
    A (1 + rel_tol)^(1/2) for a predicted amplitude A, the latter moved down
    by ulps to a ratio of at most 1 + rel_tol, each while inside (a_lo,
    a_hi), and then the geometric midpoint, the square root of a_lo a_hi.
    The scan also stops on a non-monotone classification (a_lo >= a_hi)
    and on a probe that completes without decaying or blowing up.

    Returns (outcomes, bracket, undecided): every probe's RunOutcome by
    amplitude, in probe order; (a_lo, a_hi) when a_lo < a_hi, else None;
    and the probe that completed, else None.  The bracket is within
    rel_tol exactly when it is not None and undecided is None.  A rel_tol
    that check_rel_tol rejects raises ConfigError before any probe.
    """
    check_rel_tol(rel_tol)
    outcomes = {a: probe(a) for a in sorted(set(values))}
    pair = []
    if predicted is not None:
        pair = [predicted * (1.0 + rel_tol) ** -0.5, predicted * (1.0 + rel_tol) ** 0.5]
        while pair[1] / pair[0] > 1.0 + rel_tol:
            pair[1] = math.nextafter(pair[1], 0.0)
    while True:
        decayed = [a for a, oc in outcomes.items() if oc.kind == KIND_DECAYED]
        blown = [a for a, oc in outcomes.items() if oc.kind == KIND_BLOWUP]
        if not decayed or not blown or max(decayed) >= min(blown):
            return outcomes, None, None
        a_lo, a_hi = max(decayed), min(blown)
        if a_hi / a_lo <= 1.0 + rel_tol:
            return outcomes, (a_lo, a_hi), None
        pair = [a for a in pair if a_lo < a < a_hi]
        mid = pair.pop(0) if pair else math.sqrt(a_lo * a_hi)
        outcomes[mid] = probe(mid)
        if outcomes[mid].kind == KIND_COMPLETED:
            return outcomes, (a_lo, a_hi), mid


def estimate_blowup_time(traj, sigma, t_end=float("inf")):
    """Extrapolate the blow-up time from the sup-norm tail.

    Near blow-up sup|u| behaves like (T - t)^{-1/(sigma-1)}, so
    y = sup|u|^{-(sigma-1)} is asymptotically linear in t with root T.
    Fits y = a + b t on the longest strictly-growing tail (at most 25
    points), returns (T_est, T_lo, T_hi) with T_lo the last accepted time,
    T_est the root clamped to [T_lo, t_end] and T_hi = T_est plus the
    propagated standard error of the root, at most t_end.  A tail too short
    or not strictly growing yields the degenerate answer (t_last, t_last,
    t_end).  [T_lo, T_hi] measures the fit, not the time error; where
    run_simulation has a consistent BlowupBracket, it reports that bracket
    instead, with T_est clamped into it.
    """
    if not sigma > 1.0:
        raise ConfigError(f"sigma must exceed 1, got {sigma}")
    t = np.asarray(traj.times, dtype=float)
    s = np.asarray(traj.sup_abs_u, dtype=float)
    t_last = float(t[-1]) if len(t) else 0.0
    fallback = (t_last, t_last, float(t_end))
    if len(t) < 5:
        return fallback

    # longest strictly increasing positive run ending at the last sample
    k = len(s) - 1
    while k > 0 and s[k] > s[k - 1] > 0.0:
        k -= 1
    tail = slice(max(k, len(s) - 25), len(s))
    tt, ss = t[tail], s[tail]
    if len(tt) < 5:
        return fallback

    y = ss ** (-(sigma - 1.0))
    (a, b), cov = _line_fit(tt, y)
    if not b < 0.0:
        return fallback
    grad = np.array([-1.0 / b, a / (b * b)])
    stderr = float(np.sqrt(max(grad @ cov @ grad, 0.0)))
    # max and min keep their first argument when compared with NaN, so a
    # NaN root or stderr falls back to t_last or t_end
    t_est = min(max(t_last, -a / b), t_end)
    t_hi = min(t_end, t_est + stderr)
    return float(t_est), t_last, float(t_hi)
