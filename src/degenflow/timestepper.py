"""Implicit time marching for u_t = div(omega |grad u|^{p-2} grad u) + f.

Each step solves the backward-Euler residual

    v - u_old - dt * (L_p v + f(x, t + dt, v)) = 0

by damped Newton with a sparse flux-linearized Jacobian.  The state of a
run is the vector of interior unknowns from start to finish: Newton works
on it through the interior face operator (plap_operator.face_operator with
interior=True), so an iteration neither reads nor writes the Dirichlet
nodes, the recorded sup norm, integrals and energy are taken from it, and
only a snapshot is scattered into a Field, exactly 0.0 on the Dirichlet
nodes.  Without a reaction term the residual and the matrix evaluate no
reaction.  Every step, the linear p = 2 one included, runs the same Newton
loop and ends when the residual is at most newton_tol times
max(sup |u_old|, 1).  A step whose update cannot lower the residual fails,
and run_simulation retries it with half the dt.  Each Newton update solves

    (V + dt K - dt V f') delta = -V r,

which is (I - dt J - dt f') delta = -r multiplied by V into symmetric form,
with V the interior cell volumes and K the interior stiffness.  The
matrix's lower-triangle pattern, the map from face conductances to its
entries and the constant p = 2 stiffness are built once per run; a
factorization only refills a band array and factors it by band Cholesky
(banded module).  K is positive semidefinite, so the matrix is positive
definite whenever dt f' < 1 at every interior node, and it stays so along
the branch of solutions continued from the current state up to a fold, past
which there is no solution to find.  A matrix that is not positive definite
therefore fails the step with a FactorError, and run_simulation halves dt
as for any failed step.  Where the matrix is the exact Jacobian (interval
and radial grids, and p = 2) every iteration factors it afresh and Newton
converges quadratically.  On tensor grids at p > 2 it is
the frozen-tangential approximation, which converges only linearly however
fresh it is, so a step reuses one factor (the chord iteration) and refactors
only after a damped update or a reused factor that did not lower the
residual.  The Newton system keeps the FaceFlux of the last interior vector
evaluated, and a step returns the vector it evaluated last, so an accepted
state's residual, factor, recorded energy and next first residual share one
FaceFlux.
run_simulation wraps the stepper with proportional step-size control and
classifies the outcome as completed, decayed, or blown up.  Blow-up can
never be observed literally on a finite grid; the operational rule is a
sup-norm cap (default 1e8 times the initial sup) or a step failure at
dt_min while the sup norm is ramping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .banded import BandPattern, FactorError
from .banded import _spla_on_access as __getattr__  # noqa: F401  resolves spla
from .diagnostics import _line_fit
from .discretization import Field, quad_weights, quadrature_sum, weight_on_grid
from .errors import ConfigError, NumericalError
from .jsonio import write_json
from .plap_operator import (
    Csr,
    FaceFlux,
    ReactionSpec,
    energy_hessian_matrix,
    face_operator,
    reaction_derivative,
    reaction_eval,
)

KIND_COMPLETED = "Completed"
KIND_DECAYED = "Decayed"
KIND_BLOWUP = "BlowUp"

_CSV_COLUMNS = ("t", "dt", "sup_abs_u", "mass", "g", "energy")

NEWTON_MAX = 30  # Newton iterations per step attempt
# dt grows by GROWTH_FACTOR after a step that took at most EASY_ITERS Newton
# iterations
EASY_ITERS = 6
GROWTH_FACTOR = 1.2
# a step that multiplies sup|u| by more than this is redone with half the dt
MAX_GROWTH_PER_STEP = 1.5


@dataclass(frozen=True)
class StepControls:
    dt_min: float = 1e-12
    dt_max: float = 0.1
    u_cap: float = 0.0  # 0 means "derive from initial data"
    newton_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.dt_min <= self.dt_max:
            raise ConfigError("need 0 < dt_min <= dt_max", keys=("dt_min", "dt_max"))
        if not self.u_cap >= 0.0:
            raise ConfigError(f"u_cap must be >= 0 (0 derives it), got {self.u_cap}",
                              keys=("u_cap",))
        if not self.newton_tol > 0.0:
            raise ConfigError(f"newton_tol must be positive, got {self.newton_tol}",
                              keys=("newton_tol",))


@dataclass(frozen=True)
class ProblemSpec:
    grid: object
    weight: object
    p: float
    reaction: ReactionSpec
    initial: Field
    t_end: float
    dt0: float
    controls: StepControls = field(default_factory=StepControls)
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not self.p >= 2.0:
            raise ConfigError(f"p must be >= 2, got {self.p}")
        theta = getattr(self.weight, "theta_w", 0.0) if self.weight is not None else 0.0
        if not 0.0 <= theta < self.p:
            raise ConfigError(
                f"weight exponent theta_w must lie in [0, p); got {theta} with p={self.p}"
            )
        if self.initial.grid is not self.grid:
            raise ConfigError("initial data must live on the problem grid")
        bdry = np.abs(self.initial.values[self.grid.boundary_mask])
        if bdry.size and bdry.max() > 1e-12:
            raise ConfigError("initial data must vanish on the Dirichlet boundary")
        self.check_schedule(self.t_end, self.dt0, self.controls, self.snapshot_times)
        cap = self.cap_value()
        sup0 = float(np.abs(self.initial.values).max())
        if sup0 > 0.0 and cap <= sup0:
            raise ConfigError("u_cap must exceed sup of the initial data", keys=("u_cap",))

    @staticmethod
    def check_schedule(t_end, dt0, controls, snapshot_times):
        """The checks of the run's time schedule that need no grid or data."""
        if not t_end > 0.0:
            raise ConfigError("t_end must be positive", keys=("t_end",))
        if not controls.dt_min <= dt0 <= controls.dt_max:
            raise ConfigError("need dt_min <= dt0 <= dt_max", keys=("dt0", "dt_min", "dt_max"))
        outside = [ts for ts in snapshot_times if not 0.0 <= ts <= t_end]
        if outside:
            raise ConfigError(f"snapshot time {outside[0]} outside [0, t_end = {t_end}]",
                              keys=("snapshot_times", "t_end"))

    def cap_value(self):
        if self.controls.u_cap > 0.0:
            return self.controls.u_cap
        sup0 = float(np.abs(self.initial.values).max())
        return 1e8 * sup0 if sup0 > 0.0 else 1e8


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
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write(",".join(_CSV_COLUMNS) + "\n")
            rows = zip(
                self.times, self.dt_used, self.sup_abs_u,
                self.mass, self.weighted_mass, self.energy,
            )
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass
class RunOutcome:
    kind: str
    trajectory: Trajectory
    t_est: float = float("nan")
    t_lo: float = float("nan")
    t_hi: float = float("nan")
    rate_fit: float = float("nan")
    steps: int = 0
    newton_iters_total: int = 0
    factorizations: int = 0

    def payload(self):
        """The classification, blow-up estimate, decay rate, solver counts,
        final sup norm and initial weighted mass g0, as outcome.json and the
        solve summary write them."""
        traj = self.trajectory
        return {
            "kind": self.kind,
            "T_est": self.t_est,
            "T_lo": self.t_lo,
            "T_hi": self.t_hi,
            "rate_fit": self.rate_fit,
            "steps": self.steps,
            "newton_iters_total": self.newton_iters_total,
            "factorizations": self.factorizations,
            "final_sup": traj.sup_abs_u[-1] if traj.times else None,
            "g0": traj.weighted_mass[0] if traj.times else None,
        }

    def to_json(self, path, extra=None):
        """payload() with the final time and the entries of extra."""
        payload = self.payload()
        payload["final_time"] = self.trajectory.times[-1] if self.trajectory.times else None
        payload.update(extra or {})
        write_json(path, payload)


class _StepFailure(Exception):
    pass


class _NewtonSystem(BandPattern):
    """Interior Newton matrix V (1 - dt f') + dt K of one (grid, weight, p),
    and the backward-Euler residual whose Jacobian it approximates, both on
    the vector of interior unknowns.

    op is the grid's interior FaceOperator, face_operator(grid, weight,
    interior=True), so a FaceFlux of an interior vector is the flux of the
    state that is zero on the Dirichlet nodes, and its divergence is the
    operator at the interior nodes.  The lower-triangle pattern is the
    Jacobian's own and fixed for the run: the face-difference pattern for
    p > 2, whose entries are P @ kappa for face conductances kappa through
    the precomputed sparse map P, and the pattern of the constant interior
    energy Hessian for p = 2.  K = sum A^T diag(kappa) A with kappa >= 0 is
    positive semidefinite and V is positive, so the matrix is positive
    definite whenever dt f' < 1 at every interior node; it is always
    factored by band Cholesky, and one that is not positive definite
    raises FactorError.  exact says whether the matrix is the Jacobian of
    the residual: it is on interval and radial grids and at p = 2, but on
    tensor grids at p > 2 it drops the tangential part of the flux
    derivative (FaceFlux.conductance).

    The system keeps the FaceFlux of the last interior vector evaluated, by
    identity, so a state's residual, factor, recorded energy and next first
    residual share one face gradient.  Vectors handed to it must therefore
    not be changed in place.
    """

    def __init__(self, grid, weight, p):
        self.grid, self.p = grid, p
        self.op = op = face_operator(grid, weight, interior=True)
        self.vol = op.vol
        self.exact = p == 2.0 or op.matrix.rows == op.cw.size
        self.last_flux = None
        if p == 2.0:
            k_data, row, col = energy_hessian_matrix(grid, weight, interior=True)
        else:
            # entry (i, j), i >= j, of A^T diag(kappa) A is the sum over the
            # faces f of both nodes of A[f, i] A[f, j] kappa_f, in the order
            # of f; a row of A holds at most two nodes, in increasing order,
            # and a stable sort of the entries keeps their faces in order
            faces, n = op.cw.size, len(self.vol)
            ptr = op.matrix.indptr[: faces + 1]
            idx, val = op.matrix.indices[: ptr[-1]].astype(np.intp), op.matrix.data[: ptr[-1]]
            face = np.repeat(np.arange(faces, dtype=np.int32), np.diff(ptr))
            first = ptr[np.flatnonzero(np.diff(ptr) == 2)]
            key = np.concatenate([idx * (n + 1), idx[first + 1] * n + idx[first]])
            order = np.argsort(key, kind="stable")
            start = np.flatnonzero(np.diff(key[order], prepend=-1))
            row, col = np.divmod(key[order][start], n)
            ptr = np.append(start, len(key)).astype(np.int32)
            terms = np.concatenate([val * val, val[first + 1] * val[first]])
            self.conductance_map = Csr(len(start), faces, ptr,
                                       np.concatenate([face, face[first]])[order], terms[order])
        super().__init__(row, col, len(self.vol))
        if p == 2.0:
            # the constant stiffness, filled once; matrix() scales a copy
            self.k_band = self.fill(k_data, 0.0)

    def flux(self, x):
        """The FaceFlux of the interior vector x, kept until another vector
        is evaluated."""
        if self.last_flux is None or self.last_flux.values is not x:
            self.last_flux = FaceFlux(self.op, x, self.p)
        return self.last_flux

    def residual(self, x, x_old, t_new, dt, reaction):
        """The backward-Euler residual at the interior vector x."""
        rate = self.flux(x).divergence()
        if reaction.family != "none":
            rate += reaction_eval(reaction, t_new, x)
        return x - x_old - dt * rate

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
    t + dt on the run's _NewtonSystem; returns the new interior vector.
    Raises on solver failure; dt may be below dt_min on a run's last step.

    stats, when given, counts "newton_iters" and "factorizations".  The step
    ends when the residual is at most newton_tol * max(sup |x_old|, 1).  An
    exact Newton matrix is factored at every iteration.  An inexact one is
    factored at the first iteration and then reused until an update needs
    damping or a reused factor fails to lower the residual, which is retried
    once with a fresh factor.  An update from a fresh factor that cannot
    lower the residual raises at once.
    """
    ctl = spec.controls
    if not 0.0 < dt <= ctl.dt_max:
        raise ConfigError(f"dt {dt} outside (0, {ctl.dt_max}]")
    if not np.isfinite(x_old).all():
        raise NumericalError("nonfinite state entering step")

    t_new = t + dt
    scale = max(float(np.abs(x_old).max()), 1.0)
    tol = ctl.newton_tol * scale
    reaction = spec.reaction
    x = x_old
    r = system.residual(x, x_old, t_new, dt, reaction)
    rnorm = np.abs(r).max()
    lu = None
    for it in range(NEWTON_MAX):
        _count(stats, "newton_iters")
        if rnorm <= tol:
            return x
        fresh = lu is None
        if fresh:
            drea = 0.0
            if reaction.family != "none":
                drea = reaction_derivative(reaction, t_new, x)
            _count(stats, "factorizations")
            lu = system.factor(system.matrix(x, dt, drea))
        delta = system.solve(lu, -system.vol * r)
        if not np.isfinite(delta).all():
            raise _StepFailure("nonfinite Newton update")

        damping = 1.0
        improved = False
        for _ in range(4):
            trial = x + damping * delta
            tr = system.residual(trial, x_old, t_new, dt, reaction)
            tnorm = np.abs(tr).max()
            if np.isfinite(tnorm) and tnorm < rnorm:
                x, r, rnorm = trial, tr, tnorm
                improved = True
                break
            damping *= 0.5
        if not improved:
            if fresh:
                raise _StepFailure(f"stalled at residual {rnorm:.2e} (tol {tol:.2e})")
            lu = None  # the reused factor went stale: retry with a fresh one
            continue
        if system.exact or damping < 1.0:
            lu = None
    if rnorm <= tol:
        return x
    raise _StepFailure(f"no convergence in {NEWTON_MAX} iterations "
                       f"(residual {rnorm:.2e}, tol {tol:.2e})")


def _step_field(u, t, dt, spec, stats=None):
    """step_implicit of the Field u on a Newton system of its own, returned
    as a Field; the package exports it as step_implicit."""
    system = _NewtonSystem(u.grid, spec.weight, spec.p)
    x = step_implicit(system, u.values.ravel()[u.grid.interior], t, dt, spec, stats)
    return u.grid.scatter(x)


def _tail_is_ramping(traj, lookback=10):
    sup = traj.sup_abs_u[-lookback:]
    if len(sup) < 3:
        return False
    d = np.diff(sup)
    return bool(np.all(d > 0.0))


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


def run_simulation(spec, eigenpair=None):
    """March to t_end with adaptive dt; classify the outcome.

    The trajectory's g column is integral(omega * u0 * u) when an eigenpair
    is supplied and integral(omega * u) otherwise.  The state is the
    interior vector x throughout; only snapshots are scattered into Fields.
    The last step lands on t_end, shorter than dt_min if less is left.
    """
    grid = spec.grid
    ctl = spec.controls
    idx = grid.interior
    wvals = weight_on_grid(spec.weight, grid)
    gweight = wvals if eigenpair is None else wvals * eigenpair.eigenfunction.values
    # integrate's node weights for the two recorded integrals at the
    # interior nodes, built once
    qw = quad_weights(grid).ravel()[idx]
    qw_g = qw * gweight.ravel()[idx]
    cap = spec.cap_value()
    sup0 = float(np.abs(spec.initial.values).max())
    decay_floor = 1e-8 * sup0

    traj = Trajectory()
    stats = {}
    system = _NewtonSystem(grid, spec.weight, spec.p)

    def record(t, dt, x):
        traj.append(t, dt, float(np.abs(x).max()), quadrature_sum(qw, x),
                    quadrature_sum(qw_g, x), system.flux(x).energy())

    x = spec.initial.values.ravel()[idx]
    record(0.0, 0.0, x)
    pending = sorted(set(spec.snapshot_times))
    while pending and pending[0] <= 1e-12:
        traj.snapshots[pending.pop(0)] = grid.scatter(x)

    t = 0.0
    dt = spec.dt0
    outcome = None

    while t < spec.t_end - 1e-14:
        dt = min(dt, ctl.dt_max, spec.t_end - t)
        # land exactly on the next snapshot time when the floor allows it
        # (min with dt_max: the float gap can overshoot it by roundoff,
        # which the snapshot pop tolerance then absorbs)
        if pending and t + dt > pending[0] - 1e-14 and pending[0] - t >= ctl.dt_min:
            dt = min(pending[0] - t, ctl.dt_max)

        before = stats.get("newton_iters", 0)
        try:
            x_new = step_implicit(system, x, t, dt, spec, stats)
        except (_StepFailure, FactorError):
            if dt > ctl.dt_min:
                dt = max(dt * 0.5, ctl.dt_min)
                continue
            # a retry from the same state, t and dt would fail the same way
            if _tail_is_ramping(traj):
                outcome = KIND_BLOWUP
                break
            raise NumericalError(
                "step failure at dt_min without blow-up signature",
                trajectory=traj,
            )
        iters = stats.get("newton_iters", 0) - before

        if not np.isfinite(x_new).all():
            raise NumericalError("nonfinite state produced", trajectory=traj)

        # keep the discrete trajectory on the physical branch: a step that
        # multiplies the sup norm by more than MAX_GROWTH_PER_STEP is redone
        # smaller, so the tail keeps resolving the approach to a singularity
        sup_old = traj.sup_abs_u[-1]
        sup_new = float(np.abs(x_new).max())
        if (
            dt > ctl.dt_min
            and sup_old > 0.0
            and sup_new > MAX_GROWTH_PER_STEP * sup_old
        ):
            dt = max(dt * 0.5, ctl.dt_min)
            continue

        t += dt
        x = x_new
        record(t, dt, x)
        while pending and t >= pending[0] - 1e-12:
            traj.snapshots[pending.pop(0)] = grid.scatter(x)

        sup = traj.sup_abs_u[-1]
        if sup >= cap:
            outcome = KIND_BLOWUP
            break
        if sup < decay_floor:
            outcome = KIND_DECAYED
            break
        if iters <= EASY_ITERS:
            dt = min(dt * GROWTH_FACTOR, ctl.dt_max)

    counts = dict(
        steps=len(traj.times) - 1,
        newton_iters_total=stats.get("newton_iters", 0),
        factorizations=stats.get("factorizations", 0),
    )

    if outcome == KIND_BLOWUP:
        sigma = spec.reaction.sigma if spec.reaction.family != "none" else 2.0
        t_est, t_lo, t_hi = estimate_blowup_time(traj, sigma, t_end=spec.t_end)
        return RunOutcome(KIND_BLOWUP, traj, t_est=t_est, t_lo=t_lo, t_hi=t_hi, **counts)
    if outcome == KIND_DECAYED:
        rate = _fit_exponential_rate(traj.times, traj.sup_abs_u, sup0)
        return RunOutcome(KIND_DECAYED, traj, rate_fit=rate, **counts)
    return RunOutcome(KIND_COMPLETED, traj, **counts)


def estimate_blowup_time(traj, sigma, t_end=float("inf")):
    """Extrapolate the blow-up time from the sup-norm tail.

    Near blow-up sup|u| behaves like (T - t)^{-1/(sigma-1)}, so
    y = sup|u|^{-(sigma-1)} is asymptotically linear in t with root T.
    Fits y = a + b t on the longest strictly-growing tail (at most 25
    points), returns (T_est, T_lo, T_hi) with T_lo the last accepted time,
    T_est the root clamped to [T_lo, t_end] and T_hi = T_est plus the
    propagated standard error of the root, at most t_end.  A tail too short
    or not strictly growing yields the degenerate answer (t_last, t_last,
    t_end).
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
    if len(tt) < 5 or np.any(np.diff(ss) <= 0.0) or ss[0] <= 0.0:
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
