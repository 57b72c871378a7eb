"""Implicit time marching for u_t = div(omega |grad u|^{p-2} grad u) + f.

Each step solves the backward-Euler residual

    v - u_old - dt * (L_p v + f(x, t + dt, v)) = 0

on interior nodes by damped Newton with a sparse flux-linearized Jacobian.
A step whose update cannot lower the residual fails, and run_simulation
retries it with half the dt.  Each Newton update solves

    (V + dt K - dt V f') delta = -V r,

which is (I - dt J - dt f') delta = -r multiplied by V into symmetric form,
with V the interior cell volumes and K the interior stiffness.  The
matrix's lower-triangle pattern, the map from face conductances to its
entries and the constant p = 2 stiffness are built once per run; a
factorization only refills a band array and factors it (banded module).  K
is positive semidefinite, so the matrix is positive definite when dt f' < 1
at every interior node and is then factored by band Cholesky; otherwise it
is factored by band LU with partial pivoting.  Where the matrix is the exact
Jacobian (interval and radial grids, and p = 2) every iteration factors it
afresh and Newton converges quadratically.  On tensor grids at p > 2 it is
the frozen-tangential approximation, which converges only linearly however
fresh it is, so a step reuses one factor (the chord iteration) and refactors
only after a damped update or a reused factor that did not lower the
residual.
run_simulation wraps the stepper with proportional step-size control and
classifies the outcome as completed, decayed, or blown up.  Blow-up can
never be observed literally on a finite grid; the operational rule is a
sup-norm cap (default 1e8 times the initial sup) or persistent step
failure at dt_min while the sup norm is ramping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla  # noqa: F401  unused; perfbench/tracer.py swaps this name

from .banded import BandPattern, FactorError, lower_entries
from .discretization import Field, quad_weights, quadrature_sum, weight_on_grid
from .errors import ConfigError, NumericalError
from .jsonio import write_json
from .plap_operator import (
    ReactionSpec,
    apply_plaplacian,
    energy,
    energy_hessian_matrix,
    face_conductance,
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
            raise ConfigError("need 0 < dt_min <= dt_max")


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
        if not self.t_end > 0.0:
            raise ConfigError("t_end must be positive")
        if not self.controls.dt_min <= self.dt0 <= self.controls.dt_max:
            raise ConfigError("need dt_min <= dt0 <= dt_max")
        cap = self.cap_value()
        sup0 = float(np.abs(self.initial.values).max())
        if sup0 > 0.0 and cap <= sup0:
            raise ConfigError("u_cap must exceed sup of the initial data")

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

    def to_json(self, path, extra=None):
        payload = {
            "kind": self.kind,
            "T_est": self.t_est,
            "T_lo": self.t_lo,
            "T_hi": self.t_hi,
            "rate_fit": self.rate_fit,
            "steps": self.steps,
            "newton_iters_total": self.newton_iters_total,
            "factorizations": self.factorizations,
            "final_time": self.trajectory.times[-1] if self.trajectory.times else None,
            "final_sup": self.trajectory.sup_abs_u[-1] if self.trajectory.times else None,
        }
        if extra:
            payload.update(extra)
        write_json(path, payload)


class _StepFailure(Exception):
    pass


class _NewtonSystem(BandPattern):
    """Interior Newton matrix V (1 - dt f') + dt K of one (grid, weight, p).

    The lower-triangle pattern is the Jacobian's own and fixed for the run:
    the face-difference pattern for p > 2, whose entries are P @ kappa for
    face conductances kappa through the precomputed sparse map P, and the
    pattern of the constant energy Hessian for p = 2.  K = sum A^T diag(kappa) A
    with kappa >= 0 is positive semidefinite and V is positive, so the matrix
    is positive definite, and goes to band Cholesky, whenever dt f' < 1 at
    every interior node.  The factor of the linear p = 2 system is kept for
    the last dt it was built for.  exact says whether the matrix is the
    Jacobian of the residual: it is on interval and radial grids and at
    p = 2, but on tensor grids at p > 2 it drops the tangential part of the
    flux derivative (plap_operator.diffusion_jacobian).
    """

    def __init__(self, grid, weight, p):
        self.weight = weight
        self.p = p
        self.idx = np.flatnonzero(~grid.boundary_mask.ravel())
        op = face_operator(grid, weight)
        self.exact = p == 2.0 or len(op.components) == 1
        self.vol = op.vol.ravel()[self.idx]
        self.linear_dt = None
        self.linear_factor = None
        if p == 2.0:
            k_int = energy_hessian_matrix(grid, weight).tocsr()[self.idx][:, self.idx]
            self.k_data, row, col = lower_entries(k_int)
        else:
            a_int = op.components[0].tocsc()[:, self.idx]
            _, row, col = lower_entries(abs(a_int).T @ abs(a_int))
            # entry (i, j) of A^T diag(kappa) A is sum_f A[f, i] kappa_f A[f, j]
            self.conductance_map = a_int[:, row].multiply(a_int[:, col]).T.tocsr()
        super().__init__(row, col, len(self.idx))

    def matrix(self, v, dt, drea):
        """The system at state v with interior reaction slopes drea, as the
        band array that factor() takes: symmetric storage when dt f' < 1
        everywhere, general storage otherwise."""
        if self.p == 2.0:
            data = dt * self.k_data
        else:
            kappa = face_conductance(v, self.weight, self.p)
            data = dt * (self.conductance_map @ kappa)
        return self.fill(data, self.vol * (1.0 - dt * drea), np.all(dt * drea < 1.0))

    def linear_solve(self, dt, rhs, stats=None):
        """Solve (V + dt K) x = rhs for the state-independent p = 2 system,
        which is positive definite and so always factored by Cholesky."""
        if self.linear_dt != dt:
            _count(stats, "factorizations")
            self.linear_factor = self.factor(self.matrix(None, dt, 0.0))
            self.linear_dt = dt
        return self.solve(self.linear_factor, rhs)


def _count(stats, key):
    if stats is not None:
        stats[key] = stats.get(key, 0) + 1


def _residual(v_field, u_old, t_new, dt, spec):
    lap = apply_plaplacian(v_field, spec.weight, spec.p).values
    rea = reaction_eval(spec.reaction, t_new, v_field.values)
    r = v_field.values - u_old - dt * (lap + rea)
    r[v_field.grid.boundary_mask] = 0.0
    return r


def step_implicit(u, t, dt, spec, system=None, stats=None):
    """One backward-Euler step from t to t + dt.  Raises on solver failure.

    system is the run's _NewtonSystem; one is built when none is given.
    stats, when given, counts "newton_iters" and "factorizations".  An exact
    Newton matrix is factored at every iteration.  An inexact one is factored
    at the first iteration and then reused until an update needs damping or
    a reused factor fails to lower the residual, which is retried once with
    a fresh factor.  An update from a fresh factor that cannot lower the
    residual raises at once.
    """
    grid = u.grid
    ctl = spec.controls
    if not ctl.dt_min <= dt <= ctl.dt_max:
        raise ConfigError(f"dt {dt} outside [{ctl.dt_min}, {ctl.dt_max}]")
    if not np.all(np.isfinite(u.values)):
        raise NumericalError("nonfinite state entering step")
    if system is None:
        system = _NewtonSystem(grid, spec.weight, spec.p)

    t_new = t + dt
    u_old = u.values
    idx = system.idx
    scale = max(float(np.abs(u_old).max()), 1.0)
    tol = ctl.newton_tol * scale

    if spec.p == 2.0 and spec.reaction.family == "none":
        vals = u_old.copy().ravel()
        vals[idx] = system.linear_solve(dt, system.vol * u_old.ravel()[idx], stats)
        out = vals.reshape(grid.shape)
        out[grid.boundary_mask] = 0.0
        _count(stats, "newton_iters")
        result = Field(grid, out)
        rnorm = np.abs(_residual(result, u_old, t_new, dt, spec)).max()
        if rnorm > max(tol, 1e-9 * scale):
            raise _StepFailure(f"linear step residual {rnorm:.2e}")
        return result

    v = Field(grid, u_old.copy())
    r = _residual(v, u_old, t_new, dt, spec)
    rnorm = np.abs(r).max()
    lu = None
    for it in range(NEWTON_MAX):
        _count(stats, "newton_iters")
        if rnorm <= tol:
            return v
        fresh = lu is None
        if fresh:
            drea = reaction_derivative(spec.reaction, t_new, v.values).ravel()[idx]
            _count(stats, "factorizations")
            lu = system.factor(system.matrix(v, dt, drea))
        delta = system.solve(lu, -system.vol * r.ravel()[idx])
        if not np.all(np.isfinite(delta)):
            raise _StepFailure("nonfinite Newton update")

        damping = 1.0
        improved = False
        for _ in range(4):
            trial = v.values.copy()
            trial.ravel()[idx] += damping * delta
            tf = Field(grid, trial)
            tr = _residual(tf, u_old, t_new, dt, spec)
            tnorm = np.abs(tr).max()
            if np.isfinite(tnorm) and tnorm < rnorm:
                v, r, rnorm = tf, tr, tnorm
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
        return v
    raise _StepFailure(f"no convergence in {NEWTON_MAX} iterations "
                       f"(residual {rnorm:.2e}, tol {tol:.2e})")


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
    coef = np.polyfit(t[ok], np.log(s[ok]), 1)
    return float(-coef[0])


def run_simulation(spec, eigenpair=None):
    """March to t_end with adaptive dt; classify the outcome.

    The trajectory's g column is integral(omega * u0 * u) when an eigenpair
    is supplied and integral(omega * u) otherwise.
    """
    grid = spec.grid
    ctl = spec.controls
    wvals = weight_on_grid(spec.weight, grid)
    gweight = wvals if eigenpair is None else wvals * eigenpair.eigenfunction.values
    # integrate's node weights for the two recorded integrals, built once
    qw = quad_weights(grid)
    qw_g = qw * gweight
    cap = spec.cap_value()
    sup0 = float(np.abs(spec.initial.values).max())
    decay_floor = 1e-8 * sup0

    traj = Trajectory()
    stats = {}
    system = _NewtonSystem(grid, spec.weight, spec.p)

    def record(t, dt, f):
        traj.append(
            t,
            dt,
            float(np.abs(f.values).max()),
            quadrature_sum(qw, f.values),
            quadrature_sum(qw_g, f.values),
            energy(f, spec.weight, spec.p),
        )

    u = spec.initial.copy()
    record(0.0, 0.0, u)
    pending = sorted(set(spec.snapshot_times))
    while pending and pending[0] <= 1e-12:
        traj.snapshots[pending.pop(0)] = u.copy()

    t = 0.0
    dt = spec.dt0
    failures_at_floor = 0
    outcome = None

    while t < spec.t_end - 1e-14:
        dt = min(dt, ctl.dt_max, spec.t_end - t)
        # land exactly on the next snapshot time when the floor allows it
        # (min with dt_max: the float gap can overshoot it by roundoff,
        # which the snapshot pop tolerance then absorbs)
        if pending and t + dt > pending[0] - 1e-14 and pending[0] - t >= ctl.dt_min:
            dt = min(pending[0] - t, ctl.dt_max)
        dt = max(dt, ctl.dt_min)

        before = stats.get("newton_iters", 0)
        try:
            u_new = step_implicit(u, t, dt, spec, system=system, stats=stats)
        except (_StepFailure, FactorError):
            if dt > ctl.dt_min:
                dt = max(dt * 0.5, ctl.dt_min)
                continue
            failures_at_floor += 1
            if failures_at_floor >= 3 and _tail_is_ramping(traj):
                outcome = KIND_BLOWUP
                break
            if failures_at_floor >= 3:
                raise NumericalError(
                    "step failure at dt_min without blow-up signature",
                    trajectory=traj,
                )
            continue
        iters = stats.get("newton_iters", 0) - before

        if not np.all(np.isfinite(u_new.values)):
            raise NumericalError("nonfinite state produced", trajectory=traj)

        # keep the discrete trajectory on the physical branch: a step that
        # multiplies the sup norm by more than MAX_GROWTH_PER_STEP is redone
        # smaller, so the tail keeps resolving the approach to a singularity
        sup_old = float(np.abs(u.values).max())
        sup_new = float(np.abs(u_new.values).max())
        if (
            dt > ctl.dt_min
            and sup_old > 0.0
            and sup_new > MAX_GROWTH_PER_STEP * sup_old
        ):
            dt = max(dt * 0.5, ctl.dt_min)
            continue
        failures_at_floor = 0

        t += dt
        u = u_new
        record(t, dt, u)
        while pending and t >= pending[0] - 1e-12:
            traj.snapshots[pending.pop(0)] = u.copy()

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
        t_lo = max(t_lo, traj.times[-1])
        t_est = min(max(t_est, t_lo), spec.t_end)
        t_hi = min(max(t_hi, t_est), spec.t_end)
        return RunOutcome(
            KIND_BLOWUP, traj, t_est=t_est, t_lo=t_lo, t_hi=t_hi, **counts
        )
    if outcome == KIND_DECAYED or traj.sup_abs_u[-1] < decay_floor:
        rate = _fit_exponential_rate(traj.times, traj.sup_abs_u, sup0)
        return RunOutcome(KIND_DECAYED, traj, rate_fit=rate, **counts)
    return RunOutcome(KIND_COMPLETED, traj, **counts)


def estimate_blowup_time(traj, sigma, t_end=float("inf")):
    """Extrapolate the blow-up time from the sup-norm tail.

    Near blow-up sup|u| behaves like (T - t)^{-1/(sigma-1)}, so
    y = sup|u|^{-(sigma-1)} is asymptotically linear in t with root T.
    Fits y = a + b t on the longest strictly-growing tail (at most 25
    points), returns (T_est, T_lo, T_hi) with T_lo the last accepted time
    and T_hi = T_est plus the propagated standard error of the root.
    A tail too short or not strictly growing yields the degenerate answer
    (t_last, t_last, t_end).
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
    design = np.vstack([np.ones_like(tt), tt]).T
    coef, res, _, _ = np.linalg.lstsq(design, y, rcond=None)
    a, b = coef
    if b >= 0.0:
        return fallback
    t_est = -a / b

    dof = max(len(tt) - 2, 1)
    if res.size:
        sigma2 = float(res[0]) / dof
    else:
        sigma2 = float(np.sum((design @ coef - y) ** 2)) / dof
    # pinv: steps at the dt floor can make the normal matrix singular
    cov = sigma2 * np.linalg.pinv(design.T @ design)
    grad = np.array([-1.0 / b, a / (b * b)])
    stderr = float(np.sqrt(max(grad @ cov @ grad, 0.0)))

    t_lo = t_last
    t_est = max(t_est, t_lo)
    t_hi = min(t_est + stderr, t_end)
    t_est = min(t_est, t_hi)
    return float(t_est), float(t_lo), float(t_hi)
