"""Implicit time stepping: oracles, classification, and structural invariants."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from degenflow import (
    ConfigError,
    ConvergenceError,
    Field,
    Grid,
    NumericalError,
    ProblemSpec,
    ReactionSpec,
    RunOutcome,
    Trajectory,
    WeightSpec,
    bisect_dichotomy,
    build_grid,
    cell_volumes,
    energy,
    energy_hessian_matrix,
    estimate_blowup_time,
    face_operator,
    reaction_derivative,
    reaction_eval,
    run_simulation,
    smallest_eigenpair,
    step_implicit,
)
from degenflow import timestepper
from degenflow.eigensolver import steady_state, unstable_mode
from degenflow.cli import EXIT_OK, main
from degenflow.banded import BandPattern, FactorError
from degenflow.timestepper import _NewtonSystem

PI2 = np.pi**2


def _scipy(matrix):
    """A package Csr as a scipy.sparse CSR array on the same arrays."""
    return sp.csr_array((matrix.data, matrix.indices, matrix.indptr),
                        shape=(matrix.rows, matrix.cols))


def _node_coordinates(g):
    """Per-axis nodal coordinates broadcast to the grid shape."""
    return np.meshgrid(*g.axes, indexing="ij")


def _sin_problem(amplitude=1.0, resolution=64, t_end=0.3, dt0=1e-3, dt_max=5e-3,
                 reaction=None, p=2.0):
    g = build_grid("interval", 1.0, resolution)
    phi = Field(g, amplitude * np.sin(np.pi * g.axes[0]))
    phi.values[g.boundary_mask] = 0.0
    return ProblemSpec(
        grid=g,
        weight=None,
        p=p,
        reaction=reaction if reaction is not None else ReactionSpec.none(),
        initial=phi,
        t_end=t_end,
        dt0=dt0,
        dt_max=dt_max,
    )


class TestStepImplicit:
    def test_single_heat_step_matches_resolvent(self):
        """One backward-Euler heat step solves (I - dt L) v = u: for the
        sine mode that is division by (1 + dt pi^2) up to discretization."""
        spec = _sin_problem(resolution=256)
        dt = 1e-3
        stats = {}
        u1 = step_implicit(spec.initial, 0.0, dt, spec, stats=stats)
        lam_h = PI2  # discrete eigenvalue differs at O(h^2)
        expected = spec.initial.values / (1.0 + dt * lam_h)
        assert np.max(np.abs(u1.values - expected)) < 1e-5
        assert stats["newton_iters"] >= 1

    def test_rejects_dt_outside_bounds(self):
        spec = _sin_problem()
        with pytest.raises(ConfigError):
            step_implicit(spec.initial, 0.0, 1.0, spec)

    def test_nonlinear_step_reduces_energy(self):
        spec = _sin_problem(p=3.0)
        u1 = step_implicit(spec.initial, 0.0, 1e-3, spec)
        assert energy(u1, None, 3.0) < energy(spec.initial, None, 3.0)


def _band_to_dense(band):
    """Dense form of a LAPACK symmetric upper band array: kd + 1 rows with
    entry (i, j), i >= j, at row kd + j - i of column i."""
    kd, n = len(band) - 1, band.shape[1]
    i, j = np.indices((n, n))
    dense = np.zeros((n, n))
    lower = (i >= j) & (i - j <= kd)
    dense[lower] = band[kd + j[lower] - i[lower], i[lower]]
    return dense + np.tril(dense, -1).T


def _fd_jacobian(residual, x, eps=1e-6):
    """Central finite differences of residual at x, one column per entry."""
    cols = []
    for j in range(len(x)):
        step = np.zeros_like(x)
        step[j] = eps
        cols.append((residual(x + step) - residual(x - step)) / (2.0 * eps))
    return np.column_stack(cols)


@pytest.mark.parametrize("mode", ["interval", "radial", "tensor2d"])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
def test_newton_system_matches_jacobian_form(mode, p):
    """The band array the stepper factors is V times the Jacobian of
    _NewtonSystem.residual, by central finite differences, with a power
    weight and a nonzero reaction slope.  On tensor grids at p > 2, where
    it is not the exact Jacobian, it is that of the residual whose flux is
    the normal part A^T (cw s**((p-2)/2) A u) with the tangential rows B u
    held at the base state, the frozen-tangential approximation's
    definition; it then misses the full Jacobian by more than 1e-3."""
    g = build_grid(mode, 1.0, 10, n=2)
    system = _NewtonSystem(g, WeightSpec.power(1.0), p)
    rng = np.random.default_rng(5)
    x, x_old = rng.standard_normal((2, len(g.interior)))
    reaction = ReactionSpec.power(2.0, 2.5)
    dt, t_new = 3e-3, 0.1
    got = _band_to_dense(system.matrix(x, dt, reaction_derivative(reaction, t_new, x)))
    vol = system.vol[:, None]
    full = vol * _fd_jacobian(lambda y: system.residual(y, x_old, t_new, dt, reaction), x)
    if mode != "tensor2d" or p == 2.0:
        assert np.abs(got - full).max() <= 1e-8 * np.abs(full).max()
        return

    op = system.op
    matrix = _scipy(op.matrix)
    a, b = matrix[: op.cw.size], matrix[op.cw.size:]
    tangential = (b @ x) ** 2

    def frozen_residual(y):
        ay = a @ y
        normal = a.T @ (op.cw * (ay * ay + tangential) ** ((p - 2.0) / 2.0) * ay)
        rate = -normal / system.vol + reaction_eval(reaction, t_new, y)
        return y - x_old - dt * rate

    frozen = vol * _fd_jacobian(frozen_residual, x)
    assert np.abs(got - frozen).max() <= 1e-8 * np.abs(frozen).max()
    assert np.abs(got - full).max() > 1e-3 * np.abs(full).max()


@pytest.mark.parametrize("mode, p", [
    pytest.param(mode, p, id=mode if p == 3.0 else f"{mode}-p2")
    for p in (3.0, 2.0) for mode in ("interval", "radial", "tensor2d")])
def test_conductance_map_matches_the_scipy_build(mode, p):
    """The band pattern and the map from face conductances to the Newton
    matrix's lower entries are byte-equal to their scipy.sparse build: the
    lower entries of |M|^T |M| and M[:, row] * M[:, col] per face, so the
    entries are summed over the faces in the same order, with M the face
    difference A at p > 2 and all stacked face rows at p = 2.  Two systems
    of one (grid, weight, p) share one map."""
    g = build_grid(mode, 1.0, 10, n=2)
    weight = WeightSpec.power(1.0)
    system = _NewtonSystem(g, weight, p)
    m = _scipy(system.op.matrix)
    if p != 2.0:
        m = m[: system.op.cw.size]
    m = m.tocsc()
    pattern = sp.coo_array(abs(m).T @ abs(m))
    pattern.sum_duplicates()
    lower = pattern.row >= pattern.col
    row, col = pattern.row[lower].astype(np.intp), pattern.col[lower].astype(np.intp)
    want = m[:, row].multiply(m[:, col]).T.tocsr()
    assert np.array_equal(system.row, row) and np.array_equal(system.col, col)
    got = system.conductance_map
    assert (got.rows, got.cols) == want.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert _NewtonSystem(g, weight, p).conductance_map is got


@pytest.mark.parametrize("mode", ["interval", "radial", "tensor2d"])
def test_p2_band_is_a_fresh_fill(mode):
    """At p = 2 the Newton matrix is dt times the stiffness band filled once
    per system, with vol * (1 - dt f') added to its diagonal row: bit for
    bit the band that fill() makes from dt times the stiffness entries,
    also after an earlier matrix was factored in place."""
    g = build_grid(mode, 1.0, 10, n=2)
    weight = WeightSpec.power(1.0)
    system = _NewtonSystem(g, weight, 2.0)
    k_data, row, col = energy_hessian_matrix(g, weight, interior=True)
    pattern = BandPattern(row, col, len(system.vol))
    x = np.random.default_rng(8).standard_normal(len(system.vol))
    for dt, drea in ((3e-3, 0.0), (0.1, np.abs(x)), (1e-5, -2.0 * x)):
        got = system.matrix(x, dt, drea)
        assert np.array_equal(got, pattern.fill(dt * k_data, system.vol * (1.0 - dt * drea)))
        system.factor(got)


def _indefinite_newton_band():
    """The 1d p = 2 Newton matrix V (1 - dt f') + dt K with a power reaction
    and dt f' up to 5, built from the stiffness by the band module."""
    g = build_grid("interval", 1.0, 32)
    vals = 50.0 * np.sin(np.pi * g.axes[0])
    vals[g.boundary_mask] = 0.0
    dt = 0.05
    idx = np.flatnonzero(~g.boundary_mask.ravel())
    drea = reaction_derivative(ReactionSpec.power(1.0, 2.0), 0.0, vals).ravel()[idx]
    assert (dt * drea > 1.0).any()
    data, row, col = energy_hessian_matrix(g, None, interior=True)
    pattern = BandPattern(row, col, len(idx))
    diag = cell_volumes(g).ravel()[idx] * (1.0 - dt * drea)
    return pattern, pattern.fill(dt * data, diag)


def test_singular_band_factor_is_step_failure():
    """An exactly singular system fails the factorization with a
    FactorError, a NumericalError that run_simulation takes as a failed step
    and retries with a smaller dt."""
    g = build_grid("tensor2d", 1.0, 8)
    idx = np.flatnonzero(~g.boundary_mask.ravel())
    _, row, col = energy_hessian_matrix(g, None, interior=True)
    pattern = BandPattern(row, col, len(idx))
    assert issubclass(FactorError, NumericalError)
    with pytest.raises(FactorError, match="linear solve failed"):
        pattern.factor(np.zeros(pattern.shape, order="F"))


def test_non_spd_symmetric_band_is_step_failure():
    """Band Cholesky reports an indefinite matrix as a failed step rather
    than returning a wrong factor."""
    pattern, band = _indefinite_newton_band()
    assert np.linalg.eigvalsh(_band_to_dense(band)).min() < 0.0
    with pytest.raises(FactorError, match="not positive definite"):
        pattern.factor(band)


def test_indefinite_newton_matrix_fails_step():
    """A step whose first Newton matrix is indefinite fails with FactorError
    after that one factorization.  Newton iterated from there on a pivoted
    factor converges in 8 iterations to a spurious root that sends node 5
    from +4.46 to -2.11 between neighbours +9.05 and 0, against a reaction
    with the sign of u."""
    g = build_grid("interval", 1.0, 6)
    vals = 10.0 * np.random.default_rng(1).standard_normal(g.shape)
    vals[g.boundary_mask] = 0.0
    dt = 1e-2
    spec = ProblemSpec(grid=g, weight=WeightSpec.power(1.0), p=3.0,
                       reaction=ReactionSpec.power(10.0, 3.0), initial=Field(g, vals),
                       t_end=1.0, dt0=dt, dt_max=1.0)
    stats = {}
    with pytest.raises(FactorError, match="not positive definite"):
        step_implicit(spec.initial, 0.0, dt, spec, stats=stats)
    assert stats["factorizations"] == 1


def test_factor_error_halves_dt(monkeypatch):
    """A FactorError from the band module fails the step, and run_simulation
    retries it with half the step size."""
    spec = _sin_problem(t_end=5e-3, dt0=1e-3)
    factor = BandPattern.factor
    calls = []

    def fail_first(self, band):
        calls.append(band.shape)
        if len(calls) == 1:
            raise FactorError("linear solve failed: injected")
        return factor(self, band)

    monkeypatch.setattr(BandPattern, "factor", fail_first)
    outcome = run_simulation(spec)
    assert outcome.kind == "Completed"
    assert outcome.trajectory.dt_used[1] == pytest.approx(5e-4)


def test_step_failure_at_dt_min_decides_at_once(monkeypatch):
    """An attempt that fails at DT_MIN is not retried: the same state, t and
    dt would fail the same way.  Each attempt factors once.  Here seven
    steps succeed, the eighth exceeds LTE_TOL with the sup norm ramping, and
    the run is a blow-up.  Without a ramping tail a failed factorization
    raises NumericalError with the trajectory so far: a heat run whose
    fourth factorization is made to fail.  DT_MIN is 1e-3 here."""
    monkeypatch.setattr(timestepper, "DT_MIN", 1e-3)
    spec = _sin_problem(amplitude=60.0, resolution=32, t_end=1.0, dt0=1e-3, dt_max=1e-3,
                        reaction=ReactionSpec.power(1.0, 2.0))
    attempts = []
    factor = BandPattern.factor

    def counted(self, band):
        attempts.append(band.shape)
        return factor(self, band)

    monkeypatch.setattr(BandPattern, "factor", counted)
    outcome = run_simulation(spec)
    assert outcome.kind == "BlowUp"
    assert len(attempts) == outcome.factorizations == 8
    assert (outcome.steps, outcome.rejected_attempts) == (7, 1)
    assert outcome.trajectory.times[-1] == pytest.approx(7e-3)

    def fourth_fails(self, band):
        attempts.append(band.shape)
        if len(attempts) == 4:
            raise FactorError("made to fail")
        return factor(self, band)

    attempts.clear()
    monkeypatch.setattr(BandPattern, "factor", fourth_fails)
    heat = _sin_problem(resolution=32, t_end=1.0, dt0=1e-3, dt_max=1e-3)
    with pytest.raises(NumericalError, match="without blow-up signature") as failure:
        run_simulation(heat)
    assert len(attempts) == 4
    traj = failure.value.trajectory
    assert traj.times == pytest.approx([0.0, 1e-3, 2e-3, 3e-3])
    assert np.all(np.diff(traj.sup_abs_u) < 0.0)


def test_last_step_lands_on_t_end(monkeypatch):
    """With less than DT_MIN left before t_end, the run takes that remainder
    as one shorter step and ends exactly at t_end; a blow-up detected on it
    keeps T_lo <= T_hi.  Here DT_MIN = dt_max = 1e-3 and t_end = 0.0105."""
    monkeypatch.setattr(timestepper, "DT_MIN", 1e-3)

    def problem(**kw):
        return _sin_problem(resolution=16, t_end=0.0105, dt0=1e-3, dt_max=1e-3, **kw)

    traj = run_simulation(problem()).trajectory
    assert traj.times[-1] == 0.0105
    assert traj.dt_used[-1] == pytest.approx(5e-4)

    reaction = ReactionSpec.power(1.0, 2.0)
    sup = run_simulation(problem(amplitude=20.0, reaction=reaction)).trajectory.sup_abs_u
    # a cap between the last two sup norms is reached on the last step
    monkeypatch.setattr(timestepper, "CAP_FACTOR", float(np.sqrt(sup[-2] * sup[-1])) / sup[0])
    outcome = run_simulation(problem(amplitude=20.0, reaction=reaction))
    assert outcome.kind == "BlowUp"
    assert outcome.trajectory.times[-1] == 0.0105
    assert outcome.t_lo <= outcome.t_hi


class _LapackSpy:
    """Stand-in for scipy.linalg.lapack that records the routines called."""

    def __init__(self):
        self.called = []

    def __getattr__(self, name):
        self.called.append(name)
        return getattr(lapack, name)


@pytest.mark.parametrize("mode, p", [("interval", 2.0), ("tensor2d", 3.0)])
def test_cholesky_exactly_when_dt_fprime_below_one(monkeypatch, mode, p):
    """Every Newton matrix goes to band Cholesky (dpbtrf, dpbtrs), whether
    dt f' stays below 1 at every interior node or reaches 1 at one; the
    stiffness keeps both positive definite.  An indefinite one raises
    FactorError."""
    g = build_grid(mode, 1.0, 8)
    vals = np.random.default_rng(7).standard_normal(g.shape)
    vals[g.boundary_mask] = 0.0
    dt = 1e-2
    system = _NewtonSystem(g, WeightSpec.power(1.0), p)
    x = vals.ravel()[system.grid.interior]
    spy = _LapackSpy()
    monkeypatch.setattr("degenflow.banded.lapack", spy)
    rhs = np.ones(len(system.grid.interior))
    for top in (1.0 - 1e-9, 1.0):
        drea = np.full(len(system.grid.interior), 0.5 / dt)
        drea[len(drea) // 2] = top / dt
        band = system.matrix(x, dt, drea)
        assert band.shape == system.shape
        spy.called.clear()
        system.solve(system.factor(band), rhs)
        assert spy.called == ["dpbtrf", "dpbtrs"]
    band = system.matrix(x, dt, np.full(len(system.grid.interior), 10.0 / dt))
    assert np.linalg.eigvalsh(_band_to_dense(band)).min() < 0.0
    with pytest.raises(FactorError, match="not positive definite"):
        system.factor(band)
    if p == 2.0:
        # without reaction (f' = 0) the p = 2 system is V + dt K
        spy.called.clear()
        system.solve(system.factor(system.matrix(x, dt, 0.0)), rhs)
        assert spy.called == ["dpbtrf", "dpbtrs"]


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["interval", "radial", "tensor2d"]),
    p=st.sampled_from([2.0, 3.0]),
    dt=st.floats(1e-4, 1e-1),
    alpha0=st.floats(0.0, 50.0),
    seed=st.integers(0, 2**16),
)
def test_newton_solve_matches_dense(mode, p, dt, alpha0, seed):
    """Where the system's own Newton matrix V (1 - dt f') + dt K is
    positive definite, its band solve matches a dense solve of that matrix;
    where it has a negative eigenvalue, the factorization raises
    FactorError."""
    g = build_grid(mode, 1.0, 8, n=2)
    rng = np.random.default_rng(seed)
    system = _NewtonSystem(g, WeightSpec.power(1.0), p)
    x = rng.standard_normal(len(g.interior))
    drea = reaction_derivative(ReactionSpec.power(alpha0, 2.0), 0.0, x)
    band = system.matrix(x, dt, drea)
    ref = _band_to_dense(band)
    # a nearly singular draw (dt f' close to 1) tests conditioning, not the solve
    assume(np.linalg.cond(ref) < 1e5)
    if np.linalg.eigvalsh(ref).min() < 0.0:
        event("indefinite")
        with pytest.raises(FactorError, match="not positive definite"):
            system.factor(band)
        return
    event("positive definite")
    rhs = rng.standard_normal(len(x))
    solved = system.solve(system.factor(band), rhs)
    expected = np.linalg.solve(ref, rhs)
    assert np.abs(solved - expected).max() <= 1e-10 * np.abs(expected).max()


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["interval", "radial", "tensor2d"]),
    p=st.floats(2.0, 5.0),
    theta_frac=st.floats(0.0, 1.0, exclude_max=True),
    log_dt=st.floats(-4.0, -1.0),
    log_amplitude=st.floats(-1.0, 1.0),
    rough=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_step_satisfies_energy_inequality(mode, p, theta_frac, log_dt, log_amplitude,
                                          rough, seed):
    """A converged backward-Euler step without reaction dissipates energy:
    E(u1) + sum V (u1 - u0)**2 / dt <= E(u0).

    The step solves V (u1 - u0) = -dt grad E(u1) + V r with residual r, and
    the convexity of E gives E(u0) >= E(u1) + grad E(u1) . (u0 - u1), so the
    inequality holds up to sum V r (u1 - u0) / dt.  An accepted step has
    |r| <= NEWTON_TOL * scale with scale = max(sup |u0|, 1); that bound
    times sum V |u1 - u0| / dt is the slack, plus 1e-12 E(u0) for the
    rounding of the energy sums.  A step that does not converge is counted
    as an event, not filtered out."""
    g = build_grid(mode, 1.0, 8, n=2)
    weight = WeightSpec.power(theta_frac * p)
    vals = _drawn_state(g, 10.0**log_amplitude, rough, seed)
    dt = 10.0**log_dt
    stepped = _converged_step(g, weight, p, vals, dt)
    if stepped is None:
        return
    u1, tol = stepped
    vol = cell_volumes(g)
    step = u1.values - vals
    e0, e1 = energy(Field(g, vals), weight, p), energy(u1, weight, p)
    slack = tol * np.sum(vol * np.abs(step)) / dt + 1e-12 * e0
    assert e1 + np.sum(vol * step * step) / dt <= e0 + slack


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["interval", "radial", "tensor2d"]),
    p=st.floats(2.0, 5.0),
    theta_frac=st.floats(0.0, 1.0, exclude_max=True),
    log_dt=st.floats(-4.0, -1.0),
    log_amplitude=st.floats(-1.0, 1.0),
    rough=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_run_energy_is_nonincreasing(mode, p, theta_frac, log_dt, log_amplitude, rough,
                                     seed):
    """Along a run without reaction, the energy column of the trajectory
    does not increase across accepted steps.

    By the argument of test_step_satisfies_energy_inequality, a step whose
    residual is at most tol per node gives
    E(u1) - E(u0) <= (tol * sum V |u1 - u0| - sum V (u1 - u0)**2) / dt,
    and Cauchy-Schwarz bounds the right side by tol**2 * sum V / (4 dt).
    tol is NEWTON_TOL * max(sup |u0|, 1), the bound every step meets;
    1e-12 E(u0) covers the rounding of the energy sums.  A run that fails
    is counted as an event, not filtered out."""
    g = build_grid(mode, 1.0, 8, n=2)
    vals = _drawn_state(g, 10.0**log_amplitude, rough, seed)
    dt0 = 10.0**log_dt
    spec = ProblemSpec(grid=g, weight=WeightSpec.power(theta_frac * p), p=p,
                       reaction=ReactionSpec.none(), initial=Field(g, vals),
                       t_end=5.0 * dt0, dt0=dt0, dt_max=dt0)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(timestepper, "DT_MIN", 1e-8)
            traj = run_simulation(spec).trajectory
    except NumericalError:
        event(f"{mode}: run failed")
        return
    event(f"{mode}: run completed")
    e = np.asarray(traj.energy)
    tol = timestepper.NEWTON_TOL * np.maximum(np.asarray(traj.sup_abs_u[:-1]), 1.0)
    dt = np.asarray(traj.dt_used[1:])
    slack = tol**2 * cell_volumes(g).sum() / (4.0 * dt) + 1e-12 * e[:-1]
    assert np.all(np.diff(e) <= slack)


def _drawn_state(g, amplitude, rough, seed):
    """Smooth (the principal sine or cosine shape) or rough (seeded normal)
    nodal data of the given amplitude, zero on the boundary."""
    if rough:
        vals = amplitude * np.random.default_rng(seed).standard_normal(g.shape)
    elif g.mode == "radial":
        vals = amplitude * np.cos(0.5 * np.pi * g.axes[0])
    else:
        vals = amplitude * np.prod([np.sin(np.pi * c) for c in _node_coordinates(g)], axis=0)
    vals[g.boundary_mask] = 0.0
    return vals


def _converged_step(g, weight, p, vals, dt, reaction=ReactionSpec.none()):
    """One backward-Euler step from vals under reaction (none by default),
    with the bound tol its residual must meet: NEWTON_TOL * max(sup |vals|,
    1).  Returns None, after counting the draw as an unconverged event,
    when the step fails."""
    spec = ProblemSpec(grid=g, weight=weight, p=p, reaction=reaction,
                       initial=Field(g, vals), t_end=1.0, dt0=dt)
    label = f"{g.mode}, p {'= 2' if p == 2.0 else '> 2'}"
    try:
        u1 = step_implicit(spec.initial, 0.0, dt, spec)
    except NumericalError:
        event(f"{label}: unconverged")
        return None
    event(f"{label}: converged")
    tol = timestepper.NEWTON_TOL * max(np.abs(vals).max(), 1.0)
    system = _NewtonSystem(g, weight, p)
    idx = system.grid.interior
    r = system.residual(u1.values.ravel()[idx], vals.ravel()[idx], dt, dt, spec.reaction)
    assert np.abs(r).max() <= tol
    return u1, tol


def _flux_by_face_matrix(g, weight, p, vals):
    """The Laplacian, energy and face conductances of vals evaluated from
    scratch, one face matrix M_k (rows k F to (k + 1) F of the stacked
    matrix) at a time, with the per-node sums of absolute terms that bound
    the rounding of the Laplacian."""
    op = face_operator(g, weight)
    f = op.cw.size
    matrix = _scipy(op.matrix)
    mats = [matrix[k * f:(k + 1) * f] for k in range(matrix.shape[0] // f)]
    grads = [m @ vals.ravel() for m in mats]
    s = sum(gk * gk for gk in grads)
    q = op.cw * s ** ((p - 2.0) / 2.0)
    lap = -sum(m.T @ (q * gk) for m, gk in zip(mats, grads)).reshape(g.shape) / op.vol
    terms = sum(abs(m).T @ np.abs(q * gk) for m, gk in zip(mats, grads))
    kappa = np.zeros_like(s)
    pos = s > 0.0
    kappa[pos] = (op.cw[pos] * s[pos] ** ((p - 4.0) / 2.0)
                  * ((p - 2.0) * grads[0][pos] ** 2 + s[pos]))
    energy_ref = float(np.sum(op.cw * s ** (p / 2.0)) / p)
    return lap, terms.reshape(g.shape) / op.vol, energy_ref, kappa


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(["interval", "radial", "tensor2d"]),
    p=st.floats(2.0, 5.0),
    theta_frac=st.floats(0.0, 1.0, exclude_max=True),
    log_amplitude=st.floats(-1.0, 1.0),
    rough=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_shared_flux_matches_fresh_evaluation(mode, p, theta_frac, log_amplitude, rough,
                                             seed):
    """The Newton system takes a state's face gradient once, for its
    residual, and derives the conductances of a Newton matrix built at that
    state and its energy from the same FaceFlux.  Each matches an
    evaluation from scratch, one face matrix at a time, to 1e-14 relative
    (the residual relative to the sum of the absolute values of its terms),
    and the matrix equals one a fresh system builds.  Evaluating another
    state replaces the kept flux."""
    g = build_grid(mode, 1.0, 8, n=2)
    weight = WeightSpec.power(theta_frac * p)
    vals = _drawn_state(g, 10.0**log_amplitude, rough, seed)
    u_old = _drawn_state(g, 1.0, not rough, seed + 1)
    dt, t_new = 1e-2, 0.1
    reaction = ReactionSpec.power(1.0, 2.0)
    system = _NewtonSystem(g, weight, p)
    idx = system.grid.interior
    x, x_old = vals.ravel()[idx], u_old.ravel()[idx]
    drea = reaction_derivative(reaction, t_new, x)

    r = system.residual(x, x_old, t_new, dt, reaction)
    flux = system.flux(x)
    band = system.matrix(x, dt, drea)
    assert system.flux(x) is flux

    lap, lap_terms, energy_ref, kappa = _flux_by_face_matrix(g, weight, p, vals)
    rea = reaction_eval(reaction, t_new, vals)
    r_ref = (vals - u_old - dt * (lap + rea)).ravel()[idx]
    scale = (np.abs(vals) + np.abs(u_old) + dt * (lap_terms + np.abs(rea))).ravel()[idx]
    assert np.all(np.abs(r - r_ref) <= 1e-14 * scale)
    assert flux.energy() == pytest.approx(energy_ref, rel=1e-14, abs=0.0)
    assert flux.energy() == energy(Field(g, vals), weight, p)
    np.testing.assert_allclose(flux.conductance(), kappa, rtol=1e-14, atol=0.0)
    fresh = _NewtonSystem(g, weight, p)
    np.testing.assert_array_equal(band, fresh.matrix(x.copy(), dt, drea))

    system.residual(x_old, x, t_new, dt, reaction)
    assert system.flux(x_old) is not flux and system.flux(x) is not flux


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["interval", "radial", "tensor2d"]),
    p=st.floats(2.0, 5.0),
    theta_frac=st.floats(0.0, 1.0, exclude_max=True),
    log_amplitude=st.floats(-1.0, 1.0),
    rough=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_run_energy_column_is_energy_of_its_states(mode, p, theta_frac, log_amplitude,
                                                   rough, seed):
    """The energy a run records for an accepted state, taken from the flux
    its last residual evaluation kept, equals energy() of that state, and
    no state's face gradient is taken twice along a run whose steps all
    succeed.  A run that fails is counted as an event."""
    g = build_grid(mode, 1.0, 8, n=2)
    vals = _drawn_state(g, 10.0**log_amplitude, rough, seed)
    spec = ProblemSpec(grid=g, weight=WeightSpec.power(theta_frac * p), p=p,
                       reaction=ReactionSpec.none(), initial=Field(g, vals),
                       t_end=4e-3, dt0=1e-3, snapshot_times=(1e-3, 2e-3, 3e-3, 4e-3),
                       dt_max=1e-3)
    built = []

    class CountedFlux(timestepper.FaceFlux):
        def __init__(self, op, values, p):
            built.append(values)
            super().__init__(op, values, p)

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(timestepper, "FaceFlux", CountedFlux)
            patch.setattr(timestepper, "DT_MIN", 1e-8)
            out = run_simulation(spec)
    except NumericalError:
        event(f"{mode}: run failed")
        return
    traj = out.trajectory
    assert traj.energy[0] == energy(spec.initial, spec.weight, p)
    assert len(traj.snapshots) == 4
    for ts, state in traj.snapshots.items():
        i = int(np.argmin(np.abs(np.asarray(traj.times) - ts)))
        assert traj.energy[i] == energy(state, spec.weight, p)
    if out.steps == 4:
        event(f"{mode}: four steps, none failed")
        assert len({id(values) for values in built}) == len(built)
    else:
        event(f"{mode}: a step was redone")


@pytest.mark.parametrize("mode", ["interval", "radial", "tensor2d"])
def test_p2_run_takes_energies_in_batches_equal_to_face_flux(mode, monkeypatch):
    """At p = 2 a run takes its energy column in batches of at most
    ENERGY_CHUNK recorded states, one product with the stacked face matrix
    each, and every energy equals FaceFlux.energy of its state bit for bit,
    on a weighted run of 101 states, a full batch and a partial one."""
    g = build_grid(mode, 1.0, 8, n=2)
    spec = ProblemSpec(grid=g, weight=WeightSpec.power(1.0), p=2.0,
                       reaction=ReactionSpec.none(),
                       initial=Field(g, _drawn_state(g, 1.0, True, 7)), t_end=0.1, dt0=1e-3,
                       dt_max=1e-3)
    batches = []
    energies = timestepper._NewtonSystem.energies

    def kept(system, states):
        batches.append(list(states))
        return energies(system, states)

    monkeypatch.setattr(timestepper._NewtonSystem, "energies", kept)
    traj = run_simulation(spec).trajectory
    assert [len(batch) for batch in batches] == [timestepper.ENERGY_CHUNK, 37]
    op = face_operator(g, spec.weight, interior=True)
    assert traj.energy == [timestepper.FaceFlux(op, x, 2.0).energy()
                           for batch in batches for x in batch]


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["interval", "radial"]),
    resolution=st.integers(4, 32),
    p=st.floats(2.0, 5.0),
    theta_frac=st.floats(0.0, 1.0, exclude_max=True),
    log_dt=st.floats(-4.0, -1.0),
    log_amplitude=st.floats(-1.0, 1.0),
    rough=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_step_satisfies_maximum_principle(mode, resolution, p, theta_frac, log_dt,
                                          log_amplitude, rough, seed):
    """A converged backward-Euler step without reaction on an interval or
    radial grid creates no new extremum:
    max u1 <= max(max u0, 0) and min u1 >= min(min u0, 0), up to the
    residual bound tol.

    At an interior node i where u1 is largest, every face difference toward
    a neighbour is <= 0, so the flux form gives (L_p u1)_i <= 0 and
    u1_i = u0_i + dt (L_p u1)_i + r_i <= max u0 + tol; a largest value on the
    Dirichlet boundary is 0.  The minimum is the mirror case.  A step that
    does not converge is counted as an event, not filtered out."""
    g = build_grid(mode, 1.0, resolution, n=2)
    vals = _drawn_state(g, 10.0**log_amplitude, rough, seed)
    stepped = _converged_step(g, WeightSpec.power(theta_frac * p), p, vals, 10.0**log_dt)
    if stepped is None:
        return
    u1, tol = stepped
    assert u1.values.max() <= max(vals.max(), 0.0) + tol
    assert u1.values.min() >= min(vals.min(), 0.0) - tol


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["interval", "radial", "tensor2d"]),
    resolution=st.integers(4, 32),
    p=st.floats(2.0, 5.0),
    theta_frac=st.floats(0.0, 1.0, exclude_max=True),
    alpha0=st.floats(0.1, 1.0),
    sigma=st.floats(1.0, 3.0, exclude_min=True),
    log_dt=st.floats(-4.0, -1.0),
    log_amplitude=st.floats(-1.0, 0.5),
    gap=st.floats(0.0, 1.0),
    rough=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_step_keeps_comparison_order(mode, resolution, p, theta_frac, alpha0, sigma, log_dt,
                                     log_amplitude, gap, rough, seed):
    """Converged backward-Euler steps under the monotone reaction
    f(u) = alpha0 |u|^(sigma-1) u on an interval or radial grid at any p,
    and on a tensor grid at p = 2, keep ordered data ordered and
    nonnegative data nonnegative: from 0 <= u0 <= v0, u1 <= v1 and
    u1 >= 0, up to the residual slack.

    At an interior node i where w = u1 - v1 is largest,
    (L_p u1)_i <= (L_p v1)_i.  On interval and radial grids every face
    difference of u1 toward a neighbour is at most that of v1, and the
    two-point flux is increasing in the difference.  On tensor grids at
    p = 2, L_p = -V^-1 K with K an M-matrix: no off-diagonal entry is
    positive (checked on each drawn grid) and every interior row sums to
    at least 0, the row sum of the full stiffness minus Dirichlet entries
    that are at most 0, so (K w)_i >= (sum_j K_ij) w_i >= 0.  Then
    w_i <= u0_i - v0_i + dt (f(u1_i) - f(v1_i)) + |r_u| + |r_v|
        <= dt f'(M) w_i + tol_u + tol_v
    with M = max(sup |u1|, sup |v1|), so w_i <= (tol_u + tol_v) /
    (1 - dt f'(M)) when dt f'(M) < 1.  Positivity is the same argument
    against the steady solution 0.  Tensor draws take p = 2 and at most
    16 cells per axis.  A draw with dt f'(M) >= 1, where the argument
    gives no bound, and a step that does not converge are counted as
    events, not filtered out."""
    if mode == "tensor2d":
        p, resolution = 2.0, min(resolution, 16)
    g = build_grid(mode, 1.0, resolution, n=2)
    weight = WeightSpec.power(theta_frac * p)
    reaction = ReactionSpec.power(alpha0, sigma)
    amplitude = 10.0**log_amplitude
    u0 = amplitude * np.abs(_drawn_state(g, 1.0, rough, seed))
    v0 = u0 + gap * amplitude * np.abs(_drawn_state(g, 1.0, rough, seed + 1))
    dt = 10.0**log_dt
    if mode == "tensor2d":
        assert (_NewtonSystem(g, weight, p).k_band[:-1] <= 0.0).all()
    lower = _converged_step(g, weight, p, u0, dt, reaction)
    upper = _converged_step(g, weight, p, v0, dt, reaction)
    if lower is None or upper is None:
        return
    (u1, tol_u), (v1, tol_v) = lower, upper
    big = max(np.abs(u1.values).max(), np.abs(v1.values).max())
    contraction = 1.0 - dt * float(reaction_derivative(reaction, dt, big))
    if not contraction > 0.0:
        event("dt f'(M) >= 1: no bound")
        return
    assert np.all(u1.values <= v1.values + (tol_u + tol_v) / contraction)
    assert u1.values.min() >= -tol_u / contraction


def _tensor_p3_problem():
    g = build_grid("tensor2d", 1.0, 16)
    x, y = _node_coordinates(g)
    phi = Field(g, np.sin(np.pi * x) * np.sin(np.pi * y))
    phi.values[g.boundary_mask] = 0.0
    return ProblemSpec(grid=g, weight=WeightSpec.power(1.0), p=3.0,
                       reaction=ReactionSpec.none(), initial=phi, t_end=0.02, dt0=1e-4)


def _power_blowup_problem():
    return _sin_problem(amplitude=100.0, resolution=48, t_end=2.0, dt0=1e-5,
                        dt_max=1e-2, reaction=ReactionSpec.power(1.0, 2.0))


@pytest.mark.parametrize("make_spec, kind, steps, factorizations, rejected", [
    (_tensor_p3_problem, "Completed", 9, 9, 0),
    (_power_blowup_problem, "BlowUp", 271, 271, 0),
], ids=["tensor_p3", "power_blowup"])
def test_run_solver_counts_pinned(make_spec, kind, steps, factorizations, rejected):
    """A rounding change in a ROS2 step that flips an accept or reject
    decision, or a change in how many factorizations an attempt takes,
    shows up in these counts."""
    out = run_simulation(make_spec())
    assert out.kind == kind
    assert (out.steps, out.factorizations, out.rejected_attempts) == (
        steps, factorizations, rejected)


def _newton_iterations(monkeypatch, system):
    """Spy on one step's Newton loop.  Returns the list that the step fills
    with one [fresh, residual evaluations] entry per update: fresh is False
    when the update solved with the previous factor, and more than one
    evaluation means the update was damped or failed."""
    log = []
    residual, matrix, solve = system.residual, system.matrix, system.solve

    def spy_residual(*args):
        if log:
            log[-1][1] += 1
        return residual(*args)

    def spy_matrix(*args):
        log.append([True, 0])
        return matrix(*args)

    def spy_solve(lu, rhs):
        if not log or log[-1][1]:
            log.append([False, 0])
        return solve(lu, rhs)

    monkeypatch.setattr(system, "residual", spy_residual)
    monkeypatch.setattr(system, "matrix", spy_matrix)
    monkeypatch.setattr(system, "solve", spy_solve)
    return log


@pytest.mark.parametrize("mode, p, state", [
    (mode, p, state) for state in ("smooth", "rough")
    for mode, p in (("interval", 3.0), ("radial", 3.0), ("tensor2d", 2.0), ("tensor2d", 3.0))
] + [("tensor2d", 3.0, "unforced"), ("interval", 3.0, "damped")])
def test_every_newton_update_takes_a_fresh_factor(monkeypatch, mode, p, state):
    """Every Newton update factors the matrix at the current iterate, so a
    step takes one factorization per update in every mode, at p = 2 and on
    the tensor p > 2 matrix, which is not the exact Jacobian.  A failed
    update raises NumericalError and factors nothing more.  The unforced
    rough tensor p = 3 step at dt 1e-2 converges, in 20 iterations; the
    chord iteration, which solves every update with the first factor,
    leaves its residual at 4.9e-4 after 30.  The damped interval step
    accepts a halved update."""
    g = build_grid(mode, 1.0, 6, n=2)
    if state == "smooth":
        vals = np.prod([np.sin(np.pi * c) for c in _node_coordinates(g)], axis=0)
        reaction, dt = ReactionSpec.power(1.0, 2.0), 1e-3
    elif state == "damped":
        vals = 10.0 * np.random.default_rng(2).standard_normal(g.shape)
        reaction, dt = ReactionSpec.none(), 0.1
    else:
        vals = np.random.default_rng(1).standard_normal(g.shape)
        # dt f' outweighs the tensor p = 2 stiffness on this draw from dt = 5e-3
        reaction, dt = ReactionSpec.power(10.0, 3.0), 0.1 if p > 2.0 else 3e-3
        if state == "unforced":
            reaction, dt = ReactionSpec.none(), 1e-2
    vals[g.boundary_mask] = 0.0
    spec = ProblemSpec(grid=g, weight=WeightSpec.power(1.0), p=p, reaction=reaction,
                       initial=Field(g, vals), t_end=1.0, dt0=dt,
                       dt_max=1.0)
    system = _NewtonSystem(g, spec.weight, p)
    # the first Newton matrix is positive definite, so the step gets past it
    drea = reaction_derivative(reaction, dt, vals).ravel()[system.grid.interior]
    x = vals.ravel()[system.grid.interior]
    assert np.linalg.eigvalsh(_band_to_dense(system.matrix(x, dt, drea))).min() > 0.0
    log = _newton_iterations(monkeypatch, system)
    stats = {}
    failure = None
    try:
        timestepper.step_implicit(system, x, 0.0, dt, spec, stats)
    except NumericalError as exc:
        failure = exc
        assert state == "rough"

    assert log and all(fresh for fresh, _ in log)
    assert stats["factorizations"] == len(log)
    if failure is None:
        assert stats["newton_iters"] == len(log) + 1
    elif "stalled" in str(failure):
        assert log[-1] == [True, 4]  # every damping of the update failed
    if state == "smooth":
        assert len(log) >= 2 and all(evals == 1 for _, evals in log)
    if state == "damped":
        assert any(1 < evals < 4 for _, evals in log)  # a damped, accepted update

    # an update that cannot lower the residual
    monkeypatch.setattr(system, "solve", lambda lu, rhs: np.zeros_like(rhs))
    log.clear()
    stats.clear()
    with pytest.raises(NumericalError, match="stalled"):
        timestepper.step_implicit(system, x, 0.0, dt, spec, stats)
    assert log == [[True, 4]] and stats["factorizations"] == 1


def _unzeroed_sin_data(g):
    """The principal sine (cosine on radial grids) shape as the CLI builds it,
    without zeroing the Dirichlet nodes: sin(pi) leaves about 1e-16 there."""
    if g.mode == "radial":
        return np.cos(0.5 * np.pi * g.axes[0])
    return np.prod([np.sin(np.pi * c) for c in _node_coordinates(g)], axis=0)


@pytest.mark.parametrize("mode", ["interval", "radial", "tensor2d"])
@pytest.mark.parametrize("p, reaction", [
    (2.0, ReactionSpec.none()),
    (3.0, ReactionSpec.none()),
    (2.0, ReactionSpec.power(1.0, 2.0)),
], ids=["linear", "newton", "newton-reaction"])
def test_accepted_states_are_exactly_zero_on_dirichlet_nodes(monkeypatch, mode, p,
                                                            reaction):
    """Both steppers work on the interior unknowns: the package's
    step_implicit returns a Field that is exactly 0.0 on the Dirichlet
    nodes, also from sine data that carries round-off there, every state
    whose rate run_simulation evaluates is an interior vector, and every
    snapshot is exactly 0.0 on the Dirichlet nodes.  The linear ids step
    p = 2 without reaction, which runs the same Newton loop."""
    g = build_grid(mode, 1.0, 12, n=2)
    vals = _unzeroed_sin_data(g)
    assert np.abs(vals[g.boundary_mask]).max() > 0.0
    spec = ProblemSpec(grid=g, weight=WeightSpec.power(1.0), p=p, reaction=reaction,
                       initial=Field(g, vals), t_end=4e-3, dt0=1e-3,
                       snapshot_times=(2e-3, 4e-3), dt_max=1e-3)
    u1 = step_implicit(spec.initial, 0.0, 1e-3, spec)
    assert np.all(u1.values[g.boundary_mask] == 0.0)

    evaluated = []
    rate = _NewtonSystem.rate

    def recorded(self, x, *args):
        evaluated.append(x)
        return rate(self, x, *args)

    monkeypatch.setattr(_NewtonSystem, "rate", recorded)
    out = run_simulation(spec)
    # two stages per step
    assert out.kind == "Completed" and len(evaluated) >= 2 * out.steps == 8
    assert len(out.trajectory.snapshots) == 2
    assert all(x.shape == g.interior.shape for x in evaluated)
    for state in out.trajectory.snapshots.values():
        assert np.all(state.values[g.boundary_mask] == 0.0)


def test_run_scatters_only_its_snapshots(monkeypatch):
    """run_simulation carries the interior vector from start to finish: a
    tensor run with two snapshot times builds a Field by Grid.scatter
    exactly twice, once per snapshot."""
    g = build_grid("tensor2d", 1.0, 8)
    spec = ProblemSpec(grid=g, weight=WeightSpec.power(1.0), p=3.0,
                       reaction=ReactionSpec.none(), initial=Field(g, _unzeroed_sin_data(g)),
                       t_end=4e-3, dt0=1e-3, snapshot_times=(2e-3, 4e-3),
                       dt_max=1e-3)
    scattered = []
    scatter = Grid.scatter

    def counted(self, x):
        scattered.append(x)
        return scatter(self, x)

    monkeypatch.setattr(Grid, "scatter", counted)
    out = run_simulation(spec)
    assert out.steps == 4 and len(out.trajectory.snapshots) == 2
    assert len(scattered) == 2


@pytest.mark.parametrize("mode, p, kd", [
    ("interval", 3.0, 1),
    ("tensor2d", 3.0, 7),
    ("tensor2d", 2.0, 15),
])
def test_band_factor_and_solve_match_dense(mode, p, kd):
    """On the Newton systems' lower-triangle patterns, of half-bandwidth
    kd = 1, m - 1 and 2 (m - 1) + 1 at resolution m = 8, a band factor and
    solve of a diagonally dominant symmetric matrix match np.linalg.solve
    of the dense matrix built from the same entries to 1e-12."""
    g = build_grid(mode, 1.0, 8)
    system = _NewtonSystem(g, None, p)
    pattern = BandPattern(system.row, system.col, system.shape[1])
    assert pattern.kd == kd
    rng = np.random.default_rng(kd)
    data = rng.uniform(-1.0, 1.0, len(pattern.row))
    n = pattern.shape[1]
    dense = np.zeros((n, n))
    dense[pattern.row, pattern.col] = data
    dense += np.tril(dense, -1).T
    diag = np.abs(dense).sum(axis=1) + 1.0
    dense += np.diag(diag)
    rhs = rng.standard_normal(n)
    x = pattern.solve(pattern.factor(pattern.fill(data, diag)), rhs)
    expected = np.linalg.solve(dense, rhs)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


def test_tensor_workload_flux_and_reaction_calls(monkeypatch, tmp_path):
    """The tensor2d-p3 benchmark run (no reaction) takes each state's face
    gradient once: it builds at most 1722 FaceFlux objects, one per
    evaluated state, and never evaluates the reaction or its slope."""
    config = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "tensor2d-p3.ini"
    built = []
    reaction_calls = []

    class CountedFlux(timestepper.FaceFlux):
        def __init__(self, op, values, p):
            built.append(values)
            super().__init__(op, values, p)

    def counted(name, fn):
        def wrapper(*args):
            reaction_calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(timestepper, "FaceFlux", CountedFlux)
    for name in ("reaction_eval", "reaction_derivative"):
        monkeypatch.setattr(timestepper, name, counted(name, getattr(timestepper, name)))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
    assert 0 < len(built) <= 1722
    assert len({id(values) for values in built}) == len(built)
    assert reaction_calls == []


def test_heat_equation_oracle_res128():
    """Linear heat run tracks A e^{-pi^2 t} sin(pi x); coarse-dt variant
    of the acceptance gate to keep the unit suite fast."""
    spec = _sin_problem(resolution=128, t_end=0.1, dt0=1e-4, dt_max=1e-4)
    out = run_simulation(spec)
    assert out.kind in ("Completed", "Decayed")
    x = spec.grid.axes[0]
    t_final = out.trajectory.times[-1]
    exact = np.exp(-PI2 * t_final) * np.sin(np.pi * x)
    # compare sup norms: trajectory stores the scalar history
    assert out.trajectory.sup_abs_u[-1] == pytest.approx(np.exp(-PI2 * t_final), rel=2e-3)
    assert t_final == pytest.approx(0.1, abs=1e-12)
    assert np.max(np.abs(exact)) > 0.0  # silence unused warning path


def test_decay_classification_and_rate():
    # run long enough for sup to cross the 1e-8 floor
    spec = _sin_problem(amplitude=1.0, resolution=32, t_end=3.0, dt0=1e-3, dt_max=5e-3)
    out = run_simulation(spec)
    assert out.kind == "Decayed"
    assert out.rate_fit == pytest.approx(PI2, rel=0.05)


def test_blowup_classification_and_estimate():
    reaction = ReactionSpec.power(1.0, 2.0)
    spec = _sin_problem(amplitude=100.0, resolution=48, t_end=2.0,
                        dt0=1e-5, dt_max=1e-2, reaction=reaction)
    out = run_simulation(spec)
    assert out.kind == "BlowUp"
    assert np.isfinite(out.t_est)
    assert out.t_lo <= out.t_est <= out.t_hi
    # continuum comparison: blow-up no later than the zero-diffusion ODE
    # u' = u^2 from the peak would suggest ~1/100, diffusion delays it
    assert 0.0 < out.t_est < 0.1


def test_snapshots_land_exactly():
    spec_base = _sin_problem(resolution=32, t_end=0.2)
    spec = ProblemSpec(
        grid=spec_base.grid,
        weight=None,
        p=2.0,
        reaction=ReactionSpec.none(),
        initial=spec_base.initial,
        t_end=0.2,
        dt0=1e-3,
        dt_max=spec_base.dt_max,
        snapshot_times=(0.05, 0.1, 0.15),
    )
    out = run_simulation(spec)
    assert set(out.trajectory.snapshots.keys()) == {0.05, 0.1, 0.15}
    times = np.asarray(out.trajectory.times)
    for t_snap, field in out.trajectory.snapshots.items():
        # the stepper must have landed on the requested time exactly
        assert np.min(np.abs(times - t_snap)) < 1e-12
        assert np.all(field.values[spec.grid.boundary_mask] == 0.0)
        # analytic check modulo the O(dt) implicit-Euler bias
        assert field.values.max() == pytest.approx(np.exp(-PI2 * t_snap), rel=5e-2)


def test_outcome_json_contract(tmp_path):
    """outcome.json carries the classification, estimates and counts; it
    has certified_at and certificate only when a certificate decided the
    kind, so a run to its end writes the same file as without one."""
    import json

    spec = _sin_problem(resolution=32, t_end=0.05)
    out = run_simulation(spec)
    path = tmp_path / "outcome.json"
    out.to_json(path)
    payload = json.loads(path.read_text())
    for key in ("kind", "T_est", "T_lo", "T_hi", "rate_fit", "steps", "newton_iters_total",
                "factorizations", "rejected_attempts"):
        assert key in payload
    assert payload["factorizations"] == out.factorizations > 0
    assert payload["kind"] == "Completed"
    assert payload["T_est"] is None  # NaN sanitized for strict JSON
    assert "certified_at" not in payload and "certificate" not in payload

    power = ReactionSpec.power(1.0, 2.0)
    u_ss = steady_state(spec.grid, None, 2.0, 1.0, 2.0)
    # 11.5 lies between min and max of U / sin(pi x): neither below nor above U
    full = run_simulation(_sin_problem(amplitude=11.5, resolution=32, t_end=0.005,
                                       reaction=power), certificate=u_ss)
    full.to_json(path)
    uncertified = run_simulation(_sin_problem(amplitude=11.5, resolution=32, t_end=0.005,
                                              reaction=power))
    uncertified.to_json(tmp_path / "plain.json")
    assert full.certified_at is None and full.kind == "Completed"
    assert path.read_bytes() == (tmp_path / "plain.json").read_bytes()

    certified = run_simulation(_sin_problem(amplitude=20.0, resolution=32, t_end=0.05,
                                            reaction=power), certificate=u_ss)
    certified.to_json(path)
    payload = json.loads(path.read_text())
    assert payload["kind"] == "BlowUp"
    assert (payload["certified_at"], payload["certificate"]) == (0.0, "steady_state")
    assert payload["T_est"] is None and payload["steps"] == 0


def test_trajectory_csv_columns(tmp_path):
    spec = _sin_problem(resolution=32, t_end=0.05)
    out = run_simulation(spec)
    path = tmp_path / "traj.csv"
    out.trajectory.to_csv(path)
    header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
    assert header.split(",") == ["t", "dt", "sup_abs_u", "mass", "g", "energy"]


def test_trajectory_csv_is_the_row_by_row_format(tmp_path):
    """to_csv formats every row in one pass, to the bytes of formatting each
    value with f"{v:.17g}" row by row, non-finite values and an int
    included."""
    traj = run_simulation(_sin_problem(resolution=32, t_end=0.05)).trajectory
    traj.append(1.0, 0.5, float("inf"), -0.0, float("nan"), 5)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, header_lines=("a", "b = 1"))
    rows = zip(traj.times, traj.dt_used, traj.sup_abs_u, traj.mass, traj.weighted_mass,
               traj.energy)
    assert path.read_text() == "# a\n# b = 1\nt,dt,sup_abs_u,mass,g,energy\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def test_trajectory_append_guards_time_order():
    traj = Trajectory()
    traj.append(0.1, 0.1, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(Exception):
        traj.append(0.1, 0.1, 1.0, 1.0, 1.0, 1.0)


class TestInvariants:
    """Structural properties of the implicit scheme on benchmark runs."""

    def test_maximum_principle_no_reaction(self):
        for p in (2.0, 3.0):
            spec = _sin_problem(resolution=48, t_end=0.2, p=p)
            out = run_simulation(spec)
            sups = np.asarray(out.trajectory.sup_abs_u)
            assert np.all(np.diff(sups) <= 1e-12), f"p={p}"

    def test_energy_decrease_no_reaction(self):
        for p in (2.0, 3.0):
            spec = _sin_problem(resolution=48, t_end=0.2, p=p)
            out = run_simulation(spec)
            ens = np.asarray(out.trajectory.energy)
            slack = 1e-8 * max(1.0, ens[0])
            assert np.all(np.diff(ens) <= slack), f"p={p}"

    def test_positivity_preserved(self):
        reaction = ReactionSpec.power(1.0, 2.0)
        g = build_grid("interval", 1.0, 48)
        phi = Field(g, 5.0 * np.sin(np.pi * g.axes[0]))
        spec = ProblemSpec(
            grid=g, weight=None, p=2.0, reaction=reaction,
            initial=phi, t_end=0.5, dt0=1e-3,
            dt_max=5e-3, snapshot_times=(0.1, 0.3),
        )
        out = run_simulation(spec)
        assert len(out.trajectory.snapshots) == 2
        for field in out.trajectory.snapshots.values():
            assert field.values.min() > -1e-10

    def test_comparison_ordering(self):
        """Ordered initial data stays ordered under the same monotone
        reaction (checked at shared snapshot times)."""
        reaction = ReactionSpec.power(0.5, 2.0)
        snaps = (0.05, 0.1, 0.2)
        outs = []
        for amplitude in (1.0, 2.0):
            g = build_grid("interval", 1.0, 48)
            phi = Field(g, amplitude * np.sin(np.pi * g.axes[0]))
            spec = ProblemSpec(
                grid=g, weight=None, p=2.0, reaction=reaction,
                initial=phi, t_end=0.25, dt0=1e-3,
                dt_max=2e-3, snapshot_times=snaps,
            )
            outs.append(run_simulation(spec))
        for t_snap in snaps:
            lo = outs[0].trajectory.snapshots[t_snap].values
            hi = outs[1].trajectory.snapshots[t_snap].values
            assert np.all(lo <= hi + 1e-8), f"ordering violated at t={t_snap}"

    def test_refinement_self_consistency(self):
        """Halving h and dt0 moves sup|u|(t_end) by under 2%."""
        sups = []
        for res, dt in ((32, 2e-3), (64, 1e-3)):
            spec = _sin_problem(resolution=res, t_end=0.3, dt0=dt, dt_max=dt, p=3.0)
            out = run_simulation(spec)
            sups.append(out.trajectory.sup_abs_u[-1])
        assert abs(sups[1] - sups[0]) / sups[1] < 0.02


class TestBlowupEstimate:
    def test_synthetic_inverse_power(self):
        # u(t) = (1 - t)^{-1}, sigma = 2: y = 1 - t exactly, root at 1
        traj = Trajectory()
        ts = np.linspace(0.5, 0.95, 20)
        for t in ts:
            traj.append(t, 1e-2, (1.0 - t) ** -1.0, 0.0, 0.0, 0.0)
        t_est, t_lo, t_hi = estimate_blowup_time(traj, 2.0)
        assert t_est == pytest.approx(1.0, abs=1e-6)
        assert t_lo == pytest.approx(0.95)
        assert t_hi >= t_est

    def test_synthetic_sqrt_blowup(self):
        # u(t) = (2 - t)^{-1/2}, sigma = 3: y = 2 - t, root at 2
        traj = Trajectory()
        for t in np.linspace(1.0, 1.9, 25):
            traj.append(t, 1e-2, (2.0 - t) ** -0.5, 0.0, 0.0, 0.0)
        t_est, _, _ = estimate_blowup_time(traj, 3.0)
        assert t_est == pytest.approx(2.0, abs=1e-6)

    def test_nonmonotone_tail_falls_back(self):
        traj = Trajectory()
        for i, t in enumerate(np.linspace(0.0, 1.0, 12)):
            traj.append(t, 1e-1, 1.0 + 0.1 * (-1.0) ** i, 0.0, 0.0, 0.0)
        t_est, t_lo, t_hi = estimate_blowup_time(traj, 2.0, t_end=5.0)
        assert t_est == t_lo == 1.0
        assert t_hi == 5.0

    def test_short_series_falls_back(self):
        traj = Trajectory()
        for t in (0.1, 0.2, 0.3):
            traj.append(t, 0.1, t + 1.0, 0.0, 0.0, 0.0)
        assert estimate_blowup_time(traj, 2.0, t_end=9.0) == (0.3, 0.3, 9.0)

    def test_sigma_validation(self):
        with pytest.raises(ConfigError):
            estimate_blowup_time(Trajectory(), 1.0)


# sup norms near 1e-150 or 1e150 overflow or underflow the fit's
# y = sup^(1 - sigma), its slope's square or its residual variance, which
# numpy reports by a RuntimeWarning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    samples=st.integers(1, 40),
    steps=st.lists(st.floats(1e-6, 1.0), min_size=39, max_size=39),
    t0=st.floats(0.0, 10.0),
    sigma=st.floats(1.05, 4.0),
    profile=st.booleans(),
    growth=st.lists(st.floats(1e-6, 2.0), min_size=40, max_size=40),
    gap=st.floats(1e-3, 100.0),
    extra=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 100.0]),
    scale=st.sampled_from([1.0, 1e-150, 1e150]),
)
def test_blowup_estimate_is_bracketed(samples, steps, t0, sigma, profile, growth, gap, extra,
                                      scale):
    """On a strictly growing sup-norm tail, noisy or on the exact profile
    (T - t)^(-1/(sigma - 1)) with T past or before t_end, at any scale, and
    on a tail too short to fit, the estimate satisfies
    t_lo = t_last <= t_est <= t_hi <= t_end, as the fallback
    (t_last, t_last, t_end) does."""
    t = t0 + np.cumsum([0.0] + steps[: samples - 1])
    assume(np.all(np.diff(t) > 0.0))
    t_last, t_end = float(t[-1]), float(t[-1]) + extra
    if profile:
        sup = (t_last + gap - t) ** (-1.0 / (sigma - 1.0))
    else:
        sup = np.cumprod(1.0 + np.array(growth[:samples]))
    sup = scale * sup
    assume(np.all(np.isfinite(sup)) and np.all(np.diff(sup) > 0.0))
    traj = Trajectory()
    for ti, si in zip(t, sup):
        traj.append(float(ti), 0.0, float(si), 0.0, 0.0, 0.0)
    t_est, t_lo, t_hi = estimate_blowup_time(traj, sigma, t_end=t_end)
    event("too short" if samples < 5 else "root past t_end" if t_est == t_end
          else "root at t_last" if t_est == t_last else "root inside")
    assert t_lo == t_last <= t_est <= t_hi <= t_end


def test_decay_rate_fit():
    """The decay rate of an exact exponential is recovered from its
    mid-decay window, from the positive samples of the second half where
    that window holds fewer than 5, and is NaN where fewer than 2 remain."""
    fit = timestepper._fit_exponential_rate
    ts = np.linspace(0.0, 10.0, 200)
    assert fit(ts, 5.0 * np.exp(-3.0 * ts), 5.0) == pytest.approx(3.0, rel=1e-12)
    # 2 of the 8 samples lie in the window (1e-7, 1e-2) sup0
    ts = np.linspace(0.0, 10.0, 8)
    sups = 5.0 * np.exp(-3.0 * ts)
    assert np.sum((sups > 5e-7) & (sups < 5e-2)) == 2
    assert fit(ts, sups, 5.0) == pytest.approx(3.0, rel=1e-12)
    assert np.isnan(fit([0.0, 1.0], [5.0, 5e-3], 5.0))


class TestSpecValidation:
    def test_boundary_violation(self):
        g = build_grid("interval", 1.0, 16)
        bad = Field(g, np.ones(g.shape))
        with pytest.raises(ConfigError):
            ProblemSpec(grid=g, weight=None, p=2.0, reaction=ReactionSpec.none(),
                        initial=bad, t_end=1.0, dt0=1e-3)

    @pytest.mark.parametrize("snaps, bad", [((0.5, 1.5), 1.5), ((0.0, -1e-3, 2.0), -1e-3)])
    def test_snapshot_times_within_the_run(self, snaps, bad):
        g = build_grid("interval", 1.0, 16)
        phi = Field(g, np.sin(np.pi * g.axes[0]))
        with pytest.raises(ConfigError, match=f"snapshot time {bad} outside"):
            ProblemSpec(grid=g, weight=None, p=2.0, reaction=ReactionSpec.none(),
                        initial=phi, t_end=1.0, dt0=1e-3, snapshot_times=snaps)

    def test_weight_exponent_window(self):
        g = build_grid("radial", 1.0, 16, n=2)
        phi = Field(g, np.cos(np.pi * g.axes[0] / 2.0))
        phi.values[-1] = 0.0
        with pytest.raises(ConfigError, match="theta_w must lie in") as err:
            ProblemSpec(grid=g, weight=WeightSpec.power(2.5), p=2.0,
                        reaction=ReactionSpec.none(), initial=phi,
                        t_end=1.0, dt0=1e-3)
        assert err.value.keys == ("theta_w", "p")

    def test_grid_identity_required(self):
        g1 = build_grid("interval", 1.0, 16)
        g2 = build_grid("interval", 1.0, 16)
        phi = Field(g2, np.sin(np.pi * g2.axes[0]))
        with pytest.raises(ConfigError):
            ProblemSpec(grid=g1, weight=None, p=2.0, reaction=ReactionSpec.none(),
                        initial=phi, t_end=1.0, dt0=1e-3)



SQRT_120 = np.sqrt(120.0)


@pytest.mark.parametrize("a_star, values, kinds, calls, bracket, undecided", [
    (11.5, [20.0, 6.0, 20.0], {},
     [6.0, 20.0, 10.954451150103322, 14.801656089845705, 12.73357838853023,
      11.810561477896204, 11.374454657912443], (11.374454657912443, 11.810561477896204), None),
    (1.02, [1.0, 1.05], {}, [1.0, 1.05], (1.0, 1.05), None),
    (1.02, [1.0, 1.0500001], {}, [1.0, 1.0500001, np.sqrt(1.0500001)],
     (1.0, np.sqrt(1.0500001)), None),
    (4.0, [1.0, 2.0, 3.0, 4.0], {2.0: "BlowUp"}, [1.0, 2.0, 3.0, 4.0], None, None),
    (11.5, [6.0, 20.0], {SQRT_120: "Completed"}, [6.0, 20.0, SQRT_120], (6.0, 20.0), SQRT_120),
    (30.0, [6.0, 20.0], {}, [6.0, 20.0], None, None),
], ids=["scan-1d-order", "stop-at-rel-tol", "past-rel-tol", "non-monotone", "undecided",
        "all-decay"])
def test_bisect_dichotomy_with_a_fake_probe(a_star, values, kinds, calls, bracket, undecided):
    """The scan on a probe that runs no PDE: amplitudes below a_star decay
    and the rest blow up, unless kinds says otherwise.  The distinct values
    run first in increasing order (with a_star inside scan-1d's last
    bracket, in scan-1d's order), then each midpoint is the square root of
    the bracket's product.  A ratio of exactly 1 + rel_tol stops the scan
    (1.0 + 0.05 == 1.05 in floating point), and so do a decayed amplitude
    above a blown-up one, a midpoint that completes, and values of one
    kind."""
    probed = []

    def probe(a):
        probed.append(a)
        return RunOutcome(kinds.get(a, "Decayed" if a < a_star else "BlowUp"), Trajectory())

    runs, got_bracket, got_undecided = bisect_dichotomy(probe, values, 0.05)
    assert probed == calls and list(runs) == calls
    assert (got_bracket, got_undecided) == (bracket, undecided)
    for i in range(len(set(values)), len(calls)):
        lo = max(a for a in calls[:i] if runs[a].kind == "Decayed")
        hi = min(a for a in calls[:i] if runs[a].kind == "BlowUp")
        assert calls[i] == np.sqrt(lo * hi) and hi / lo > 1.05


def _fake_scan_probe(probed, a_star=11.5):
    """A probe that runs no PDE: amplitudes below a_star decay and the rest
    blow up.  It raises after 300 probes, so a scan that never ends fails
    instead of hanging."""
    def probe(a):
        probed.append(a)
        if len(probed) > 300:
            raise RuntimeError("the scan did not end after 300 probes")
        return RunOutcome("Decayed" if a < a_star else "BlowUp", Trajectory())
    return probe


@pytest.mark.parametrize("rel_tol, message", [
    (1e-16, "scan rel_tol must exceed 2^-53, got 1e-16"),
    (1e-17, "scan rel_tol must exceed 2^-53, got 1e-17"),
    (2.0 ** -53, "scan rel_tol must exceed 2^-53, got 1.1102230246251565e-16"),
    (0.0, "scan rel_tol must be positive"),
])
def test_bisect_dichotomy_rejects_an_unreachable_rel_tol(rel_tol, message):
    """At rel_tol <= 2^-53, 1 + rel_tol rounds to 1, which the ratio of two
    adjacent amplitudes never meets, and the geometric midpoint of such a
    bracket rounds to one of its ends, probed again forever.  The scan
    raises ConfigError before its first probe."""
    probed = []
    with pytest.raises(ConfigError) as info:
        bisect_dichotomy(_fake_scan_probe(probed), [6.0, 20.0], rel_tol)
    assert str(info.value) == message and info.value.keys == ("rel_tol",)
    assert probed == []


def test_bisect_dichotomy_ends_at_the_smallest_reachable_rel_tol():
    """At rel_tol = 2^-52, 1 + rel_tol is the float after 1, and the scan
    ends on a bracket of neighbouring floats around a_star = 11.5."""
    probed = []
    runs, bracket, undecided = bisect_dichotomy(_fake_scan_probe(probed), [6.0, 20.0],
                                                2.0 ** -52)
    assert undecided is None and bracket[0] < 11.5 <= bracket[1]
    assert bracket[1] / bracket[0] <= 1.0 + 2.0 ** -52 and len(probed) < 100


@pytest.mark.parametrize("predicted, pair_probed", [
    (11.4016, ["lo", "hi"]),
    (11.2, ["lo", "hi"]),
    (1.1 * 11.5124, ["lo"]),
    (3.0, []),
], ids=["on-target", "below", "10%-high", "outside"])
def test_bisect_dichotomy_probes_the_predicted_pair_first(predicted, pair_probed):
    """With a predicted amplitude A, the probes after the values are lo =
    A (1.05)^(-1/2) and hi = A (1.05)^(1/2), moved down by ulps while
    hi / lo > 1.05, each only while it lies inside the bracket; then
    geometric midpoints, with a_star = 11.5 as in the fake probe above.  A
    prediction near a_star ends the scan with the pair as its bracket (at
    11.4016, only after hi is moved down, from a ratio above 1.05); one
    that leaves a_star above hi, or one 10 % high whose lo blows up (so hi
    lies outside the bracket), bisects on; one outside [6, 20] probes the
    sequence of a scan without a prediction."""
    lo = predicted * 1.05 ** -0.5
    hi = predicted * 1.05 ** 0.5
    while hi / lo > 1.05:
        hi = np.nextafter(hi, 0.0)
    probed = []

    def probe(a):
        probed.append(a)
        return RunOutcome("Decayed" if a < 11.5 else "BlowUp", Trajectory())

    runs, bracket, undecided = bisect_dichotomy(probe, [6.0, 20.0], 0.05, predicted)
    pair = [{"lo": lo, "hi": hi}[name] for name in pair_probed]
    assert probed[:2 + len(pair)] == [6.0, 20.0, *pair] and list(runs) == probed
    assert undecided is None and bracket[0] < 11.5 < bracket[1] <= 1.05 * bracket[0]
    for i in range(2 + len(pair), len(probed)):
        a_lo = max(a for a in probed[:i] if a < 11.5)
        a_hi = min(a for a in probed[:i] if a >= 11.5)
        assert probed[i] == np.sqrt(a_lo * a_hi) and a_hi / a_lo > 1.05
    if predicted == 11.4016:
        assert predicted * 1.05 ** 0.5 / lo > 1.05
        assert probed == [6.0, 20.0, lo, hi] and bracket == (lo, hi)
    if predicted == 3.0:
        assert probed[2:] == [SQRT_120, 14.801656089845705, 12.73357838853023,
                              11.810561477896204, 11.374454657912443]


def _certified_problem(mode, resolution, n, theta_w, sigma):
    """A p = 2 power-reaction problem with data a * phi0 (sin on the
    interval, cos(pi r / 2) on the ball) and dt_max f'(max U) = 1/2, whose
    steady state U certifies verdicts.  Returns (spec_at, U, phi0),
    spec_at(a, t_end) the problem at amplitude a."""
    g = build_grid(mode, 1.0, resolution, n=n)
    weight = WeightSpec.power(theta_w) if theta_w else None
    x = g.axes[0]
    phi0 = np.sin(np.pi * x) if mode == "interval" else np.cos(0.5 * np.pi * x)
    phi0[g.boundary_mask] = 0.0
    u_ss = steady_state(g, weight, 2.0, 1.0, sigma)
    reaction = ReactionSpec.power(1.0, sigma)
    dt_max = 0.5 / float(reaction_derivative(reaction, 0.0, u_ss.values.max()))

    def spec_at(a, t_end):
        return ProblemSpec(grid=g, weight=weight, p=2.0, reaction=reaction,
                           initial=Field(g, a * phi0), t_end=t_end, dt0=min(1e-3, dt_max),
                           dt_max=dt_max)
    return spec_at, u_ss, phi0


def _ratio_bounds(u_ss, phi0):
    """[min, max] of U / phi0 over the interior nodes: the amplitudes below
    and above which the data lie below and above U."""
    ratio = u_ss.values[u_ss.grid.interior] / phi0[u_ss.grid.interior]
    return ratio.min(), ratio.max()


def test_predicted_amplitude_against_a_fine_bisection():
    """On a ball (n = 2, resolution 24, sigma = 2, data cos(pi r / 2)),
    A_lin = <e, U>_V / <e, phi0>_V from U's unstable mode lies within
    2.5e-3 of the critical amplitude that a bisection at rel_tol 2e-3 of
    certified runs brackets, and the pair A_lin (1.05)^(-1/2),
    A_lin (1.05)^(1/2) that a scan at rel_tol 0.05 probes first contains
    that bracket."""
    spec_at, u_ss, phi0 = _certified_problem("radial", 24, 2, 0.0, 2.0)
    nu1, mode = unstable_mode(u_ss, 1.0, 2.0)
    vol = cell_volumes(u_ss.grid)
    a_lin = np.sum(vol * mode.values * u_ss.values) / np.sum(vol * mode.values * phi0)
    a_sub, a_super = _ratio_bounds(u_ss, phi0)
    runs, (a_lo, a_hi), undecided = bisect_dichotomy(
        lambda a: run_simulation(spec_at(a, 5.0), certificate=u_ss),
        [0.999 * a_sub, 1.001 * a_super], 2e-3)
    assert undecided is None and a_hi / a_lo <= 1.002 and nu1 < 0.0
    assert abs(a_lin / np.sqrt(a_lo * a_hi) - 1.0) < 2.5e-3
    assert a_lin * 1.05 ** -0.5 < a_lo < a_hi < a_lin * 1.05 ** 0.5


def test_certificate_margin_at_the_bracket_ends():
    """On the scan-1d problem, data at a_super (1 + 2 delta) are certified
    to blow up and data at a_sub (1 - 2 delta) to decay at t = 0, delta the
    CERTIFICATE_MARGIN; data at a_super (1 + delta / 2) and a_sub
    (1 - delta / 2) touch U within the margin at one node, so neither is
    certified at t = 0."""
    delta = timestepper.CERTIFICATE_MARGIN
    spec_at, u_ss, phi0 = _certified_problem("interval", 64, None, 0.0, 2.0)
    a_sub, a_super = _ratio_bounds(u_ss, phi0)
    assert (a_sub, a_super) == (pytest.approx(10.52996, rel=1e-6),
                                pytest.approx(11.79462, rel=1e-6))

    def run(a):
        return run_simulation(spec_at(a, 0.01), certificate=u_ss)

    for a, kind in ((a_super * (1 + 2 * delta), "BlowUp"), (a_sub * (1 - 2 * delta), "Decayed")):
        out = run(a)
        assert (out.kind, out.certified_at, out.steps) == (kind, 0.0, 0)
    for a in (a_super * (1 + delta / 2), a_sub * (1 - delta / 2)):
        assert run(a).certified_at != 0.0


def test_certificate_only_where_it_holds():
    """run_simulation takes a steady state as a certificate only where
    certificate_holds: at p = 2 on an interval or radial grid, whatever
    dt_max.  At p = 3 or on a tensor grid it raises ConfigError before any
    step."""
    spec_at, u_ss, phi0 = _certified_problem("interval", 32, None, 0.0, 2.0)
    spec = spec_at(11.0, 0.01)
    assert timestepper.certificate_holds(spec)
    assert timestepper.certificate_holds(
        replace(spec, dt_max=4 * spec.dt_max))
    square = build_grid("tensor2d", 1.0, 8)
    wrong = {
        "p = 3": replace(spec, p=3.0),
        "tensor2d": replace(spec, grid=square, initial=Field(square, np.zeros(square.shape))),
    }
    for name, bad in wrong.items():
        assert not timestepper.certificate_holds(bad), name
        with pytest.raises(ConfigError, match="certifies runs only at p = 2"):
            run_simulation(bad, certificate=u_ss)


def test_run_without_reaction_coefficient_keeps_no_bracket():
    """A power reaction with alpha0 = 0 vanishes: certificate_holds is
    false, so a run given the eigenpair keeps no blow-up bracket, whose
    Bernoulli times divide by alpha0, and completes as the heat flow does."""
    spec = _sin_problem(t_end=0.05, reaction=ReactionSpec.power(0.0, 2.0))
    assert not timestepper.certificate_holds(spec)
    pair = smallest_eigenpair(spec.grid, None, 2.0)
    out = run_simulation(spec, eigenpair=pair)
    heat = run_simulation(replace(spec, reaction=ReactionSpec.none()), eigenpair=pair)
    assert (out.kind, out.bounds) == ("Completed", None)
    assert out.trajectory.sup_abs_u[-1] == pytest.approx(heat.trajectory.sup_abs_u[-1],
                                                         rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(["interval", "radial"]),
    resolution=st.integers(8, 32),
    n=st.integers(2, 3),
    theta_w=st.sampled_from([0.0, 1.0]),
    sigma=st.floats(1.5, 3.5),
    where=st.floats(0.0, 1.0),
    t_end=st.sampled_from([0.3, 20.0]),
)
# certified at t = 0 just above and well below U; by t = 0.3 neither full
# run has blown up or decayed
@example(mode="interval", resolution=32, n=2, theta_w=0.0, sigma=2.0, where=0.65, t_end=0.3)
@example(mode="interval", resolution=32, n=2, theta_w=0.0, sigma=2.0, where=0.2, t_end=0.3)
def test_certified_verdict_is_the_full_runs(mode, resolution, n, theta_w, sigma, where, t_end):
    """For p = 2 on interval and radial grids, with or without a weight,
    every certified verdict is the kind of the same data run in full, at
    amplitudes spread over [0.8 a_sub, 1.2 a_super]: the flow keeps the
    order of data below or above the steady state U, and a recorded state
    is certified only with a margin that bounds the flow's deviation from
    it.  The verdict is the
    eventual kind: by a short t_end the full run may still be Completed
    (most decays take longer than 0.3), and then the same data run to
    t_end = 20 end in the certified kind.  Where U has no discrete solve (on a coarse
    weighted ball the quotient can keep falling as the profile
    concentrates at the centre node, and the solve stalls), nothing is
    certified."""
    try:
        spec_at, u_ss, phi0 = _certified_problem(mode, resolution,
                                                 n if mode == "radial" else None, theta_w, sigma)
    except ConvergenceError:
        event("no steady state")
        return
    a_sub, a_super = _ratio_bounds(u_ss, phi0)
    lo, hi = np.log(0.8 * a_sub), np.log(1.2 * a_super)
    a = np.exp(lo + where * (hi - lo))
    certified = run_simulation(spec_at(a, t_end), certificate=u_ss)
    if certified.certified_at is None:
        event("not certified")
        return
    full = run_simulation(spec_at(a, t_end))
    if full.kind == "Completed":
        event(f"certified {certified.kind}, full run Completed by t_end")
        full = run_simulation(spec_at(a, 20.0))
    else:
        event(f"certified {certified.kind} by t_end")
    assert certified.steps <= full.steps
    assert certified.kind == full.kind


@pytest.mark.parametrize("resolution, n", [(8, 2), (32, 2), (8, 3), (16, 3)])
def test_small_decay_reaches_the_decay_floor(resolution, n):
    """Data with sup|u0| < 1 decay to the floor 1e-8 sup|u0|: a step's
    error estimate is relative to the state, so small data do not stall
    and end Completed at t_end.  On a weighted ball at 0.8 a_sub, sup|u0|
    is about 0.06."""
    spec_at, u_ss, phi0 = _certified_problem("radial", resolution, n, 1.0, 3.0)
    a_sub, _ = _ratio_bounds(u_ss, phi0)
    spec = spec_at(0.8 * a_sub, 20.0)
    sup0 = float(np.abs(spec.initial.values).max())
    assert sup0 < 1.0
    outcome = run_simulation(spec)
    assert outcome.kind == "Decayed"
    assert outcome.trajectory.times[-1] < 20.0
    assert outcome.trajectory.sup_abs_u[-1] < 1e-8 * sup0
