"""Implicit time stepping: oracles, classification, and structural invariants."""

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from degenflow import (
    ConfigError,
    Field,
    NumericalError,
    ProblemSpec,
    ReactionSpec,
    StepControls,
    Trajectory,
    WeightSpec,
    build_grid,
    cell_volumes,
    diffusion_jacobian,
    energy,
    energy_hessian_matrix,
    estimate_blowup_time,
    reaction_derivative,
    run_simulation,
    step_implicit,
)
from degenflow import timestepper
from degenflow.banded import BandPattern, FactorError, lower_entries
from degenflow.timestepper import _NewtonSystem, _StepFailure

PI2 = np.pi**2


def _node_coordinates(g):
    """Per-axis nodal coordinates broadcast to the grid shape."""
    return np.meshgrid(*g.axes, indexing="ij")


def _sin_problem(amplitude=1.0, resolution=64, t_end=0.3, dt0=1e-3, dt_max=5e-3,
                 reaction=None, p=2.0, **ctl_kw):
    g = build_grid("interval", 1.0, resolution)
    phi = Field(g, amplitude * np.sin(np.pi * g.axes[0]))
    phi.values[g.boundary_mask] = 0.0
    controls = StepControls(dt_max=dt_max, **ctl_kw)
    return ProblemSpec(
        grid=g,
        weight=None,
        p=p,
        reaction=reaction if reaction is not None else ReactionSpec.none(),
        initial=phi,
        t_end=t_end,
        dt0=dt0,
        controls=controls,
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


def _band_to_dense(band, kd):
    """Dense form of a LAPACK band array in either storage: symmetric lower,
    kd + 1 rows with entry (i, j), i >= j, at row i - j; or general,
    3 kd + 1 rows with entry (i, j) at row 2 kd + i - j, whose top kd rows
    are the fill-in space of the factorization and must be empty."""
    n = band.shape[1]
    i, j = np.indices((n, n))
    dense = np.zeros((n, n))
    if len(band) == kd + 1:
        lower = (i >= j) & (i - j <= kd)
        dense[lower] = band[i[lower] - j[lower], j[lower]]
        return dense + np.tril(dense, -1).T
    assert len(band) == 3 * kd + 1
    assert not band[:kd].any()
    inside = np.abs(i - j) <= kd
    dense[inside] = band[2 * kd + i[inside] - j[inside], j[inside]]
    return dense


@pytest.mark.parametrize("mode", ["interval", "radial", "tensor2d"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_newton_system_matches_jacobian_form(mode, p):
    """The band array the stepper factors holds V (I - dt J - dt f')
    restricted to the interior, with J from diffusion_jacobian."""
    g = build_grid(mode, 1.0, 12, n=2)
    weight = WeightSpec.power(1.0)
    vals = np.random.default_rng(5).standard_normal(g.shape)
    vals[g.boundary_mask] = 0.0
    u = Field(g, vals)
    dt, t_new = 3e-3, 0.1
    drea = reaction_derivative(ReactionSpec.power(2.0, 2.5), t_new, vals).ravel()

    system = _NewtonSystem(g, weight, p)
    idx = system.idx
    got = _band_to_dense(system.matrix(u, dt, drea[idx]), system.kd)
    jac = diffusion_jacobian(u, weight, p).toarray()
    vol = cell_volumes(g).ravel()
    ref = vol[:, None] * (np.eye(g.n_nodes) - dt * jac - dt * np.diag(drea))
    ref = ref[np.ix_(idx, idx)]
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _indefinite_newton_band(symmetric):
    """The 1d p = 2 Newton matrix V (1 - dt f') + dt K with a power reaction
    and dt f' up to 5, built from the stiffness by the band module."""
    g = build_grid("interval", 1.0, 32)
    vals = 50.0 * np.sin(np.pi * g.axes[0])
    vals[g.boundary_mask] = 0.0
    dt = 0.05
    idx = np.flatnonzero(~g.boundary_mask.ravel())
    drea = reaction_derivative(ReactionSpec.power(1.0, 2.0), 0.0, vals).ravel()[idx]
    assert (dt * drea > 1.0).any()
    data, row, col = lower_entries(energy_hessian_matrix(g, None).tocsr()[idx][:, idx])
    pattern = BandPattern(row, col, len(idx))
    diag = cell_volumes(g).ravel()[idx] * (1.0 - dt * drea)
    return pattern, pattern.fill(dt * data, diag, symmetric)


def test_band_factor_solves_indefinite_system():
    """Where dt f' > 1 the Newton matrix is indefinite, so banded Cholesky
    fails on it; the pivoted band LU still solves it."""
    pattern, band = _indefinite_newton_band(symmetric=False)
    dense = _band_to_dense(band, pattern.kd)
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() < 0.0 < eigs.max()
    upper = np.ascontiguousarray(band[pattern.kd:2 * pattern.kd + 1])
    assert lapack.dpbtrf(upper)[1] > 0

    rhs = np.random.default_rng(3).standard_normal(band.shape[1])
    x = pattern.solve(pattern.factor(band), rhs)
    expected = np.linalg.solve(dense, rhs)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


def test_singular_band_factor_is_step_failure():
    """An exactly singular system fails the factorization in either storage
    with a FactorError, a NumericalError that run_simulation takes as a
    failed step and retries with a smaller dt."""
    g = build_grid("tensor2d", 1.0, 8)
    idx = np.flatnonzero(~g.boundary_mask.ravel())
    _, row, col = lower_entries(energy_hessian_matrix(g, None).tocsr()[idx][:, idx])
    pattern = BandPattern(row, col, len(idx))
    assert issubclass(FactorError, NumericalError)
    for shape in (pattern.sym_shape, pattern.band_shape):
        with pytest.raises(FactorError, match="linear solve failed"):
            pattern.factor(np.zeros(shape, order="F"))


def test_non_spd_symmetric_band_is_step_failure():
    """Band Cholesky reports an indefinite matrix as a failed step rather
    than returning a wrong factor."""
    pattern, band = _indefinite_newton_band(symmetric=True)
    assert np.linalg.eigvalsh(_band_to_dense(band, pattern.kd)).min() < 0.0
    with pytest.raises(FactorError, match="not positive definite"):
        pattern.factor(band)


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


class _LapackSpy:
    """Stand-in for scipy.linalg.lapack that records the routines called."""

    def __init__(self):
        self.called = []

    def __getattr__(self, name):
        self.called.append(name)
        return getattr(lapack, name)


@pytest.mark.parametrize("mode, p", [("interval", 2.0), ("tensor2d", 3.0)])
def test_cholesky_exactly_when_dt_fprime_below_one(monkeypatch, mode, p):
    """The matrix is held symmetric and factored by dpbtrf when dt f' < 1 at
    every interior node, and by dgbtrf as soon as one node reaches 1."""
    g = build_grid(mode, 1.0, 8)
    vals = np.random.default_rng(7).standard_normal(g.shape)
    vals[g.boundary_mask] = 0.0
    u = Field(g, vals)
    dt = 1e-2
    system = _NewtonSystem(g, WeightSpec.power(1.0), p)
    spy = _LapackSpy()
    monkeypatch.setattr("degenflow.banded.lapack", spy)
    rhs = np.ones(len(system.idx))
    for top, routines, shape in [
        (1.0 - 1e-9, ["dpbtrf", "dpbtrs"], system.sym_shape),
        (1.0, ["dgbtrf", "dgbtrs"], system.band_shape),
    ]:
        drea = np.full(len(system.idx), 0.5 / dt)
        drea[len(drea) // 2] = top / dt
        band = system.matrix(u, dt, drea)
        assert band.shape == shape
        spy.called.clear()
        system.solve(system.factor(band), rhs)
        assert spy.called == routines
    if p == 2.0:
        spy.called.clear()
        system.linear_solve(dt, rhs)
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
    """Whichever factorization the system picks, its solve matches a dense
    solve of the reference matrix V (I - dt J - dt f')."""
    g = build_grid(mode, 1.0, 8, n=2)
    weight = WeightSpec.power(1.0)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(g.shape)
    vals[g.boundary_mask] = 0.0
    u = Field(g, vals)
    drea = reaction_derivative(ReactionSpec.power(alpha0, 2.0), 0.0, vals).ravel()
    system = _NewtonSystem(g, weight, p)
    idx = system.idx
    jac = diffusion_jacobian(u, weight, p).toarray()
    vol = cell_volumes(g).ravel()
    ref = vol[:, None] * (np.eye(g.n_nodes) - dt * jac - dt * np.diag(drea))
    ref = ref[np.ix_(idx, idx)]
    # a nearly singular draw (dt f' close to 1) tests conditioning, not the solve
    assume(np.linalg.cond(ref) < 1e5)
    event("cholesky" if np.all(dt * drea[idx] < 1.0) else "band LU")
    rhs = rng.standard_normal(len(idx))
    x = system.solve(system.factor(system.matrix(u, dt, drea[idx])), rhs)
    expected = np.linalg.solve(ref, rhs)
    assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()


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
    |r| <= newton_tol * scale, or 1e-9 * scale on the linear p = 2 path, with
    scale = max(sup |u0|, 1); that bound times sum V |u1 - u0| / dt is the
    slack, plus 1e-12 E(u0) for the rounding of the energy sums.  A step that
    does not converge is counted as an event, not filtered out."""
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


def _converged_step(g, weight, p, vals, dt):
    """One backward-Euler step without reaction from vals, with the bound tol
    its residual must meet: newton_tol * scale, or 1e-9 * scale on the
    linear p = 2 path, with scale = max(sup |vals|, 1).  Returns None, after
    counting the draw as an unconverged event, when the step fails."""
    spec = ProblemSpec(grid=g, weight=weight, p=p, reaction=ReactionSpec.none(),
                       initial=Field(g, vals), t_end=1.0, dt0=dt)
    label = f"{g.mode}, p {'= 2' if p == 2.0 else '> 2'}"
    try:
        u1 = step_implicit(spec.initial, 0.0, dt, spec)
    except (_StepFailure, FactorError):
        event(f"{label}: unconverged")
        return None
    event(f"{label}: converged")
    tol = max(spec.controls.newton_tol, 1e-9) * max(np.abs(vals).max(), 1.0)
    r = timestepper._residual(u1, vals, dt, dt, spec)
    assert np.abs(r).max() <= tol
    return u1, tol


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


@pytest.mark.parametrize("make_spec, kind, steps, newton_iters, factorizations", [
    (_tensor_p3_problem, "Completed", 88, 608, 88),
    (_power_blowup_problem, "BlowUp", 107, 662, 537),
])
def test_step_and_newton_counts_pinned(make_spec, kind, steps, newton_iters, factorizations):
    """A rounding change in the Newton solve that flips an accept, reject or
    dt-growth decision, or a change in when the Newton matrix is refactored,
    shows up in these counts."""
    out = run_simulation(make_spec())
    assert out.kind == kind
    assert (out.steps, out.newton_iters_total, out.factorizations) == (
        steps, newton_iters, factorizations)


def _newton_iterations(monkeypatch, system):
    """Spy on one step's Newton loop.  Returns the list that the step fills
    with one [fresh, residual evaluations] entry per update: fresh is False
    when the update reused the previous factor, and more than one
    evaluation means the update was damped or failed."""
    log = []
    residual, matrix, solve = timestepper._residual, system.matrix, system.solve

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

    monkeypatch.setattr(timestepper, "_residual", spy_residual)
    monkeypatch.setattr(system, "matrix", spy_matrix)
    monkeypatch.setattr(system, "solve", spy_solve)
    return log


@pytest.mark.parametrize("state", ["smooth", "rough"])
@pytest.mark.parametrize("mode, p, exact", [
    ("interval", 3.0, True),
    ("radial", 3.0, True),
    ("tensor2d", 2.0, True),
    ("tensor2d", 3.0, False),
])
def test_factor_reuse_only_on_inexact_jacobian(monkeypatch, mode, p, exact, state):
    """An exact Newton matrix is factored at every iteration.  The inexact
    tensor p > 2 matrix is factored at the first iteration of a step and
    again only after an update that needed damping or failed, so a failed
    update with a reused factor is retried with a fresh one.  A failed
    update with a fresh factor raises _StepFailure and factors nothing
    more."""
    g = build_grid(mode, 1.0, 6, n=2)
    if state == "smooth":
        vals = np.prod([np.sin(np.pi * c) for c in _node_coordinates(g)], axis=0)
        reaction, dt = ReactionSpec.power(1.0, 2.0), 1e-3
    else:
        vals = 10.0 * np.random.default_rng(1).standard_normal(g.shape)
        reaction, dt = ReactionSpec.power(10.0, 3.0), 1e-2
    vals[g.boundary_mask] = 0.0
    spec = ProblemSpec(grid=g, weight=WeightSpec.power(1.0), p=p, reaction=reaction,
                       initial=Field(g, vals), t_end=1.0, dt0=dt,
                       controls=StepControls(dt_max=1.0))
    system = _NewtonSystem(g, spec.weight, p)
    assert system.exact == exact
    log = _newton_iterations(monkeypatch, system)
    stats = {}
    failure = None
    try:
        step_implicit(spec.initial, 0.0, dt, spec, system=system, stats=stats)
    except (_StepFailure, FactorError) as exc:
        failure = exc
        assert state == "rough"

    fresh = [f for f, _ in log]
    assert fresh[0]
    for f, (_, prev_evals) in zip(fresh[1:], log):
        assert f == (exact or prev_evals > 1)
    assert stats["factorizations"] == sum(fresh)
    if isinstance(failure, _StepFailure) and "stalled" in str(failure):
        assert log[-1] == [True, 4]  # every damping of a fresh update failed
    if state == "smooth":
        assert len(log) >= 2 and all(evals == 1 for _, evals in log)
    elif not exact:
        assert not all(fresh[1:])
        assert any(1 < evals < 4 for _, evals in log)  # a damped, accepted update

    # an update that cannot lower the residual, from a fresh factor
    monkeypatch.setattr(system, "solve", lambda lu, rhs: np.zeros_like(rhs))
    log.clear()
    stats.clear()
    with pytest.raises(_StepFailure, match="stalled"):
        step_implicit(spec.initial, 0.0, dt, spec, system=system, stats=stats)
    assert log == [[True, 4]] and stats["factorizations"] == 1


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
        controls=spec_base.controls,
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
    import json

    spec = _sin_problem(resolution=32, t_end=0.05)
    out = run_simulation(spec)
    path = tmp_path / "outcome.json"
    out.to_json(path)
    payload = json.loads(path.read_text())
    for key in ("kind", "T_est", "T_lo", "T_hi", "rate_fit", "steps", "newton_iters_total",
                "factorizations"):
        assert key in payload
    assert payload["factorizations"] == out.factorizations > 0
    assert payload["kind"] == "Completed"
    assert payload["T_est"] is None  # NaN sanitized for strict JSON


def test_trajectory_csv_columns(tmp_path):
    spec = _sin_problem(resolution=32, t_end=0.05)
    out = run_simulation(spec)
    path = tmp_path / "traj.csv"
    out.trajectory.to_csv(path)
    header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
    assert header.split(",") == ["t", "dt", "sup_abs_u", "mass", "g", "energy"]


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
            controls=StepControls(dt_max=5e-3), snapshot_times=(0.1, 0.3),
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
                controls=StepControls(dt_max=2e-3), snapshot_times=snaps,
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


class TestSpecValidation:
    def test_boundary_violation(self):
        g = build_grid("interval", 1.0, 16)
        bad = Field(g, np.ones(g.shape))
        with pytest.raises(ConfigError):
            ProblemSpec(grid=g, weight=None, p=2.0, reaction=ReactionSpec.none(),
                        initial=bad, t_end=1.0, dt0=1e-3)

    def test_cap_must_clear_initial(self):
        g = build_grid("interval", 1.0, 16)
        phi = Field(g, np.sin(np.pi * g.axes[0]))
        with pytest.raises(ConfigError):
            ProblemSpec(grid=g, weight=None, p=2.0, reaction=ReactionSpec.none(),
                        initial=phi, t_end=1.0, dt0=1e-3,
                        controls=StepControls(u_cap=0.5))

    def test_weight_exponent_window(self):
        g = build_grid("radial", 1.0, 16, n=2)
        phi = Field(g, np.cos(np.pi * g.axes[0] / 2.0))
        phi.values[-1] = 0.0
        with pytest.raises(ConfigError):
            ProblemSpec(grid=g, weight=WeightSpec.power(2.5), p=2.0,
                        reaction=ReactionSpec.none(), initial=phi,
                        t_end=1.0, dt0=1e-3)

    def test_grid_identity_required(self):
        g1 = build_grid("interval", 1.0, 16)
        g2 = build_grid("interval", 1.0, 16)
        phi = Field(g2, np.sin(np.pi * g2.axes[0]))
        with pytest.raises(ConfigError):
            ProblemSpec(grid=g1, weight=None, p=2.0, reaction=ReactionSpec.none(),
                        initial=phi, t_end=1.0, dt0=1e-3)
