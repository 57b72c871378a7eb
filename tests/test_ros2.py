"""The ROS2 runs of run_simulation: convergence in LTE_TOL, the proven
blow-up-time bounds and the bracket that ends blow-up runs, certificates
near the threshold, and run-level structure on rough data."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from degenflow import (
    Field,
    NumericalError,
    ProblemSpec,
    ReactionSpec,
    WeightSpec,
    build_grid,
    integrate,
    run_simulation,
)
from degenflow import BlowupBracket, bisect_dichotomy, cli, smallest_eigenpair, timestepper
from degenflow.cli import parse_config
from degenflow.eigensolver import STEADY_STATE_TOL, steady_state
from degenflow.plap_operator import FaceFlux

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _workload(name, amplitude=None):
    """The ProblemSpec of a benchmark workload config, at amplitude when
    given, and its eigenpair when it has a reaction term."""
    cfg = parse_config((PERFBENCH / "workloads" / f"{name}.ini").read_text())
    prob = cfg.sections["problem"]
    if amplitude is not None:
        prob["amplitude"] = amplitude
    grid, weight = cli._build_grid(cfg), cli._build_weight(cfg)
    pair = cli._solve_eigen(cfg, grid, weight) if prob["reaction"] != "none" else None
    return cli._build_problem(cfg, grid, weight, pair), pair


def _rel_err(value, name):
    ref = REFERENCE[name]["value"]
    return abs(value - ref) / abs(ref)


LTE_TOLS = (2e-2, 1e-2, 3e-3)


def test_results_converge_as_lte_tol_shrinks(monkeypatch):
    """tensor2d-p3's final sup and the scan's A = 20 blow-up time approach
    their dt-converged references in perfbench/reference.json as LTE_TOL
    goes 2e-2 (its value), 1e-2, 3e-3: errors 7.7e-4, 5.2e-4, 1.6e-4 and
    4.3e-2, 2.4e-2, 8.0e-3 when recorded, each level below the last and
    the finest below 0.3 times the coarsest."""
    assert timestepper.LTE_TOL == LTE_TOLS[0]
    final_sup, t_est = [], []
    for tol in LTE_TOLS:
        monkeypatch.setattr(timestepper, "LTE_TOL", tol)
        out = run_simulation(_workload("tensor2d-p3")[0])
        assert out.kind == "Completed"
        final_sup.append(_rel_err(out.trajectory.sup_abs_u[-1], "tensor2d-p3"))
        out = run_simulation(_workload("scan-1d", amplitude=20.0)[0])
        assert out.kind == "BlowUp"
        t_est.append(_rel_err(out.t_est, "scan-1d"))
    for errors, coarsest in ((final_sup, 1e-3), (t_est, 5e-2)):
        assert errors[0] < coarsest
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.3 * errors[0]


@pytest.mark.parametrize("amplitude", [20.0, 11.810561477896204], ids=["A20", "A11.81"])
def test_blowup_time_bounds_are_consistent(amplitude):
    """Two ODE comparisons bound the blow-up time T of the semi-discrete
    flow from any state u at time t, for p = 2, f(u) = u**2 and the unit
    weight: T >= t + 1/sup u, since K is an M-matrix so that the diffusion
    term is <= 0 where u is largest, and, while g > lambda1,
    T <= t + ln(1/(1 - lambda1/g))/lambda1, from g' >= -lambda1 g + g**2 by
    Jensen's inequality over the probability weights V phi, for
    g = sum V phi u.  A trajectory of that flow keeps the largest lower
    bound over its recorded states at most the smallest upper bound.  The
    scan-1d probes at A = 20 and at the bracket's blow-up end 11.81 do, by
    a gap of -1.9e-8 and -3.2e-8 when recorded; their backward-Euler runs
    missed by +5.9e-4 at A = 20."""
    spec, pair = _workload("scan-1d", amplitude=amplitude)
    assert spec.p == 2.0 and spec.weight is None
    assert (spec.reaction.alpha0, spec.reaction.sigma) == (1.0, 2.0)
    assert integrate(pair.eigenfunction, None) == pytest.approx(1.0, rel=1e-12)
    out = run_simulation(spec, eigenpair=pair)
    assert out.kind == "BlowUp"
    traj, lam = out.trajectory, pair.eigenvalue
    t, sup, g = (np.asarray(v) for v in (traj.times, traj.sup_abs_u, traj.weighted_mass))
    lower = np.max(t + 1.0 / sup)
    above = g > lam
    assert above.sum() >= 10
    upper = np.min(t[above] + np.log(1.0 / (1.0 - lam / g[above])) / lam)
    assert lower <= upper


def _backward_euler_gap(spec, pair, dt):
    """t_lo - t_hi of the BlowupBracket over the backward-Euler states of
    spec at step dt, halved on a failed step, up to sup > 1e3 sup|u0|; and
    the number of steps."""
    system = timestepper._NewtonSystem(spec.grid, spec.weight, spec.p)
    idx = spec.grid.interior
    x = spec.initial.values.ravel()[idx]
    vol_g = system.vol * pair.eigenfunction.values.ravel()[idx]
    bounds = BlowupBracket(pair.eigenvalue, spec.reaction.alpha0, spec.reaction.sigma)
    t = 0.0
    steps = 0
    while True:
        sup = float(np.abs(x).max())
        bounds.update(t, sup, float(vol_g @ x), x.min() >= 0.0)
        if sup > 1e3 * spec.sup0:
            return bounds.t_lo - bounds.t_hi, steps
        try:
            x = timestepper.step_implicit(system, x, t, dt, spec)
        except NumericalError:
            dt *= 0.5
            continue
        t += dt
        steps += 1


def test_bounds_separate_backward_euler_trajectories():
    """The bracket's consistency check tells a trajectory off in time from
    one near the semi-discrete flow.  Backward Euler blows up early; on the
    scan-1d A = 20 data its states at dt 1e-3 are inconsistent, by a gap
    of +4.1e-4 over 89 steps when recorded, and at dt 2e-4 consistent
    (-5.7e-5 over 412 steps).  The ROS2 run reports consistent bounds."""
    spec, pair = _workload("scan-1d", amplitude=20.0)
    coarse, steps = _backward_euler_gap(spec, pair, 1e-3)
    assert coarse > 0.0 and steps > 50
    fine, steps = _backward_euler_gap(spec, pair, 2e-4)
    assert fine <= 0.0 and steps > 200
    payload = run_simulation(spec, eigenpair=pair).payload()
    assert payload["kind"] == "BlowUp"
    assert payload["bounds_consistent"] is True and payload["bounds_gap"] <= 0.0


def _sin_blowup(mode, n=1, p=2.0, weight=None, reaction=None, eigenpair=True, amplitude=20.0,
                resolution=24):
    """A blow-up problem with sin (interval), cos (radial) or sine-product
    (tensor) data, and its eigenpair unless eigenpair is False."""
    g = build_grid(mode, 1.0, resolution, n=n)
    pair = smallest_eigenpair(g, weight, p) if eigenpair else None
    if mode == "tensor2d":
        x, y = g.axes
        vals = np.sin(np.pi * x)[:, None] * np.sin(np.pi * y)[None, :]
    elif mode == "interval":
        vals = np.sin(np.pi * g.axes[0])
    else:
        vals = np.cos(0.5 * np.pi * g.axes[0])
    vals = amplitude * vals
    vals[g.boundary_mask] = 0.0
    if reaction is None:
        reaction = ReactionSpec.power(1.0, 2.0)
    spec = ProblemSpec(grid=g, weight=weight, p=p, reaction=reaction, initial=Field(g, vals),
                       t_end=3.0, dt0=1e-3, dt_max=2e-2)
    return spec, pair


@pytest.mark.parametrize("mode, n, amplitude", [("interval", 1, 20.0), ("radial", 2, 30.0),
                                                ("radial", 3, 40.0)],
                         ids=["interval", "radial-n2", "radial-n3"])
def test_stopping_early_leaves_the_estimate_in_place(monkeypatch, mode, n, amplitude):
    """Data above the steady state blow up, and the run ends once the
    proven bracket is BRACKET_REL wide, before the sup cap.  T_est, the
    tail fit clamped into the bracket, lies within 1e-4 of the run to the
    cap, which takes more steps: 271 against 130 on the interval, 266
    against 196 and 265 against 245 on the balls n = 2 and 3, where T_est
    moved by 2e-6, 3e-10 and 3e-13 when recorded."""
    spec, pair = _sin_blowup(mode, n=n, amplitude=amplitude)
    early = run_simulation(spec, eigenpair=pair)
    assert early.kind == "BlowUp" and early.bounds.consistent
    assert early.t_lo <= early.t_est <= early.t_hi
    assert early.t_hi - early.t_lo <= timestepper.BRACKET_REL * early.t_lo
    assert early.trajectory.sup_abs_u[-1] < spec.cap_value()
    monkeypatch.setattr(timestepper, "BRACKET_REL", -1.0)
    full = run_simulation(spec, eigenpair=pair)
    assert full.kind == "BlowUp" and full.trajectory.sup_abs_u[-1] >= spec.cap_value()
    assert full.steps > early.steps
    assert early.t_est == pytest.approx(full.t_est, rel=1e-4)


def test_inconsistent_bracket_runs_to_the_cap():
    """An eigenvalue half the true one makes the upper bound from the data
    fall below the blow-up time, so the bracket is inconsistent.  It never
    ends the run, which goes on to the sup cap and reports the tail fit,
    the same blow-up times as a run without the bracket."""
    spec, pair = _sin_blowup("interval")
    out = run_simulation(spec, eigenpair=replace(pair, eigenvalue=0.5 * pair.eigenvalue))
    assert out.kind == "BlowUp" and out.trajectory.sup_abs_u[-1] >= spec.cap_value()
    payload = out.payload()
    assert payload["bounds_consistent"] is False and payload["bounds_gap"] > 0.0
    plain = run_simulation(spec)
    assert plain.bounds is None and plain.steps == out.steps
    assert (out.t_est, out.t_lo, out.t_hi) == (plain.t_est, plain.t_lo, plain.t_hi)


@pytest.mark.parametrize("case", ["weighted", "tensor", "p3", "exp_forced", "no-eigenpair"])
def test_no_bracket_where_its_bounds_do_not_hold(monkeypatch, case):
    """The bracket needs p = 2, a power reaction, the unit weight, an
    interval or radial grid and an eigenpair.  A blow-up run that lacks
    one has null bounds and takes the same steps with the stopping rule
    disabled."""
    kwargs = {"weighted": dict(mode="interval", weight=WeightSpec.power(1.0)),
              "tensor": dict(mode="tensor2d", amplitude=60.0, resolution=12),
              "p3": dict(mode="interval", p=3.0, reaction=ReactionSpec.power(1.0, 3.0),
                         amplitude=50.0),
              "exp_forced": dict(mode="interval",
                                 reaction=ReactionSpec.exp_forced(1.0, 2.0, 9.87)),
              "no-eigenpair": dict(mode="interval", eigenpair=False)}[case]
    spec, pair = _sin_blowup(**kwargs)
    out = run_simulation(spec, eigenpair=pair)
    assert out.kind == "BlowUp" and out.bounds is None
    payload = out.payload()
    assert payload["bounds_consistent"] is None and payload["bounds_gap"] is None
    monkeypatch.setattr(timestepper, "BRACKET_REL", -1.0)
    assert run_simulation(spec, eigenpair=pair).steps == out.steps


def test_step_floor_ends_blowup_at_sigma_3():
    """At sigma = 3 with no bracket, the step floor, not the sup cap, ends
    a blow-up run: with DT_MIN as it stands, the last attempt fails at
    DT_MIN while the sup norm ramps, far below the cap (2.5e5 against
    5e9 when recorded, after 172 steps)."""
    spec, pair = _sin_blowup("interval", p=3.0, reaction=ReactionSpec.power(1.0, 3.0),
                             amplitude=50.0)
    out = run_simulation(spec, eigenpair=pair)
    assert out.kind == "BlowUp" and out.bounds is None
    assert out.trajectory.dt_used[-1] == timestepper.DT_MIN
    assert out.trajectory.sup_abs_u[-1] < spec.cap_value()


def test_no_certificate_near_the_threshold():
    """On the scan-1d problem, the full runs bisected to a bracket within
    CERTIFICATE_MARGIN delta put the threshold at about 11.512.  Data 3
    delta and 30 delta outside the bracket get no certified verdict: the
    bound on the flow's deviation from the recorded states outgrows the
    distance of those states from U, so they run in full to the kind of
    the full run.  Data at 11.17, 3 % below, are certified Decayed after a
    few steps, 5 when recorded."""
    delta = timestepper.CERTIFICATE_MARGIN
    spec, pair = _workload("scan-1d")
    u_ss = steady_state(spec.grid, None, 2.0, 1.0, 2.0, tol=STEADY_STATE_TOL)
    phi0 = spec.initial.values

    def run(a, certificate=None):
        return run_simulation(replace(spec, initial=Field(spec.grid, a * phi0)),
                              eigenpair=pair, certificate=certificate)

    _runs, (a_lo, a_hi), _undecided = bisect_dichotomy(run, [11.37, 11.81], delta)
    assert a_lo == pytest.approx(11.512, rel=1e-3)
    for a, kind in ((a_lo * (1 - 3 * delta), "Decayed"), (a_hi * (1 + 3 * delta), "BlowUp"),
                    (a_lo * (1 - 30 * delta), "Decayed"), (a_hi * (1 + 30 * delta), "BlowUp")):
        full, certified = run(a), run(a, u_ss)
        assert full.kind == certified.kind == kind
        assert certified.certified_at is None and certified.steps == full.steps
    certified = run(0.97 * a_lo, u_ss)
    assert certified.kind == "Decayed" and 0 < certified.steps <= 10
    assert run(0.97 * a_lo).kind == "Decayed"


@st.composite
def _rough_problems(draw):
    """A no-reaction problem on a small grid of any mode with p in [2, 5],
    a power weight theta_w in [0, 0.9 p) and rough data: |N(0, 1)| at the
    interior nodes, zeroed on random patches when patchy."""
    mode = draw(st.sampled_from(["interval", "radial", "tensor2d"]))
    p = draw(st.floats(2.0, 5.0))
    theta = draw(st.floats(0.0, 0.9 * p, exclude_max=True))
    patchy = draw(st.booleans())
    g = build_grid(mode, 1.0, draw(st.integers(6, 16)), n=2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.abs(rng.standard_normal(g.shape))
    if patchy:
        keep = rng.random(g.shape) < draw(st.floats(0.2, 0.8))
        keep.ravel()[g.interior[len(g.interior) // 2]] = True
        vals *= keep
    vals[g.boundary_mask] = 0.0
    spec = ProblemSpec(grid=g, weight=WeightSpec.power(theta), p=p,
                       reaction=ReactionSpec.none(), initial=Field(g, vals), t_end=0.05,
                       dt0=1e-4)
    return spec, patchy


@settings(max_examples=40, deadline=None)
@given(_rough_problems())
def test_ros2_run_keeps_energy_sup_and_sign(problem):
    """Without a reaction term, no recorded ROS2 state raises the energy or
    the sup norm above the state before, and from data positive at every
    interior node none falls below -1e-12 sup|u0|.  No proof covers these
    states, since they are not backward-Euler states.  Data that vanish on
    patches are not kept nonnegative: their states undershoot by up to
    about 2e-4 sup|u0| at LTE_TOL when recorded, which the statistics count
    as an event, and the test fails where one falls below -1e-3 sup|u0|."""
    spec, patchy = problem
    states = []
    energy = FaceFlux.energy

    def recorded(flux):
        states.append(flux.values.min())
        return energy(flux)

    FaceFlux.energy = recorded
    try:
        out = run_simulation(spec)
    finally:
        FaceFlux.energy = energy
    traj = out.trajectory
    assert len(states) == len(traj.times)
    violations = {
        "energy rises": np.diff(traj.energy) > 1e-12 * np.asarray(traj.energy[:-1]),
        "sup rises": np.diff(traj.sup_abs_u) > 1e-12 * np.asarray(traj.sup_abs_u[:-1]),
        "negative state": np.asarray(states) < -1e-12 * spec.sup0,
    }
    for name, broken in violations.items():
        if broken.any():
            event(f"{name}{' (patchy data)' if patchy else ''}")
    assert not violations["energy rises"].any()
    assert not violations["sup rises"].any()
    assert patchy or not violations["negative state"].any()
    assert min(states) >= -1e-3 * spec.sup0
