"""The ROS2 runs of run_simulation: convergence in LTE_TOL, the proven
blow-up-time bounds, certificates near the threshold, and run-level
structure on rough data."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from degenflow import (
    Field,
    ProblemSpec,
    ReactionSpec,
    StepControls,
    WeightSpec,
    build_grid,
    integrate,
    run_simulation,
)
from degenflow import bisect_dichotomy, cli, timestepper
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
                       dt0=1e-4, controls=StepControls())
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
