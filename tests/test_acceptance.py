"""End-to-end acceptance battery.

Eleven numbered criteria, each asserted at its stated tolerance and wall
budget.  Every criterion prints exactly one PASS/FAIL line (visible with
pytest -s, and in failure reports otherwise), so a run of this file reads
as a checklist.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from degenflow import (
    Exponents,
    Field,
    OdeParams,
    ProblemSpec,
    ReactionSpec,
    WeightSpec,
    apply_plaplacian,
    barenblatt_corrected,
    bernoulli_blowup,
    bernoulli_comparison,
    bisect_dichotomy,
    build_grid,
    check_doubling,
    decay_exponent_fit,
    energy,
    exp_forced_comparison,
    run_simulation,
    smallest_eigenpair,
    step_implicit,
    variational_dot,
)
from degenflow.cli import EXIT_OK, main as cli_main

PI2 = math.pi**2
# closed-form 1d eigenvalue for p = 3 on (0, 1): pi_p^p with
# pi_p = 2 pi (p-1)^{1/p} / (p sin(pi/p)); cross-checked against an
# independent shooting integration in test_eigensolver.py
LAMBDA1_P3 = 28.2887619760026


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({name}): {detail}",
          flush=True)
    assert ok, f"criterion {num:02d} ({name}): {detail}"


@pytest.fixture(scope="module")
def interval64_eigen():
    grid = build_grid("interval", 1.0, 64)
    pair = smallest_eigenpair(grid, None, 2.0)
    return grid, pair


def _sin_spec(grid, amplitude, reaction, t_end, dt0, dt_max, snaps=()):
    phi = Field(grid, amplitude * np.sin(np.pi * grid.axes[0]))
    return ProblemSpec(
        grid=grid, weight=None, p=2.0, reaction=reaction,
        initial=phi, t_end=t_end, dt0=dt0,
        dt_max=dt_max, snapshot_times=snaps,
    )


def test_criterion_01_eigensolver_accuracy():
    t0 = time.time()
    pair2 = smallest_eigenpair(build_grid("interval", 1.0, 256), None, 2.0)
    t_p2 = time.time() - t0
    rel2 = abs(pair2.eigenvalue - PI2) / PI2

    t0 = time.time()
    pair3 = smallest_eigenpair(build_grid("interval", 1.0, 512), None, 3.0)
    t_p3 = time.time() - t0
    rel3 = abs(pair3.eigenvalue - LAMBDA1_P3) / LAMBDA1_P3

    pair2d = smallest_eigenpair(build_grid("tensor2d", 1.0, 48), None, 2.0)
    rel2d = abs(pair2d.eigenvalue - 2.0 * PI2) / (2.0 * PI2)

    ok = rel2 < 0.01 and t_p2 < 10.0 and rel3 < 0.02 and t_p3 < 60.0 and rel2d < 0.02
    _report(1, "eigensolver accuracy", ok,
            f"p=2 rel {rel2:.2e} in {t_p2:.2f}s; "
            f"p=3 {pair3.eigenvalue:.4f} vs {LAMBDA1_P3:.4f} rel {rel3:.2e} "
            f"in {t_p3:.2f}s; 2d rel {rel2d:.2e}")


def test_criterion_02_heat_equation_oracle():
    t0 = time.time()
    grid = build_grid("interval", 1.0, 256)
    x = grid.axes[0]
    snaps = tuple(np.round(np.arange(0.05, 0.31, 0.05), 10))
    spec = ProblemSpec(
        grid=grid, weight=None, p=2.0, reaction=ReactionSpec.none(),
        initial=Field(grid, np.sin(np.pi * x)), t_end=0.3, dt0=1e-4,
        dt_max=1e-4, snapshot_times=snaps,
    )
    out = run_simulation(spec)
    err = 0.0
    for ts, f in out.trajectory.snapshots.items():
        exact = math.exp(-PI2 * ts) * np.sin(np.pi * x)
        err = max(err, float(np.abs(f.values - exact).max()))
    for t, s in zip(out.trajectory.times, out.trajectory.sup_abs_u):
        err = max(err, abs(s - math.exp(-PI2 * t)))
    elapsed = time.time() - t0
    ok = err <= 1e-3 and elapsed < 30.0
    _report(2, "heat-equation oracle", ok,
            f"max-over-time Linf {err:.2e} (tol 1e-3) in {elapsed:.2f}s")


def test_criterion_03_gradient_consistency():
    t0 = time.time()
    grids = [
        build_grid("interval", 1.0, 24),
        build_grid("radial", 1.0, 24, n=2),
        build_grid("tensor2d", 1.0, 10),
    ]
    eps = 1e-6
    worst = 0.0
    rng = np.random.default_rng(987)
    for p in (2.0, 3.0, 4.0):
        for trial in range(50):
            grid = grids[trial % 3]
            u = rng.standard_normal(grid.shape)
            u[grid.boundary_mask] = 0.0
            v = rng.standard_normal(grid.shape)
            v[grid.boundary_mask] = 0.0
            paired = -variational_dot(
                grid, apply_plaplacian(Field(grid, u), None, p).values, v)
            fd = (energy(Field(grid, u + eps * v), None, p)
                  - energy(Field(grid, u - eps * v), None, p)) / (2.0 * eps)
            worst = max(worst, abs(fd - paired) / max(abs(paired), abs(fd), 1e-12))
    elapsed = time.time() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    _report(3, "discrete gradient consistency", ok,
            f"worst rel {worst:.2e} over 50 fields x p in (2,3,4) in {elapsed:.2f}s")


def test_criterion_04_bernoulli_ode():
    t0 = time.time()
    out = bernoulli_blowup(OdeParams(1.0, 1.0, 2.0, 2.0))
    t_log2_err = abs(out["T"] - math.log(2.0))

    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(100):
        lam = rng.uniform(0.0, 5.0)
        c = rng.uniform(0.1, 3.0)
        sig = rng.uniform(1.2, 3.5)
        g0 = rng.uniform(0.05, 4.0)
        closed = bernoulli_blowup(OdeParams(lam, c, sig, g0))
        t_hi = 0.8 * closed["T"] if closed["blows_up"] else 1.0
        ts = np.linspace(0.0, t_hi, 6)[1:]
        sol = solve_ivp(
            lambda t, y: [-lam * y[0] + c * y[0] ** sig],
            [0.0, t_hi], [g0], rtol=1e-11, atol=1e-13,
            t_eval=ts, method="DOP853",
        )
        rel = np.abs(closed["g"](ts) - sol.y[0]) / np.abs(sol.y[0])
        worst = max(worst, float(rel.max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and t_log2_err <= 1e-6
    _report(4, "bernoulli ode closed form", ok,
            f"100 draws worst rel {worst:.2e}; |T - ln2| {t_log2_err:.1e} "
            f"in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def dichotomy_scan(interval64_eigen):
    """Shared scan for criteria 5 and 6: the package's bisection from the
    probes 6 and 20 to rel_tol 0.05, as the README scan runs it, and the
    A = 100, dt0 = 1e-5 blow-up run both criteria read."""
    grid, pair = interval64_eigen
    reaction = ReactionSpec.power(1.0, 2.0)

    def run_amp(a, dt0=1e-3):
        spec = _sin_spec(grid, a, reaction, t_end=3.0, dt0=dt0, dt_max=2e-2)
        return run_simulation(spec, eigenpair=pair)

    runs, bracket, _undecided = bisect_dichotomy(run_amp, (6.0, 20.0), 0.05)
    assert runs[6.0].kind == "Decayed" and runs[20.0].kind == "BlowUp"
    a_lo, a_hi = bracket
    return {"grid": grid, "pair": pair, "big": run_amp(100.0, dt0=1e-5),
            "a_lo": (a_lo, runs[a_lo]), "a_hi": (a_hi, runs[a_hi])}


def test_criterion_05_blowup_dichotomy(dichotomy_scan):
    t0 = time.time()
    grid = dichotomy_scan["grid"]
    pair = dichotomy_scan["pair"]
    lam = pair.eigenvalue

    small = run_simulation(
        _sin_spec(grid, 0.01, ReactionSpec.power(1.0, 2.0),
                  t_end=3.0, dt0=1e-3, dt_max=5e-3),
        eigenpair=pair,
    )
    small_ok = small.kind == "Decayed" and abs(small.rate_fit - PI2) / PI2 <= 0.10

    big = dichotomy_scan["big"]
    big_ok = big.kind == "BlowUp" and np.isfinite(big.t_est)

    a_lo, out_lo = dichotomy_scan["a_lo"]
    a_hi, _ = dichotomy_scan["a_hi"]
    bracket_ok = a_hi / a_lo <= 1.05

    g0 = out_lo.trajectory.weighted_mass[0]
    thr = bernoulli_comparison(out_lo.trajectory, lam, 2.0)["threshold_operative"]
    threshold_ok = g0 <= thr

    elapsed = time.time() - t0
    ok = small_ok and big_ok and bracket_ok and threshold_ok and elapsed < 300.0
    _report(5, "blow-up dichotomy", ok,
            f"A=0.01 {small.kind} rate {small.rate_fit:.3f} vs {PI2:.3f}; "
            f"A=100 {big.kind} T_est {big.t_est:.4f}; "
            f"bracket [{a_lo:.3f}, {a_hi:.3f}] ratio {a_hi / a_lo:.3f}; "
            f"critical g0 {g0:.4f} <= threshold {thr:.4f}; {elapsed:.1f}s")


def test_criterion_06_comparison_direction(dichotomy_scan):
    pair = dichotomy_scan["pair"]
    lam = pair.eigenvalue
    out = dichotomy_scan["big"]
    assert out.kind == "BlowUp"
    g0 = out.trajectory.weighted_mass[0]
    t_bern = bernoulli_comparison(out.trajectory, lam, 2.0, g0=g0)["T_bernoulli"]
    ok = t_bern is not None and out.t_est <= 1.05 * t_bern
    _report(6, "comparison direction", ok,
            f"T_est {out.t_est:.5f} <= 1.05 x bernoulli T {t_bern:.5f} "
            f"(ratio {out.t_est / t_bern:.3f})")


def test_criterion_07_forced_reaction_bound(interval64_eigen):
    t0 = time.time()
    grid, pair = interval64_eigen
    lam = pair.eigenvalue
    reaction = ReactionSpec.exp_forced(0.5, 2.0, lam)
    spec = _sin_spec(grid, 1.0, reaction, t_end=1.5, dt0=1e-4, dt_max=5e-3)
    out = run_simulation(spec, eigenpair=pair)
    fit = exp_forced_comparison(out.trajectory, lam, 2.0)
    bound = fit["T_bound"]
    elapsed = time.time() - t0
    ok = out.kind == "BlowUp" and out.t_est <= bound and elapsed < 120.0
    _report(7, "forced-reaction bound", ok,
            f"{out.kind} T_est {out.t_est:.4f} <= bound {bound:.4f} "
            f"(psi0 {fit['psi0']:.3f}, C8 {fit['C8_fit']:.3f}) in {elapsed:.1f}s")


@pytest.mark.parametrize("theta_w", [0.0, 1.0])
def test_criterion_08_decay_exponent(theta_w):
    t0 = time.time()
    exps = Exponents(n=2, p=3.0, theta_w=theta_w)
    grid = build_grid("radial", 30.0, 180, n=2)
    weight = WeightSpec.power(theta_w) if theta_w else None
    phi = Field(grid, barenblatt_corrected(grid.axes[0], 1.0, exps))
    phi.values[-1] = 0.0
    spec = ProblemSpec(
        grid=grid, weight=weight, p=3.0, reaction=ReactionSpec.none(),
        initial=phi, t_end=9.0, dt0=1e-3, dt_max=5e-2,
    )
    out = run_simulation(spec)
    fit = decay_exponent_fit(out.trajectory, (1.0, 10.0), time_offset=1.0)
    predicted = -exps.n / exps.beta
    gap = abs(fit["exponent"] - predicted) / abs(predicted)
    elapsed = time.time() - t0
    ok = gap <= 0.10 and elapsed < 180.0
    _report(8, f"decay exponent theta_w={theta_w:g}", ok,
            f"fit {fit['exponent']:.4f} vs -n/beta = {predicted:.4f} "
            f"(beta {exps.beta:g}, gap {100 * gap:.2f}%) in {elapsed:.1f}s")


def test_criterion_09_exact_solution_adjudication(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(
        "command = verify-exact\noutput_dir = vout\n"
        "[problem]\nmode = radial\nn = 2\nextent = 8.0\np = 3.0\n"
        "theta_w = 0.0\n"
        "[verify]\nresolutions = 32, 64, 128, 256\nsample_times = 1.0, 3.0\n"
    )
    code = cli_main(["verify-exact", "--config", str(cfg)])
    summary = json.loads((tmp_path / "vout" / "summary.json").read_text())
    named = summary.get("convergent_variant")
    variants = summary["variants"]
    any_converges = False
    detail_parts = []
    for name, v in variants.items():
        ratios = v["ratios"]
        conv = len(ratios) == 3 and all(r >= 1.5 for r in ratios)
        any_converges = any_converges or conv
        detail_parts.append(f"{name} ratios {[f'{r:.2f}' for r in ratios]}")
    ok = code == EXIT_OK and any_converges and named in variants
    _report(9, "exact-solution adjudication", ok,
            f"convergent_variant={named}; " + "; ".join(detail_parts))


def test_criterion_10_weight_classes():
    details = []
    ok = True
    for theta_w in (0.0, 1.0):
        spec = WeightSpec.power(theta_w)
        n = 2
        mu = 1.0 + theta_w / n
        pairs = [(2.0, 1.0), (4.0, 1.0), (8.0, 0.5)]
        rep = check_doubling(spec, n, mu, pairs)
        in_band = abs(rep.worst_ratio - 1.0) <= 1e-6
        rep_low = check_doubling(spec, n, mu - 0.3, pairs)
        exps = Exponents(n=n, p=3.0, mu=mu, theta_w=theta_w)
        identity = exps.k == pytest.approx(exps.beta, abs=1e-12)
        ok = ok and rep.passes and in_band and (not rep_low.passes) and identity
        details.append(
            f"theta={theta_w:g}: ratio {rep.worst_ratio:.9f}, "
            f"mu-0.3 fails={not rep_low.passes}, k==beta={bool(identity)}")
    _report(10, "weight classes", ok, "; ".join(details))


def test_criterion_11_structural_properties():
    checks = []

    # max principle + energy decrease on reaction-free benchmarks
    benches = [
        ("interval p=2", build_grid("interval", 1.0, 48), None, 2.0),
        ("interval p=3", build_grid("interval", 1.0, 48), None, 3.0),
        ("radial p=3 weighted", build_grid("radial", 2.0, 48, n=2),
         WeightSpec.power(1.0), 3.0),
    ]
    for label, grid, weight, p in benches:
        r = grid.radius()
        profile = np.cos(np.pi * r / (2.0 * grid.extent)) ** 2
        if grid.mode == "interval":
            profile = np.sin(np.pi * grid.axes[0])
        phi = Field(grid, profile)
        phi.values[grid.boundary_mask] = 0.0
        spec = ProblemSpec(
            grid=grid, weight=weight, p=p, reaction=ReactionSpec.none(),
            initial=phi, t_end=0.3, dt0=1e-3, dt_max=5e-3,
        )
        out = run_simulation(spec)
        sups = np.asarray(out.trajectory.sup_abs_u)
        checks.append((f"max principle {label}", bool(np.all(np.diff(sups) <= 1e-12))))

        # per-step variational inequality, marched explicitly
        u = phi.copy()
        dt = 2e-3
        energy_ok = True
        for _ in range(50):
            u_new = step_implicit(u, 0.0, dt, spec)
            e_old = energy(u, weight, p)
            e_new = energy(u_new, weight, p)
            diff = u_new.values - u.values
            penalty = variational_dot(grid, diff, diff) / dt
            if e_new + penalty > e_old + 1e-8 * max(1.0, e_old):
                energy_ok = False
                break
            u = u_new
        checks.append((f"energy decrease {label}", energy_ok))

    # comparison ordering and positivity under a monotone reaction
    grid = build_grid("interval", 1.0, 48)
    reaction = ReactionSpec.power(0.5, 2.0)
    snaps = (0.05, 0.1, 0.2)
    runs = []
    for amplitude in (1.0, 2.0):
        spec = _sin_spec(grid, amplitude, reaction, t_end=0.25,
                         dt0=1e-3, dt_max=2e-3, snaps=snaps)
        runs.append(run_simulation(spec))
    ordered = all(
        np.all(runs[0].trajectory.snapshots[t].values
               <= runs[1].trajectory.snapshots[t].values + 1e-8)
        for t in snaps
    )
    checks.append(("comparison ordering", bool(ordered)))
    positive = all(
        f.values.min() > -1e-10
        for out in runs for f in out.trajectory.snapshots.values()
    )
    checks.append(("positivity", bool(positive)))

    ok = all(flag for _, flag in checks)
    failed = [name for name, flag in checks if not flag]
    _report(11, "structural properties", ok,
            f"{len(checks)} checks" + (f"; failed: {failed}" if failed else " all hold"))
