"""Closed-form ODE comparisons, reference solutions, and the trajectory
fits."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from degenflow import (
    ConfigError,
    Exponents,
    FitError,
    OdeParams,
    Trajectory,
    barenblatt_corrected,
    barenblatt_exact,
    bernoulli_blowup,
    blowup_threshold,
    build_grid,
    decay_exponent_fit,
    exp_forced_bound,
    fit_bernoulli_constant,
    fit_exp_forced_constant,
    residual_check,
)
from degenflow.diagnostics import _line_fit


class TestExponents:
    def test_reference_triple(self):
        e = Exponents(n=2, p=3.0)
        assert e.k == 5.0
        assert e.beta == 5.0

    def test_theta_shifts_beta_only(self):
        e = Exponents(n=2, p=3.0, theta_w=1.0)
        assert e.beta == 4.0
        assert e.k == 5.0

    def test_k_equals_beta_at_natural_mu(self):
        # mu = 1 + theta_w/n collapses the two exponents
        for n, p, theta in ((2, 3.0, 1.0), (3, 4.0, 2.0), (2, 2.5, 0.5)):
            e = Exponents(n=n, p=p, mu=1.0 + theta / n, theta_w=theta)
            assert e.k == pytest.approx(e.beta, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Exponents(n=0, p=3.0)
        with pytest.raises(ConfigError):
            Exponents(n=2, p=1.5)


class TestBernoulliOde:
    def test_blowup_time_log2(self):
        out = bernoulli_blowup(OdeParams(lambda1=1.0, C=1.0, sigma=2.0, g0=2.0))
        assert out["blows_up"]
        assert out["T"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_closed_form_vs_adaptive_integrator(self):
        """25 seeded random parameter draws against solve_ivp (the
        acceptance suite runs the full 100)."""
        rng = np.random.default_rng(2024)
        for _ in range(25):
            lam = rng.uniform(0.0, 5.0)
            c = rng.uniform(0.1, 3.0)
            sig = rng.uniform(1.2, 3.5)
            g0 = rng.uniform(0.05, 4.0)
            out = bernoulli_blowup(OdeParams(lam, c, sig, g0))
            t_hi = 0.8 * out["T"] if out["blows_up"] else 1.0
            ts = np.linspace(0.0, t_hi, 7)[1:]
            sol = solve_ivp(
                lambda t, y: [-lam * y[0] + c * y[0] ** sig],
                [0.0, t_hi],
                [g0],
                rtol=1e-11,
                atol=1e-13,
                t_eval=ts,
                method="DOP853",
            )
            ours = out["g"](ts)
            rel = np.abs(ours - sol.y[0]) / np.abs(sol.y[0])
            assert rel.max() < 1e-6

    def test_zero_initial_data_stays_zero(self):
        out = bernoulli_blowup(OdeParams(1.0, 1.0, 2.0, 0.0))
        assert not out["blows_up"]
        assert np.all(out["g"](np.linspace(0.0, 10.0, 5)) == 0.0)

    def test_subcritical_decays(self):
        # g0 below the equilibrium (lam/C)^{1/(sigma-1)} = 2
        out = bernoulli_blowup(OdeParams(2.0, 1.0, 2.0, 1.0))
        assert not out["blows_up"]
        assert out["T"] is None
        g = out["g"](np.array([0.0, 1.0, 5.0]))
        assert g[0] == pytest.approx(1.0)
        assert g[2] < g[1] < g[0]

    def test_evaluator_inf_past_blowup(self):
        out = bernoulli_blowup(OdeParams(1.0, 1.0, 2.0, 2.0))
        t_star = out["T"]
        assert np.isinf(out["g"](np.array([t_star + 0.1]))[0])

    def test_zero_lambda_closed_form(self):
        # pure g' = C g^sigma: T = g0^{1-sigma} / ((sigma-1) C)
        out = bernoulli_blowup(OdeParams(0.0, 2.0, 3.0, 1.0))
        assert out["T"] == pytest.approx(1.0 / 4.0)

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            OdeParams(-1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ConfigError):
            OdeParams(1.0, 0.0, 2.0, 1.0)
        with pytest.raises(ConfigError):
            OdeParams(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            OdeParams(1.0, 1.0, 2.0, -0.5)


def test_blowup_threshold_conventions():
    out = blowup_threshold(4.0, 1.0, 2.0)
    assert out["operative"] == pytest.approx(4.0)
    assert out["paper_value"] == pytest.approx(2.0)
    # they agree when sigma-1 == sigma never happens; equality only at ratio 1
    out1 = blowup_threshold(3.0, 3.0, 2.5)
    assert out1["operative"] == pytest.approx(out1["paper_value"])


def test_blowup_threshold_validation():
    with pytest.raises(ConfigError):
        blowup_threshold(1.0, 0.0, 2.0)


def test_exp_forced_bound_values():
    assert exp_forced_bound(1.0, 2.0, 2.0) == pytest.approx(0.5)
    assert exp_forced_bound(2.0, 1.0, 3.0) == pytest.approx(1.0 / 8.0)
    with pytest.raises(ConfigError):
        exp_forced_bound(0.0, 1.0, 2.0)


def _corrected_front(t, exps):
    """Support radius of barenblatt_corrected at time t: where
    c xi^gamma = 1, with c, gamma and xi = r / t^{1/beta} as in its
    docstring."""
    p, theta, beta = exps.p, exps.theta_w, exps.beta
    gamma = (p - theta) / (p - 1.0)
    c = ((p - 2.0) / (p - theta)) * (1.0 / beta) ** (1.0 / (p - 1.0))
    return c ** (-1.0 / gamma) * t ** (1.0 / beta)


class TestBarenblatt:
    EXPS0 = Exponents(n=2, p=3.0, theta_w=0.0)  # beta = 5
    EXPS1 = Exponents(n=2, p=3.0, theta_w=1.0)  # beta = 4

    def test_corrected_peak_scaling(self):
        # u(0, t) = t^{-n/beta}
        assert barenblatt_corrected(0.0, 2.0, self.EXPS0) == pytest.approx(2.0 ** (-0.4))
        assert barenblatt_exact(0.0, 2.0, self.EXPS0) == pytest.approx(1.0)

    def test_support_matches_front(self):
        exps = self.EXPS0
        t = 2.0
        rf = _corrected_front(t, exps)
        assert barenblatt_corrected(rf * 1.001, t, exps) == 0.0
        assert barenblatt_corrected(rf * 0.98, t, exps) > 0.0

    def test_mass_conserved_in_time(self):
        # the evolution is in divergence form, so integral u dx is constant
        for exps in (self.EXPS0, self.EXPS1):
            masses = []
            for t in (1.0, 2.0, 4.0):
                rf = _corrected_front(t, exps)
                r = np.linspace(0.0, rf, 4000)
                u = barenblatt_corrected(r, t, exps)
                masses.append(2.0 * np.pi * np.trapezoid(u * r, r))
            assert masses[1] == pytest.approx(masses[0], rel=1e-6)
            assert masses[2] == pytest.approx(masses[0], rel=1e-6)

    def test_argument_validation(self):
        with pytest.raises(ConfigError, match="t > 0"):
            barenblatt_corrected(0.0, 0.0, self.EXPS0)
        with pytest.raises(ConfigError):
            barenblatt_corrected(0.0, 1.0, Exponents(n=2, p=2.0))

    def test_residual_check_prefers_corrected(self):
        """The amplitude-corrected variant satisfies the evolution; the
        literal display does not.  Residuals at one resolution already
        separate them by an order of magnitude."""
        exps = self.EXPS0
        g = build_grid("radial", 12.0, 96, n=2)
        times = [1.0, 2.0]

        def corrected(grid, t):
            return barenblatt_corrected(grid.radius(), t, exps)

        def verbatim(grid, t):
            return barenblatt_exact(grid.radius(), t, exps)

        res_c = residual_check(corrected, g, None, 3.0, times)
        res_v = residual_check(verbatim, g, None, 3.0, times)
        assert res_c < 0.1 * res_v


class TestDecayFit:
    def _algebraic_traj(self, exponent=-0.4, t0=0.0):
        traj = Trajectory()
        for t in np.linspace(0.05, 9.0, 120):
            traj.append(t, 0.1, (t + t0) ** exponent if t + t0 > 0 else 1.0,
                        0.0, 0.0, 0.0)
        return traj

    def test_exact_power_law(self):
        traj = self._algebraic_traj(-0.4)
        out = decay_exponent_fit(traj, (1.0, 8.0))
        assert out["exponent"] == pytest.approx(-0.4, abs=1e-10)
        assert out["stderr"] < 1e-10

    def test_window_selects_on_shifted_time(self):
        # trajectory clock starts at 0 but physical time is t + 1
        traj = self._algebraic_traj(-0.7, t0=1.0)
        out = decay_exponent_fit(traj, (1.0, 10.0), time_offset=1.0)
        assert out["exponent"] == pytest.approx(-0.7, abs=1e-10)

    def test_line_fit_survives_a_singular_design(self):
        """Abscissae equal to rounding, as a tail of steps at the dt floor
        far from t = 0 can give, make the normal matrix singular; the fit
        still returns finite values."""
        coef, cov = _line_fit(np.full(6, 0.5), np.arange(6.0))
        assert np.all(np.isfinite(coef)) and np.all(np.isfinite(cov))
        coef, cov = _line_fit(np.arange(6.0), 2.0 - 3.0 * np.arange(6.0))
        assert coef == pytest.approx([2.0, -3.0], abs=1e-12)
        assert np.abs(cov).max() < 1e-20

    def test_too_few_samples(self):
        traj = Trajectory()
        for t in (1.0, 2.0):
            traj.append(t, 1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(FitError):
            decay_exponent_fit(traj, (0.0, 3.0))


class TestConstantFits:
    def _ode_traj(self, lam, c, sig, g0, t_hi, samples=400):
        out = bernoulli_blowup(OdeParams(lam, c, sig, g0))
        traj = Trajectory()
        for t in np.linspace(0.0, t_hi, samples):
            gval = out["g"](np.array([t]))[0]
            traj.append(t if t > 0 else 1e-12, 1e-2, gval, 0.0, gval, 0.0)
        return traj

    def test_bernoulli_constant_recovered(self):
        lam, c = 9.0, 1.3
        traj = self._ode_traj(lam, c, 2.0, 0.5, 0.3)
        fit = fit_bernoulli_constant(traj, lam, 2.0)
        assert fit["C"] == pytest.approx(c, rel=1e-3)
        assert fit["samples"] >= 3

    def test_bernoulli_constant_needs_history(self):
        traj = Trajectory()
        traj.append(0.1, 0.1, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(FitError):
            fit_bernoulli_constant(traj, 1.0, 2.0)

    def test_exp_forced_constant_exact_series(self):
        # psi' = c8 psi^sigma exactly: g = psi e^{-lam t}
        lam, c8, sig, psi0 = 2.0, 0.8, 2.0, 1.0
        t_star = psi0 ** (1.0 - sig) / (c8 * (sig - 1.0))
        traj = Trajectory()
        for t in np.linspace(0.0, 0.7 * t_star, 300):
            psi = (psi0 ** (1.0 - sig) - c8 * (sig - 1.0) * t) ** (-1.0 / (sig - 1.0))
            traj.append(t if t > 0 else 1e-12, 1e-3, psi, 0.0,
                        psi * math.exp(-lam * t), 0.0)
        fit = fit_exp_forced_constant(traj, lam, sig)
        assert fit["psi0"] == pytest.approx(psi0, rel=1e-6)
        # dense samples recover the constant to differencing accuracy
        assert fit["C8"] == pytest.approx(c8, rel=1e-4)

    def test_exp_forced_rejects_decaying_psi(self):
        traj = Trajectory()
        for t in np.linspace(0.0, 1.0, 30):
            traj.append(t if t > 0 else 1e-12, 0.1, 1.0, 0.0,
                        math.exp(-5.0 * t), 0.0)
        with pytest.raises(FitError):
            fit_exp_forced_constant(traj, 1.0, 2.0)
