"""Weight evaluation, ball masses, and the class-condition checks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degenflow import (
    ConfigError,
    DivergenceError,
    WeightSpec,
    ball_mass,
    check_doubling,
    check_muckenhoupt,
    eval_radial,
    surface_area,
)
from degenflow.weight_models import CAP, SLOPE_TOL


@pytest.mark.parametrize(
    "n,expected",
    [(1, 2.0), (2, 2.0 * math.pi), (3, 4.0 * math.pi), (4, 2.0 * math.pi**2)],
)
def test_surface_area_closed_forms(n, expected):
    assert surface_area(n) == pytest.approx(expected, rel=1e-14)


def test_surface_area_rejects_bad_dimension():
    with pytest.raises(ConfigError):
        surface_area(0)
    with pytest.raises(ConfigError):
        surface_area(2.5)


class TestEvalRadial:
    def test_constant(self):
        spec = WeightSpec()
        r = np.linspace(0.0, 5.0, 11)
        assert np.all(eval_radial(spec, r) == 1.0)

    def test_power(self):
        spec = WeightSpec.power(1.5)
        r = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(eval_radial(spec, r), [0.0, 1.0, 8.0])


@pytest.mark.parametrize("n", [2, 3])
def test_ball_mass_constant_weight(n):
    # mass of B_rho with omega = 1 is S_n rho^n / n
    rho = 1.7
    expected = surface_area(n) * rho**n / n
    assert ball_mass(WeightSpec(), rho, n) == pytest.approx(expected, rel=1e-10)


def test_ball_mass_power_weight():
    # integral of r^theta r^(n-1) dr = rho^(n+theta)/(n+theta)
    n, theta, rho = 2, 1.0, 2.0
    expected = surface_area(n) * rho ** (n + theta) / (n + theta)
    got = ball_mass(WeightSpec.power(theta), rho, n)
    assert got == pytest.approx(expected, rel=1e-8)


def test_ball_mass_divergent_power():
    with pytest.raises(DivergenceError):
        ball_mass(WeightSpec.power(-2.0), 1.0, 2)


def test_ball_mass_rejects_nonpositive_radius():
    with pytest.raises(ConfigError):
        ball_mass(WeightSpec(), 0.0, 2)


def test_extreme_power_underflows_and_overflows_without_raising():
    """|x|**400 has a ball mass that underflows to 0 at radius 1/8 and
    overflows to inf at radius 8, instead of raising a float OverflowError.
    Its dual mass diverges, so the Muckenhoupt check fails; the doubling
    check takes one power of s/h, not a quotient of ball masses, so at the
    natural mu the weight doubles exactly on the pair whose small ball
    underflows."""
    spec = WeightSpec.power(400.0)
    assert ball_mass(spec, 0.125, 1) == 0.0
    assert ball_mass(spec, 8.0, 1) == math.inf
    rep = check_muckenhoupt(spec, 1)
    assert not rep.passes
    assert "diverges" in rep.message
    rep = check_doubling(spec, 1, spec.natural_mu(1), [(0.25, 0.125)])
    assert rep.passes
    assert rep.worst_ratio == 1.0


def test_muckenhoupt_constant_weight():
    """Constant weight: the product constant equals (S_n/n)^theta_mk at
    every radius, so the check passes with that exact worst constant."""
    n = 2
    rep = check_muckenhoupt(WeightSpec(theta_mk=2.0), n)
    assert rep.passes
    expected = (surface_area(n) / n) ** 2.0
    assert rep.worst_constant == pytest.approx(expected, rel=1e-8)


def test_muckenhoupt_power_weight_scale_free():
    # |x|^1 in n=2 with theta_mk=2: the constant is radius-independent, so
    # the reported one is the product at any radius; the dual mass of
    # |x|**-1 is S_2 r / 1, and ess sup * r^n / mass = r * r^2 / (S_2 r^3 / 3)
    spec = WeightSpec.power(1.0, theta_mk=2.0)
    rep = check_muckenhoupt(spec, 2)
    assert rep.passes
    for r in (0.25, 1.0, 4.0):
        const = ball_mass(spec, r, 2) * surface_area(2) * r / r**4
        assert rep.worst_constant == pytest.approx(const, rel=1e-14)
    assert rep.worst_esssup_ratio == pytest.approx(3.0 / surface_area(2), rel=1e-14)


def test_muckenhoupt_divergent_dual_mass_fails():
    # theta_w >= n(theta_mk - 1) makes the dual mass diverge
    rep = check_muckenhoupt(WeightSpec.power(2.5, theta_mk=2.0), 2)
    assert not rep.passes
    assert "diverges" in rep.message


def test_doubling_power_weight_exact_at_natural_mu():
    """|x|^theta doubles exactly with exponent mu = 1 + theta/n: the
    normalized ratio is identically 1."""
    n, theta = 2, 1.0
    spec = WeightSpec.power(theta)
    mu = spec.natural_mu(n)
    assert mu == pytest.approx(1.0 + theta / n)
    pairs = [(2.0, 1.0), (4.0, 1.0), (1.0, 0.25)]
    rep = check_doubling(spec, n, mu, pairs)
    assert rep.passes
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-9)


def test_doubling_fails_below_natural_mu():
    n, theta = 2, 1.0
    spec = WeightSpec.power(theta)
    mu = spec.natural_mu(n) - 0.3
    rep = check_doubling(spec, n, mu, [(2.0, 1.0), (8.0, 1.0)])
    assert not rep.passes
    assert rep.tail_slope > 0.0


def test_doubling_rejects_bad_pairs():
    with pytest.raises(ConfigError):
        check_doubling(WeightSpec(), 2, 1.0, [(1.0, 2.0)])
    with pytest.raises(ConfigError):
        check_doubling(WeightSpec(), 2, 1.0, [])



dims = st.sampled_from([1, 2, 3])
radii = st.floats(1e-2, 1e2)


@settings(max_examples=200, deadline=None)
@given(n=dims, theta_w=st.floats(0.0, 6.0), theta_mk=st.floats(1.0, 4.0, exclude_min=True),
       r=radii)
def test_muckenhoupt_closed_form_holds_at_every_radius(n, theta_w, theta_mk, r):
    """The reported constant is the product mass(B_r) * d(r)**(theta_mk-1)
    / r**(n*theta_mk) at any radius r, with the dual mass d of
    |x|**(-theta_w/(theta_mk-1)) written out here.  Close to the dual
    mass's divergence, the rounding of its exponent n + e is amplified by
    1/(n + e), so the draws keep n + e away from 0."""
    spec = WeightSpec.power(theta_w, theta_mk)
    rep = check_muckenhoupt(spec, n)
    e = -theta_w / (theta_mk - 1.0)
    if n + e <= 0.0:
        assert rep.worst_constant == math.inf
        assert not rep.passes
        return
    assume(n + e > 1e-2)
    dual = surface_area(n) * r ** (n + e) / (n + e)
    with np.errstate(over="ignore"):
        const = ball_mass(spec, r, n) * np.float64(dual) ** (theta_mk - 1.0) / r ** (n * theta_mk)
    assume(math.isfinite(const) and math.isfinite(rep.worst_constant))
    assert rep.worst_constant == pytest.approx(const, rel=1e-12)
    assert rep.passes == (const <= CAP and rep.worst_esssup_ratio <= CAP)


@settings(max_examples=200, deadline=None)
@given(n=dims, theta_w=st.floats(0.0, 6.0), mu=st.floats(0.0, 8.0),
       pairs=st.lists(st.tuples(st.floats(1.0, 1e2), radii), min_size=1, max_size=4))
def test_doubling_reports_the_power_of_the_scale_separation(n, theta_w, mu, pairs):
    """For each pair (s, h) the normalized ratio is (s/h)**(n + theta_w -
    n*mu); the check reports the largest, and that exponent as its slope."""
    spec = WeightSpec.power(theta_w)
    pairs = [(sep * h, h) for sep, h in pairs]
    rep = check_doubling(spec, n, mu, pairs)
    expo = n + theta_w - n * mu
    worst = max((s / h) ** expo for s, h in pairs)
    assert rep.worst_ratio == pytest.approx(worst, rel=1e-12)
    assert rep.tail_slope == expo
    assert rep.passes == (worst <= CAP and expo <= SLOPE_TOL)
