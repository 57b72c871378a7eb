"""Weight evaluation, ball masses, and the class-condition checks."""

import math

import numpy as np
import pytest

from degenflow import (
    ConfigError,
    DegenerateBallError,
    DivergenceError,
    WeightSpec,
    ball_mass,
    check_doubling,
    check_muckenhoupt,
    eval_radial,
    surface_area,
)


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
        spec = WeightSpec.constant()
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
    assert ball_mass(WeightSpec.constant(), rho, n) == pytest.approx(expected, rel=1e-10)


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
        ball_mass(WeightSpec.constant(), 0.0, 2)


def test_extreme_power_underflows_and_overflows_without_raising():
    """|x|**400 has a ball mass that underflows to 0 at radius 1/8 and
    overflows to inf at radius 8: the class checks report it failing, and
    the doubling check raises DegenerateBallError on the zero-mass ball,
    instead of a float OverflowError."""
    spec = WeightSpec.power(400.0)
    assert ball_mass(spec, 0.125, 1) == 0.0
    assert ball_mass(spec, 8.0, 1) == math.inf
    rep = check_muckenhoupt(spec, 1, [0.125, 1.0])
    assert not rep.passes
    assert "diverges" in rep.message
    with pytest.raises(DegenerateBallError):
        check_doubling(spec, 1, spec.natural_mu(1), [(0.25, 0.125)])


def test_muckenhoupt_constant_weight():
    """Constant weight: the product constant equals (S_n/n)^theta_mk at
    every radius, so the check passes with that exact worst constant."""
    n = 2
    rep = check_muckenhoupt(WeightSpec.constant(theta_mk=2.0), n, [0.5, 1.0, 2.0])
    assert rep.passes
    expected = (surface_area(n) / n) ** 2.0
    assert rep.worst_constant == pytest.approx(expected, rel=1e-8)


def test_muckenhoupt_power_weight_scale_free():
    # |x|^1 in n=2 with theta_mk=2: constant is radius-independent, and so
    # is ess sup * r^n / mass = r * r^2 / (S_2 r^3 / 3)
    rep = check_muckenhoupt(WeightSpec.power(1.0, theta_mk=2.0), 2, [0.25, 1.0, 4.0])
    assert rep.passes
    consts = [c for _, c in rep.per_radius]
    assert max(consts) == pytest.approx(min(consts), rel=1e-7)
    assert rep.worst_esssup_ratio == pytest.approx(3.0 / surface_area(2), rel=1e-14)


def test_muckenhoupt_divergent_dual_mass_fails():
    # theta_w >= n(theta_mk - 1) makes the dual mass diverge
    rep = check_muckenhoupt(WeightSpec.power(2.5, theta_mk=2.0), 2, [1.0])
    assert not rep.passes
    assert "diverges" in rep.message


def test_muckenhoupt_rejects_empty_radii():
    with pytest.raises(ConfigError):
        check_muckenhoupt(WeightSpec.constant(), 2, [])


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
        check_doubling(WeightSpec.constant(), 2, 1.0, [(1.0, 2.0)])
    with pytest.raises(ConfigError):
        check_doubling(WeightSpec.constant(), 2, 1.0, [])

