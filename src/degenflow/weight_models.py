"""Admissible spatial weights and closed-form checks of their class conditions.

A weight is the radial power omega(x) = |x|**theta_w; theta_w = 0 is the
constant weight 1.  Every ball mass it needs has a closed form, and so do
both class checks:

* the Muckenhoupt-type condition bounds the product of the ball mass and
  a power of the dual ball mass against r**(n*theta_mk); for a power
  weight that constant does not depend on r, so it is taken at r = 1,
* the doubling condition bounds mass ratios of nested balls against
  (s/h)**(n*mu); the normalized ratio is (s/h)**(n + theta_w - n*mu), so
  it stays bounded over all scales exactly when that exponent is <= 0
  (up to SLOPE_TOL).

A check fails when a constant exceeds CAP or diverges.  Reports carry the
constants so callers can apply stricter judgement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError

# the class checks fail when a Muckenhoupt constant, an essential-supremum
# ratio or a normalized doubling ratio exceeds CAP
CAP = 1e6

# the doubling check fails when the normalized ratio grows with the scale
# separation s/h faster than (s/h)**SLOPE_TOL
SLOPE_TOL = 0.02


def surface_area(n):
    """Surface measure of the unit sphere in dimension n (2*pi**(n/2)/Gamma(n/2))."""
    if n < 1 or int(n) != n:
        raise ConfigError(f"dimension must be a positive integer, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """The radial weight omega(x) = |x|**theta_w.

    theta_mk is the exponent used by the Muckenhoupt-type check (> 1).
    """

    theta_w: float = 0.0
    theta_mk: float = 2.0

    def __post_init__(self):
        if not self.theta_mk > 1.0:
            raise ConfigError(f"theta_mk must exceed 1, got {self.theta_mk}", keys=("theta_mk",))

    @staticmethod
    def power(theta_w, theta_mk=2.0):
        return WeightSpec(float(theta_w), theta_mk)

    def natural_mu(self, n):
        """Doubling exponent at which the weight doubles exactly."""
        return 1.0 + self.theta_w / n


def eval_radial(spec, r):
    """Vectorized weight evaluation at distances r from the origin (ndarray in,
    ndarray out)."""
    with np.errstate(divide="ignore"):
        return np.abs(np.asarray(r, dtype=float)) ** spec.theta_w


def _pow(rho, a):
    """rho**a for rho > 0, inf where it overflows (where float ** raises)."""
    with np.errstate(over="ignore"):
        return float(np.float64(rho) ** a)


def _power_mass(rho, n, expo):
    """Mass of |x|**expo over the ball of radius rho in dimension n, for
    expo > -n."""
    return surface_area(n) * _pow(rho, n + expo) / (n + expo)


def ball_mass(spec, rho, n):
    """Weight mass of the ball of radius rho in dimension n."""
    if rho <= 0.0:
        raise ConfigError(f"ball radius must be positive, got {rho}")
    if spec.theta_w <= -n:
        raise DivergenceError(
            f"weight |x|**({spec.theta_w}) is not integrable near the origin in dimension {n}"
        )
    return _power_mass(rho, n, spec.theta_w)


def _dual_ball_mass(spec, rho, n):
    """Mass of omega**(-1/(theta_mk-1)) over the ball, or inf if it diverges."""
    expo = -spec.theta_w * (1.0 / (spec.theta_mk - 1.0))
    if expo <= -n:
        return math.inf
    return _power_mass(rho, n, expo)


@dataclass
class MuckenhouptReport:
    passes: bool
    worst_constant: float
    worst_esssup_ratio: float
    message: str = ""


def check_muckenhoupt(spec, n):
    """Check the ball-mass / dual-mass product condition.

    The constant

        mass(B_r) * dual_mass(B_r)**(theta_mk - 1) / r**(n * theta_mk)

    and the essential-supremum ratio ess sup omega * r**n / mass(B_r) do not
    depend on r for a power weight, so both are taken at r = 1:
    S_n/(n+theta_w) * (S_n/(n - theta_w/(theta_mk-1)))**(theta_mk-1) and
    (n+theta_w)/S_n.  Both read inf when the dual mass diverges, and the
    ratio reads inf when theta_w < 0 makes the weight unbounded.
    """
    mass = ball_mass(spec, 1.0, n)
    dual = _dual_ball_mass(spec, 1.0, n)
    if math.isinf(dual):
        return MuckenhouptReport(False, math.inf, math.inf, "mass or dual mass diverges")
    const = mass * _pow(dual, spec.theta_mk - 1.0)
    ratio = 1.0 / mass if spec.theta_w >= 0.0 else math.inf
    passes = const <= CAP and ratio <= CAP
    return MuckenhouptReport(passes, const, ratio, "ok" if passes else "constant exceeds cap")


@dataclass
class DoublingReport:
    passes: bool
    worst_ratio: float
    tail_slope: float = 0.0
    message: str = ""


def check_doubling(spec, n, mu, radius_pairs):
    """Check mass(B_s) <= c * (s/h)**(n*mu) * mass(B_h) over radius pairs.

    The ball masses are powers of the radius, so the ratio normalized by
    (s/h)**(n*mu) is (s/h)**(n + theta_w - n*mu).  It stays bounded for
    arbitrarily separated scales exactly when that exponent, the tail
    slope, is at most SLOPE_TOL; the worst ratio over the pairs must stay
    below CAP too.
    """
    pairs = [(float(s), float(h)) for s, h in radius_pairs]
    if not pairs:
        raise ConfigError("radius_pairs must be nonempty")
    for s, h in pairs:
        if h <= 0.0 or s < h:
            raise ConfigError(f"need s >= h > 0 in each pair, got ({s}, {h})")
    ball_mass(spec, 1.0, n)  # raises DivergenceError for a weight that is not integrable
    # one power of s/h overflows (to inf) only where the normalized ratio
    # does, not where a ball mass or (s/h)**(n*mu) alone would
    expo = n + spec.theta_w - n * mu
    worst = max(_pow(s / h, expo) for s, h in pairs)
    msg = "ok"
    if worst > CAP:
        msg = "ratio exceeds cap"
    elif expo > SLOPE_TOL:
        msg = "normalized ratio grows with scale separation"
    return DoublingReport(passes=msg == "ok", worst_ratio=worst, tail_slope=expo, message=msg)
