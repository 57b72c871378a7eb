"""Admissible spatial weights and numerical checks of their class conditions.

A weight is the radial power omega(x) = |x|**theta_w; theta_w = 0 is the
constant weight 1.  Every ball mass it needs has a closed form.  Class
membership is checked numerically on finite radius grids:

* the Muckenhoupt-type condition bounds the product of the ball mass and
  a power of the dual ball mass against r**(n*theta_mk),
* the doubling condition bounds mass ratios of nested balls against
  (s/h)**(n*mu).

"Finite supremum over all radii" is operationalized as: the constant stays
below a cap on the supplied radius grid, and does not trend upward when the
grid is extended by a few octaves.  Reports carry the worst constants seen
so callers can apply stricter judgement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateBallError, DivergenceError

# the class checks fail when a Muckenhoupt constant, an essential-supremum
# ratio or a normalized doubling ratio exceeds CAP
CAP = 1e6

# the class checks extend their radius grid by this many octaves, and fail
# when the Muckenhoupt constant grows there by more than TREND_TOL
# (relative) or the normalized doubling ratio has a log-log slope above
# SLOPE_TOL
EXTENSION_OCTAVES = 3
TREND_TOL = 0.05
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
            raise ConfigError(f"theta_mk must exceed 1, got {self.theta_mk}")

    @staticmethod
    def constant(theta_mk=2.0):
        return WeightSpec(theta_mk=theta_mk)

    @staticmethod
    def power(theta_w, theta_mk=2.0):
        return WeightSpec(float(theta_w), theta_mk)

    def natural_mu(self, n):
        """Doubling exponent at which the weight doubles exactly."""
        return 1.0 + self.theta_w / n


def eval_radial(spec, r):
    """Vectorized weight evaluation at radii r (ndarray in, ndarray out)."""
    r = np.asarray(r, dtype=float)
    if spec.theta_w == 0.0:
        return np.ones_like(r)
    with np.errstate(divide="ignore"):
        return np.abs(r) ** spec.theta_w


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


def _ess_sup(spec, rho):
    """ess sup of the weight over the ball: rho**theta_w, or inf when
    theta_w < 0 makes it unbounded at the origin."""
    return _pow(rho, spec.theta_w) if spec.theta_w >= 0.0 else math.inf


@dataclass
class MuckenhouptReport:
    passes: bool
    worst_constant: float
    worst_esssup_ratio: float
    per_radius: list = field(default_factory=list)
    tail_growth: float = 1.0
    message: str = ""


def check_muckenhoupt(spec, n, radii):
    """Check the ball-mass / dual-mass product condition on a radius grid.

    For each radius r the constant is

        mass(B_r) * dual_mass(B_r)**(theta_mk - 1) / r**(n * theta_mk),

    and the essential-supremum bound ess sup omega <= c * r**(-n) * mass(B_r)
    is checked alongside.  The grid is extended by EXTENSION_OCTAVES halvings
    below and doublings above; an upward trend there fails the check.
    """
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0.0:
        raise ConfigError("radii must be a nonempty list of positive values")
    theta = spec.theta_mk

    def constant_at(r):
        mass = ball_mass(spec, r, n)
        dual = _dual_ball_mass(spec, r, n)
        if not np.isfinite(dual) or not np.isfinite(mass):
            return math.inf, math.inf
        const = mass * dual ** (theta - 1.0) / r ** (n * theta)
        ess = _ess_sup(spec, r)
        ratio = ess * r**n / mass if mass > 0.0 else math.inf
        return const, ratio

    per_radius = []
    worst = 0.0
    worst_ess = 0.0
    for r in radii:
        const, ratio = constant_at(r)
        per_radius.append((r, const))
        worst = max(worst, const)
        worst_ess = max(worst_ess, ratio)

    ext_r = [radii[0] / 2**j for j in range(1, EXTENSION_OCTAVES + 1)]
    ext_r += [radii[-1] * 2**j for j in range(1, EXTENSION_OCTAVES + 1)]
    ext_consts = []
    for r in ext_r:
        const, _ = constant_at(r)
        ext_consts.append(const)

    finite = np.isfinite([c for _, c in per_radius]) if per_radius else np.array([])
    all_finite = bool(np.all(finite)) and all(np.isfinite(ext_consts))
    tail_growth = math.inf
    if all_finite and worst > 0.0:
        tail_growth = max(ext_consts) / worst
    passes = (
        all_finite
        and worst <= CAP
        and worst_ess <= CAP
        and tail_growth <= 1.0 + TREND_TOL
    )
    msg = "ok"
    if not all_finite:
        msg = "mass or dual mass diverges"
    elif worst > CAP or worst_ess > CAP:
        msg = "constant exceeds cap"
    elif tail_growth > 1.0 + TREND_TOL:
        msg = "constant grows under radius-grid extension"
    return MuckenhouptReport(
        passes=passes,
        worst_constant=worst,
        worst_esssup_ratio=worst_ess,
        per_radius=per_radius,
        tail_growth=tail_growth,
        message=msg,
    )


@dataclass
class DoublingReport:
    passes: bool
    worst_ratio: float
    per_pair: list = field(default_factory=list)
    tail_slope: float = 0.0
    message: str = ""


def check_doubling(spec, n, mu, radius_pairs):
    """Check mass(B_s) <= c * (s/h)**(n*mu) * mass(B_h) over radius pairs.

    Ratios are normalized by (s/h)**(n*mu); the pair list is extended toward
    larger s/h and a positive log-log trend there fails the check, since the
    normalized ratio must stay bounded for arbitrarily separated scales.
    The ball masses are powers of the radius, so the normalized ratio is
    (s/h)**(n + theta_w - n*mu) and that exponent is the trend.
    """
    pairs = [(float(s), float(h)) for s, h in radius_pairs]
    if not pairs:
        raise ConfigError("radius_pairs must be nonempty")
    for s, h in pairs:
        if h <= 0.0 or s < h:
            raise ConfigError(f"need s >= h > 0 in each pair, got ({s}, {h})")
    # one power of s/h overflows (to inf) only where the normalized ratio
    # does, not where a ball mass or (s/h)**(n*mu) alone would
    expo = n + spec.theta_w - n * mu

    def normalized(s, h):
        if ball_mass(spec, h, n) == 0.0:
            raise DegenerateBallError(f"ball of radius {h} carries zero weight mass")
        return _pow(s / h, expo)

    per_pair = []
    worst = 0.0
    for s, h in pairs:
        ratio = normalized(s, h)
        per_pair.append(((s, h), ratio))
        worst = max(worst, ratio)

    s_big, h_big = max(pairs, key=lambda sh: sh[0] / sh[1])
    ext_seps = [(s_big / h_big) * 2**j for j in range(EXTENSION_OCTAVES + 1)]
    ext_ratios = [normalized(h_big * sep, h_big) for sep in ext_seps]

    passes = worst <= CAP and max(ext_ratios) <= CAP and expo <= SLOPE_TOL
    msg = "ok"
    if worst > CAP or max(ext_ratios) > CAP:
        msg = "ratio exceeds cap"
    elif expo > SLOPE_TOL:
        msg = "normalized ratio grows with scale separation"
    return DoublingReport(
        passes=passes,
        worst_ratio=worst,
        per_pair=per_pair,
        tail_slope=expo,
        message=msg,
    )

