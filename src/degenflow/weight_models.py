"""Admissible spatial weights and numerical checks of their class conditions.

A weight is a nonnegative function of position, evaluated through the
distance from the origin.  Three kinds are supported: the constant weight,
a power of |x|, and a tabulated radial profile loaded from a two-column
CSV.  Class membership is checked numerically on finite radius grids:

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

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateBallError, DivergenceError

KIND_CONSTANT = "constant"
KIND_POWER = "power"
KIND_TABULATED = "tabulated"
_KINDS = (KIND_CONSTANT, KIND_POWER, KIND_TABULATED)

QUAD_RTOL = 1e-8

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
    """Description of a radial weight omega(x) = w(|x|).

    theta_mk is the exponent used by the Muckenhoupt-type check (> 1).
    Tabulated weights interpolate linearly between samples; outside the
    tabulated range they extend by the boundary value.
    """

    kind: str
    theta_w: float = 0.0
    theta_mk: float = 2.0
    positions: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown weight kind {self.kind!r}")
        if not self.theta_mk > 1.0:
            raise ConfigError(f"theta_mk must exceed 1, got {self.theta_mk}")
        if self.kind == KIND_TABULATED:
            pos = np.asarray(self.positions, dtype=float)
            val = np.asarray(self.values, dtype=float)
            if pos.ndim != 1 or pos.size < 2 or pos.shape != val.shape:
                raise ConfigError("tabulated weight needs matching 1d position/value arrays")
            if np.any(np.diff(pos) <= 0.0):
                raise ConfigError("tabulated positions must be strictly increasing")
            if pos[0] < 0.0:
                raise ConfigError("tabulated positions must be nonnegative radii")
            if np.any(val < 0.0) or not np.any(val > 0.0):
                raise ConfigError("tabulated values must be nonnegative and not all zero")
            object.__setattr__(self, "positions", pos)
            object.__setattr__(self, "values", val)

    @staticmethod
    def constant(theta_mk=2.0):
        return WeightSpec(KIND_CONSTANT, theta_mk=theta_mk)

    @staticmethod
    def power(theta_w, theta_mk=2.0):
        return WeightSpec(KIND_POWER, theta_w=float(theta_w), theta_mk=theta_mk)

    @staticmethod
    def tabulated(positions, values, theta_mk=2.0):
        return WeightSpec(KIND_TABULATED, theta_mk=theta_mk, positions=positions, values=values)

    def natural_mu(self, n):
        """Doubling exponent at which a power weight doubles exactly."""
        if self.kind == KIND_POWER:
            return 1.0 + self.theta_w / n
        return 1.0


def eval_radial(spec, r):
    """Vectorized weight evaluation at radii r (ndarray in, ndarray out)."""
    r = np.asarray(r, dtype=float)
    if spec.kind == KIND_CONSTANT:
        return np.ones_like(r)
    if spec.kind == KIND_POWER:
        if spec.theta_w == 0.0:
            return np.ones_like(r)
        with np.errstate(divide="ignore"):
            out = np.abs(r) ** spec.theta_w
        return out
    return np.interp(r, spec.positions, spec.values)


def _segment_power_integral(a, b, c0, c1, n):
    """Exact integral of (c0 + c1*r) * r**(n-1) over [a, b]."""
    return c0 * (b**n - a**n) / n + c1 * (b ** (n + 1) - a ** (n + 1)) / (n + 1)


def _radial_integral(spec, rho, n, transform=None):
    """Integral of f(w(r)) * r**(n-1) over [0, rho], without the sphere factor.

    transform maps weight values pointwise (identity when None).  Power and
    constant kinds go through adaptive quadrature; tabulated kinds integrate
    their piecewise-linear interpolant segment by segment, exactly when no
    transform is applied.
    """
    f = transform if transform is not None else (lambda w: w)
    if spec.kind == KIND_TABULATED and transform is None:
        pos = spec.positions
        val = spec.values
        total = 0.0
        # constant extension below the first sample
        lo = min(rho, pos[0])
        if lo > 0.0:
            total += _segment_power_integral(0.0, lo, val[0], 0.0, n)
        for i in range(len(pos) - 1):
            a, b = pos[i], pos[i + 1]
            if a >= rho:
                break
            b = min(b, rho)
            slope = (val[i + 1] - val[i]) / (pos[i + 1] - pos[i])
            c0 = val[i] - slope * pos[i]
            total += _segment_power_integral(a, b, c0, slope, n)
        if rho > pos[-1]:
            total += _segment_power_integral(pos[-1], rho, val[-1], 0.0, n)
        return total

    # imported here: nothing else in the package needs scipy.integrate,
    # which is slow to import
    from scipy import integrate

    def integrand(r):
        return f(float(eval_radial(spec, r))) * r ** (n - 1)

    points = None
    if spec.kind == KIND_TABULATED:
        inside = spec.positions[(spec.positions > 0.0) & (spec.positions < rho)]
        if inside.size and inside.size <= 80:
            points = inside.tolist()
    value, _ = integrate.quad(
        integrand, 0.0, rho, epsabs=0.0, epsrel=QUAD_RTOL, limit=400, points=points
    )
    return value


def ball_mass(spec, rho, n):
    """Weight mass of the ball of radius rho in dimension n."""
    if rho <= 0.0:
        raise ConfigError(f"ball radius must be positive, got {rho}")
    if spec.kind == KIND_POWER and spec.theta_w <= -n:
        raise DivergenceError(
            f"weight |x|**({spec.theta_w}) is not integrable near the origin in dimension {n}"
        )
    return surface_area(n) * _radial_integral(spec, rho, n)


def _dual_ball_mass(spec, rho, n):
    """Mass of omega**(-1/(theta_mk-1)) over the ball, or inf if it diverges."""
    q = 1.0 / (spec.theta_mk - 1.0)
    if spec.kind == KIND_CONSTANT:
        return surface_area(n) * rho**n / n
    if spec.kind == KIND_POWER:
        expo = -spec.theta_w * q
        if expo <= -n:
            return math.inf
        return surface_area(n) * rho ** (n + expo) / (n + expo)

    def transform(w):
        return w**-q if w > 0.0 else math.inf

    if np.any(spec.values[spec.positions < rho] == 0.0):
        # the interpolant touches zero inside the ball; w**-q with q >= 1
        # is then non-integrable across the zero set
        if q >= 1.0:
            return math.inf
    try:
        with np.errstate(divide="ignore", over="ignore"):
            value = _radial_integral(spec, rho, n, transform=transform)
    except (OverflowError, ZeroDivisionError):
        return math.inf
    return value * surface_area(n) if np.isfinite(value) else math.inf


def _ess_sup(spec, rho, n_samples=512):
    rs = np.linspace(0.0, rho, n_samples + 1)
    vals = eval_radial(spec, rs)
    return float(np.max(vals))


def _trend_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    denom = float(np.dot(lx, lx))
    if denom == 0.0:
        return 0.0
    return float(np.dot(lx, ly - ly.mean()) / denom)


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
    """
    pairs = [(float(s), float(h)) for s, h in radius_pairs]
    if not pairs:
        raise ConfigError("radius_pairs must be nonempty")
    for s, h in pairs:
        if h <= 0.0 or s < h:
            raise ConfigError(f"need s >= h > 0 in each pair, got ({s}, {h})")

    def normalized(s, h):
        mass_h = ball_mass(spec, h, n)
        if mass_h == 0.0:
            raise DegenerateBallError(f"ball of radius {h} carries zero weight mass")
        return (ball_mass(spec, s, n) / mass_h) / (s / h) ** (n * mu)

    per_pair = []
    worst = 0.0
    for s, h in pairs:
        ratio = normalized(s, h)
        per_pair.append(((s, h), ratio))
        worst = max(worst, ratio)

    s_big, h_big = max(pairs, key=lambda sh: sh[0] / sh[1])
    ext_seps = [(s_big / h_big) * 2**j for j in range(EXTENSION_OCTAVES + 1)]
    ext_ratios = [normalized(h_big * sep, h_big) for sep in ext_seps]
    tail_slope = _trend_slope(ext_seps, ext_ratios)

    passes = worst <= CAP and max(ext_ratios) <= CAP and tail_slope <= SLOPE_TOL
    msg = "ok"
    if worst > CAP or max(ext_ratios) > CAP:
        msg = "ratio exceeds cap"
    elif tail_slope > SLOPE_TOL:
        msg = "normalized ratio grows with scale separation"
    return DoublingReport(
        passes=passes,
        worst_ratio=worst,
        per_pair=per_pair,
        tail_slope=tail_slope,
        message=msg,
    )


def load_weight_csv(path, theta_mk=2.0):
    """Load a tabulated weight from a two-column CSV (position, value).

    A non-numeric first row is treated as a header and skipped.  Positions
    must be strictly increasing.
    """
    positions = []
    values = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ConfigError(f"{path}: row {i + 1} needs two columns")
            try:
                pos, val = float(row[0]), float(row[1])
            except ValueError:
                if i == 0:
                    continue
                raise ConfigError(f"{path}: row {i + 1} is not numeric") from None
            positions.append(pos)
            values.append(val)
    if len(positions) < 2:
        raise ConfigError(f"{path}: need at least two samples")
    return WeightSpec.tabulated(positions, values, theta_mk=theta_mk)
