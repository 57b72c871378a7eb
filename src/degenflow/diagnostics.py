"""Derived quantities for run analysis: scaling exponents, the comparison
ODE and its thresholds, self-similar reference solutions, residual
verification, and trajectory fits.  Every fitted line, the algebraic decay
exponent here and timestepper's blow-up time and decay rate, comes from
one least-squares helper, _line_fit.

The comparison ODE g' = -lambda1 g + C g^sigma is solved in closed form
through the substitution h = g^{1-sigma}, which turns it into a linear
equation.  Thresholds come in two variants that disagree for sigma != 2:
the equilibrium value (lambda1/C)^{1/(sigma-1)} of the ODE itself, used
operationally everywhere, and the alternative exponent 1/sigma, computed
only for reporting.

The self-similar reference solutions come in two variants as well.  The
"verbatim" profile uses the constant ((p-2)/(p-theta)) * (n/beta)^{1/(p-1)}
and no time-decaying amplitude.  The "corrected" variant multiplies the
profile by t^{-n/beta} and replaces n/beta with 1/beta inside the constant,
which is the unique choice that satisfies the radial profile equation
|F'|^{p-1} = (1/beta) * xi^{1-theta} * F, hence the PDE, exactly.
residual_check adjudicates the two numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import Field
from .errors import ConfigError, FitError
from .plap_operator import apply_plaplacian


# ---------------------------------------------------------------- exponents


@dataclass(frozen=True)
class Exponents:
    """Scaling exponents of the weighted evolution; all derived values are
    recomputed on access."""

    n: int
    p: float
    mu: float = 1.0
    theta_w: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"dimension must be at least 1, got {self.n}")
        if not self.p >= 2.0:
            raise ConfigError(f"p must be >= 2, got {self.p}")

    @property
    def k(self):
        return self.n * (self.p - 1.0 - self.mu) + self.p

    @property
    def beta(self):
        return self.n * (self.p - 2.0) + self.p - self.theta_w


# ------------------------------------------------------------ comparison ODE


@dataclass(frozen=True)
class OdeParams:
    lambda1: float
    C: float
    sigma: float
    g0: float

    def __post_init__(self):
        if self.lambda1 < 0.0:
            raise ConfigError(f"lambda1 must be nonnegative, got {self.lambda1}")
        if not self.C > 0.0:
            raise ConfigError(f"C must be positive, got {self.C}")
        if not self.sigma > 1.0:
            raise ConfigError(f"sigma must exceed 1, got {self.sigma}")
        if self.g0 < 0.0:
            raise ConfigError(f"g0 must be nonnegative, got {self.g0}")


def bernoulli_blowup(params):
    """Exact solution data for g' = -lambda1 g + C g^sigma, g(0) = g0.

    Returns {"blows_up": bool, "T": float or None, "g": evaluator}.  The
    evaluator accepts scalar or array times and returns inf at and past the
    blow-up time.
    """
    lam, c, sig, g0 = params.lambda1, params.C, params.sigma, params.g0
    sm1 = sig - 1.0

    if g0 == 0.0:
        return {"blows_up": False, "T": None, "g": lambda t: np.zeros_like(np.asarray(t, dtype=float))}

    # h = g^{1-sigma} solves the linear h' = sm1 (lam h - c)
    h0 = g0 ** (-sm1)
    if lam == 0.0:
        blows, t_star = True, float(h0 / (sm1 * c))

        def h_of(t):
            return h0 - sm1 * c * t
    else:
        h_eq = c / lam  # h-value of the ODE equilibrium g* = (lam/c)^{1/(sm1)}
        blows = h0 < h_eq  # equivalently g0 > g*
        t_star = math.log(h_eq / (h_eq - h0)) / (sm1 * lam) if blows else None

        def h_of(t):
            return h_eq + (h0 - h_eq) * np.exp(sm1 * lam * t)

    def g_eval(t):
        h = h_of(np.asarray(t, dtype=float))
        out = np.full(h.shape, np.inf)
        ok = h > 0.0
        out[ok] = h[ok] ** (-1.0 / sm1)
        return out if out.shape else float(out)

    return {"blows_up": blows, "T": t_star, "g": g_eval}


def blowup_threshold(lambda1, C, sigma):
    """Critical g(0) of the comparison ODE, in both exponent conventions.

    "operative" is the ODE equilibrium (lambda1/C)^{1/(sigma-1)}, which is
    what classifications use; "paper_value" carries the alternative
    exponent 1/sigma and is reported only for side-by-side comparison.
    """
    if lambda1 < 0.0 or not C > 0.0 or not sigma > 1.0:
        raise ConfigError("need lambda1 >= 0, C > 0, sigma > 1")
    ratio = lambda1 / C
    return {
        "operative": ratio ** (1.0 / (sigma - 1.0)),
        "paper_value": ratio ** (1.0 / sigma),
    }


def exp_forced_bound(psi0, C8, sigma):
    """Upper bound psi0^{1-sigma} / (C8 (sigma-1)) on the blow-up time of
    any psi with psi' >= C8 psi^sigma, psi(0) = psi0."""
    if not psi0 > 0.0 or not C8 > 0.0 or not sigma > 1.0:
        raise ConfigError("need psi0 > 0, C8 > 0, sigma > 1")
    return psi0 ** (1.0 - sigma) / (C8 * (sigma - 1.0))


# ------------------------------------------------------- reference solutions

VARIANT_VERBATIM = "verbatim"
VARIANT_CORRECTED = "corrected"


def _barenblatt_profile(xi, exps, constant):
    gamma = (exps.p - exps.theta_w) / (exps.p - 1.0)
    m = (exps.p - 1.0) / (exps.p - 2.0)
    inner = 1.0 - constant * np.abs(xi) ** gamma
    return np.where(inner > 0.0, np.maximum(inner, 0.0) ** m, 0.0)


def _check_barenblatt_args(t, exps):
    if t <= 0.0:
        raise ConfigError(f"reference solution needs t > 0, got {t}")
    if not exps.p > 2.0:
        raise ConfigError("reference solution needs p > 2")
    if not 0.0 <= exps.theta_w < exps.p:
        raise ConfigError("reference solution needs 0 <= theta_w < p")


def barenblatt_exact(x, t, exps):
    """Self-similar display in its literal form: no amplitude factor and
    constant ((p-2)/(p-theta)) * (n/beta)^{1/(p-1)}."""
    _check_barenblatt_args(t, exps)
    xi = np.abs(np.asarray(x, dtype=float)) / t ** (1.0 / exps.beta)
    const = ((exps.p - 2.0) / (exps.p - exps.theta_w)) * (
        exps.n / exps.beta
    ) ** (1.0 / (exps.p - 1.0))
    out = _barenblatt_profile(xi, exps, const)
    return out if out.shape else float(out)


def barenblatt_corrected(x, t, exps):
    """Amplitude-corrected self-similar solution

        u = t^{-n/beta} (1 - c xi^gamma)_+^{(p-1)/(p-2)},
        c = ((p-2)/(p-theta)) (1/beta)^{1/(p-1)},  xi = |x| / t^{1/beta},

    which satisfies the weight-power evolution exactly."""
    _check_barenblatt_args(t, exps)
    xi = np.abs(np.asarray(x, dtype=float)) / t ** (1.0 / exps.beta)
    const = ((exps.p - 2.0) / (exps.p - exps.theta_w)) * (
        1.0 / exps.beta
    ) ** (1.0 / (exps.p - 1.0))
    out = t ** (-exps.n / exps.beta) * _barenblatt_profile(xi, exps, const)
    return out if out.shape else float(out)


# ------------------------------------------------------------ residual check


# residual_check differences u_t over half-width DT_REL * t and excludes
# nodes within GUARD_CELLS of where the candidate is below FRONT_MARGIN
GUARD_CELLS = 2
FRONT_MARGIN = 1e-3
DT_REL = 1e-4


def _erode(mask, cells):
    out = mask.copy()
    for _ in range(cells):
        shrunk = out.copy()
        for axis in range(out.ndim):
            shifted = np.roll(out, 1, axis=axis)
            _fill_edge(shifted, axis, 0, False)
            shrunk &= shifted
            shifted = np.roll(out, -1, axis=axis)
            _fill_edge(shifted, axis, -1, False)
            shrunk &= shifted
        out = shrunk
    return out


def _fill_edge(arr, axis, index, value):
    sl = [slice(None)] * arr.ndim
    sl[axis] = index
    arr[tuple(sl)] = value


def residual_check(candidate, grid, weight, p, sample_times):
    """Max discrete residual |u_t - L_p u| of a space-time candidate on grid.

    candidate(grid, t) must return nodal values.  u_t is centered
    differencing with half-width DT_REL * t.  Nodes closer than GUARD_CELLS
    to the region where the candidate is below FRONT_MARGIN are excluded,
    as is the Dirichlet boundary; the free boundary is not a classical
    point of the equation.
    """
    worst = 0.0
    for t in sample_times:
        if t <= 0.0:
            raise ConfigError("sample times must be positive")
        delta = DT_REL * t
        vals = np.asarray(candidate(grid, t), dtype=float)
        before = np.asarray(candidate(grid, t - delta), dtype=float)
        after = np.asarray(candidate(grid, t + delta), dtype=float)
        ut = (after - before) / (2.0 * delta)
        lap = apply_plaplacian(Field(grid, vals), weight, p).values
        res = np.abs(ut - lap)
        mask = _erode(vals > FRONT_MARGIN, GUARD_CELLS) & ~grid.boundary_mask
        if mask.any():
            worst = max(worst, float(res[mask].max()))
    return worst


# -------------------------------------------------------------------- fits

def _line_fit(x, y):
    """Least-squares line y = a + b x: the coefficients (a, b) and their
    covariance from the residual variance."""
    design = np.vstack([np.ones_like(x), x]).T
    coef, res, _, _ = np.linalg.lstsq(design, y, rcond=None)
    dof = max(len(x) - 2, 1)
    sigma2 = (float(res[0]) if res.size else
              float(np.sum((design @ coef - y) ** 2))) / dof
    # pinv: steps at the dt floor can make the normal matrix singular
    return coef, sigma2 * np.linalg.pinv(design.T @ design)


def decay_exponent_fit(traj, window, time_offset=0.0):
    """Least-squares fit log sup = a + e log(t + time_offset) of the sup norm
    over a window of shifted times t + time_offset, so a trajectory started
    at physical time t0 is fit against an absolute window by passing
    time_offset=t0.  Returns the exponent e as {"exponent", "stderr",
    "samples"}."""
    t = np.asarray(traj.times, dtype=float)
    s = np.asarray(traj.sup_abs_u, dtype=float)
    t_a, t_b = window
    shifted = t + time_offset
    sel = (shifted >= t_a) & (shifted <= t_b)
    if sel.sum() < 5:
        raise FitError(f"need at least 5 samples in window [{t_a}, {t_b}]")
    if np.any(s[sel] <= 0.0):
        raise FitError("sup norm must be positive throughout the fit window")
    if np.any(shifted[sel] <= 0.0):
        raise FitError("algebraic fit needs positive shifted times")
    coef, cov = _line_fit(np.log(shifted[sel]), np.log(s[sel]))
    return {
        "exponent": float(coef[1]),
        "stderr": float(np.sqrt(cov[1, 1])),
        "samples": int(sel.sum()),
    }


def _centered_rates(times, values):
    """(g'(t_i), interior index range) by nonuniform centered differences."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < 3:
        raise FitError("need at least 3 samples to differentiate")
    return (v[2:] - v[:-2]) / (t[2:] - t[:-2])


EARLY_FACTOR = 1.5


def fit_bernoulli_constant(traj, lambda1, sigma):
    """Reaction constant C of g' = -lambda1 g + C g^sigma, by least squares
    through the origin of (g' + lambda1 g) against g^sigma over the early
    window g <= EARLY_FACTOR * g(0).  Returns {"C", "samples"}."""
    g = np.asarray(traj.weighted_mass, dtype=float)
    t = np.asarray(traj.times, dtype=float)
    if len(g) < 3:
        raise FitError("trajectory too short to fit the comparison constant")
    rate = _centered_rates(t, g)
    gi = g[1:-1]
    sel = (gi > 0.0) & (gi <= EARLY_FACTOR * g[0])
    if sel.sum() < 3:
        raise FitError("no early-window samples available for the fit")
    y = rate[sel] + lambda1 * gi[sel]
    x = gi[sel] ** sigma
    denom = float(np.sum(x * x))
    if denom == 0.0:
        raise FitError("degenerate early window (g identically zero)")
    c_fit = float(np.sum(x * y) / denom)
    if not c_fit > 0.0:
        raise FitError(f"fitted comparison constant is not positive: {c_fit:.3e}")
    return {"C": c_fit, "samples": int(sel.sum())}


def fit_exp_forced_constant(traj, lambda1, sigma):
    """Largest C8 with psi' >= C8 psi^sigma along the whole trajectory,
    psi = g e^{lambda1 t}: the pointwise minimum of psi'/psi^sigma.
    Keeping the minimum preserves the bound direction of exp_forced_bound.
    Returns {"C8", "psi0", "samples"}."""
    g = np.asarray(traj.weighted_mass, dtype=float)
    t = np.asarray(traj.times, dtype=float)
    if len(g) < 3:
        raise FitError("trajectory too short to fit the forced constant")
    psi = g * np.exp(lambda1 * t)
    rate = _centered_rates(t, psi)
    pi = psi[1:-1]
    sel = pi > 0.0
    if sel.sum() < 1:
        raise FitError("psi is nonpositive everywhere, cannot fit")
    ratios = rate[sel] / pi[sel] ** sigma
    c8 = float(ratios.min())
    if not c8 > 0.0:
        raise FitError(f"psi is not increasing along the run (min ratio {c8:.3e})")
    return {"C8": c8, "psi0": float(psi[0]), "samples": int(sel.sum())}
