"""Principal eigenpair solver against closed-form and shooting oracles."""

import numpy as np
import pytest
from scipy import integrate as sint
from scipy import optimize as sopt

from degenflow import (
    ConfigError,
    EigenPair,
    Field,
    ProblemSpec,
    ReactionSpec,
    WeightSpec,
    build_grid,
    integrate,
    rayleigh_quotient,
    run_simulation,
    smallest_eigenpair,
)

PI2 = np.pi**2

# 1d Dirichlet eigenvalue of the p-Laplacian on (0, 1) for p = 3:
# lambda1 = pi_p^p with pi_p = 2*pi*(p-1)^(1/p) / (p*sin(pi/p)).
# Cross-checked below by an independent shooting integration.
LAMBDA1_P3 = 28.2887619760026

# first zero of the Bessel function J0, squared: principal Dirichlet
# eigenvalue of the Laplacian on the unit disk
J0_SQUARED = 5.78318596294695


def _pi_p(p):
    return 2.0 * np.pi * (p - 1.0) ** (1.0 / p) / (p * np.sin(np.pi / p))


def _shooting_eigenvalue(p, bracket):
    """Independent oracle: integrate the 1d eigen-ODE from u(0)=0, u'(0)=1
    and root-find the eigenvalue on u(1) = 0.  State carries the flux
    v = |u'|^(p-2) u' so the degenerate derivative stays well-defined."""

    def endpoint(lam):
        def rhs(_t, y):
            u, v = y
            du = np.sign(v) * np.abs(v) ** (1.0 / (p - 1.0))
            dv = -lam * np.abs(u) ** (p - 2.0) * u
            return [du, dv]

        sol = sint.solve_ivp(rhs, [0.0, 1.0], [0.0, 1.0], rtol=1e-12, atol=1e-14)
        return sol.y[0, -1]

    return sopt.brentq(endpoint, *bracket, xtol=1e-10)


def test_closed_form_matches_shooting_oracle():
    assert _pi_p(3.0) ** 3.0 == pytest.approx(LAMBDA1_P3, rel=1e-12)
    assert _shooting_eigenvalue(3.0, (20.0, 40.0)) == pytest.approx(LAMBDA1_P3, rel=1e-9)


def test_interval_p2_pi_squared():
    g = build_grid("interval", 1.0, 256)
    pair = smallest_eigenpair(g, None, 2.0)
    assert pair.eigenvalue == pytest.approx(PI2, rel=1e-3)
    assert pair.residual < 1e-6


def test_interval_p3_shooting_value():
    g = build_grid("interval", 1.0, 512)
    pair = smallest_eigenpair(g, None, 3.0)
    assert pair.eigenvalue == pytest.approx(LAMBDA1_P3, rel=2e-2)
    # the discretization is much better than the 2% gate
    assert pair.eigenvalue == pytest.approx(LAMBDA1_P3, rel=1e-3)


def test_tensor_p2_two_pi_squared():
    g = build_grid("tensor2d", 1.0, 48)
    pair = smallest_eigenpair(g, None, 2.0)
    assert pair.eigenvalue == pytest.approx(2.0 * PI2, rel=2e-2)


def test_radial_disk_bessel():
    g = build_grid("radial", 1.0, 256, n=2)
    pair = smallest_eigenpair(g, None, 2.0)
    assert pair.eigenvalue == pytest.approx(J0_SQUARED, rel=1e-3)


def test_eigenfunction_properties():
    g = build_grid("interval", 1.0, 128)
    pair = smallest_eigenpair(g, None, 2.0)
    vals = pair.eigenfunction.values
    # positive inside, zero on the boundary, unit mass
    assert np.all(vals[g.interior_mask] > 0.0)
    assert np.all(vals[g.boundary_mask] == 0.0)
    assert integrate(pair.eigenfunction) == pytest.approx(1.0, rel=1e-12)
    # shape matches sin(pi x) up to the mass normalization (pi/2 factor)
    x = g.axes[0]
    ref = np.sin(np.pi * x) * np.pi / 2.0
    assert np.max(np.abs(vals - ref)) < 1e-3


def test_rayleigh_quotient_at_exact_mode():
    g = build_grid("interval", 1.0, 512)
    u = Field(g, np.sin(np.pi * g.axes[0]))
    assert rayleigh_quotient(u, None, 2.0) == pytest.approx(PI2, rel=1e-4)


def test_rayleigh_quotient_rejects_zero_field():
    g = build_grid("interval", 1.0, 16)
    with pytest.raises(ConfigError):
        rayleigh_quotient(Field.zeros(g), None, 2.0)


def test_rayleigh_bounds_eigenvalue_from_above():
    g = build_grid("interval", 1.0, 128)
    pair = smallest_eigenpair(g, None, 2.0)
    x = g.axes[0]
    trial = Field(g, x * (1.0 - x))
    assert rayleigh_quotient(trial, None, 2.0) >= pair.eigenvalue - 1e-10


def test_weighted_problem_shifts_eigenvalue():
    # a weight that vanishes at the walls relaxes the quotient
    g = build_grid("interval", 1.0, 128)
    pair_flat = smallest_eigenpair(g, None, 2.0)
    tab = WeightSpec.tabulated([0.0, 0.5, 1.0], [0.2, 1.0, 0.2])
    pair_w = smallest_eigenpair(g, tab, 2.0)
    assert pair_w.residual < 1e-6
    assert pair_w.eigenvalue != pytest.approx(pair_flat.eigenvalue, rel=1e-3)


def test_eigenvalue_scales_inverse_p_with_extent():
    # lambda1 on (0, L) = lambda1 on (0, 1) / L^p
    p = 3.0
    g1 = build_grid("interval", 1.0, 128)
    g2 = build_grid("interval", 2.0, 128)
    lam1 = smallest_eigenpair(g1, None, p).eigenvalue
    lam2 = smallest_eigenpair(g2, None, p).eigenvalue
    assert lam2 == pytest.approx(lam1 / 2.0**p, rel=1e-6)


def test_initial_guess_accepted():
    g = build_grid("interval", 1.0, 64)
    init = Field(g, np.sin(np.pi * g.axes[0]))
    pair = smallest_eigenpair(g, None, 2.0, initial=init)
    assert pair.eigenvalue == pytest.approx(PI2, rel=1e-2)


def test_json_payload_keys(tmp_path):
    import json

    g = build_grid("interval", 1.0, 64)
    pair = smallest_eigenpair(g, None, 2.0)
    path = tmp_path / "pair.json"
    pair.to_json(path)
    payload = json.loads(path.read_text())
    for key in ("lambda1", "residual", "iterations", "normalization"):
        assert key in payload
    assert payload["lambda1"] == pytest.approx(pair.eigenvalue)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_nonfinite_values_are_null(tmp_path):
    """A pair with a non-finite residual, such as the best iterate a
    ConvergenceError carries, still writes strict JSON."""
    import json

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    g = build_grid("interval", 1.0, 8)
    pair = EigenPair(float("nan"), Field.zeros(g), float("inf"), 0, 2.0)
    path = tmp_path / "pair.json"
    pair.to_json(path)
    payload = json.loads(path.read_text(), parse_constant=reject)
    assert payload["lambda1"] is None
    assert payload["residual"] is None


def test_no_superlu_factorization(monkeypatch):
    """Every factorization goes through the band module: the eigensolver
    and a reaction run still work with SuperLU unusable."""

    def refuse(*args, **kwargs):
        raise AssertionError("SuperLU called")

    for name in ("splu", "factorized", "spsolve"):
        monkeypatch.setattr(f"scipy.sparse.linalg.{name}", refuse)
    g = build_grid("tensor2d", 1.0, 12)
    pair = smallest_eigenpair(g, WeightSpec.power(1.0), 3.0)
    assert pair.residual <= 1e-4

    g = build_grid("interval", 1.0, 32)
    phi = Field(g, 5.0 * np.sin(np.pi * g.axes[0]))
    spec = ProblemSpec(grid=g, weight=None, p=2.0, reaction=ReactionSpec.power(1.0, 2.0),
                       initial=phi, t_end=0.05, dt0=1e-3)
    assert run_simulation(spec).steps > 0
