"""Principal eigenpair solver against closed-form and shooting oracles."""

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
from scipy import integrate as sint
from scipy import optimize as sopt

import degenflow.eigensolver as eigensolver
from degenflow import (
    ConfigError,
    ConvergenceError,
    EigenPair,
    Field,
    ProblemSpec,
    ReactionSpec,
    WeightSpec,
    build_grid,
    cell_volumes,
    energy,
    integrate,
    run_simulation,
    smallest_eigenpair,
)
from degenflow.banded import BandPattern
from degenflow.discretization import weight_on_grid
from degenflow.plap_operator import FaceFlux, energy_hessian_matrix, face_operator

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
    for mode, resolution, n in [("interval", 128, None), ("radial", 64, 3),
                                ("tensor2d", 24, None)]:
        g = build_grid(mode, 1.0, resolution, n=n)
        pair = smallest_eigenpair(g, None, 2.0)
        vals = pair.eigenfunction.values
        # positive inside, exactly zero on the Dirichlet nodes, unit mass
        assert np.all(vals[~g.boundary_mask] > 0.0), mode
        assert np.all(vals[g.boundary_mask] == 0.0), mode
        assert integrate(pair.eigenfunction) == pytest.approx(1.0, rel=1e-12), mode
        if mode == "interval":
            # shape matches sin(pi x) up to the mass normalization (pi/2 factor)
            ref = np.sin(np.pi * g.axes[0]) * np.pi / 2.0
            assert np.max(np.abs(vals - ref)) < 1e-3


@pytest.mark.parametrize("mode, resolution, weight, p", [
    ("tensor2d", 12, WeightSpec.power(1.0), 3.0),
    ("interval", 32, None, 3.0),
])
def test_one_face_flux_per_quotient_evaluation(monkeypatch, mode, resolution, weight, p):
    """Each Rayleigh-quotient evaluation takes its point's face gradient
    once, in one FaceFlux of the interior face operator, and the residual
    of an accepted point reuses that FaceFlux."""
    ops = []
    init = FaceFlux.__init__

    def recording_init(self, op, values, p):
        ops.append(op)
        init(self, op, values, p)

    monkeypatch.setattr(FaceFlux, "__init__", recording_init)
    g = build_grid(mode, 1.0, resolution)
    pair = smallest_eigenpair(g, weight, p)
    assert pair.residual <= 1e-4
    assert len(ops) == pair.quotient_evals
    assert all(op is face_operator(g, weight, interior=True) for op in ops)


def test_rayleigh_bounds_eigenvalue_from_above():
    g = build_grid("interval", 1.0, 128)
    pair = smallest_eigenpair(g, None, 2.0)
    x = g.axes[0]
    trial = Field(g, x * (1.0 - x))
    # R(trial) = p * energy(trial) / sum(vol * |trial|^p), the quotient the
    # solver minimizes
    quotient = 2.0 * energy(trial, None, 2.0) / np.sum(cell_volumes(g) * trial.values**2)
    assert quotient >= pair.eigenvalue - 1e-10


def test_weighted_problem_shifts_eigenvalue():
    # a weight that vanishes at a wall relaxes the quotient
    g = build_grid("interval", 1.0, 128)
    pair_flat = smallest_eigenpair(g, None, 2.0)
    pair_w = smallest_eigenpair(g, WeightSpec.power(1.0), 2.0)
    assert pair_w.residual < 1e-6
    assert pair_w.eigenvalue < (1.0 - 1e-3) * pair_flat.eigenvalue


def test_eigenvalue_scales_inverse_p_with_extent():
    # lambda1 on (0, L) = lambda1 on (0, 1) / L^p
    p = 3.0
    g1 = build_grid("interval", 1.0, 128)
    g2 = build_grid("interval", 2.0, 128)
    lam1 = smallest_eigenpair(g1, None, p).eigenvalue
    lam2 = smallest_eigenpair(g2, None, p).eigenvalue
    assert lam2 == pytest.approx(lam1 / 2.0**p, rel=1e-6)


def test_json_payload_keys(tmp_path):
    import json

    g = build_grid("interval", 1.0, 64)
    pair = smallest_eigenpair(g, None, 2.0)
    path = tmp_path / "pair.json"
    pair.to_json(path)
    payload = json.loads(path.read_text())
    for key in ("lambda1", "residual", "iterations", "residual_history", "restarts",
                "quotient_evals", "interpolated_steps"):
        assert key in payload
    assert 1 <= payload["interpolated_steps"] == pair.interpolated_steps <= pair.iterations
    # the start, one trial point per iteration and each kept interpolated
    # point are evaluated
    assert (payload["quotient_evals"] == pair.quotient_evals
            >= 1 + pair.iterations + pair.interpolated_steps)
    assert len(payload["residual_history"]) == pair.iterations + 1
    assert payload["residual_history"][-1] == pair.residual
    assert payload["lambda1"] == pytest.approx(pair.eigenvalue)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_nonfinite_values_are_null(tmp_path):
    """A pair with a non-finite residual, such as the best iterate a
    ConvergenceError carries, still writes strict JSON."""
    import json

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    g = build_grid("interval", 1.0, 8)
    pair = EigenPair(float("nan"), Field(g, np.zeros(g.shape)), float("inf"), 0, 2.0)
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


@pytest.mark.parametrize("resolution", [32, 64])
def test_cg_iteration_count(resolution):
    """The conjugate direction with the interpolation step needs about half
    the iterations of preconditioned steepest descent: 15 at resolution 32
    and 19 at 64, against 35 and 37."""
    g = build_grid("tensor2d", 1.0, resolution)
    pair = smallest_eigenpair(g, WeightSpec.power(1.0), 3.0, tol=1e-4)
    assert pair.residual <= 1e-4
    assert pair.iterations <= 22


def test_tight_tolerance_converges():
    """tol 1e-7 on tensor2d 64, p = 3, converges (steepest descent stalls
    there), to the same eigenvalue as the tol 1e-6 solve."""
    g = build_grid("tensor2d", 1.0, 64)
    w = WeightSpec.power(1.0)
    tight = smallest_eigenpair(g, w, 3.0, tol=1e-7)
    assert tight.residual <= 1e-7
    loose = smallest_eigenpair(g, w, 3.0, tol=1e-6)
    assert tight.eigenvalue == pytest.approx(loose.eigenvalue, rel=1e-10)


def test_tight_tolerance_converges_128():
    """tol 1e-7 on tensor2d 128, p = 3, converges in about 50 iterations:
    the interpolation step keeps lowering R where a plain backtracking
    search stalled on round-off of the quotient, failing or needing 85
    iterations depending on the BLAS summation order."""
    g = build_grid("tensor2d", 1.0, 128)
    w = WeightSpec.power(1.0)
    tight = smallest_eigenpair(g, w, 3.0, tol=1e-7)
    assert tight.residual <= 1e-7
    assert tight.iterations <= 60
    loose = smallest_eigenpair(g, w, 3.0, tol=1e-6)
    assert tight.eigenvalue == pytest.approx(loose.eigenvalue, rel=1e-10)


def test_stalled_solve_fails_fast(monkeypatch):
    """A target below round-off stops STALL_ITERATIONS past the best
    iterate, not at MAX_ITERATIONS, and raises with that iterate attached.
    Each iterate's residual takes one operator evaluation, the divergence
    of its FaceFlux."""
    calls = []
    divergence = FaceFlux.divergence

    def counting_divergence(self):
        calls.append(1)
        return divergence(self)

    monkeypatch.setattr(FaceFlux, "divergence", counting_divergence)
    g = build_grid("tensor2d", 1.0, 16)
    with pytest.raises(ConvergenceError) as info:
        smallest_eigenpair(g, WeightSpec.power(1.0), 3.0, tol=1e-12)
    err = info.value
    history = err.best.residual_history
    assert len(calls) == len(history) <= err.iterations + eigensolver.STALL_ITERATIONS + 1
    assert len(calls) < 500
    assert err.residual == err.best.residual == min(history) == history[err.iterations]


@pytest.mark.parametrize("mode, resolution, kd", [
    ("interval", 32, 1),
])
def test_preconditioner_is_five_point_stiffness(monkeypatch, mode, resolution, kd):
    """On an interval the preconditioner is the band Cholesky factor of the
    p = 2 Hessian itself, tridiagonal."""
    filled = []

    class RecordingPattern(BandPattern):
        def fill(self, data, diag):
            filled.append((self, data))
            return super().fill(data, diag)

    monkeypatch.setattr(eigensolver, "BandPattern", RecordingPattern)
    g = build_grid(mode, 1.0, resolution)
    assert smallest_eigenpair(g, None, 2.0).residual <= 1e-6
    (band, data), = filled
    row, col = band.row, band.col
    assert band.kd == kd
    idx = np.flatnonzero(~g.boundary_mask.ravel())
    h_data, h_row, h_col = energy_hessian_matrix(g, None)
    hessian = np.zeros((g.boundary_mask.size,) * 2)
    hessian[h_row, h_col] = h_data
    hessian = hessian[idx][:, idx]
    assert np.array_equal(data, hessian[row, col])
    assert np.count_nonzero(np.tril(hessian)) == len(data)


@pytest.mark.parametrize("resolution, extent", [(12, 1.0), (20, 1.0), (17, 2.5)])
def test_tensor_preconditioner_inverts_scaled_five_point_stiffness(resolution, extent):
    """On tensor grids the preconditioner P = S L0^{-1} S is the exact inverse
    of S^{-1} L0 S^{-1}, with L0 the interior 5-point stiffness of the
    unweighted face operator (4 on the diagonal, -1 to each grid neighbour,
    for the square cells of every tensor grid) and S = diag(w^{-1/2}) at
    the interior nodes."""
    g = build_grid("tensor2d", extent, resolution)
    idx = np.flatnonzero(~g.boundary_mask.ravel())
    op = face_operator(g, None)
    matrix = sp.csr_array((op.matrix.data, op.matrix.indices, op.matrix.indptr),
                          shape=(op.matrix.rows, op.matrix.cols))
    a = matrix[: op.cw.size, idx]
    # cw carries the factor 1/2 of the two stacked face matrices
    l0 = (a.T @ sp.diags_array(2.0 * op.cw) @ a).toarray()
    m = resolution - 1
    assert np.allclose(np.diag(l0), 4.0, rtol=1e-14)
    offdiag = l0[~np.eye(len(idx), dtype=bool)]
    assert np.allclose(offdiag[offdiag != 0.0], -1.0, rtol=1e-14)
    assert np.count_nonzero(l0) == m * m + 4 * m * (m - 1)

    w = weight_on_grid(WeightSpec.power(1.0), g)[1:-1, 1:-1]
    s = np.diag(1.0 / np.sqrt(w.ravel()))
    p_inv = np.linalg.inv(s) @ l0 @ np.linalg.inv(s)
    solve = eigensolver._sine_transform_solve(w)
    rng = np.random.default_rng(resolution)
    for x in rng.standard_normal((3, len(idx))):
        assert np.allclose(solve(p_inv @ x), x, rtol=0.0, atol=1e-10 * np.abs(x).max())
        assert np.allclose(p_inv @ solve(x), x, rtol=0.0, atol=1e-10 * np.abs(x).max())



@pytest.mark.parametrize("m", [1, 2, 7, 31, 191])
def test_sine_transform_matches_scipy(m):
    """The type-I sine transform on numpy's real FFT of the odd extension
    is scipy.fft.dstn(type=1) along both axes, and scaled by
    1 / (2 (m + 1))**2 it is idstn, to round-off."""
    x = np.random.default_rng(m).standard_normal((m, m))
    ext = np.zeros((m, 2 * (m + 1)))
    y = eigensolver._dst2(x, ext)
    ref = scipy.fft.dstn(x, type=1)
    assert np.abs(y - ref).max() <= 1e-14 * np.abs(ref).max()
    inv = y / (2.0 * (m + 1)) ** 2
    ref = scipy.fft.idstn(x, type=1)
    assert np.abs(inv - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 10.0, float("nan")])
def test_tol_outside_the_unit_interval_is_config_error(monkeypatch, tol):
    """A residual target of 0 or below is never met, and one of 1 or more
    is met before any iteration: both raise ConfigError before the
    preconditioner is built."""
    monkeypatch.setattr(eigensolver, "weight_on_grid", lambda *args: pytest.fail("solver ran"))
    g = build_grid("interval", 1.0, 32)
    with pytest.raises(ConfigError, match=r"tol must lie in \(0, 1\)"):
        smallest_eigenpair(g, None, 3.0, tol=tol)
