"""Energy, operator, Newton matrix, and reaction families.

The load-bearing property here is exact variational pairing: the operator
must equal minus the energy gradient in the cell-volume inner product, so
directional finite differences of the energy have to reproduce
<apply_plaplacian(u), v> to near machine precision for smooth test
directions.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from degenflow import (
    ConfigError,
    Field,
    ReactionSpec,
    apply_plaplacian,
    build_grid,
    cell_volumes,
    energy,
    energy_hessian_matrix,
    reaction_derivative,
    reaction_eval,
    smallest_eigenpair,
    variational_dot,
    WeightSpec,
)
from degenflow.plap_operator import (
    FaceFlux,
    _average,
    _centered,
    _difference,
    face_operator,
)
from degenflow.timestepper import _NewtonSystem

GRIDS = [
    ("interval", build_grid("interval", 1.0, 24)),
    ("radial", build_grid("radial", 1.0, 24, n=2)),
    ("tensor2d", build_grid("tensor2d", 1.0, 10)),
]


def _random_interior_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    vals[grid.boundary_mask] = 0.0
    return Field(grid, vals)


def test_energy_linear_ramp_1d():
    # u = x, p = 2: E = (1/2) integral |u'|^2 = 1/2, exact for the
    # face-based quadrature
    g = build_grid("interval", 1.0, 16)
    u = Field(g, g.axes[0].copy())
    assert energy(u, None, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert energy(u, None, 4.0) == pytest.approx(0.25, rel=1e-14)


def test_energy_scaling_homogeneity():
    # E(c u) = |c|^p E(u)
    g = build_grid("tensor2d", 1.0, 8)
    u = _random_interior_field(g, 7)
    for p in (2.0, 3.0, 4.0):
        e1 = energy(u, None, p)
        e3 = energy(Field(g, 3.0 * u.values), None, p)
        assert e3 == pytest.approx(3.0**p * e1, rel=1e-12)


def test_energy_nonnegative_and_zero_on_zero():
    for _, g in GRIDS:
        assert energy(Field(g, np.zeros(g.shape)), None, 3.0) == 0.0
        u = _random_interior_field(g, 11)
        assert energy(u, None, 3.0) > 0.0


def test_apply_plaplacian_matches_second_difference_p2():
    g = build_grid("interval", 1.0, 200)
    x = g.axes[0]
    u = Field(g, np.sin(np.pi * x))
    lap = apply_plaplacian(u, None, 2.0).values
    interior = slice(1, -1)
    expected = -np.pi**2 * np.sin(np.pi * x[interior])
    # second-order truncation: h^2 pi^4 / 12 ~ 2.03e-4 at this resolution
    assert np.max(np.abs(lap[interior] - expected)) < 3e-4


def test_apply_plaplacian_radial_p2_matches_radial_laplacian():
    # u = 1 - r^2 in n=3: Laplacian = u'' + (n-1)/r u' = -2 - 2*2 = -6
    g = build_grid("radial", 1.0, 64, n=3)
    r = g.axes[0]
    u = Field(g, 1.0 - r * r)
    lap = apply_plaplacian(u, None, 2.0).values
    assert np.max(np.abs(lap[:-1] - (-6.0))) < 1e-6


def test_apply_plaplacian_zero_on_boundary():
    for _, g in GRIDS:
        u = _random_interior_field(g, 23)
        out = apply_plaplacian(u, None, 3.0)
        assert np.all(out.values[g.boundary_mask] == 0.0)


@pytest.mark.parametrize("mode,grid", GRIDS, ids=[m for m, _ in GRIDS])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_gradient_consistency_directional(mode, grid, p):
    """Central finite differences of the energy along random directions
    reproduce the variational pairing to 1e-5 relative."""
    rng = np.random.default_rng(1234)
    eps = 1e-6
    for trial in range(50):
        u = _random_interior_field(grid, 100 + trial)
        v = rng.standard_normal(grid.shape)
        v[grid.boundary_mask] = 0.0
        lap = apply_plaplacian(u, None, p)
        paired = -variational_dot(grid, lap.values, v)
        e_plus = energy(Field(grid, u.values + eps * v), None, p)
        e_minus = energy(Field(grid, u.values - eps * v), None, p)
        fd = (e_plus - e_minus) / (2.0 * eps)
        scale = max(abs(paired), abs(fd), 1e-12)
        assert abs(fd - paired) / scale < 1e-5, f"trial {trial}: {fd} vs {paired}"


def test_gradient_consistency_with_weight():
    g = build_grid("radial", 1.0, 24, n=2)
    w = WeightSpec.power(1.0)
    rng = np.random.default_rng(5)
    eps = 1e-6
    for trial in range(10):
        u = _random_interior_field(g, 300 + trial)
        v = rng.standard_normal(g.shape)
        v[g.boundary_mask] = 0.0
        paired = -variational_dot(g, apply_plaplacian(u, w, 3.0).values, v)
        fd = (
            energy(Field(g, u.values + eps * v), w, 3.0)
            - energy(Field(g, u.values - eps * v), w, 3.0)
        ) / (2.0 * eps)
        assert abs(fd - paired) / max(abs(paired), 1e-12) < 1e-5


def test_hessian_matrix_matches_operator_p2():
    for _, g in GRIDS:
        u = _random_interior_field(g, 9)
        k = energy_hessian_matrix(g, None)
        direct = apply_plaplacian(u, None, 2.0).values
        via_matrix = -(k @ u.values.ravel()) / cell_volumes(g).ravel()
        interior = ~g.boundary_mask.ravel()
        np.testing.assert_allclose(
            via_matrix[interior], direct.ravel()[interior], rtol=1e-12, atol=1e-12
        )


@pytest.mark.parametrize("weight", [None, WeightSpec.power(1.0)], ids=["unit", "power"])
@pytest.mark.parametrize("mode", [mode for mode, _ in GRIDS])
def test_interior_operator_is_the_full_one_restricted(monkeypatch, mode, weight):
    """The interior face operator is the full one's interior columns,
    transpose rows and cell volumes, and the interior p = 2 Hessian the full
    Hessian's interior block, both exactly.  The Newton system and the
    eigensolver evaluate on that one cached operator."""
    g = dict(GRIDS)[mode]
    idx = g.interior
    full, op = face_operator(g, weight), face_operator(g, weight, interior=True)
    assert np.array_equal(op.cw, full.cw)
    assert np.array_equal(op.matrix.toarray(), full.matrix[:, idx].toarray())
    assert np.array_equal(op.transpose.toarray(), full.transpose[idx].toarray())
    assert np.array_equal(op.vol, full.vol.ravel()[idx])
    hessian = energy_hessian_matrix(g, weight, interior=True).toarray()
    assert np.array_equal(hessian, energy_hessian_matrix(g, weight).tocsr()[idx][:, idx].toarray())

    assert _NewtonSystem(g, weight, 3.0).op is op
    ops = set()
    init = FaceFlux.__init__

    def recording_init(self, face_op, values, p):
        ops.add(id(face_op))
        init(self, face_op, values, p)

    monkeypatch.setattr(FaceFlux, "__init__", recording_init)
    smallest_eigenpair(g, weight, 3.0)
    assert ops == {id(op)}


def test_hessian_matrix_symmetric_psd():
    g = build_grid("tensor2d", 1.0, 8)
    k = energy_hessian_matrix(g, WeightSpec.power(0.5)).toarray()
    assert np.max(np.abs(k - k.T)) < 1e-12
    eigs = np.linalg.eigvalsh(k)
    assert eigs.min() > -1e-10


@pytest.mark.parametrize("mode,p", [
    pytest.param("interval", 2.0, id="2.0"),
    pytest.param("interval", 3.0, id="3.0"),
    pytest.param("radial", 2.0, id="radial-2.0"),
    pytest.param("radial", 3.0, id="radial-3.0"),
    pytest.param("tensor2d", 2.0, id="tensor2d-2.0"),
])
def test_newton_jacobian_matches_fd_1d(mode, p):
    """The Newton matrix's stiffness K is -V times the derivative of
    apply_plaplacian at the interior nodes, by directional central finite
    differences, in the 1d modes at every p and on tensor grids at p = 2.
    (Tensor grids at p > 2 hold the tangential gradient fixed and are not
    exact.)"""
    g = dict(GRIDS)[mode]
    w = WeightSpec.power(1.0)
    u = _random_interior_field(g, 77)
    idx = g.interior
    system = _NewtonSystem(g, w, p)
    assert system.exact
    # dt = 1 and reaction slope 1 zero the V (1 - dt f') diagonal, leaving K
    band = system.matrix(u.values.ravel()[idx], 1.0, 1.0)
    k = np.zeros((len(idx), len(idx)))
    k[system.row, system.col] = band.ravel(order="F")[system.pos]
    k += np.tril(k, -1).T
    jac = -k / system.vol[:, None]
    eps = 1e-7
    rng = np.random.default_rng(0)
    for _ in range(5):
        d = rng.standard_normal(g.boundary_mask.size)
        d[g.boundary_mask.ravel()] = 0.0
        plus = apply_plaplacian(Field(g, (u.values.ravel() + eps * d).reshape(g.shape)), w, p)
        minus = apply_plaplacian(Field(g, (u.values.ravel() - eps * d).reshape(g.shape)), w, p)
        fd = (plus.values.ravel()[idx] - minus.values.ravel()[idx]) / (2.0 * eps)
        jd = jac @ d[idx]
        err = np.max(np.abs(fd - jd))
        assert err < 2e-5 * max(1.0, np.max(np.abs(jd)))


# Reductions of the operator recorded from an independent implementation
# (separate 1d and tensor code with hand-written adjoints): for every mode the
# p = 2 Hessian (Frobenius norm, r . K q), and for every p the energy and
# apply_plaplacian (norm, . r).  Power weight |x|, seeded field and probes.
# test_newton_system_matches_jacobian_form checks the Newton matrix.
PINNED = {
    ('interval', 'hessian'): (164.5007598766644, 60.40148723495232),
    ('interval', 2.0): (
        250.0780933915804,
        3743.7547858938424, 924.5284339887647,
    ),
    ('interval', 3.0): (
        7578.31271061532,
        172136.5721965534, 89265.5158894988,
    ),
    ('radial', 'hessian'): (794.8986868925126, 350.5696455200378),
    ('radial', 2.0): (
        1032.7551799089806,
        3747.7501520026603, 905.0521037384262,
    ),
    ('radial', 3.0): (
        31485.52743047594,
        172330.63689390253, 90361.67434669087,
    ),
    ('tensor2d', 'hessian'): (19.21770404735028, 16.001315217121245),
    ('tensor2d', 2.0): (
        71.43360558198053,
        1892.8109984421292, -1268.1416387308773,
    ),
    ('tensor2d', 3.0): (
        1088.8736911543767,
        49096.73363618426, -19853.716835378615,
    ),
}


@pytest.mark.parametrize("mode,grid", GRIDS, ids=[m for m, _ in GRIDS])
def test_operator_matches_pinned_values(mode, grid):
    w = WeightSpec.power(1.0)
    rng = np.random.default_rng(7)
    r, q = rng.standard_normal((2, grid.boundary_mask.size))

    def reduce_matrix(m):
        return [np.linalg.norm(m.toarray()), r @ (m @ q)]

    np.testing.assert_allclose(
        reduce_matrix(energy_hessian_matrix(grid, w)), PINNED[(mode, "hessian")],
        rtol=1e-13, atol=0.0,
    )
    vals = np.random.default_rng(2024).standard_normal(grid.shape)
    vals[grid.boundary_mask] = 0.0
    u = Field(grid, vals)
    for p in (2.0, 3.0):
        lap = apply_plaplacian(u, w, p).values.ravel()
        got = [energy(u, w, p), np.linalg.norm(lap), lap @ r]
        np.testing.assert_allclose(
            got, PINNED[(mode, p)], rtol=1e-13, atol=0.0, err_msg=f"p={p}",
        )


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from([mode for mode, _ in GRIDS]),
    p=st.floats(2.0, 5.0),
    theta_frac=st.floats(0.0, 1.0, exclude_max=True),
    log_amplitude=st.floats(-1.0, 1.0),
    log_dt=st.floats(-4.0, -1.0),
    seed=st.integers(0, 2**16),
)
def test_newton_jacobian_is_negative_semidefinite(mode, p, theta_frac, log_amplitude,
                                                  log_dt, seed):
    """The flux-linearized Jacobian -K / V is negative semidefinite: the
    stiffness K is A^T diag(kappa) A with every kappa >= 0, or the p = 2
    energy Hessian.  So the Newton matrix without reaction, V + dt K, is
    positive definite, and it factors by band Cholesky at a rough state in
    every grid mode, at every p and dt."""
    g = dict(GRIDS)[mode]
    system = _NewtonSystem(g, WeightSpec.power(theta_frac * p), p)
    rng = np.random.default_rng(seed)
    x = 10.0**log_amplitude * rng.standard_normal(len(g.interior))
    system.factor(system.matrix(x, 10.0**log_dt, 0.0))


def test_p_below_two_rejected():
    g = build_grid("interval", 1.0, 8)
    u = Field(g, np.zeros(g.shape))
    with pytest.raises(ConfigError):
        apply_plaplacian(u, None, 1.5)
    with pytest.raises(ConfigError):
        energy(u, None, 1.9)


def _states_with_flat_faces(g):
    """A random interior state, the same state held constant on the first
    half of the nodes in C order, whose faces there have s = 0 exactly, and
    the zero state."""
    rough = _random_interior_field(g, 3).values
    flat = rough.copy()
    flat.ravel()[: flat.size // 2] = 0.5
    flat[g.boundary_mask] = 0.0
    return {"rough": rough, "flat": flat, "zero": np.zeros(g.shape)}


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.5])
@pytest.mark.parametrize("mode", [mode for mode, _ in GRIDS])
def test_flux_energy_and_divergence_match_closed_forms(mode, p):
    """FaceFlux.energy, taken through the flux power cw * s**((p-2)/2), is
    (1/p) * sum cw * s**(p/2), and divergence is
    -sum_k M_k^T (cw * s**((p-2)/2) * g_k) / vol, both to 1e-13 relative,
    with a power weight, on a rough state, on one with faces where s = 0
    and on the zero state."""
    g = dict(GRIDS)[mode]
    op = face_operator(g, WeightSpec.power(1.0))
    for name, u in _states_with_flat_faces(g).items():
        flux = FaceFlux(op, u, p)
        rows = (op.matrix @ u.ravel()).reshape(-1, op.cw.size)
        s = np.sum(rows**2, axis=0)
        assert (name == "rough") == (s > 0.0).all()
        energy_ref = float(np.sum(op.cw * s ** (p / 2.0)) / p)
        coefficient = op.cw * s ** ((p - 2.0) / 2.0)
        div_ref = -(op.transpose @ (coefficient * rows).ravel()).reshape(g.shape) / op.vol
        assert abs(flux.energy() - energy_ref) <= 1e-13 * energy_ref
        assert np.abs(flux.divergence() - div_ref).max() <= 1e-13 * np.abs(div_ref).max()


def _coo_face_matrix(g):
    """The stacked face matrix as built through COO intermediates, converted
    to CSR once."""
    if g.mode != "tensor2d":
        return sp.csr_array(_difference(len(g.axes[0]), g.h[0]))
    (x, y), (hx, hy) = g.axes, g.h
    eye_x, eye_y = sp.eye_array(len(x)), sp.eye_array(len(y))
    return sp.csr_array(sp.vstack([sp.kron(_difference(len(x), hx), eye_y),
                                   sp.kron(eye_x, _difference(len(y), hy)),
                                   sp.kron(_average(len(x)), _centered(len(y), hy)),
                                   sp.kron(_centered(len(x), hx), _average(len(y)))]))


@pytest.mark.parametrize("interior", [False, True], ids=["full", "interior"])
@pytest.mark.parametrize("mode", [mode for mode, _ in GRIDS])
def test_face_matrices_match_the_coo_build(mode, interior):
    """The face matrix and its transpose, built in CSR throughout, store
    the same data, indices and indptr, of the same dtypes, as the stack
    built through COO, over all nodes and over the interior columns."""
    g = dict(GRIDS)[mode]
    op = face_operator(g, WeightSpec.power(1.0), interior=interior)
    ref = _coo_face_matrix(g)
    if interior:
        ref = ref[:, g.interior]
    for got, want in ((op.matrix, ref), (op.transpose, ref.T.tocsr())):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestReactionSpec:
    def test_none_is_zero(self):
        spec = ReactionSpec.none()
        u = np.array([1.0, -2.0])
        assert np.all(reaction_eval(spec, 0.5, u) == 0.0)
        assert np.all(reaction_derivative(spec, 0.5, u) == 0.0)

    def test_power_family_odd(self):
        spec = ReactionSpec.power(2.0, 2.0)
        u = np.array([3.0, -3.0])
        out = reaction_eval(spec, 0.0, u)
        np.testing.assert_allclose(out, [18.0, -18.0])

    def test_exp_forced_growth(self):
        spec = ReactionSpec.exp_forced(c6=1.0, sigma=2.0, lambda1_ref=1.0)
        u = np.array([1.0])
        t = 0.7
        assert reaction_eval(spec, t, u)[0] == pytest.approx(np.exp(2.0 * t))

    def test_derivative_matches_fd(self):
        spec = ReactionSpec.power(1.5, 3.0)
        u = np.linspace(-2.0, 2.0, 9)
        eps = 1e-6
        fd = (
            reaction_eval(spec, 1.0, u + eps) - reaction_eval(spec, 1.0, u - eps)
        ) / (2.0 * eps)
        np.testing.assert_allclose(reaction_derivative(spec, 1.0, u), fd, atol=1e-5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ReactionSpec.power(1.0, 1.0)  # sigma must exceed 1
        with pytest.raises(ConfigError):
            ReactionSpec.power(-1.0, 2.0)

    def test_negative_time_rejected(self):
        spec = ReactionSpec.power(1.0, 2.0)
        with pytest.raises(ConfigError):
            reaction_eval(spec, -0.1, np.array([1.0]))
