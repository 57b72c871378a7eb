"""Energy, operator, Newton matrix, and reaction families.

The load-bearing property here is exact variational pairing: the operator
must equal minus the energy gradient in the cell-volume inner product, so
directional finite differences of the energy have to reproduce
<apply_plaplacian(u), v> to near machine precision for smooth test
directions.
"""

import tracemalloc

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
from degenflow.plap_operator import FaceFlux, face_operator
from degenflow.timestepper import _NewtonSystem

GRIDS = [
    ("interval", build_grid("interval", 1.0, 24)),
    ("radial", build_grid("radial", 1.0, 24, n=2)),
    ("tensor2d", build_grid("tensor2d", 1.0, 10)),
]


def _scipy(matrix):
    """A package Csr as a scipy.sparse CSR array on the same arrays."""
    return sp.csr_array((matrix.data, matrix.indices, matrix.indptr),
                        shape=(matrix.rows, matrix.cols))


def _hessian(grid, weight, interior=False):
    """The dense symmetric matrix of energy_hessian_matrix's lower entries."""
    data, row, col = energy_hessian_matrix(grid, weight, interior)
    n = len(grid.interior) if interior else grid.boundary_mask.size
    k = np.zeros((n, n))
    k[row, col] = data
    k[col, row] = data
    return k


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
        k = _hessian(g, None)
        direct = apply_plaplacian(u, None, 2.0).values
        via_matrix = -(k @ u.values.ravel()) / cell_volumes(g).ravel()
        interior = ~g.boundary_mask.ravel()
        np.testing.assert_allclose(
            via_matrix[interior], direct.ravel()[interior], rtol=1e-12, atol=1e-12
        )


@pytest.mark.parametrize("weight", [None, WeightSpec.power(1.0)], ids=["unit", "power"])
@pytest.mark.parametrize("mode", [mode for mode, _ in GRIDS])
def test_interior_operator_is_the_full_one_restricted(monkeypatch, mode, weight):
    """The interior face operator is the full one's interior columns and
    cell volumes, and the interior p = 2 Hessian the full Hessian's interior
    block, both exactly.  The Newton system and the eigensolver evaluate on
    that one cached operator."""
    g = dict(GRIDS)[mode]
    idx = g.interior
    full, op = face_operator(g, weight), face_operator(g, weight, interior=True)
    assert np.array_equal(op.cw, full.cw)
    matrix = _scipy(full.matrix)
    assert np.array_equal(_scipy(op.matrix).toarray(), matrix[:, idx].toarray())
    assert np.array_equal(op.vol, full.vol.ravel()[idx])
    hessian = _hessian(g, weight, interior=True)
    assert np.array_equal(hessian, _hessian(g, weight)[idx][:, idx])

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
    weight = WeightSpec.power(0.5)
    # the lower entries are those of M^T diag(cw) M, which is symmetric,
    # summed as hessian_map sums them
    op = face_operator(g, weight)
    matrix = _scipy(op.matrix)
    full = (matrix.T @ sp.diags_array(np.tile(op.cw, 2)) @ matrix).toarray()
    assert np.max(np.abs(full - full.T)) < 1e-12
    k = _hessian(g, weight)
    data, row, col = _scipy_map_build(matrix, op.cw)
    assert np.array_equal(k[row, col], data)
    assert np.abs(np.tril(k) - np.tril(full)).max() <= 1e-15 * np.abs(full).max()
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
    assert mode != "tensor2d" or p == 2.0  # where the matrix is the exact Jacobian
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
        return [np.linalg.norm(m), r @ (m @ q)]

    np.testing.assert_allclose(
        reduce_matrix(_hessian(grid, w)), PINNED[(mode, "hessian")],
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
    (1/p) * sum cw * s**(p/2) to 1e-13 relative, and divergence, the product
    by csc_matvec with the face matrix read as its transpose's CSC arrays,
    is bit for bit -sum_k M_k^T (cw * s**((p-2)/2) * g_k) / vol taken with
    the CSR product of scipy's transpose, with a power weight, on the full
    and the interior operator, on a rough state, on one with faces where
    s = 0 and on the zero state."""
    g = dict(GRIDS)[mode]
    for interior in (False, True):
        op = face_operator(g, WeightSpec.power(1.0), interior=interior)
        transpose = _scipy(op.matrix).T.tocsr()
        for name, u in _states_with_flat_faces(g).items():
            u = u.ravel()[g.interior] if interior else u
            flux = FaceFlux(op, u, p)
            rows = (op.matrix @ u.ravel()).reshape(-1, op.cw.size)
            s = np.sum(rows**2, axis=0)
            assert (name == "rough") == (s > 0.0).all()
            energy_ref = float(np.sum(op.cw * s ** (p / 2.0)) / p)
            coefficient = op.cw * s ** ((p - 2.0) / 2.0)
            div_ref = -(transpose @ (coefficient * rows).ravel()).reshape(op.vol.shape)
            div_ref /= op.vol
            assert abs(flux.energy() - energy_ref) <= 1e-13 * energy_ref
            assert np.array_equal(flux.divergence(), div_ref)


def _difference(m, h):
    inv = np.full(m - 1, 1.0 / h)
    return sp.diags_array([-inv, inv], offsets=[0, 1], shape=(m - 1, m))


def _average(m):
    half = np.full(m - 1, 0.5)
    return sp.diags_array([half, half], offsets=[0, 1], shape=(m - 1, m))


def _centered(m, h):
    lower = np.full(m - 1, -0.5 / h)
    upper = np.full(m - 1, 0.5 / h)
    lower[-1] = -1.0 / h
    upper[0] = 1.0 / h
    main = np.zeros(m)
    main[0], main[-1] = -1.0 / h, 1.0 / h
    return sp.diags_array([lower, main, upper], offsets=[-1, 0, 1])


def _scipy_face_matrix(g, fmt="csr"):
    """The stacked face matrix built by scipy.sparse, in CSR throughout (the
    construction the numpy build replaced) or, with fmt None, through COO
    intermediates converted to CSR once."""
    if g.mode != "tensor2d":
        return sp.csr_array(_difference(len(g.axes[0]), g.h[0]))
    (x, y), (hx, hy) = g.axes, g.h
    eye_x, eye_y = sp.eye_array(len(x)), sp.eye_array(len(y))
    return sp.csr_array(sp.vstack([sp.kron(_difference(len(x), hx), eye_y, format=fmt),
                                   sp.kron(eye_x, _difference(len(y), hy), format=fmt),
                                   sp.kron(_average(len(x)), _centered(len(y), hy), format=fmt),
                                   sp.kron(_centered(len(x), hx), _average(len(y)), format=fmt)],
                                  format=fmt))


def _lower_entries(matrix):
    """Stored entries of a scipy sparse matrix on and below the diagonal,
    duplicates summed, as (data, row, col)."""
    coo = sp.coo_array(matrix)
    coo.sum_duplicates()
    lower = coo.row >= coo.col
    return coo.data[lower], coo.row[lower].astype(np.intp), coo.col[lower].astype(np.intp)


def _scipy_map_build(matrix, cw):
    """The lower entries (data, row, col) of the p = 2 Hessian of the scipy
    CSR array matrix with face coefficients cw, built by scipy.sparse as
    hessian_map builds them: the pattern of |M|^T |M|, and each entry
    M[r, i] * M[r, j] * cw_r summed in increasing r, the CSR product of
    M[:, row] * M[:, col] transposed with cw repeated over the stack."""
    pattern = sp.coo_array(abs(matrix).T @ abs(matrix))
    pattern.sum_duplicates()
    lower = pattern.row >= pattern.col
    row, col = pattern.row[lower].astype(np.intp), pattern.col[lower].astype(np.intp)
    csc = matrix.tocsc()
    terms = csc[:, row].multiply(csc[:, col]).T.tocsr()
    return terms @ np.tile(cw, matrix.shape[0] // cw.size), row, col


def _same_arrays(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("interior", [False, True], ids=["full", "interior"])
@pytest.mark.parametrize("mode", [mode for mode, _ in GRIDS])
def test_face_matrices_match_the_coo_build(mode, interior):
    """The face matrix stores the same data, indices and indptr, of the same
    dtypes, as the stack built through COO, over all nodes and over the
    interior columns."""
    g = dict(GRIDS)[mode]
    op = face_operator(g, WeightSpec.power(1.0), interior=interior)
    ref = _scipy_face_matrix(g, fmt=None)
    if interior:
        ref = ref[:, g.interior]
    _same_arrays(op.matrix[2:], (ref.indptr, ref.indices, ref.data))


@pytest.mark.parametrize("weight", [None, WeightSpec.power(1.0)], ids=["unit", "power"])
@pytest.mark.parametrize("interior", [False, True], ids=["full", "interior"])
@pytest.mark.parametrize("mode", [mode for mode, _ in GRIDS])
def test_face_csr_matches_the_scipy_build(mode, interior, weight):
    """The numpy-built face matrix is byte-equal to scipy.sparse's CSR
    build, restricted by scipy, and the p = 2 Hessian's lower entries to
    scipy's build of hessian_map's sums and within 1e-15 of the largest
    entry of scipy's transpose @ diags(cw) @ matrix, in all three grid
    modes, over all nodes and the interior, with and without a weight."""
    g = dict(GRIDS)[mode]
    op = face_operator(g, weight, interior=interior)
    ref = _scipy_face_matrix(g)
    if interior:
        ref = ref[:, g.interior]
    _same_arrays(op.matrix[2:], (ref.indptr, ref.indices, ref.data))
    assert (op.matrix.rows, op.matrix.cols) == ref.shape
    got = energy_hessian_matrix(g, weight, interior)
    _same_arrays(got, _scipy_map_build(ref, op.cw))
    cw = sp.diags_array(np.tile(op.cw, ref.shape[0] // op.cw.size))
    product = _lower_entries((ref.T @ cw @ ref).tocsr())
    _same_arrays(got[1:], product[1:])
    assert np.abs(got[0] - product[0]).max() <= 1e-15 * np.abs(product[0]).max()


def test_face_operator_memory():
    """On tensor2d at resolution 48 with a power weight, the interior face
    operator's build peaks at most 3.0 times the bytes of its CSR arrays,
    the cached operator holds at most 1.3 times them (one matrix, no stored
    transpose) and a p = 3 eigensolve on it peaks at most 3.0 times them,
    all as tracemalloc counts them.  A build that kept four int64 stencils
    alive and an operator that stored the transpose read 4.0, 2.1 and 3.7;
    the ratios barely move with the resolution."""
    grid, weight = build_grid("tensor2d", 1.0, 48), WeightSpec.power(1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = face_operator(grid, weight, interior=True)
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        smallest_eigenpair(grid, weight, 3.0)
        eigen_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = op.matrix.indptr.nbytes + op.matrix.indices.nbytes + op.matrix.data.nbytes
    assert build_peak - before <= 3.0 * csr
    assert held - before <= 1.3 * csr
    assert eigen_peak - before <= 3.0 * csr


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
