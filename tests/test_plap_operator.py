"""Energy, operator, Jacobians, and reaction families.

The load-bearing property here is exact variational pairing: the operator
must equal minus the energy gradient in the cell-volume inner product, so
directional finite differences of the energy have to reproduce
<apply_plaplacian(u), v> to near machine precision for smooth test
directions.
"""

import numpy as np
import pytest

from degenflow import (
    ConfigError,
    Field,
    ReactionSpec,
    apply_plaplacian,
    build_grid,
    cell_volumes,
    diffusion_jacobian,
    energy,
    energy_hessian_matrix,
    reaction_derivative,
    reaction_eval,
    variational_dot,
    WeightSpec,
)

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
    """The Newton Jacobian is the exact derivative of the weighted operator
    in the 1d modes at every p, and on tensor grids at p = 2.  (Tensor grids
    at p > 2 hold the tangential gradient fixed and are not exact.)"""
    g = dict(GRIDS)[mode]
    w = WeightSpec.power(1.0)
    u = _random_interior_field(g, 77)
    jac = diffusion_jacobian(u, w, p).toarray()
    eps = 1e-7
    interior = np.flatnonzero(~g.boundary_mask.ravel())
    rng = np.random.default_rng(0)
    for _ in range(5):
        d = rng.standard_normal(g.n_nodes)
        d[g.boundary_mask.ravel()] = 0.0
        plus = apply_plaplacian(Field(g, (u.values.ravel() + eps * d).reshape(g.shape)), w, p)
        minus = apply_plaplacian(Field(g, (u.values.ravel() - eps * d).reshape(g.shape)), w, p)
        fd = (plus.values.ravel() - minus.values.ravel()) / (2.0 * eps)
        jd = jac @ d
        err = np.max(np.abs(fd[interior] - jd[interior]))
        assert err < 2e-5 * max(1.0, np.max(np.abs(jd[interior])))


# Reductions of the operator recorded from an independent implementation
# (separate 1d and tensor code with hand-written adjoints): for every mode the
# p = 2 Hessian (Frobenius norm, r . K q), and for every p the energy,
# apply_plaplacian (norm, . r) and the Newton Jacobian (Frobenius norm,
# r . J q).  Power weight |x|, seeded field and probes.
PINNED = {
    ('interval', 'hessian'): (164.5007598766644, 60.40148723495232),
    ('interval', 2.0): (
        250.0780933915804,
        3743.7547858938424, 924.5284339887647,
        4182.856440280972, -1683.233004039766,
    ),
    ('interval', 3.0): (
        7578.31271061532,
        172136.5721965534, 89265.5158894988,
        239599.74665675225, -299096.602067519,
    ),
    ('radial', 'hessian'): (794.8986868925126, 350.5696455200378),
    ('radial', 2.0): (
        1032.7551799089806,
        3747.7501520026603, 905.0521037384262,
        4184.066684608491, -1652.8307003119064,
    ),
    ('radial', 3.0): (
        31485.52743047594,
        172330.63689390253, 90361.67434669087,
        239873.44689507468, -296604.3507390212,
    ),
    ('tensor2d', 'hessian'): (19.21770404735028, 16.001315217121245),
    ('tensor2d', 2.0): (
        71.43360558198053,
        1892.8109984421292, -1268.1416387308773,
        2388.5684985329776, -1305.605520772365,
    ),
    ('tensor2d', 3.0): (
        1088.8736911543767,
        49096.73363618426, -19853.716835378615,
        49171.00248490461, -30901.225521176595,
    ),
}


@pytest.mark.parametrize("mode,grid", GRIDS, ids=[m for m, _ in GRIDS])
def test_operator_matches_pinned_values(mode, grid):
    w = WeightSpec.power(1.0)
    rng = np.random.default_rng(7)
    r, q = rng.standard_normal(grid.n_nodes), rng.standard_normal(grid.n_nodes)

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
        got += reduce_matrix(diffusion_jacobian(u, w, p))
        np.testing.assert_allclose(
            got, PINNED[(mode, p)], rtol=1e-13, atol=0.0, err_msg=f"p={p}",
        )


def test_newton_jacobian_is_negative_semidefinite():
    """J = -A^T diag(kappa) A / V with every face conductance kappa >= 0."""
    g = build_grid("interval", 1.0, 20)
    u = _random_interior_field(g, 3)
    j = diffusion_jacobian(u, None, 3.0).toarray()
    vol = cell_volumes(g)
    # symmetrize back to the energy form before the spectral check
    k = -np.diag(vol) @ j
    eigs = np.linalg.eigvalsh(0.5 * (k + k.T))
    assert eigs.min() > -1e-10


def test_p_below_two_rejected():
    g = build_grid("interval", 1.0, 8)
    u = Field(g, np.zeros(g.shape))
    with pytest.raises(ConfigError):
        apply_plaplacian(u, None, 1.5)
    with pytest.raises(ConfigError):
        energy(u, None, 1.9)


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

    def test_bounded_power_time_dependence(self):
        spec = ReactionSpec.bounded_power(c3=1.0, c4=2.0, m=2.0, sigma=2.0)
        u = np.array([1.0])
        assert reaction_eval(spec, 0.0, u)[0] == pytest.approx(1.0)
        assert reaction_eval(spec, 3.0, u)[0] == pytest.approx(1.0 + 2.0 * 9.0)

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
            ReactionSpec.bounded_power(c3=1.0, c4=1.0, m=0.5, sigma=2.0)
        with pytest.raises(ConfigError):
            ReactionSpec.power(-1.0, 2.0)

    def test_negative_time_rejected(self):
        spec = ReactionSpec.power(1.0, 2.0)
        with pytest.raises(ConfigError):
            reaction_eval(spec, -0.1, np.array([1.0]))
