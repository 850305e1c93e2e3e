import math

import numpy as np
import pytest
import scipy.linalg

from opinv.grf import (
    Field,
    Grid2D,
    build_kl_basis,
    draw_uniform,
    kl_eigenvalue,
    read_field_bin,
    sample_field,
    write_field_bin,
)

PI = math.pi


def test_grid_basic_properties():
    g = Grid2D(5, 9)
    assert g.n_nodes == 45
    assert g.hx == pytest.approx(0.25)
    assert g.hy == pytest.approx(0.125)
    assert g.xs[0] == 0.0 and g.xs[-1] == 1.0
    nodes = g.nodes()
    assert nodes.shape == (45, 2)
    # x-major order: first ny nodes share x = 0
    assert np.all(nodes[: g.ny, 0] == 0.0)
    assert np.allclose(nodes[: g.ny, 1], g.ys)


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        Grid2D(1, 5)


def test_trapezoid_weights_sum_to_area():
    g = Grid2D(7, 11)
    w = g.trapezoid_weights()
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    # corner weight is hx/2 * hy/2
    assert w[0] == pytest.approx(g.hx * g.hy / 4)


def test_field_validation():
    g = Grid2D(3, 3)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))
    with pytest.raises(ValueError):
        Field(g, np.full(9, np.nan))
    f = Field(g, np.arange(9))
    assert f.values.reshape(3, 3)[2, 1] == 7  # value at (x_2, y_1)


# -- eigenvalues ------------------------------------------------------------


def test_eigenvalue_constant_mode():
    # tau=3, d=2, sigma=1: lambda_(0,0) = (3^2)^(-2) = 1/81
    assert kl_eigenvalue(0, 0) == pytest.approx(1.0 / 81.0, rel=1e-14)


def test_eigenvalue_first_axis_mode():
    assert kl_eigenvalue(1, 0) == pytest.approx((PI**2 + 9.0) ** -2, rel=1e-14)
    assert kl_eigenvalue(0, 1) == kl_eigenvalue(1, 0)


def test_basis_ordering_and_ties():
    b = build_kl_basis(Grid2D(9, 9), 10)
    lam = b.eigenvalues
    assert np.all(np.diff(lam) <= 1e-18)  # non-increasing
    ks = [tuple(k) for k in b.wavenumbers]
    assert ks[0] == (0, 0)
    # degenerate pair ordered lexicographically
    assert ks.index((0, 1)) < ks.index((1, 0))
    assert lam[0] == pytest.approx(1.0 / 81.0, rel=1e-14)


def test_mode_normalization_values():
    b = build_kl_basis(Grid2D(5, 5), 6)
    ks = [tuple(k) for k in b.wavenumbers]
    # at the origin every cosine factor equals 1, exposing the normalization
    origin = 0
    assert b.modes[ks.index((0, 0)), origin] == pytest.approx(1.0)
    assert b.modes[ks.index((0, 1)), origin] == pytest.approx(math.sqrt(2.0))
    assert b.modes[ks.index((1, 1)), origin] == pytest.approx(2.0)


def test_orthonormality_under_trapezoid_rule():
    # cosine products are discretely orthogonal under trapezoid weights as
    # long as wavenumbers stay well below the grid Nyquist index
    g = Grid2D(33, 33)
    b = build_kl_basis(g, 12)
    w = g.trapezoid_weights()
    gram = (b.modes * w) @ b.modes.T
    assert np.allclose(gram, np.eye(12), atol=1e-10)


def test_eigenpairs_match_discrete_operator():
    """Brute-force oracle: eigendecomposition of the discretized covariance.

    Assemble the finite-volume Neumann stiffness K and lumped mass D on an
    8x8 grid directly (independent of the package), solve the generalized
    problem (K + tau^2 D) v = mu D v, and compare sigma^2 mu^(-d) against the
    analytic eigenvalues.  Agreement is O(h^2), so only the leading modes are
    compared and at a few-percent tolerance.
    """
    n = 8
    h = 1.0 / (n - 1)
    w1 = np.full(n, h)
    w1[0] = w1[-1] = h / 2
    K1 = np.zeros((n, n))
    for i in range(n - 1):  # one face between nodes i and i+1, conductance 1/h
        K1[i, i] += 1.0 / h
        K1[i + 1, i + 1] += 1.0 / h
        K1[i, i + 1] -= 1.0 / h
        K1[i + 1, i] -= 1.0 / h
    D1 = np.diag(w1)
    K = np.kron(K1, D1) + np.kron(D1, K1)
    D = np.kron(D1, D1)

    tau, d, sigma = 3.0, 2.0, 1.0
    mu = scipy.linalg.eigh(K + tau**2 * D, D, eigvals_only=True)
    lam_discrete = np.sort(sigma**2 * mu**-d)[::-1]

    b = build_kl_basis(Grid2D(n, n), 4, tau=tau, d=d, sigma=sigma)
    assert np.allclose(lam_discrete[:4], b.eigenvalues, rtol=0.05)

    # eigenvectors: constant mode is exact; the (0,1)/(1,0) pair is degenerate
    # so check that both analytic modes lie in the discrete 2-dim eigenspace
    mu_full, V = scipy.linalg.eigh(K + tau**2 * D, D)
    # eigh(B-orthonormal): V.T @ D @ V = I
    span = V[:, 1:3]  # the two smallest nonzero-mu modes
    for kpair in [(0, 1), (1, 0)]:
        idx = [tuple(k) for k in b.wavenumbers].index(kpair)
        psi = b.modes[idx]
        coeffs = span.T @ (D @ psi)
        frac = (coeffs**2).sum() / (psi @ D @ psi)
        assert frac > 0.98


# -- sampling ---------------------------------------------------------------


def test_sample_field_is_linear_in_zeta():
    b = build_kl_basis(Grid2D(7, 7), 5)
    rng = np.random.default_rng(0)
    z1, z2 = rng.standard_normal(5), rng.standard_normal(5)
    f12 = sample_field(b, z1 + z2)
    assert np.allclose(f12.values, sample_field(b, z1).values + sample_field(b, z2).values,
                       atol=1e-14)
    assert np.all(sample_field(b, np.zeros(5)).values == 0.0)


def test_sample_single_mode():
    b = build_kl_basis(Grid2D(6, 6), 4)
    e2 = np.zeros(4)
    e2[2] = 1.0
    f = sample_field(b, e2)
    assert np.allclose(f.values, math.sqrt(b.eigenvalues[2]) * b.modes[2])


def test_sample_field_rejects_wrong_length():
    b = build_kl_basis(Grid2D(5, 5), 4)
    with pytest.raises(ValueError):
        sample_field(b, np.zeros(3))


def test_prior_variance_matches_kl_spectrum():
    # nodewise Var[m(x)] = sum_k lambda_k psi_k(x)^2
    g = Grid2D(9, 9)
    b = build_kl_basis(g, 16)
    rng = np.random.default_rng(42)
    Z = rng.standard_normal((10_000, 16))
    samples = Z @ b.weighted_modes
    var_mc = samples.var(axis=0)
    var_exact = (b.eigenvalues[:, None] * b.modes**2).sum(axis=0)
    center = (g.nx // 2) * g.ny + g.ny // 2
    assert var_mc[center] == pytest.approx(var_exact[center], rel=0.05)


def test_draws_are_reproducible():
    assert np.array_equal(draw_uniform(8, 5), draw_uniform(8, 5))
    assert not np.array_equal(draw_uniform(8, 5), draw_uniform(8, 6))


def test_uniform_draw_range_and_variance():
    z = draw_uniform(200_000, np.random.default_rng(1))
    assert z.min() >= -20.0 and z.max() <= 20.0
    assert z.var() == pytest.approx(400.0 / 3.0, rel=0.02)


# -- serialization ----------------------------------------------------------


def test_field_bin_roundtrip(tmp_path):
    g = Grid2D(6, 4)
    f = Field(g, np.random.default_rng(3).standard_normal(24))
    p = tmp_path / "f.bin"
    write_field_bin(p, f)
    f2 = read_field_bin(p)
    assert f2.grid == g
    assert np.array_equal(f2.values, f.values)
    # 16-byte header + 24 doubles
    assert p.stat().st_size == 16 + 24 * 8


def test_read_bin_rejects_truncation(tmp_path):
    p = tmp_path / "bad.bin"
    g = Grid2D(3, 3)
    write_field_bin(p, Field(g, np.zeros(9)))
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        read_field_bin(p)


def test_build_kl_basis_validation():
    g = Grid2D(4, 4)
    with pytest.raises(ValueError):
        build_kl_basis(g, 0)
    with pytest.raises(ValueError):
        build_kl_basis(g, 4, tau=0.0)


def test_large_basis_stays_sorted():
    b = build_kl_basis(Grid2D(4, 4), 200)
    assert np.all(np.diff(b.eigenvalues) <= 1e-18)
    assert b.wavenumbers.shape == (200, 2)
