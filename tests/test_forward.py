import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dpbsv

from opinv import forward
from opinv.config import SPECS, preset
from opinv.forward import (
    DarcyProblem,
    HeatSourceFieldProblem,
    HeatSourceLocProblem,
    ReactionDiffusionProblem,
    _rd_stencil,
    _weights_1d,
    forward_map,
)
from opinv.grf import Grid2D, build_kl_basis, sample_field

PI = math.pi


def l2_error(grid, values, exact):
    w = grid.trapezoid_weights()
    return math.sqrt(w @ (values - exact) ** 2)


def prior_draw(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


# -- operators ---------------------------------------------------------------


# The sparse operator builders: the reference that the SuperLU marches below
# are built from, and that the solvers' stencil is checked against.


def _stiffness_1d(n: int, h: float) -> sp.csr_matrix:
    """Symmetric FV stiffness for zero-flux walls: unit conductance faces."""
    main = np.full(n, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def neumann_laplacian(grid: Grid2D) -> sp.csr_matrix:
    """Node-centered FV Laplacian with zero-flux walls, acting on all nodes.

    Equals the ghost-point 5-point stencil; with D = diag(trapezoid weights)
    it is -D^{-1} K for a symmetric stiffness K, so w.T lap = 0 exactly.
    """
    K = (sp.kron(_stiffness_1d(grid.nx, grid.hx), sp.diags(_weights_1d(grid.ny, grid.hy)))
         + sp.kron(sp.diags(_weights_1d(grid.nx, grid.hx)), _stiffness_1d(grid.ny, grid.hy)))
    winv = 1.0 / grid.trapezoid_weights()
    return (-sp.diags(winv) @ K).tocsr()


def _face_flux_1d(n: int) -> sp.dia_matrix:
    """Net outflow of each of n nodes on a line, given nodal flux densities:
    a face carries the mean of its two nodes' densities, and the walls carry
    none."""
    diag = np.zeros(n)
    diag[0], diag[-1] = 0.5, -0.5
    return sp.diags([np.full(n - 1, -0.5), diag, np.full(n - 1, 0.5)], [-1, 0, 1])


def advection_operator(grid: Grid2D, v1: np.ndarray, v2: np.ndarray) -> sp.csr_matrix:
    """Conservative central discretization of u -> div(v u) on all nodes.

    Face fluxes average the two adjacent nodal flux densities; wall-normal
    fluxes are dropped, which is exact when v is tangential at the walls.
    Weighted column sums vanish, so w.T A = 0 exactly.
    """
    wx, wy = _weights_1d(grid.nx, grid.hx), _weights_1d(grid.ny, grid.hy)
    A = (sp.kron(_face_flux_1d(grid.nx), sp.diags(wy)) @ sp.diags(np.ravel(v1))
         + sp.kron(sp.diags(wx), _face_flux_1d(grid.ny)) @ sp.diags(np.ravel(v2)))
    return (sp.diags(1.0 / grid.trapezoid_weights()) @ A).tocsr()


def stencil_matrix(S) -> sp.csr_matrix:
    """The (n_nodes, n_nodes) matrix of a (5, nx, ny) stencil: each node's
    coefficient on itself and on its -x, +x, -y and +y neighbors."""
    _, nx, ny = S.shape
    idx = np.arange(nx * ny).reshape(nx, ny)
    entries = [(idx, idx, S[0]), (idx[1:], idx[:-1], S[1, 1:]), (idx[:-1], idx[1:], S[2, :-1]),
               (idx[:, 1:], idx[:, :-1], S[3, :, 1:]), (idx[:, :-1], idx[:, 1:], S[4, :, :-1])]
    rows, cols, vals = (np.concatenate([np.ravel(e[k]) for e in entries]) for k in range(3))
    return sp.csr_matrix((vals, (rows, cols)), shape=(nx * ny, nx * ny))


def stencil_laplacian(grid):
    zero = np.zeros((grid.nx, grid.ny))
    return stencil_matrix(_rd_stencil(grid, 1.0, zero, zero))


def stencil_advection(grid, v1, v2):
    """The solvers' u -> div(v u), the stencil of kappa lap - div(v .) at kappa 0
    negated."""
    return -stencil_matrix(_rd_stencil(grid, 0.0, v1, v2))


def test_neumann_laplacian_annihilates_constants_and_mass():
    g = Grid2D(9, 7)
    L = stencil_laplacian(g)
    w = g.trapezoid_weights()
    assert np.abs(L @ np.ones(g.n_nodes)).max() < 1e-12
    assert np.abs(w @ L).max() < 1e-12  # exact discrete conservation


@pytest.mark.parametrize("nx, ny", [(9, 7), (3, 5), (24, 24)])
def test_stencil_laplacian_matches_sparse_builder(nx, ny):
    g = Grid2D(nx, ny)
    want = neumann_laplacian(g)
    assert abs(stencil_laplacian(g) - want).max() <= 1e-13 * abs(want).max()


def test_advection_operator_conserves_for_any_velocity():
    g = Grid2D(8, 8)
    rng = np.random.default_rng(0)
    v1 = rng.standard_normal((8, 8))
    v2 = rng.standard_normal((8, 8))
    A = stencil_advection(g, v1, v2)
    w = g.trapezoid_weights()
    assert np.abs(w @ A).max() < 1e-12


def advection_by_face_loop(grid, v1, v2):
    """Oracle for the advection stencil and advection_operator: the face
    fluxes assembled one face at a time as COO triplets, duplicates summed on
    conversion to CSR."""
    nx, ny = grid.nx, grid.ny
    wx = np.full(nx, grid.hx)
    wx[0] = wx[-1] = grid.hx / 2
    wy = np.full(ny, grid.hy)
    wy[0] = wy[-1] = grid.hy / 2
    rows, cols, vals = [], [], []

    def idx(i, j):
        return i * ny + j

    # x-faces between (i, j) and (i+1, j); face length wy_j
    for i in range(nx - 1):
        for j in range(ny):
            c = 0.5 * wy[j]
            a, b = idx(i, j), idx(i + 1, j)
            for node, vel in ((a, v1[i, j]), (b, v1[i + 1, j])):
                rows += [a, b]
                cols += [node, node]
                vals += [c * vel, -c * vel]
    # y-faces between (i, j) and (i, j+1); face length wx_i
    for i in range(nx):
        for j in range(ny - 1):
            c = 0.5 * wx[i]
            a, b = idx(i, j), idx(i, j + 1)
            for node, vel in ((a, v2[i, j]), (b, v2[i, j + 1])):
                rows += [a, b]
                cols += [node, node]
                vals += [c * vel, -c * vel]

    A = sp.csr_matrix((vals, (rows, cols)), shape=(grid.n_nodes, grid.n_nodes))
    winv = 1.0 / grid.trapezoid_weights()
    return (sp.diags(winv) @ A).tocsr()


@pytest.mark.parametrize("nx, ny", [(8, 9), (24, 25), (70, 71)])
def test_advection_operator_matches_face_loop(nx, ny):
    g = Grid2D(nx, ny)
    rng = np.random.default_rng(nx)
    v1, v2 = rng.standard_normal((2, nx, ny))
    want = advection_by_face_loop(g, v1, v2)
    for got in (stencil_advection(g, v1, v2), advection_operator(g, v1, v2)):
        assert abs(got - want).max() <= 1e-13 * abs(want).max()


def test_rotating_velocity_is_discretely_divergence_free():
    g = Grid2D(13, 13)
    p = ReactionDiffusionProblem(g)
    A = stencil_advection(g, *p.velocity())
    # v1 = sin(pi x) cos(pi y), v2 = -cos(pi x) sin(pi y): central differences
    # of the two flux components cancel exactly, including at the walls
    assert np.abs(A @ np.ones(g.n_nodes)).max() < 1e-12


def dirichlet_laplacian(grid):
    """Oracle for the heat-field operator: 5-point Laplacian on the interior
    nodes (x-major), boundary values pinned to 0."""
    nx, ny = grid.nx - 2, grid.ny - 2
    ex, ey = np.ones(nx), np.ones(ny)
    d2x = sp.diags([ex[:-1], -2 * ex, ex[:-1]], [-1, 0, 1]) / grid.hx**2
    d2y = sp.diags([ey[:-1], -2 * ey, ey[:-1]], [-1, 0, 1]) / grid.hy**2
    return (sp.kron(d2x, sp.eye(ny)) + sp.kron(sp.eye(nx), d2y)).tocsr()


def test_dirichlet_laplacian_matches_sine_eigenfunction():
    g = Grid2D(17, 17)
    L = dirichlet_laplacian(g)
    X, Y = g.mesh()
    u = (np.sin(PI * X) * np.sin(PI * Y)).ravel()
    idx = np.flatnonzero((X.ravel() > 0) & (X.ravel() < 1) & (Y.ravel() > 0) & (Y.ravel() < 1))
    lam_num = -(L @ u[idx]) / u[idx]
    per_axis = 2 * (1 - math.cos(PI * g.hx)) / g.hx**2  # discrete 1-D eigenvalue
    assert np.allclose(lam_num, 2 * per_axis, rtol=1e-10)


# -- Darcy -------------------------------------------------------------------


class _ManufacturedDarcy(DarcyProblem):
    def source_values(self):
        X, Y = self.grid.mesh()
        return (2 * PI**2 * np.sin(PI * X) * np.sin(PI * Y)).ravel()


def test_darcy_manufactured_constant_coefficient():
    g = Grid2D(17, 17)
    X, Y = g.mesh()
    (u,) = _ManufacturedDarcy(g).solve_batch(np.zeros((1, g.n_nodes)))
    exact = (np.sin(PI * X) * np.sin(PI * Y)).ravel()
    assert l2_error(g, u, exact) < 2e-3
    assert np.all(u[X.ravel() == 0.0] == 0.0)  # Dirichlet wall


def test_darcy_manufactured_variable_coefficient():
    # a = exp(x + y), u = sin(pi x) sin(pi y)
    g = Grid2D(33, 33)
    X, Y = g.mesh()
    s, c = np.sin(PI * X) * np.sin(PI * Y), None
    a = np.exp(X + Y)
    f = a * (2 * PI**2 * s
             - PI * np.cos(PI * X) * np.sin(PI * Y)
             - PI * np.sin(PI * X) * np.cos(PI * Y))

    class P(DarcyProblem):
        def source_values(self):
            return f.ravel()

    (u,) = P(g).solve_batch((X + Y).reshape(1, -1))
    err = l2_error(g, u, s.ravel())
    assert err < 2e-3


def test_darcy_banded_source_levels():
    g = Grid2D(13, 13)
    f = DarcyProblem(g).source_values().reshape(13, 13)
    ys = g.ys
    assert f[3, np.searchsorted(ys, 0.5)] == 1000.0
    assert np.all(f[:, ys <= 4 / 6 + 1e-12] == 1000.0)
    assert np.all(f[:, (ys > 4 / 6) & (ys <= 5 / 6 + 1e-12)] == 2000.0)
    assert np.all(f[:, ys > 5 / 6 + 1e-12] == 3000.0)


def test_darcy_positive_source_gives_nonnegative_state():
    g = Grid2D(16, 16)
    b = build_kl_basis(g, 16)
    (u,) = DarcyProblem(g).solve_batch(sample_field(b, prior_draw(16, 11))[None])
    assert u.min() > -1e-10  # discrete maximum principle (M-matrix)


def test_darcy_prior_draw_magnitude():
    # banded kilo-scale source with exp(prior draw) conductivity: state peaks
    # in the tens-to-low-hundreds range
    g = Grid2D(70, 70)
    b = build_kl_basis(g, 128)
    (u,) = DarcyProblem(g).solve_batch(sample_field(b, prior_draw(128, 0))[None])
    assert 10.0 < u.max() < 500.0


def _good_darcy_rows(g, n):
    basis = build_kl_basis(g, 8)
    return [sample_field(basis, prior_draw(8, s)) for s in range(n)]


def _check_failed_rows(p, P, failed):
    """The rows ``failed`` of batch P solve to NaN; every other row is finite
    and bit-identical to its own one-row batch."""
    U = p.solve_batch(P)
    assert U.shape == (len(P), p.grid.n_nodes)
    for i, m in enumerate(P):
        if i in failed:
            assert np.all(np.isnan(U[i]))
        else:
            (want,) = p.solve_batch(m[None])
            assert np.all(np.isfinite(want))
            assert np.array_equal(U[i], want)


def _diagonal(p, m):
    """The diagonal band row of field m's Darcy matrix, as ``pbsv`` gets it."""
    return forward._darcy_bands(p, m[None])[0][0, 2]


@pytest.mark.filterwarnings("error")
def test_darcy_rejects_overflowing_coefficient():
    g = Grid2D(8, 8)
    good = _good_darcy_rows(g, 2)
    _check_failed_rows(DarcyProblem(g), np.array([good[0], np.full(64, 800.0), good[1]]),
                       {1})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("level", [400.0, 709.0])
def test_darcy_rejects_overflowing_face_conductance(level):
    # exp(m) is finite, but the harmonic face mean 2pq/(p+q) overflows:
    # to inf at m = 400, to inf/inf = NaN at m = 709.  Nothing may warn.
    g = Grid2D(8, 8)
    good = _good_darcy_rows(g, 2)
    _check_failed_rows(DarcyProblem(g), np.array([good[0], good[1], np.full(64, level)]),
                       {2})


def _darcy_by_coo_assembly(problem, m):
    """Reference matrix: the stencil assembled as COO triplets and converted
    to CSR, the way the solver first did it; returns (A, interior index)."""
    g = problem.grid
    a = np.exp(m.reshape(g.nx, g.ny))
    ax = 2.0 * a[:-1, :] * a[1:, :] / (a[:-1, :] + a[1:, :])
    ay = 2.0 * a[:, :-1] * a[:, 1:] / (a[:, :-1] + a[:, 1:])
    nxi, nyi = g.nx - 2, g.ny - 2
    ii, jj = np.meshgrid(np.arange(1, g.nx - 1), np.arange(1, g.ny - 1), indexing="ij")
    aE, aW = ax[ii, jj] / g.hx**2, ax[ii - 1, jj] / g.hx**2
    aN, aS = ay[ii, jj] / g.hy**2, ay[ii, jj - 1] / g.hy**2

    def k(i, j):
        return (i - 1) * nyi + (j - 1)

    rows, cols, vals = [k(ii, jj).ravel()], [k(ii, jj).ravel()], [(aE + aW + aN + aS).ravel()]
    for mask, di, dj, c in ((ii < g.nx - 2, 1, 0, aE), (ii > 1, -1, 0, aW),
                            (jj < g.ny - 2, 0, 1, aN), (jj > 1, 0, -1, aS)):
        rows.append(k(ii, jj)[mask])
        cols.append(k(ii + di, jj + dj)[mask])
        vals.append(-c[mask])
    A = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(nxi * nyi, nxi * nyi))
    return A, (ii * g.ny + jj).ravel()


def _bands_to_dense(bands, ny):
    """Symmetric matrix of one row of ``_darcy_bands``: the upper band rows
    at offsets ny-2, 1 and 0 of LAPACK band storage."""
    n = bands.shape[1]
    A = np.zeros((n, n))
    for row, d in zip(bands, (ny - 2, 1, 0)):
        i = np.arange(n - d)
        A[i, i + d] += row[d:]
        if d:
            A[i + d, i] += row[d:]
    return A


def _darcy_case(n, seed):
    g = Grid2D(n, n + 3)
    return DarcyProblem(g), sample_field(build_kl_basis(g, 16), 2.0 * prior_draw(16, seed))


def test_darcy_band_is_bit_identical_to_coo_assembly():
    for n, seed in ((9, 0), (13, 1), (24, 2)):
        problem, m = _darcy_case(n, seed)
        A, _ = _darcy_by_coo_assembly(problem, m)
        bands, ok = forward._darcy_bands(problem, m[None])
        assert ok.tolist() == [True]
        assert bands.shape == (1, 3, (n - 2) * (n + 1))  # (rows, 3, interior nodes)
        bands = bands[0]
        assert np.array_equal(_bands_to_dense(bands, n + 3), A.toarray())


def test_darcy_solve_matches_coo_splu_reference():
    for n, seed in ((9, 0), (13, 1), (24, 2), (70, 3)):
        problem, m = _darcy_case(n, seed)
        A, interior = _darcy_by_coo_assembly(problem, m)
        want = np.zeros(problem.grid.n_nodes)
        want[interior] = spla.splu(A.tocsc()).solve(problem.source_values()[interior])
        (got,) = problem.solve_batch(m[None])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.filterwarnings("error")
def test_darcy_failed_factorization_row_is_nan(monkeypatch):
    g = Grid2D(10, 10)
    p = DarcyProblem(g)
    P = np.array(_good_darcy_rows(g, 3))
    bad = _diagonal(p, P[1])

    def pbsv(ab, b, **kw):
        if np.array_equal(ab[-1], bad):
            return ab, np.full_like(b, 7.0), 2  # info 2: the 2nd leading minor
        return dpbsv(ab, b, **kw)

    monkeypatch.setattr(forward, "dpbsv", pbsv)
    _check_failed_rows(p, P, {1})


@pytest.mark.filterwarnings("error")
def test_darcy_failed_residual_row_is_nan(monkeypatch):
    # a solution off by 1e-8 relative leaves a residual above 1e-10
    g = Grid2D(10, 10)
    p = DarcyProblem(g)
    P = np.array(_good_darcy_rows(g, 3))
    bad = _diagonal(p, P[0])

    def pbsv(ab, b, **kw):
        c, u, info = dpbsv(ab, b, **kw)
        return c, u * (1 + 1e-8) if np.array_equal(ab[-1], bad) else u, info

    monkeypatch.setattr(forward, "dpbsv", pbsv)
    _check_failed_rows(p, P, {0})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nx, ny", [(9, 9), (13, 16), (24, 24), (70, 70)])
def test_darcy_batch_rows_equal_one_row_solves(nx, ny, monkeypatch):
    # good rows between an overflowing row, a row whose Cholesky fails and a
    # row whose residual fails: the good rows are bit-identical to batches of
    # one, the failed rows NaN, and nothing warns
    g = Grid2D(nx, ny)
    p = DarcyProblem(g)
    good = _good_darcy_rows(g, 7)
    P = np.array([good[0], np.full(g.n_nodes, 800.0), good[1], good[2], good[3],
                  good[4], good[5], good[6]])
    chol_diag, res_diag = _diagonal(p, P[3]), _diagonal(p, P[5])

    def pbsv(ab, b, **kw):
        if np.array_equal(ab[-1], chol_diag):
            return ab, np.full_like(b, 7.0), 3  # info 3: the 3rd leading minor
        c, u, info = dpbsv(ab, b, **kw)
        return c, u * (1 + 1e-8) if np.array_equal(ab[-1], res_diag) else u, info

    monkeypatch.setattr(forward, "dpbsv", pbsv)
    _check_failed_rows(p, P, {1, 3, 5})


@pytest.mark.parametrize("nx, ny", [(9, 9), (13, 16), (24, 24), (70, 70)])
def test_darcy_rows_match_solveh_banded(nx, ny):
    # the direct dpbsv call gives scipy's solveh_banded bits on every row
    g = Grid2D(nx, ny)
    p = DarcyProblem(g)
    P = np.array(_good_darcy_rows(g, 5))
    U = p.solve_batch(P)
    bands, ok = forward._darcy_bands(p, P)
    assert ok.all()
    nyi = ny - 2
    interior = forward._interior_index(g)
    for u, (east, north, diag) in zip(U, bands):
        ab = np.zeros((nyi + 1, len(diag)))
        ab[nyi - 1], ab[0], ab[nyi] = north, east, diag
        want = solveh_banded(ab, p.interior_source, lower=False, check_finite=False)
        assert np.array_equal(u[interior], want)
        assert np.all(np.delete(u, interior) == 0.0)


def test_darcy_illegal_lapack_argument_raises(monkeypatch):
    g = Grid2D(8, 8)
    monkeypatch.setattr(forward, "dpbsv", lambda ab, b: (ab, b, -2))
    with pytest.raises(ValueError, match="illegal value in argument 2"):
        DarcyProblem(g).solve_batch(np.array(_good_darcy_rows(g, 1)))


def test_darcy_grid_mismatch():
    with pytest.raises(ValueError):
        DarcyProblem(Grid2D(8, 8)).solve_batch(np.zeros(64))
    with pytest.raises(ValueError):
        DarcyProblem(Grid2D(8, 8)).solve_batch(np.zeros((2, 36)))


# -- heat, source location ----------------------------------------------------


def test_heat_loc_zero_strength_gives_zero_state():
    p = HeatSourceLocProblem(Grid2D(12, 12), strength=0.0)
    ((u1, u2),) = p.solve_batch([(0.4, 0.7)])
    assert np.all(u1 == 0.0)
    assert np.all(u2 == 0.0)


def test_heat_loc_mass_budget_and_conservation():
    g = Grid2D(24, 24)
    p = HeatSourceLocProblem(g)
    ((u1, u2),) = p.solve_batch([(0.2, 0.2)])
    w = g.trapezoid_weights()
    src_mass = w @ p.source_values((0.2, 0.2))
    # backward Euler adds dt * (source mass) per active step, exactly
    assert w @ u1 == pytest.approx(p.t_cutoff * src_mass, rel=1e-12)
    # source off after the cutoff: total heat frozen
    assert w @ u2 == pytest.approx(w @ u1, rel=1e-12)


def test_heat_loc_state_peaks_near_source():
    g = Grid2D(25, 25)
    ((u1, _),) = HeatSourceLocProblem(g).solve_batch([(0.25, 0.75)])
    k = int(np.argmax(u1))
    x, y = g.nodes()[k]
    assert abs(x - 0.25) <= 2 * g.hx and abs(y - 0.75) <= 2 * g.hy


def test_heat_loc_rejects_off_step_observation_time():
    p = HeatSourceLocProblem(Grid2D(8, 8), obs_times=(0.07, 0.15), n_steps=10)
    with pytest.raises(ValueError, match="step boundary"):
        p.solve_batch([(0.5, 0.5)])


def test_heat_loc_rejects_bad_chi():
    p = HeatSourceLocProblem(Grid2D(8, 8))
    for P in ([(0.1, 0.2, 0.3)], (0.1, 0.2)):
        with pytest.raises(ValueError, match=r"\(B, 2\) batch"):
            p.solve_batch(P)


def _heat_loc_by_splu_march(p, P):
    """Reference: the backward-Euler march (D + dt K) u_n = D (u_{n-1} + dt s)
    on all nodes, K = -D L the zero-flux stiffness and D the trapezoid mass,
    the source s on while n dt <= t_cutoff, one SuperLU solve per step and row."""
    g = p.grid
    dt = 1.0 / p.n_steps
    w = g.trapezoid_weights()
    lu = spla.splu((sp.diags(w) @ (sp.eye(g.n_nodes) - dt * neumann_laplacian(g))).tocsc())
    steps = [int(round(t / dt)) for t in p.obs_times]
    out = np.empty((len(P), len(steps), g.n_nodes))
    for i, chi in enumerate(P):
        src = dt * p.source_values(chi)
        u = np.zeros(g.n_nodes)
        snaps = {}
        for n in range(1, max(steps) + 1):
            if n * dt <= p.t_cutoff + 1e-12:
                u = u + src
            u = lu.solve(w * u)
            snaps[n] = u
        out[i] = [snaps[k] for k in steps]
    return out


def _heat_loc_gap(p, n_rows, seed):
    P = np.random.default_rng(seed).uniform(0.0, 1.0, (n_rows, 2))
    U = p.solve_batch(P)
    for row, chi in zip(U, P):  # a row's snapshots do not depend on its batch
        assert np.array_equal(row, p.solve_batch(chi[None])[0])
    return _max_rel_gap(U, _heat_loc_by_splu_march(p, P))


@pytest.mark.parametrize("obs_times, t_cutoff", [
    ((0.03, 0.05, 0.08), 0.05),  # before, at and after the cutoff
    ((0.5,), 1.0),               # the source on throughout
])
@pytest.mark.parametrize("nx, ny", [(24, 24), (9, 13), (17, 11)])
def test_heat_loc_matches_splu_march(nx, ny, obs_times, t_cutoff):
    p = HeatSourceLocProblem(Grid2D(nx, ny), t_cutoff=t_cutoff, obs_times=obs_times)
    assert _heat_loc_gap(p, 4, nx) <= 1e-12


def test_heat_loc_map_is_cached_per_problem():
    # problems on one grid that differ only in t_cutoff or obs_times give
    # different snapshots, each matching its own march, cold and warm
    g = Grid2D(10, 10)
    problems = [HeatSourceLocProblem(g), HeatSourceLocProblem(g, t_cutoff=0.1),
                HeatSourceLocProblem(g, obs_times=(0.05, 0.2))]
    for seed, p in enumerate(problems + problems):  # second pass reads the cache
        assert _heat_loc_gap(p, 3, seed) <= 1e-12
    chi = [(0.3, 0.6)]
    (base, cut, late) = (p.solve_batch(chi)[0, 1] for p in problems)
    assert not np.allclose(base, cut) and not np.allclose(base, late)


# -- heat, source field --------------------------------------------------------


class _ManufacturedHeatField(HeatSourceFieldProblem):
    def initial_values(self):
        X, Y = self.grid.mesh()
        return (np.sin(PI * X) * np.sin(PI * Y)).ravel()


def test_heat_field_zero_everything():
    g = Grid2D(10, 10)
    p = HeatSourceFieldProblem(g, amplitude=0.0)
    (u,) = p.solve_batch(np.zeros((1, g.n_nodes)))
    assert np.all(u == 0.0)


def test_heat_field_is_affine_in_m():
    g = Grid2D(10, 10)
    p = HeatSourceFieldProblem(g, n_steps=20, amplitude=0.0)
    rng = np.random.default_rng(5)
    m1, m2 = rng.standard_normal((2, g.n_nodes))
    z = np.zeros(g.n_nodes)
    u0, ua, ub, uc = p.solve_batch(np.array([z, m1 + m2, m1, m2]))
    assert np.allclose(ua, ub + uc - u0, atol=1e-12)
    assert np.allclose(u0, 0.0)


def test_heat_field_manufactured_single_grid():
    g = Grid2D(17, 17)
    X, Y = g.mesh()
    base = (np.sin(PI * X) * np.sin(PI * Y)).ravel()
    p = _ManufacturedHeatField(g, n_steps=64)
    (u,) = p.solve_batch(((2 * PI**2 - 1) * base)[None])
    assert l2_error(g, u, math.exp(-1.0) * base) < 2e-3


def _heat_field_by_splu_march(p, M):
    """Reference: the backward-Euler march (I - dt L) u_n = u_{n-1} + dt
    exp(-n dt) m on the interior nodes, one SuperLU solve per step."""
    g = p.grid
    L = dirichlet_laplacian(g)
    dt = p.t_final / p.n_steps
    lu = spla.splu((sp.eye(L.shape[0]) - dt * L).tocsc())
    interior = np.zeros((g.nx, g.ny), dtype=bool)
    interior[1:-1, 1:-1] = True
    interior = interior.ravel()
    u = np.tile(p.initial_values()[interior], (len(M), 1)).T
    for n in range(1, p.n_steps + 1):
        u = lu.solve(u + dt * math.exp(-n * dt) * M[:, interior].T)
    final = np.zeros(M.shape)
    final[:, interior] = u.T
    return final


def _heat_field_gap(p, n_rows, seed):
    M = np.random.default_rng(seed).standard_normal((n_rows, p.grid.n_nodes))
    got = p.solve_batch(M)
    return _max_rel_gap(got, _heat_field_by_splu_march(p, M))


@pytest.mark.parametrize("nx, ny, n_rows", [(9, 9, 7), (24, 24, 7), (13, 17, 7),
                                            (3, 3, 7), (70, 70, 3)])
def test_heat_field_matches_splu_march(nx, ny, n_rows):
    # 13x17 has hx != hy; 3x3 has one interior node
    assert _heat_field_gap(HeatSourceFieldProblem(Grid2D(nx, ny)), n_rows, nx) <= 1e-12


def test_heat_field_map_is_cached_per_problem():
    # problems on one grid that differ in amplitude, n_steps or t_final, and a
    # subclass with its own initial state, each match their own march
    g = Grid2D(11, 11)
    problems = [HeatSourceFieldProblem(g), HeatSourceFieldProblem(g, amplitude=-3.0),
                HeatSourceFieldProblem(g, n_steps=7), HeatSourceFieldProblem(g, t_final=0.3),
                _ManufacturedHeatField(g)]
    for seed, p in enumerate(problems + problems):  # second pass reads the cache
        assert _heat_field_gap(p, 3, seed) <= 1e-12
    # the subclass's q, cached beside its parent's, is its own start decayed:
    # one sine mode, scaled by 1 / (1 + dt lam) a step, lam summed over both axes
    q_child = forward._heat_field_map(_ManufacturedHeatField(g))[1]
    X, Y = g.mesh()
    start = (np.sin(PI * X) * np.sin(PI * Y))[1:-1, 1:-1]
    lam = 4 * (1 - math.cos(PI * g.hx)) / g.hx**2
    assert np.allclose(q_child, start * (1 + lam / 50) ** -50, rtol=1e-12, atol=0)


def test_heat_field_default_initial_state():
    p = HeatSourceFieldProblem(Grid2D(9, 9))
    u0 = p.initial_values().reshape(9, 9)
    assert u0[4, 4] == pytest.approx(100.0 * math.sin(0.5) ** 2)
    # decays under diffusion with zero source
    (u,) = p.solve_batch(np.zeros((1, 81)))
    assert 0 < u.max() < u0.max()


# -- reaction-diffusion --------------------------------------------------------


def test_rd_preserves_constants():
    g = Grid2D(16, 16)
    (u,) = ReactionDiffusionProblem(g).solve_batch(np.full((1, g.n_nodes), 3.0))
    assert np.allclose(u, 3.0, atol=1e-10)


def test_rd_mass_conservation():
    g = Grid2D(24, 24)
    rng = np.random.default_rng(1)
    m0 = rng.standard_normal(g.n_nodes)
    (u,) = ReactionDiffusionProblem(g).solve_batch(m0[None])
    w = g.trapezoid_weights()
    drift = abs(w @ u - w @ m0) / abs(w @ m0)
    assert drift < 1e-12


def test_rd_is_linear_in_initial_state():
    g = Grid2D(12, 12)
    p = ReactionDiffusionProblem(g)
    rng = np.random.default_rng(2)
    m1, m2 = rng.standard_normal((2, g.n_nodes))
    ua, ub, uc = p.solve_batch(np.array([2.0 * m1 + m2, m1, m2]))
    assert np.allclose(ua, 2.0 * ub + uc, atol=1e-11)


def test_rd_rejects_nondividing_dt():
    g = Grid2D(8, 8)
    p = ReactionDiffusionProblem(g, dt=0.03)
    with pytest.raises(ValueError):
        p.solve_batch(np.ones((1, 64)))


def _rd_by_reference_march(p, M):
    """Reference: the Crank-Nicolson march of p's own operator, with
    SuperLU's default ordering."""
    g = p.grid
    A = p.kappa * neumann_laplacian(g) - advection_operator(g, *p.velocity())
    eye = sp.eye(g.n_nodes)
    lu = spla.splu((eye - 0.5 * p.dt * A).tocsc())
    M_ex = (eye + 0.5 * p.dt * A).tocsr()
    u = M.T
    for _ in range(round(p.t_final / p.dt)):
        u = lu.solve(M_ex @ u)
    return u.T


class _ReversedFlowProblem(ReactionDiffusionProblem):
    """The same transport with the velocity field negated."""

    def velocity(self):
        v1, v2 = super().velocity()
        return -v1, -v2


@pytest.mark.parametrize("nx, ny, kappa, dt", [
    (9, 13, 1 / 30, 0.02), (13, 9, 1 / 30, 0.02), (3, 5, 1 / 30, 0.02),  # hx != hy
    (24, 24, 1e-4, 0.02), (24, 24, 1e-6, 0.1),  # advection-dominated
])
def test_rd_matches_reference_march(nx, ny, kappa, dt):
    p = ReactionDiffusionProblem(Grid2D(nx, ny), kappa=kappa, dt=dt)
    M = np.random.default_rng(nx * ny).standard_normal((4, p.grid.n_nodes))
    U = p.solve_batch(M)
    assert _max_rel_gap(U, _rd_by_reference_march(p, M)) <= 1e-12
    w = p.grid.trapezoid_weights()
    assert np.abs(U @ w - M @ w).max() <= 1e-12 * np.abs(M @ w).max()


def test_rd_factor_is_cached_per_problem():
    # a subclass with its own velocity, on the same grid, kappa and dt as its
    # parent, marches its own operator on a cold cache and on a warm one
    g = Grid2D(10, 10)
    M = np.random.default_rng(3).standard_normal((3, g.n_nodes))
    problems = [ReactionDiffusionProblem(g), _ReversedFlowProblem(g)]
    forward._rd_factor.cache_clear()
    for p in problems + problems[::-1] + problems:  # passes 2 and 3 read the cache
        assert _max_rel_gap(p.solve_batch(M), _rd_by_reference_march(p, M)) <= 1e-12
    base, reversed_ = (p.solve_batch(M) for p in problems)
    assert _max_rel_gap(reversed_, base) > 1e-2


def test_heat_field_and_reaction_diffusion_are_affine():
    affine = {name: spec.problem_class.affine for name, spec in SPECS.items()}
    assert affine == {"darcy": False, "heat-loc": False, "heat-field": True,
                      "reaction-diffusion": True}


def _check_composed_forward_map(p):
    # s0 + Z @ S (the states of the zero field and of the basis rows) equals
    # the solve of the realized fields, on a cold cache and on a warm one,
    # with one ledger tick per row
    basis = build_kl_basis(p.grid, 16)
    Z = np.array([prior_draw(16, s) for s in range(7)])
    want = p.solve_batch(np.array([sample_field(basis, z) for z in Z]))
    forward._mode_states.cache_clear()
    led = Counter()
    for _ in range(2):
        assert _max_rel_gap(forward_map(p, basis, Z, led, "fem-uki"), want) <= 1e-12
    info = forward._mode_states.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert led == {"fem-uki": 14}


@pytest.mark.parametrize("n", [9, 24])
def test_rd_forward_map_composes_basis_states(n):
    _check_composed_forward_map(ReactionDiffusionProblem(Grid2D(n, n)))


@pytest.mark.parametrize("n", [9, 24, 70])
def test_heat_field_forward_map_composes_basis_states(n):
    _check_composed_forward_map(HeatSourceFieldProblem(Grid2D(n, n)))


def test_each_basis_object_gets_its_own_mode_states():
    # bases with equal values, or fewer modes, each march their own rows
    p = ReactionDiffusionProblem(Grid2D(9, 9))
    g = p.grid
    forward._mode_states.cache_clear()
    images = []
    for basis in (build_kl_basis(g, 8), build_kl_basis(g, 8), build_kl_basis(g, 5)):
        images.append(forward._mode_states(p, basis))
        assert forward._mode_states(p, basis) is images[-1]
    info = forward._mode_states.cache_info()
    assert (info.misses, info.hits) == (3, 3)
    # the zero field stays zero, so s0 + Z @ S rounds as Z @ S did
    assert not any(s0.any() for s0, _ in images)
    S = [S for _, S in images]
    assert S[0] is not S[1] and np.array_equal(S[0], S[1])
    assert S[2].shape == (5, g.n_nodes)
    assert _max_rel_gap(S[2], S[0][:5]) <= 1e-12


# -- forward map + accounting ---------------------------------------------------


def test_forward_map_dispatch_and_ledger():
    g = Grid2D(10, 10)
    basis = build_kl_basis(g, 8)
    Z = np.array([prior_draw(8, s) for s in (3, 4, 5)])
    led = Counter()
    U = forward_map(DarcyProblem(g), basis, Z[:1], ledger=led, category="offline")
    assert U.shape == (1, g.n_nodes) and U.dtype == np.float64
    pairs = forward_map(HeatSourceLocProblem(g, n_steps=20), None,
                        [(0.3, 0.4), (0.5, 0.5)], ledger=led, category="offline")
    assert pairs.shape == (2, 2, g.n_nodes)  # (rows, snapshot times, nodes)
    for problem in (HeatSourceFieldProblem(g, n_steps=10), ReactionDiffusionProblem(g)):
        U = forward_map(problem, basis, Z, ledger=led, category="anchor")
        assert U.shape == (3, g.n_nodes)
    assert led == {"offline": 3, "anchor": 6}
    assert led.total() == 9


def _max_rel_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("name", list(SPECS))
def test_forward_map_matches_direct_solver(name):
    # Darcy's Cholesky runs per row and heat-loc's closed form is the same
    # matmuls for every row: both bit-identical to one-row batches.
    # heat-field and reaction-diffusion compose basis-row states, which may
    # round differently from a batch of one.
    spec = SPECS[name]
    p = spec.build(12)
    if spec.point is None:
        basis = build_kl_basis(p.grid, 8)
        Z = np.array([prior_draw(8, s) for s in range(5)])
        params = np.array([sample_field(basis, z) for z in Z])
    else:
        basis = None
        Z = np.random.default_rng(0).uniform(0.2, 0.8, (5, len(spec.point.truth)))
        params = Z
    states = forward_map(p, basis, Z)
    assert len(states) == 5
    given = params.copy()
    for got, param in zip(states, params):
        (want,) = p.solve_batch(param[None])
        if p.affine:
            assert _max_rel_gap(got, want) <= 1e-12
        else:
            assert np.array_equal(got, want)
    assert np.array_equal(params, given)  # a solve leaves its input as it was


def test_forward_map_keeps_a_failed_darcy_row_in_place():
    g = Grid2D(10, 10)
    basis = build_kl_basis(g, 8)
    Z = np.array([prior_draw(8, 1), np.full(8, 1e4), prior_draw(8, 2)])  # row 1 overflows
    led = Counter()
    states = forward_map(DarcyProblem(g), basis, Z, led, "fem-uki")
    assert np.all(np.isnan(states[1]))
    for i in (0, 2):
        (want,) = DarcyProblem(g).solve_batch(sample_field(basis, Z[i])[None])
        assert np.array_equal(states[i], want)
    assert led == {"fem-uki": 3}  # every row attempted and counted


def _desk_problem(name):
    """(problem, basis, Z-sampler) of a desk preset; the basis is None for a
    point parameter, whose rows are drawn from its prior box."""
    cfg = preset(name)
    p = cfg.spec.build(cfg.grid)
    if cfg.spec.point is not None:
        return p, None, lambda rng, n: rng.uniform(*cfg.spec.point.box, (n, cfg.n_dim))
    return p, build_kl_basis(p.grid, cfg.n_modes), lambda rng, n: rng.standard_normal(
        (n, cfg.n_modes))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["darcy", "heat-loc"])
def test_forward_map_blocks_match_batches_of_one(name):
    # two blocks and three rows, the first row of the second block failing
    # (a field past exp's range; a NaN source center): every row equals its
    # own batch of one bit for bit, the failed row is NaN in its place, and
    # nothing warns
    p, basis, draw = _desk_problem(name)
    n, bad = 2 * forward._BLOCK + 3, forward._BLOCK
    Z = draw(np.random.default_rng(0), n)
    Z[bad] = 1e4 if basis is not None else np.nan
    led = Counter()
    states = forward_map(p, basis, Z, led, "fem-uki")
    rows = Z if basis is None else sample_field(basis, Z)
    want = np.concatenate([p.solve_batch(row[None]) for row in rows])
    assert states.shape == want.shape
    assert np.array_equal(states.view(np.uint64), want.view(np.uint64))
    failed = ~np.isfinite(states.reshape(n, -1)).all(axis=1)
    assert np.flatnonzero(failed).tolist() == [bad]
    assert np.isnan(states[bad]).all()
    assert led == {"fem-uki": n}  # each row counted once


def _traced(fn):
    """(result, traced peak bytes) of fn(); numpy reports its buffers."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_map_memory_is_one_block_beyond_its_output():
    # the working set of a long Darcy batch is its output plus one block's,
    # not a multiple of the batch
    p, basis, draw = _desk_problem("darcy")
    rng = np.random.default_rng(1)
    Z1, Z8 = draw(rng, forward._BLOCK), draw(rng, 8 * forward._BLOCK)
    forward_map(p, basis, Z1)  # warm the solver's caches
    _, one_block = _traced(lambda: forward_map(p, basis, Z1))
    U, peak = _traced(lambda: forward_map(p, basis, Z8))
    assert peak < U.nbytes + 2 * one_block


def test_forward_map_rejects_unknown_problem():
    with pytest.raises(TypeError):
        forward_map(object(), build_kl_basis(Grid2D(4, 4), 2), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        forward_map(HeatSourceLocProblem(Grid2D(6, 6)), None, np.zeros(2))

