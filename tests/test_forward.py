import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, solveh_banded

from opinv import forward
from opinv.config import SPECS
from opinv.forward import (
    DarcyProblem,
    EvalLedger,
    HeatSourceFieldProblem,
    HeatSourceLocProblem,
    ReactionDiffusionProblem,
    SolverError,
    advection_operator,
    darcy_band,
    forward_map,
    neumann_laplacian,
    solve_darcy,
    solve_heat_loc,
)
from opinv.grf import Grid2D, build_kl_basis, sample_field

PI = math.pi


def l2_error(grid, values, exact):
    w = grid.trapezoid_weights()
    return math.sqrt(w @ (values - exact) ** 2)


def prior_draw(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


# -- operators ---------------------------------------------------------------


def test_neumann_laplacian_annihilates_constants_and_mass():
    g = Grid2D(9, 7)
    L = neumann_laplacian(g)
    w = g.trapezoid_weights()
    assert np.abs(L @ np.ones(g.n_nodes)).max() < 1e-12
    assert np.abs(w @ L).max() < 1e-12  # exact discrete conservation


def test_advection_operator_conserves_for_any_velocity():
    g = Grid2D(8, 8)
    rng = np.random.default_rng(0)
    v1 = rng.standard_normal((8, 8))
    v2 = rng.standard_normal((8, 8))
    A = advection_operator(g, v1, v2)
    w = g.trapezoid_weights()
    assert np.abs(w @ A).max() < 1e-12


def advection_by_face_loop(grid, v1, v2):
    """Oracle for advection_operator: the face fluxes assembled one face at a
    time as COO triplets, duplicates summed on conversion to CSR."""
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
    got = advection_operator(g, v1, v2)
    assert abs(got - want).max() <= 1e-13 * abs(want).max()


def test_rotating_velocity_is_discretely_divergence_free():
    g = Grid2D(13, 13)
    p = ReactionDiffusionProblem(g)
    A = advection_operator(g, *p.velocity())
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
    u = solve_darcy(_ManufacturedDarcy(g), np.zeros(g.n_nodes))
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

    u = solve_darcy(P(g), (X + Y).ravel())
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
    u = solve_darcy(DarcyProblem(g), sample_field(b, prior_draw(16, 11)).values)
    assert u.min() > -1e-10  # discrete maximum principle (M-matrix)


def test_darcy_prior_draw_magnitude():
    # banded kilo-scale source with exp(prior draw) conductivity: state peaks
    # in the tens-to-low-hundreds range
    g = Grid2D(70, 70)
    b = build_kl_basis(g, 128)
    u = solve_darcy(DarcyProblem(g), sample_field(b, prior_draw(128, 0)).values)
    assert 10.0 < u.max() < 500.0


def test_darcy_rejects_overflowing_coefficient():
    g = Grid2D(8, 8)
    with pytest.raises(SolverError):
        solve_darcy(DarcyProblem(g), np.full(64, 800.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("level", [400.0, 709.0])
def test_darcy_rejects_overflowing_face_conductance(level):
    # exp(m) is finite, but the harmonic face mean 2pq/(p+q) overflows:
    # to inf at m = 400, to inf/inf = NaN at m = 709.  Nothing may warn.
    g = Grid2D(8, 8)
    with pytest.raises(SolverError, match="face conductance"):
        solve_darcy(DarcyProblem(g), np.full(64, level))


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


def _band_to_dense(ab):
    """Symmetric matrix of LAPACK upper band storage."""
    u, n = ab.shape[0] - 1, ab.shape[1]
    A = np.zeros((n, n))
    for d in range(u + 1):
        i = np.arange(n - d)
        A[i, i + d] = A[i + d, i] = ab[u - d, d:]
    return A


def _darcy_case(n, seed):
    g = Grid2D(n, n + 3)
    return DarcyProblem(g), sample_field(build_kl_basis(g, 16), 2.0 * prior_draw(16, seed)).values


def test_darcy_band_is_bit_identical_to_coo_assembly():
    for n, seed in ((9, 0), (13, 1), (24, 2)):
        problem, m = _darcy_case(n, seed)
        A, _ = _darcy_by_coo_assembly(problem, m)
        ab = darcy_band(problem, m)
        assert ab.shape == (n + 2, (n - 2) * (n + 1))  # (ny - 1, interior nodes)
        assert np.array_equal(_band_to_dense(ab), A.toarray())


def test_darcy_solve_matches_coo_splu_reference():
    for n, seed in ((9, 0), (13, 1), (24, 2), (70, 3)):
        problem, m = _darcy_case(n, seed)
        A, interior = _darcy_by_coo_assembly(problem, m)
        want = np.zeros(problem.grid.n_nodes)
        want[interior] = spla.splu(A.tocsc()).solve(problem.source_values()[interior])
        got = solve_darcy(problem, m)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_darcy_factorization_failure_is_a_solver_error(monkeypatch):
    # row 1's factorization fails: a SolverError, which leaves row 1 of the
    # batch NaN while the other rows are solved
    g = Grid2D(10, 10)
    basis = build_kl_basis(g, 8)
    Z = np.array([prior_draw(8, s) for s in (1, 2, 3)])
    want = forward_map(DarcyProblem(g), basis, Z)
    bad = darcy_band(DarcyProblem(g), sample_field(basis, Z[1]).values)

    def solveh(ab, b, **kw):
        if np.array_equal(ab, bad):
            raise LinAlgError("2-th leading minor not positive definite")
        return solveh_banded(ab, b, **kw)

    monkeypatch.setattr(forward, "solveh_banded", solveh)
    with pytest.raises(SolverError, match="banded Cholesky"):
        solve_darcy(DarcyProblem(g), sample_field(basis, Z[1]).values)
    states = forward_map(DarcyProblem(g), basis, Z)
    assert states.shape == (3, g.n_nodes)
    assert np.all(np.isnan(states[1]))
    for i in (0, 2):
        assert np.array_equal(states[i], want[i])


def test_darcy_residual_check_raises(monkeypatch):
    g = Grid2D(10, 10)
    m = sample_field(build_kl_basis(g, 8), prior_draw(8, 1)).values
    monkeypatch.setattr(forward, "solveh_banded",
                        lambda ab, b, **kw: solveh_banded(ab, b, **kw) * (1 + 1e-8))
    with pytest.raises(SolverError, match="residual"):
        solve_darcy(DarcyProblem(g), m)


def test_darcy_grid_mismatch():
    with pytest.raises(ValueError):
        solve_darcy(DarcyProblem(Grid2D(8, 8)), np.zeros(36))
    with pytest.raises(ValueError):
        DarcyProblem(Grid2D(8, 8)).solve_batch(np.zeros((2, 36)))


# -- heat, source location ----------------------------------------------------


def test_heat_loc_zero_strength_gives_zero_state():
    p = HeatSourceLocProblem(Grid2D(12, 12), strength=0.0)
    u1, u2 = solve_heat_loc(p, (0.4, 0.7))
    assert np.all(u1 == 0.0)
    assert np.all(u2 == 0.0)


def test_heat_loc_mass_budget_and_conservation():
    g = Grid2D(24, 24)
    p = HeatSourceLocProblem(g)
    u1, u2 = solve_heat_loc(p, (0.2, 0.2))
    w = g.trapezoid_weights()
    src_mass = w @ p.source_values((0.2, 0.2))
    # backward Euler adds dt * (source mass) per active step, exactly
    assert w @ u1 == pytest.approx(p.t_cutoff * src_mass, rel=1e-12)
    # source off after the cutoff: total heat frozen
    assert w @ u2 == pytest.approx(w @ u1, rel=1e-12)


def test_heat_loc_state_peaks_near_source():
    g = Grid2D(25, 25)
    u1, _ = solve_heat_loc(HeatSourceLocProblem(g), (0.25, 0.75))
    k = int(np.argmax(u1))
    x, y = g.nodes()[k]
    assert abs(x - 0.25) <= 2 * g.hx and abs(y - 0.75) <= 2 * g.hy


def test_heat_loc_rejects_off_step_observation_time():
    p = HeatSourceLocProblem(Grid2D(8, 8), obs_times=(0.07, 0.15), n_steps=10)
    with pytest.raises(ValueError):
        solve_heat_loc(p, (0.5, 0.5))


def test_heat_loc_rejects_bad_chi():
    with pytest.raises(ValueError):
        solve_heat_loc(HeatSourceLocProblem(Grid2D(8, 8)), (0.1, 0.2, 0.3))


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


def test_rd_stepper_is_cached_per_problem():
    # a subclass with its own velocity, on the same grid, kappa and dt as its
    # parent, marches its own operator on a cold cache and on a warm one
    g = Grid2D(10, 10)
    M = np.random.default_rng(3).standard_normal((3, g.n_nodes))
    problems = [ReactionDiffusionProblem(g), _ReversedFlowProblem(g)]
    forward._rd_stepper.cache_clear()
    for p in problems + problems[::-1] + problems:  # passes 2 and 3 read the cache
        assert _max_rel_gap(p.solve_batch(M), _rd_by_reference_march(p, M)) <= 1e-12
    base, reversed_ = (p.solve_batch(M) for p in problems)
    assert _max_rel_gap(reversed_, base) > 1e-2


def test_only_reaction_diffusion_is_linear():
    linear = {name: spec.problem_class.linear for name, spec in SPECS.items()}
    assert linear == {"darcy": False, "heat-loc": False, "heat-field": False,
                      "reaction-diffusion": True}


@pytest.mark.parametrize("n", [9, 24])
def test_rd_forward_map_composes_basis_states(n):
    # Z @ (states of the basis rows) equals the march of the realized fields,
    # on a cold cache and on a warm one, with one ledger tick per row
    p = ReactionDiffusionProblem(Grid2D(n, n))
    basis = build_kl_basis(p.grid, 16)
    Z = np.array([prior_draw(16, s) for s in range(7)])
    want = p.solve_batch(np.array([sample_field(basis, z).values for z in Z]))
    forward._mode_states.cache_clear()
    led = EvalLedger()
    for _ in range(2):
        assert _max_rel_gap(forward_map(p, basis, Z, led, "fem-uki"), want) <= 1e-12
    info = forward._mode_states.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert led.counts == {"fem-uki": 14}


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
    assert images[0] is not images[1] and np.array_equal(images[0], images[1])
    assert images[2].shape == (5, g.n_nodes)
    assert _max_rel_gap(images[2], images[0][:5]) <= 1e-12


# -- forward map + accounting ---------------------------------------------------


def test_forward_map_dispatch_and_ledger():
    g = Grid2D(10, 10)
    basis = build_kl_basis(g, 8)
    Z = np.array([prior_draw(8, s) for s in (3, 4, 5)])
    led = EvalLedger()
    U = forward_map(DarcyProblem(g), basis, Z[:1], ledger=led, category="offline")
    assert U.shape == (1, g.n_nodes) and U.dtype == np.float64
    pairs = forward_map(HeatSourceLocProblem(g, n_steps=20), None,
                        [(0.3, 0.4), (0.5, 0.5)], ledger=led, category="offline")
    assert pairs.shape == (2, 2, g.n_nodes)  # (rows, snapshot times, nodes)
    for problem in (HeatSourceFieldProblem(g, n_steps=10), ReactionDiffusionProblem(g)):
        U = forward_map(problem, basis, Z, ledger=led, category="anchor")
        assert U.shape == (3, g.n_nodes)
    assert led.counts == {"offline": 3, "anchor": 6}
    assert led.total() == 9


def _max_rel_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# per-row kernels of the problems that solve one row at a time
KERNELS = {DarcyProblem: solve_darcy, HeatSourceLocProblem: solve_heat_loc}


@pytest.mark.parametrize("name", list(SPECS))
def test_forward_map_matches_direct_solver(name):
    # Darcy and heat-loc solve row by row: bit-identical to their kernel.
    # heat-field maps the batch with dense matmuls, and reaction-diffusion
    # composes basis-row states; both may round differently from a batch of one.
    spec = SPECS[name]
    p = spec.build(12)
    if spec.point is None:
        basis = build_kl_basis(p.grid, 8)
        Z = np.array([prior_draw(8, s) for s in range(5)])
        params = np.array([sample_field(basis, z).values for z in Z])
    else:
        basis = None
        Z = np.random.default_rng(0).uniform(0.2, 0.8, (5, len(spec.point.truth)))
        params = Z
    states = forward_map(p, basis, Z)
    assert len(states) == 5
    kernel = KERNELS.get(spec.problem_class)
    for got, param in zip(states, params):
        if kernel is not None:
            assert np.array_equal(got, kernel(p, param))
        else:
            (want,) = p.solve_batch(param[None])
            assert _max_rel_gap(got, want) <= 1e-12


def test_forward_map_keeps_a_failed_darcy_row_in_place():
    g = Grid2D(10, 10)
    basis = build_kl_basis(g, 8)
    Z = np.array([prior_draw(8, 1), np.full(8, 1e4), prior_draw(8, 2)])  # row 1 overflows
    led = EvalLedger()
    states = forward_map(DarcyProblem(g), basis, Z, led, "fem-uki")
    assert np.all(np.isnan(states[1]))
    for i in (0, 2):
        want = solve_darcy(DarcyProblem(g), sample_field(basis, Z[i]).values)
        assert np.array_equal(states[i], want)
    assert led.counts == {"fem-uki": 3}  # every row attempted and counted


def test_forward_map_rejects_unknown_problem():
    with pytest.raises(TypeError):
        forward_map(object(), build_kl_basis(Grid2D(4, 4), 2), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        forward_map(HeatSourceLocProblem(Grid2D(6, 6)), None, np.zeros(2))

