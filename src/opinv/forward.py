"""Full-order PDE solvers on the unit square and the parameter-to-state map.

Four benchmark problems share the grid conventions of :mod:`opinv.grf`:

* Darcy flow: ``-div(exp(m) grad u) = f`` with zero Dirichlet walls and a
  piecewise-constant source banded in the y coordinate, solved by banded
  Cholesky.
* Heat with unknown source location: ``u_t - lap u = f(x; chi, t)`` with zero
  Neumann walls, zero initial state, and a Gaussian bump source switched off
  after a cutoff time; the state is kept at two snapshot times.
* Heat with unknown source field: ``u_t - lap u = exp(-t) m(x)`` with zero
  Dirichlet walls, fixed oscillatory initial state; state kept at t=1,
  solved in closed form in the sine basis that diagonalizes the Laplacian.
* Reaction-diffusion transport of an unknown initial state by a fixed
  divergence-free velocity, zero-flux walls, Crank-Nicolson in time.

Each problem's ``solve_batch`` maps a (B, n) array of parameters to a float
array of states, one row per parameter: (B, n_nodes), or (B, len(obs_times),
n_nodes) for a problem that keeps snapshots.  A solve that fails leaves its
row NaN.  Heat-field maps the whole batch with a few dense matmuls, and
reaction-diffusion marches it with multi-column SuperLU solves.  Darcy solves
one row at a time, as each field has its own matrix.  So does heat-loc: its
rows share one matrix, but a multi-column sparse solve need not round each
column as a single solve does.

Each problem class also declares ``linear``: whether its state is a linear
map of its parameter field.  Only reaction-diffusion's is.  On a KL basis,
``forward_map`` composes such a problem's states from the states of the
basis rows, marched once per (problem, basis), instead of realizing and
marching every row.

Diffusion under Neumann walls and the advection term both use node-centered
finite-volume stencils (half cells at the walls) whose weighted column sums
vanish, so the trapezoid-rule mass ``w.T u`` is conserved exactly by the time
steppers up to linear-solver roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, solveh_banded

from opinv.grf import Grid2D, KLBasis, sample_field


class SolverError(RuntimeError):
    """A linear solve failed or produced an untrustworthy solution."""


def _rows(P, grid: Grid2D) -> np.ndarray:
    """A (B, n_nodes) batch of nodal values on ``grid``, one field per row."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != grid.n_nodes:
        raise ValueError(f"expected a (B, {grid.n_nodes}) batch, got shape {P.shape}")
    return P


# ---------------------------------------------------------------------------
# discrete operators


@lru_cache(maxsize=16)
def _interior_index(grid: Grid2D):
    """Flat index (into all nodes) of the interior nodes, x-major."""
    idx = (np.arange(1, grid.nx - 1)[:, None] * grid.ny + np.arange(1, grid.ny - 1)).ravel()
    idx.flags.writeable = False
    return idx


def _stiffness_1d(n: int, h: float) -> sp.csr_matrix:
    """Symmetric FV stiffness for zero-flux walls: unit conductance faces."""
    main = np.full(n, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def _weights_1d(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


def _neumann_stiffness(grid: Grid2D):
    """(K, D): symmetric zero-flux FV stiffness and diagonal trapezoid mass."""
    Dx = sp.diags(_weights_1d(grid.nx, grid.hx))
    Dy = sp.diags(_weights_1d(grid.ny, grid.hy))
    K = (sp.kron(_stiffness_1d(grid.nx, grid.hx), Dy)
         + sp.kron(Dx, _stiffness_1d(grid.ny, grid.hy)))
    return K, sp.kron(Dx, Dy)


def neumann_laplacian(grid: Grid2D) -> sp.csr_matrix:
    """Node-centered FV Laplacian with zero-flux walls, acting on all nodes.

    Equals the ghost-point 5-point stencil; with D = diag(trapezoid weights)
    it is -D^{-1} K for a symmetric stiffness K, so w.T lap = 0 exactly.
    """
    K, _ = _neumann_stiffness(grid)
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


# ---------------------------------------------------------------------------
# Darcy flow


@dataclass(frozen=True)
class DarcyProblem:
    """-div(exp(m) grad u) = f, u = 0 on the boundary.

    The source is constant on three horizontal bands of the y coordinate:
    ``levels[0]`` for y <= edges[0], ``levels[1]`` for edges[0] < y <=
    edges[1], ``levels[2]`` above.
    """

    grid: Grid2D
    levels: tuple = (1000.0, 2000.0, 3000.0)
    edges: tuple = (4.0 / 6.0, 5.0 / 6.0)
    obs_times = ()  # one state, the steady solution
    linear = False

    def solve_batch(self, P) -> np.ndarray:
        """(B, n_nodes) states of a (B, n_nodes) batch of log-conductivities:
        one banded Cholesky solve per row; a failed solve leaves its row NaN."""
        P = _rows(P, self.grid)
        U = np.full(P.shape, np.nan)
        for u, m in zip(U, P):
            try:
                u[:] = solve_darcy(self, m)
            except SolverError:
                pass
        return U

    def source_values(self) -> np.ndarray:
        _, Y = self.grid.mesh()
        f = np.full_like(Y, self.levels[0])
        f[Y > self.edges[0]] = self.levels[1]
        f[Y > self.edges[1]] = self.levels[2]
        return f.ravel()

    @cached_property
    def interior_source(self) -> np.ndarray:
        """Right-hand side of the interior system (walls hold u = 0)."""
        b = self.source_values()[_interior_index(self.grid)]
        b.flags.writeable = False
        return b


def darcy_band(problem: DarcyProblem, m: np.ndarray) -> np.ndarray:
    """Upper band storage (LAPACK "U", shape (ny-1, (nx-2)(ny-2)), x-major)
    of the interior 5-point system for nodal log-conductivity m: row ny-2 holds
    the diagonal, row ny-3 the north/south couplings at offset 1 (zero where
    an x-line starts), row 0 the east/west couplings at offset ny-2.  Faces
    take the harmonic mean of exp(m); raises SolverError if one is not finite.
    """
    g = problem.grid

    def harm(p, q):
        return 2.0 * p * q / (p + q)

    # past exp(m) ~ 1e154, 2pq overflows (inf) or p + q too (inf/inf = NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.exp(np.reshape(m, (g.nx, g.ny)))
        ax = harm(a[:-1, :], a[1:, :])  # face (i,j)-(i+1,j), shape (nx-1, ny)
        ay = harm(a[:, :-1], a[:, 1:])  # face (i,j)-(i,j+1), shape (nx, ny-1)
    if not (np.isfinite(ax).all() and np.isfinite(ay).all()):
        raise SolverError("face conductance not finite: exp(m) out of range")
    # conductances of the four faces of each interior node, shape (nx-2, ny-2)
    aE = ax[1:, 1:-1] / g.hx**2
    aW = ax[:-1, 1:-1] / g.hx**2
    aN = ay[1:-1, 1:] / g.hy**2
    aS = ay[1:-1, :-1] / g.hy**2
    # couple to interior neighbors only; boundary neighbors hold u = 0
    nyi = g.ny - 2
    ab = np.zeros((nyi + 1, aE.size))
    ab[nyi] = (aE + aW + aN + aS).ravel()
    ab[nyi - 1].reshape(aE.shape)[:, 1:] = -aN[:, :-1]
    ab[0, nyi:] = -aE[:-1].ravel()
    return ab


def solve_darcy(problem: DarcyProblem, m: np.ndarray) -> np.ndarray:
    """Nodal state of the Darcy problem for nodal log-conductivity m: a banded
    Cholesky (LAPACK ``pbsv``) of ``darcy_band``; raises SolverError if it is
    not positive definite or leaves a relative residual above 1e-10."""
    g = problem.grid
    ab = darcy_band(problem, m)
    b = problem.interior_source
    try:
        u_int = solveh_banded(ab, b, lower=False, check_finite=False)
    except LinAlgError as err:
        raise SolverError(f"banded Cholesky failed: {err}") from err
    # residual by a band matvec on offsets 0, 1 and ny-2 (a set: ny-2 may be 1)
    nyi = ab.shape[0] - 1
    r = ab[nyi] * u_int - b
    for d in {1, nyi}:
        r[:-d] += ab[nyi - d, d:] * u_int[d:]
        r[d:] += ab[nyi - d, d:] * u_int[:-d]
    res = np.linalg.norm(r) / np.linalg.norm(b)
    if not np.isfinite(res) or res > 1e-10:
        raise SolverError(f"Darcy solve residual {res:.3e} above 1e-10")
    u = np.zeros(g.n_nodes)
    u[_interior_index(g)] = u_int
    return u


# ---------------------------------------------------------------------------
# heat equations (implicit Euler)


@lru_cache(maxsize=16)
def _neumann_heat_solver(nx: int, ny: int, dt: float):
    """Factorized (D + dt K) for one backward-Euler step with zero-flux walls."""
    g = Grid2D(nx, ny)
    K, D = _neumann_stiffness(g)
    return spla.splu((D + dt * K).tocsc()), g.trapezoid_weights()


@dataclass(frozen=True)
class HeatSourceLocProblem:
    """Heat equation driven by a Gaussian bump at unknown center chi.

    Source ``(strength / (2 pi width^2)) exp(-|chi - x|^2 / (2 width^2))``
    is active for t <= t_cutoff (inclusive at the cutoff step) and zero
    afterwards; walls are zero-flux and the initial state is zero.  The state
    is recorded at obs_times, both of which must land on step boundaries of
    the unit-horizon step size 1/n_steps.
    """

    grid: Grid2D
    strength: float = 5.0
    width: float = 0.1
    t_cutoff: float = 0.05
    obs_times: tuple = (0.05, 0.15)
    n_steps: int = 100
    linear = False

    def source_values(self, chi) -> np.ndarray:
        X, Y = self.grid.mesh()
        r2 = (X - chi[0]) ** 2 + (Y - chi[1]) ** 2
        amp = self.strength / (2.0 * math.pi * self.width**2)
        return (amp * np.exp(-r2 / (2.0 * self.width**2))).ravel()

    def solve_batch(self, P) -> np.ndarray:
        """(B, len(obs_times), n_nodes) snapshots of a (B, 2) batch of
        centers chi, solved one at a time."""
        return np.array([solve_heat_loc(self, chi) for chi in P])


def solve_heat_loc(problem: HeatSourceLocProblem, chi) -> np.ndarray:
    """(len(obs_times), n_nodes) states at the observation times for source
    center chi: a backward-Euler march from u = 0 with zero-flux walls, the
    constant source on for t <= t_cutoff and off afterwards."""
    chi = np.asarray(chi, dtype=float).ravel()
    if chi.size != 2:
        raise ValueError("chi must be a 2-vector")
    g = problem.grid
    dt = 1.0 / problem.n_steps
    steps = []
    for t in problem.obs_times:
        k = t / dt
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"observation time {t} not on a step boundary")
        steps.append(int(round(k)))
    src = dt * problem.source_values(chi)
    lu, w = _neumann_heat_solver(g.nx, g.ny, dt)
    u = np.zeros(g.n_nodes)
    snaps = {}
    for n in range(1, max(steps) + 1):
        if n * dt <= problem.t_cutoff + 1e-12:
            u = u + src
        u = lu.solve(w * u)
        if n in steps:
            snaps[n] = u
    return np.array([snaps[k] for k in steps])


@dataclass(frozen=True)
class HeatSourceFieldProblem:
    """Heat equation driven by exp(-t) m(x), zero Dirichlet walls.

    The nominal initial state is ``amplitude sin(x) sin(y)`` (radians, no pi
    factor); because it does not vanish at the walls, it is imposed at the
    interior nodes while the walls hold u = 0 for t > 0.  The n_steps
    backward-Euler steps are solved in closed form (``_heat_field_map``).
    """

    grid: Grid2D
    t_final: float = 1.0
    n_steps: int = 50
    amplitude: float = 100.0
    obs_times = ()  # one state, at t_final
    linear = False  # affine in m: the initial state adds a fixed term

    def initial_values(self) -> np.ndarray:
        X, Y = self.grid.mesh()
        return (self.amplitude * np.sin(X) * np.sin(Y)).ravel()

    def solve_batch(self, P) -> np.ndarray:
        """(B, n_nodes) states at t_final of a (B, n_nodes) batch of source
        fields m: ``q + Sx (b * (Sx.T m Sy)) Sy.T`` on the interior nodes;
        the walls hold u = 0."""
        g = self.grid
        b, q, Sx, Sy = _heat_field_map(self)
        M = _rows(P, g).reshape(-1, g.nx, g.ny)[:, 1:-1, 1:-1]
        final = np.zeros((len(M), g.nx, g.ny))
        final[:, 1:-1, 1:-1] = q + Sx @ (b * (Sx.T @ M @ Sy)) @ Sy.T
        return final.reshape(len(M), -1)


def _sine_modes(n: int):
    """(S, lam): orthonormal sine matrix of an axis' n interior nodes and the
    eigenvalues of its Dirichlet second difference, -S diag(lam) S.T."""
    k = np.arange(1, n + 1)
    S = math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * np.outer(k, k) / (n + 1))
    return S, (2 * (n + 1) * np.sin(math.pi * k / (2 * (n + 1)))) ** 2


@lru_cache(maxsize=16)
def _heat_field_map(problem: HeatSourceFieldProblem):
    """(b, q, Sx, Sy): a step ``u <- (I - dt L)^-1 (u + dt exp(-n dt) m)``
    scales sine mode (i, j) by ``1 / (1 + dt (lam_x_i + lam_y_j))``, so b is
    each mode's gain on m over the march and q the interior state that the
    initial values alone reach.  Keyed on the problem, not its grid, as a
    subclass may override initial_values."""
    g = problem.grid
    (Sx, lx), (Sy, ly) = _sine_modes(g.nx - 2), _sine_modes(g.ny - 2)
    dt = problem.t_final / problem.n_steps
    step = 1.0 / (1.0 + dt * (lx[:, None] + ly[None, :]))
    u = Sx.T @ problem.initial_values().reshape(g.nx, g.ny)[1:-1, 1:-1] @ Sy
    b = np.zeros_like(step)
    for n in range(1, problem.n_steps + 1):
        u *= step
        b = step * (b + dt * math.exp(-n * dt))
    return b, Sx @ u @ Sy.T, Sx, Sy


# ---------------------------------------------------------------------------
# reaction-diffusion transport


@dataclass(frozen=True)
class ReactionDiffusionProblem:
    """u_t = kappa lap u - v . grad u with zero-flux walls, u(0) = m.

    v = (sin(pi x) cos(pi y), -cos(pi x) sin(pi y)) is divergence-free and
    tangential at the walls, so v . grad u = div(v u) and the conservative
    central discretization keeps the discrete mass exactly.
    """

    grid: Grid2D
    kappa: float = 1.0 / 30.0
    t_final: float = 1.0
    dt: float = 0.02
    obs_times = ()  # one state, at t_final
    linear = True

    def velocity(self):
        X, Y = self.grid.mesh()
        v1 = np.sin(math.pi * X) * np.cos(math.pi * Y)
        v2 = -np.cos(math.pi * X) * np.sin(math.pi * Y)
        return v1, v2

    def solve_batch(self, P) -> np.ndarray:
        """(B, n_nodes) states at t_final of a (B, n_nodes) batch of initial
        states: a Crank-Nicolson march of all rows together."""
        g = self.grid
        M = _rows(P, g)
        n_steps = self.t_final / self.dt
        if abs(n_steps - round(n_steps)) > 1e-9:
            raise ValueError("dt must divide t_final")
        lu, M_ex = _rd_stepper(self)
        u = M.T.copy()
        for _ in range(int(round(n_steps))):
            u = lu.solve(M_ex @ u)
        return u.T


@lru_cache(maxsize=8)
def _rd_stepper(problem: ReactionDiffusionProblem):
    """(splu of M_im, M_ex) of one Crank-Nicolson step.  Keyed on the
    problem, not its grid, as a subclass may override velocity."""
    g, dt = problem.grid, problem.dt
    A = problem.kappa * neumann_laplacian(g) - advection_operator(g, *problem.velocity())
    n = g.n_nodes
    M_im = (sp.eye(n) - 0.5 * dt * A).tocsc()
    M_ex = (sp.eye(n) + 0.5 * dt * A).tocsr()
    # symmetric pattern: order on A + A.T (less fill than the default COLAMD)
    return spla.splu(M_im, permc_spec="MMD_AT_PLUS_A"), M_ex


# ---------------------------------------------------------------------------
# parameter-to-state map and evaluation accounting


class EvalLedger:
    """Tally of full-order forward evaluations by category."""

    def __init__(self):
        self._counts: dict[str, int] = {}

    def add(self, category: str, n: int = 1) -> None:
        self._counts[category] = self._counts.get(category, 0) + n

    @property
    def counts(self) -> dict:
        return dict(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())


@lru_cache(maxsize=1)
def _mode_states(problem, basis: KLBasis) -> np.ndarray:
    """States of the basis rows ``sqrt(lambda_k) psi_k`` under a linear
    problem, one row per mode: the state of ``z @ W`` is ``z @`` this.
    Keyed on the problem and on the basis object itself; one entry, as each
    run builds its own basis and an older entry would only hold memory."""
    return problem.solve_batch(basis.weighted_modes)


def forward_map(problem, basis: KLBasis | None, Z, ledger: EvalLedger | None = None,
                category: str = "forward") -> np.ndarray:
    """Full-order parameter-to-state map on a (B, n) batch: one state per
    row of Z, NaN where a solve failed, and one ledger tick per row, failed
    rows included.  Rows are KL
    coefficients on ``basis``, or with ``basis`` None parameters used as is
    (such as heat-loc's source centers).  A ``linear`` problem's states are
    composed, ``Z @ _mode_states(problem, basis)``; any other problem solves
    each row realized as a field, one ``z @ W`` per row."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise ValueError(f"parameter batch must be (B, n), got shape {Z.shape}")
    if not hasattr(problem, "solve_batch"):
        raise TypeError(f"unknown problem type {type(problem).__name__}")
    if ledger is not None:
        ledger.add(category, len(Z))
    if basis is None:
        return problem.solve_batch(Z)
    if problem.linear:
        return Z @ _mode_states(problem, basis)
    return problem.solve_batch(np.array([sample_field(basis, z).values for z in Z]))
