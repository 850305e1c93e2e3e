"""Full-order PDE solvers on the unit square and the parameter-to-state map.

Four benchmark problems share the grid conventions of :mod:`opinv.grf`:

* Darcy flow: ``-div(exp(m) grad u) = f`` with zero Dirichlet walls and a
  piecewise-constant source banded in the y coordinate, solved by banded
  Cholesky.
* Heat with unknown source location: ``u_t - lap u = f(x; chi, t)`` with zero
  Neumann walls, zero initial state, and a Gaussian bump source switched off
  after a cutoff time; the state is kept at two snapshot times.
* Heat with unknown source field: ``u_t - lap u = exp(-t) m(x)`` with zero
  Dirichlet walls, fixed oscillatory initial state; state kept at t=1.
* Reaction-diffusion transport of an unknown initial state by a fixed
  divergence-free velocity, zero-flux walls, Crank-Nicolson in time.

Diffusion under Neumann walls and the advection term both use node-centered
finite-volume stencils (half cells at the walls) whose weighted column sums
vanish, so the trapezoid-rule mass ``w.T u`` is conserved exactly by the time
steppers up to linear-solver roundoff.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, solveh_banded

from opinv.grf import Field, Grid2D, KLBasis, sample_field


class SolverError(RuntimeError):
    """A linear solve failed or produced an untrustworthy solution."""


def _each_row(solve, params) -> list:
    """Solve one parameter at a time; a failed solve leaves its SolverError."""
    out = []
    for p in params:
        try:
            out.append(solve(p))
        except SolverError as err:
            out.append(err)
    return out


# ---------------------------------------------------------------------------
# discrete operators


@lru_cache(maxsize=16)
def _interior_index(grid: Grid2D):
    """Flat index (into all nodes) of the interior nodes, x-major."""
    idx = (np.arange(1, grid.nx - 1)[:, None] * grid.ny + np.arange(1, grid.ny - 1)).ravel()
    idx.flags.writeable = False
    return idx


def dirichlet_laplacian(grid: Grid2D) -> sp.csr_matrix:
    """5-point Laplacian on interior nodes; boundary values are pinned to 0."""
    nx, ny = grid.nx - 2, grid.ny - 2
    ex, ey = np.ones(nx), np.ones(ny)
    d2x = sp.diags([ex[:-1], -2 * ex, ex[:-1]], [-1, 0, 1]) / grid.hx**2
    d2y = sp.diags([ey[:-1], -2 * ey, ey[:-1]], [-1, 0, 1]) / grid.hy**2
    return (sp.kron(d2x, sp.eye(ny)) + sp.kron(sp.eye(nx), d2y)).tocsr()


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


def advection_operator(grid: Grid2D, v1: np.ndarray, v2: np.ndarray) -> sp.csr_matrix:
    """Conservative central discretization of u -> div(v u) on all nodes.

    Face fluxes average the two adjacent nodal flux densities; wall-normal
    fluxes are dropped, which is exact when v is tangential at the walls.
    Weighted column sums vanish, so w.T A = 0 exactly.
    """
    nx, ny = grid.nx, grid.ny
    wx, wy = _weights_1d(nx, grid.hx), _weights_1d(ny, grid.hy)
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

    def solve_batch(self, params: list) -> list:
        """One banded Cholesky solve per field; a failed solve leaves its
        SolverError in place of a state."""
        return _each_row(partial(solve_darcy, self), params)

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


def darcy_band(problem: DarcyProblem, m: Field) -> np.ndarray:
    """Upper band storage (LAPACK "U", shape (ny-1, (nx-2)(ny-2)), x-major)
    of the interior 5-point system for log-conductivity m: row ny-2 holds
    the diagonal, row ny-3 the north/south couplings at offset 1 (zero where
    an x-line starts), row 0 the east/west couplings at offset ny-2.  Faces
    take the harmonic mean of exp(m); raises SolverError if one is not finite.
    """
    g = problem.grid
    if m.grid != g:
        raise ValueError("field grid does not match problem grid")

    def harm(p, q):
        return 2.0 * p * q / (p + q)

    # past exp(m) ~ 1e154, 2pq overflows (inf) or p + q too (inf/inf = NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.exp(m.as_matrix())
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


def solve_darcy(problem: DarcyProblem, m: Field) -> Field:
    """Solve the Darcy problem for log-conductivity m: a banded Cholesky
    (LAPACK ``pbsv``) of ``darcy_band``; raises SolverError if it is not
    positive definite or leaves a relative residual above 1e-10."""
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
    return Field(g, u)


# ---------------------------------------------------------------------------
# heat equations (implicit Euler)


@lru_cache(maxsize=16)
def _neumann_heat_solver(nx: int, ny: int, dt: float):
    """Factorized (D + dt K) for one backward-Euler step with zero-flux walls."""
    g = Grid2D(nx, ny)
    K, D = _neumann_stiffness(g)
    return spla.splu((D + dt * K).tocsc()), g.trapezoid_weights()


@lru_cache(maxsize=16)
def _dirichlet_heat_solver(nx: int, ny: int, dt: float):
    g = Grid2D(nx, ny)
    L = dirichlet_laplacian(g)
    A = sp.eye(L.shape[0], format="csc") - dt * L
    return spla.splu(A.tocsc())


def march_heat_neumann(grid: Grid2D, u0: np.ndarray, source_at, dt: float,
                       n_steps: int, snap_steps=()) -> dict:
    """Backward-Euler march of u_t = lap u + s with zero-flux walls.

    ``source_at(t)`` returns the flat source at time t (or None for no
    source).  Returns {step: flat values} for the requested snapshot steps,
    always including the final step.
    """
    lu, w = _neumann_heat_solver(grid.nx, grid.ny, dt)
    snaps = {}
    u = np.asarray(u0, dtype=float).copy()
    want = set(snap_steps) | {n_steps}
    for n in range(1, n_steps + 1):
        rhs = u.copy()
        s = source_at(n * dt) if source_at is not None else None
        if s is not None:
            rhs += dt * s
        u = lu.solve(w * rhs)
        if n in want:
            snaps[n] = u.copy()
    return snaps


def _batch_values(m, grid: Grid2D):
    """(values with one row per field, is_batch) of a Field or a list of them."""
    fields = m if isinstance(m, list) else [m]
    if any(f.grid != grid for f in fields):
        raise ValueError("field grid does not match problem grid")
    return np.array([f.values for f in fields]), isinstance(m, list)


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

    def source_values(self, chi) -> np.ndarray:
        X, Y = self.grid.mesh()
        r2 = (X - chi[0]) ** 2 + (Y - chi[1]) ** 2
        amp = self.strength / (2.0 * math.pi * self.width**2)
        return (amp * np.exp(-r2 / (2.0 * self.width**2))).ravel()

    def solve_batch(self, params) -> list:
        """One snapshot tuple per center chi, solved one at a time."""
        return _each_row(partial(solve_heat_loc, self), params)


def solve_heat_loc(problem: HeatSourceLocProblem, chi) -> tuple:
    """States at the two observation times for source center chi."""
    chi = np.asarray(chi, dtype=float).ravel()
    if chi.size != 2:
        raise ValueError("chi must be a 2-vector")
    dt = 1.0 / problem.n_steps
    steps = []
    for t in problem.obs_times:
        k = t / dt
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"observation time {t} not on a step boundary")
        steps.append(int(round(k)))
    src = problem.source_values(chi)

    def source_at(t):
        return src if t <= problem.t_cutoff + 1e-12 else None

    snaps = march_heat_neumann(problem.grid, np.zeros(problem.grid.n_nodes),
                               source_at, dt, max(steps), snap_steps=steps)
    return tuple(Field(problem.grid, snaps[k]) for k in steps)


@dataclass(frozen=True)
class HeatSourceFieldProblem:
    """Heat equation driven by exp(-t) m(x), zero Dirichlet walls.

    The nominal initial state is ``amplitude sin(x) sin(y)`` (radians, no pi
    factor); because it does not vanish at the walls, it is imposed at the
    interior nodes while the walls hold u = 0 for t > 0.
    """

    grid: Grid2D
    t_final: float = 1.0
    n_steps: int = 50
    amplitude: float = 100.0
    obs_times = ()  # one state, at t_final

    def initial_values(self) -> np.ndarray:
        X, Y = self.grid.mesh()
        return (self.amplitude * np.sin(X) * np.sin(Y)).ravel()

    def solve_batch(self, params: list) -> list:
        """All fields march together."""
        return solve_heat_field(self, list(params))


def solve_heat_field(problem: HeatSourceFieldProblem, m, u0: np.ndarray | None = None):
    """State at t_final for source field m (u0 override for verification).

    ``m`` may also be a list of Fields, which march together with one
    multi-column solve per step and return a list of states.  Only the
    interior part of the initial state enters; the walls hold u = 0.
    """
    g = problem.grid
    M, batch = _batch_values(m, g)
    dt = problem.t_final / problem.n_steps
    lu = _dirichlet_heat_solver(g.nx, g.ny, dt)
    interior = _interior_index(g)
    start = problem.initial_values() if u0 is None else np.asarray(u0, dtype=float)
    u = np.broadcast_to(start[interior], (len(M), interior.size)).T
    M_int = M[:, interior]
    for n in range(1, problem.n_steps + 1):
        u = lu.solve(u + dt * (math.exp(-n * dt) * M_int).T)
    final = np.zeros(M.shape)
    final[:, interior] = u.T
    states = [Field(g, row) for row in final]
    return states if batch else states[0]


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

    def velocity(self):
        X, Y = self.grid.mesh()
        v1 = np.sin(math.pi * X) * np.cos(math.pi * Y)
        v2 = -np.cos(math.pi * X) * np.sin(math.pi * Y)
        return v1, v2

    def solve_batch(self, params: list) -> list:
        """All initial states march together."""
        return solve_reaction_diffusion(self, list(params))


@lru_cache(maxsize=8)
def _rd_stepper(nx: int, ny: int, kappa: float, dt: float):
    g = Grid2D(nx, ny)
    prob = ReactionDiffusionProblem(g, kappa=kappa, dt=dt)
    v1, v2 = prob.velocity()
    A = kappa * neumann_laplacian(g) - advection_operator(g, v1, v2)
    n = g.n_nodes
    M_im = (sp.eye(n) - 0.5 * dt * A).tocsc()
    M_ex = (sp.eye(n) + 0.5 * dt * A).tocsr()
    return spla.splu(M_im), M_ex


def solve_reaction_diffusion(problem: ReactionDiffusionProblem, m0):
    """Crank-Nicolson march of the initial state m0 to t_final.

    ``m0`` may also be a list of Fields, which march together and return a
    list of states.
    """
    g = problem.grid
    M, batch = _batch_values(m0, g)
    n_steps = problem.t_final / problem.dt
    if abs(n_steps - round(n_steps)) > 1e-9:
        raise ValueError("dt must divide t_final")
    lu, M_ex = _rd_stepper(g.nx, g.ny, problem.kappa, problem.dt)
    u = M.T.copy()
    for _ in range(int(round(n_steps))):
        u = lu.solve(M_ex @ u)
    states = [Field(g, col) for col in u.T]
    return states if batch else states[0]


# ---------------------------------------------------------------------------
# parameter-to-state map and evaluation accounting


class EvalLedger:
    """Thread-safe tally of full-order forward evaluations by category."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def add(self, category: str, n: int = 1) -> None:
        with self._lock:
            self._counts[category] = self._counts.get(category, 0) + n

    def count(self, category: str) -> int:
        return self._counts.get(category, 0)

    @property
    def counts(self) -> dict:
        with self._lock:
            return dict(self._counts)

    def total(self) -> int:
        with self._lock:
            return sum(self._counts.values())


def forward_map(problem, basis: KLBasis | None, Z, ledger: EvalLedger | None = None,
                category: str = "forward") -> list:
    """Full-order parameter-to-state map on a (B, n) batch: one state per
    row, from ``problem.solve_batch``, and one ledger tick per row, failed
    rows included.  Rows are KL coefficients realized on ``basis``, one
    ``z @ W`` per row, or with ``basis`` None parameters used as is (such as
    heat-loc's source centers)."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise ValueError(f"parameter batch must be (B, n), got shape {Z.shape}")
    if not hasattr(problem, "solve_batch"):
        raise TypeError(f"unknown problem type {type(problem).__name__}")
    if ledger is not None:
        ledger.add(category, len(Z))
    return problem.solve_batch(Z if basis is None else [sample_field(basis, z) for z in Z])
