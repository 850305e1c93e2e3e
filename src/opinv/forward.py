"""Full-order PDE solvers on the unit square and the parameter-to-state map.

Four benchmark problems share the grid conventions of :mod:`opinv.grf`:

* Darcy flow: ``-div(exp(m) grad u) = f`` with zero Dirichlet walls and a
  piecewise-constant source banded in the y coordinate, solved by banded
  Cholesky.
* Heat with unknown source location: ``u_t - lap u = f(x; chi, t)`` with zero
  Neumann walls, zero initial state, and a Gaussian bump source switched off
  after a cutoff time; the state is kept at two snapshot times, solved in
  closed form in the cosine basis that diagonalizes the Neumann Laplacian.
* Heat with unknown source field: ``u_t - lap u = exp(-t) m(x)`` with zero
  Dirichlet walls, fixed oscillatory initial state; state kept at t=1,
  solved in closed form in the sine basis that diagonalizes the Laplacian.
* Reaction-diffusion transport of an unknown initial state by a fixed
  divergence-free velocity, zero-flux walls, Crank-Nicolson in time.

Each problem's one solver entry is ``solve_batch``.  It maps a (B, n)
array of parameters to a float64 array of states, one row per parameter:
(B, n_nodes), or (B, len(obs_times), n_nodes) for a problem that keeps
snapshots.  A solve that fails leaves its row NaN.  Heat-field and heat-loc
map the whole batch with a few dense matmuls, and reaction-diffusion marches
it with multi-column SuperLU solves.  Darcy builds the band rows of every
row's matrix, and checks every residual, in whole-batch array ops; only the
banded Cholesky runs one row at a time.  A Darcy or heat-loc row's state
never depends on the batch it rides in.

Each problem class also declares ``affine``: whether its state is an affine
map of its parameter field.  Heat-field's is (its initial state adds a fixed
term), and reaction-diffusion's is linear.  On a KL basis, ``forward_map``
composes such a problem's states from the states of the zero field and of
the basis rows, solved once per (problem, basis), instead of realizing and
solving every row.  Any other batch is realized and solved in blocks of
``_BLOCK`` rows written into one output array, so a batch's
working memory is its output plus one block's; as a Darcy or heat-loc row's
state never depends on its batch, the blocks change no bit.

Only reaction-diffusion uses ``scipy.sparse``: its operator builders import
it when first called, so a Darcy or heat-equation run never loads it.

Diffusion under Neumann walls and the advection term both use node-centered
finite-volume stencils (half cells at the walls) whose weighted column sums
vanish, so the trapezoid-rule mass ``w.T u`` is conserved exactly by the time
steppers up to roundoff.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

from opinv.grf import Grid2D, KLBasis, sample_field

if TYPE_CHECKING:
    import scipy.sparse as sp


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
    import scipy.sparse as sp

    main = np.full(n, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def _weights_1d(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


def neumann_laplacian(grid: Grid2D) -> sp.csr_matrix:
    """Node-centered FV Laplacian with zero-flux walls, acting on all nodes.

    Equals the ghost-point 5-point stencil; with D = diag(trapezoid weights)
    it is -D^{-1} K for a symmetric stiffness K, so w.T lap = 0 exactly.
    """
    import scipy.sparse as sp

    K = (sp.kron(_stiffness_1d(grid.nx, grid.hx), sp.diags(_weights_1d(grid.ny, grid.hy)))
         + sp.kron(sp.diags(_weights_1d(grid.nx, grid.hx)), _stiffness_1d(grid.ny, grid.hy)))
    winv = 1.0 / grid.trapezoid_weights()
    return (-sp.diags(winv) @ K).tocsr()


def _face_flux_1d(n: int) -> sp.dia_matrix:
    """Net outflow of each of n nodes on a line, given nodal flux densities:
    a face carries the mean of its two nodes' densities, and the walls carry
    none."""
    import scipy.sparse as sp

    diag = np.zeros(n)
    diag[0], diag[-1] = 0.5, -0.5
    return sp.diags([np.full(n - 1, -0.5), diag, np.full(n - 1, 0.5)], [-1, 0, 1])


def advection_operator(grid: Grid2D, v1: np.ndarray, v2: np.ndarray) -> sp.csr_matrix:
    """Conservative central discretization of u -> div(v u) on all nodes.

    Face fluxes average the two adjacent nodal flux densities; wall-normal
    fluxes are dropped, which is exact when v is tangential at the walls.
    Weighted column sums vanish, so w.T A = 0 exactly.
    """
    import scipy.sparse as sp

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
    affine = False

    def solve_batch(self, P) -> np.ndarray:
        """(B, n_nodes) states of a (B, n_nodes) batch of log-conductivities.
        ``_darcy_bands`` and the residual check run on the whole batch; only
        the banded Cholesky runs per row, each row's band filling one reused
        (ny-1, N) buffer for LAPACK ``pbsv``.  A row is left NaN if a face
        conductance is not finite, if its Cholesky fails, or if its relative
        residual is above 1e-10."""
        g = self.grid
        b = self.interior_source
        bands, ok = _darcy_bands(self, _rows(P, g))
        nyi = g.ny - 2
        ab = np.zeros((nyi + 1, bands.shape[2]))
        U_int = np.full((len(bands), bands.shape[2]), np.nan)
        for i in np.flatnonzero(ok):
            # north/south first: with ny = 3 both couplings sit at offset 1, row 0
            ab[nyi - 1], ab[0], ab[nyi] = bands[i, 1], bands[i, 0], bands[i, 2]
            try:
                U_int[i] = solveh_banded(ab, b, lower=False, check_finite=False)
            except LinAlgError:
                pass  # the row stays NaN
        # residual by a band matvec on offsets 0, 1 and ny-2; a row that was not
        # solved, or that overflows, reads NaN or inf and fails the check
        with np.errstate(over="ignore", invalid="ignore"):
            R = bands[:, 2] * U_int
            R -= b
            for k, d in ((1, 1), (0, nyi)):
                R[:, :-d] += bands[:, k, d:] * U_int[:, d:]
                R[:, d:] += bands[:, k, d:] * U_int[:, :-d]
            res = np.sqrt(np.einsum("ij,ij->i", R, R)) / np.linalg.norm(b)
        del bands, R
        U = np.zeros((len(U_int), g.n_nodes))
        U[:, _interior_index(g)] = U_int
        U[~(res <= 1e-10)] = np.nan
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


def _darcy_bands(problem: DarcyProblem, P: np.ndarray):
    """(bands, ok) of the interior 5-point systems of a (B, n_nodes) batch of
    nodal log-conductivities.  ``bands`` (B, 3, (nx-2)(ny-2)) holds the three
    nonzero rows of each system's LAPACK upper band storage (x-major), in
    the order of that storage: the east/west couplings at offset ny-2, the
    north/south couplings at offset 1 (zero where an x-line starts), and the
    diagonal.  Faces take the harmonic mean of exp(m); ``ok`` is False for a
    row with a face conductance that is not finite."""
    g = problem.grid
    B, nxi, nyi = len(P), g.nx - 2, g.ny - 2
    bands = np.zeros((B, 3, nxi * nyi))
    east, north, diag = (bands.reshape(B, 3, nxi, nyi)[:, k] for k in range(3))

    def harm(p, q):  # 2pq / (p + q), rounded as written, with one temporary
        h = 2.0 * p
        h *= q
        h /= p + q
        return h

    # past exp(m) ~ 1e154, 2pq overflows (inf) or p + q too (inf/inf = NaN);
    # each interior node couples to its interior neighbors only (boundary
    # neighbors hold u = 0), and the diagonal sums its four faces in the
    # order east, west, north, south.  One face array at a time, scaled in
    # place, keeps the batch's working set small.
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.exp(P.reshape(B, g.nx, g.ny))
        face = harm(a[:, :-1, :], a[:, 1:, :])  # (i,j)-(i+1,j)
        ok = np.isfinite(face).all(axis=(1, 2))
        face /= g.hx**2
        diag[:] = face[:, 1:, 1:-1]
        np.negative(face[:, 1:-1, 1:-1], out=east[:, 1:])
        diag += face[:, :-1, 1:-1]
        del face
        face = harm(a[:, :, :-1], a[:, :, 1:])  # (i,j)-(i,j+1)
        del a
        ok &= np.isfinite(face).all(axis=(1, 2))
        face /= g.hy**2
        diag += face[:, 1:-1, 1:]
        np.negative(face[:, 1:-1, 1:-1], out=north[:, :, 1:])
        diag += face[:, 1:-1, :-1]
    return bands, ok


# ---------------------------------------------------------------------------
# heat equations (implicit Euler)


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
    affine = False

    def source_values(self, chi) -> np.ndarray:
        g = self.grid
        r2 = ((g.xs - chi[0]) ** 2)[:, None] + (g.ys - chi[1]) ** 2  # (nx, ny)
        amp = self.strength / (2.0 * math.pi * self.width**2)
        return (amp * np.exp(-r2 / (2.0 * self.width**2))).ravel()

    def solve_batch(self, P) -> np.ndarray:
        """(B, len(obs_times), n_nodes) snapshots of a (B, 2) batch of source
        centers chi: the backward-Euler march from u = 0 with zero-flux walls,
        the constant source on for t <= t_cutoff and off afterwards, in closed
        form, ``Sx (b_t * (Tx M Ty.T)) Sy.T`` for each snapshot's mode gains
        b_t (``_heat_loc_map``) and each row's source M; every row is the
        same sequence of matmuls as a batch of one."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] != 2:
            raise ValueError(f"expected a (B, 2) batch of centers, got shape {P.shape}")
        g = self.grid
        b, Sx, Tx, Sy, Ty = _heat_loc_map(self)
        dt = 1.0 / self.n_steps
        M = np.array([dt * self.source_values(chi) for chi in P]).reshape(-1, g.nx, g.ny)
        C = (Tx @ M @ Ty.T)[:, None]  # cosine coefficients of one step's source
        return (Sx @ (b * C) @ Sy.T).reshape(len(P), len(b), g.n_nodes)


def _cosine_modes(n: int, h: float):
    """(S, lam): cosine matrix of an axis' n nodes, normalized so that
    S.T D S = I for the trapezoid weights D, and the eigenvalues of its
    zero-flux stiffness K: K S = D S diag(lam)."""
    k = np.arange(n)
    S = np.cos(math.pi * np.outer(k, k) / (n - 1))
    S[:, 1:-1] *= math.sqrt(2.0)
    return S, 4.0 / h**2 * np.sin(math.pi * k / (2 * (n - 1))) ** 2


@lru_cache(maxsize=16)
def _heat_loc_map(problem: HeatSourceLocProblem):
    """(b, Sx, Tx, Sy, Ty): a step ``u <- (D + dt K)^-1 D (u + s)`` scales
    cosine mode (i, j) by ``1 / (1 + dt (lam_x_i + lam_y_j))``, so b[t] is
    each mode's gain on the per-step source s over the march to obs_times[t],
    summed over the steps that have the source on; T = S^-1 = S.T D on each
    axis.  Raises ValueError for an observation time that is not on a step
    boundary.  Keyed on the problem, not its grid, as the gains depend on
    t_cutoff, obs_times and n_steps."""
    g = problem.grid
    dt = 1.0 / problem.n_steps
    steps = []
    for t in problem.obs_times:
        k = t / dt
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"observation time {t} not on a step boundary")
        steps.append(int(round(k)))
    (Sx, lx), (Sy, ly) = _cosine_modes(g.nx, g.hx), _cosine_modes(g.ny, g.hy)
    step = 1.0 / (1.0 + dt * (lx[:, None] + ly[None, :]))
    b = np.zeros_like(step)
    gains = {}
    for n in range(1, max(steps) + 1):
        b = step * (b + (n * dt <= problem.t_cutoff + 1e-12))  # source on or off
        if n in steps:
            gains[n] = b
    Tx, Ty = Sx.T * _weights_1d(g.nx, g.hx), Sy.T * _weights_1d(g.ny, g.hy)
    return np.array([gains[k] for k in steps]), Sx, Tx, Sy, Ty


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
    affine = True  # the initial state adds a fixed term

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
    affine = True  # linear: the zero field stays zero

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
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    g, dt = problem.grid, problem.dt
    A = problem.kappa * neumann_laplacian(g) - advection_operator(g, *problem.velocity())
    n = g.n_nodes
    M_im = (sp.eye(n) - 0.5 * dt * A).tocsc()
    M_ex = (sp.eye(n) + 0.5 * dt * A).tocsr()
    # symmetric pattern: order on A + A.T (less fill than the default COLAMD)
    return spla.splu(M_im, permc_spec="MMD_AT_PLUS_A"), M_ex


# ---------------------------------------------------------------------------
# parameter-to-state map


@lru_cache(maxsize=1)
def _mode_states(problem, basis: KLBasis):
    """(s0, S) of an affine problem on a basis: s0 the (1, n_nodes) state of
    the zero field and S the states of the basis rows ``sqrt(lambda_k)
    psi_k`` less s0, one row per mode, so that the state of ``z @ W`` is
    ``s0 + z @ S``.  Keyed on the problem and on the basis object itself;
    one entry, as each run builds its own basis and an older entry would
    only hold memory."""
    s0 = problem.solve_batch(np.zeros((1, basis.grid.n_nodes)))
    return s0, problem.solve_batch(basis.weighted_modes) - s0


# rows per solve_batch call of a forward_map batch that is not composed:
# one block holds a desk Darcy UKI sigma batch (2 * 32 + 1 = 65 rows)
_BLOCK = 128


def forward_map(problem, basis: KLBasis | None, Z, ledger: Counter | None = None,
                category: str = "forward") -> np.ndarray:
    """Full-order parameter-to-state map on a (B, n) batch: one state per
    row of Z, NaN where a solve failed, and ``ledger[category] += 1`` per
    row, failed rows included.  Rows are KL coefficients on ``basis``, or
    with ``basis`` None parameters used as is (such as heat-loc's source
    centers).  An ``affine`` problem's states on a basis are composed,
    ``s0 + Z @ S`` from ``_mode_states(problem, basis)``; any other batch is
    solved in blocks of ``_BLOCK`` rows, each realized by one
    ``sample_field(basis, block)`` call or used as is, into one output
    array.  Every row rounds as a batch of one, so the
    blocks leave each state as the whole batch would give it."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise ValueError(f"parameter batch must be (B, n), got shape {Z.shape}")
    if not hasattr(problem, "solve_batch"):
        raise TypeError(f"unknown problem type {type(problem).__name__}")
    if ledger is not None:
        ledger[category] += len(Z)
    if problem.affine and basis is not None:
        s0, S = _mode_states(problem, basis)
        return s0 + Z @ S

    def solve(rows):
        return problem.solve_batch(rows if basis is None else sample_field(basis, rows))

    first = solve(Z[:_BLOCK])
    if len(Z) <= _BLOCK:
        return first
    out = np.empty((len(Z), *first.shape[1:]))
    out[:_BLOCK] = first
    del first
    for i in range(_BLOCK, len(Z), _BLOCK):
        out[i:i + _BLOCK] = solve(Z[i:i + _BLOCK])
    return out
