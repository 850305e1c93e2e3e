"""Gaussian random field priors on the unit square.

The prior covariance operator is ``sigma^2 (-Laplacian + tau^2 I)^(-d)`` with
homogeneous Neumann boundary conditions on ``[0, 1]^2``.  Its eigenpairs are
analytic cosine products,

    psi_{k1,k2}(x, y) = n_{k1,k2} cos(k1 pi x) cos(k2 pi y),
    lambda_{k1,k2}    = sigma^2 (pi^2 (k1^2 + k2^2) + tau^2)^(-d),

where the normalization ``n`` is 1 when ``k1 = k2 = 0``, ``sqrt(2)`` when
exactly one wavenumber is nonzero and 2 when both are, which makes the family
orthonormal in L2 of the unit square.  Modes are ordered by non-increasing
eigenvalue with ties broken lexicographically by ``(k1, k2)``.

A field draw with coefficients ``zeta`` (i.i.d. standard normal under the
prior) is ``m(x) = sum_k zeta_k sqrt(lambda_k) psi_k(x)``.  A realized
field is a flat float64 array of its node values in x-major (C) order, so
``values.reshape(nx, ny)[i, j]`` is the value at ``(x_i, y_j)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid of nx-by-ny nodes on the closed unit square."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs at least 2 nodes per axis, got {self.nx}x{self.ny}")

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def hx(self) -> float:
        return 1.0 / (self.nx - 1)

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ny)

    def mesh(self):
        """Coordinate matrices X, Y of shape (nx, ny), x varying along axis 0."""
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (nx*ny, 2), x-major order."""
        X, Y = self.mesh()
        return np.column_stack([X.ravel(), Y.ravel()])

    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights (flat, length nx*ny) of the 2-D trapezoid rule.

        Node (i, j) gets wx_i * wy_j where the 1-D weights are h/2 at the two
        endpoints and h inside; they sum to the unit area exactly.
        """
        wx = np.full(self.nx, self.hx)
        wx[0] = wx[-1] = 0.5 * self.hx
        wy = np.full(self.ny, self.hy)
        wy[0] = wy[-1] = 0.5 * self.hy
        return np.outer(wx, wy).ravel()


@dataclass(frozen=True, eq=False)
class KLBasis:
    """Truncated Karhunen-Loeve basis sampled on a grid.  Compares and hashes
    by identity, so a basis can key a cache.

    Attributes
    ----------
    wavenumbers : (n_modes, 2) int array of (k1, k2) per mode.
    eigenvalues : (n_modes,) covariance eigenvalues, non-increasing.
    modes : (n_modes, nx*ny) eigenfunctions at the grid nodes, flat order.
    weighted_modes : sqrt(eigenvalues)[:, None] * modes, so a sample is
        simply ``zeta @ weighted_modes``.
    """

    grid: Grid2D
    tau: float
    d: float
    sigma: float
    wavenumbers: np.ndarray
    eigenvalues: np.ndarray
    modes: np.ndarray
    weighted_modes: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.weighted_modes is None:
            object.__setattr__(
                self, "weighted_modes", np.sqrt(self.eigenvalues)[:, None] * self.modes
            )

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def kl_eigenvalue(k1: int, k2: int, tau: float = 3.0, d: float = 2.0, sigma: float = 1.0) -> float:
    """Covariance eigenvalue for the cosine mode (k1, k2)."""
    return sigma**2 * (math.pi**2 * (k1**2 + k2**2) + tau**2) ** (-d)


def _mode_normalization(k1: int, k2: int) -> float:
    n = 1.0
    if k1 > 0:
        n *= math.sqrt(2.0)
    if k2 > 0:
        n *= math.sqrt(2.0)
    return n


def build_kl_basis(
    grid: Grid2D,
    n_modes: int,
    tau: float = 3.0,
    d: float = 2.0,
    sigma: float = 1.0,
) -> KLBasis:
    """Build the leading n_modes KL eigenpairs on ``grid``.

    Candidate wavenumbers are enumerated on a square block large enough that
    no discarded mode can outrank a kept one; the kept modes are sorted by
    non-increasing eigenvalue, ties broken lexicographically by (k1, k2).
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if tau <= 0 or sigma <= 0 or d <= 0:
        raise ValueError("tau, sigma and d must be positive")

    bound = 4 * math.ceil(math.sqrt(n_modes))

    cand = [(k1, k2) for k1 in range(bound + 1) for k2 in range(bound + 1)]
    cand.sort(key=lambda k: (-kl_eigenvalue(k[0], k[1], tau, d, sigma), k[0], k[1]))
    kept = cand[:n_modes]

    lam = np.array([kl_eigenvalue(k1, k2, tau, d, sigma) for k1, k2 in kept])
    # no mode outside the search block may beat a kept one
    if lam[-1] < kl_eigenvalue(bound, 0, tau, d, sigma):
        raise ValueError(f"search block too small for n_modes={n_modes}")

    X, Y = grid.mesh()
    modes = np.empty((n_modes, grid.n_nodes))
    for i, (k1, k2) in enumerate(kept):
        psi = _mode_normalization(k1, k2) * np.cos(k1 * math.pi * X) * np.cos(k2 * math.pi * Y)
        modes[i] = psi.ravel()

    return KLBasis(
        grid=grid,
        tau=tau,
        d=d,
        sigma=sigma,
        wavenumbers=np.array(kept, dtype=int),
        eigenvalues=lam,
        modes=modes,
    )


def sample_field(basis: KLBasis, zeta: np.ndarray) -> np.ndarray:
    """Nodal values (flat, x-major) of the field with KL coefficients
    ``zeta`` on the basis grid."""
    zeta = np.asarray(zeta, dtype=float).ravel()
    if zeta.size != basis.n_modes:
        raise ValueError(f"zeta length {zeta.size} != n_modes {basis.n_modes}")
    return zeta @ basis.weighted_modes


def draw_uniform(n_modes: int, rng, low: float = -20.0, high: float = 20.0) -> np.ndarray:
    """Draw uniform KL coefficients (out-of-distribution stress draws)."""
    return np.random.default_rng(rng).uniform(low, high, size=n_modes)

