"""Unscented Kalman inversion.

Maintains a Gaussian approximation (r, C) of the unknown parameter and
iterates a prediction / sigma-point / Kalman-update cycle against observed
data y with noise covariance Sigma_eta, the data's ``noise_cov``:

1. prediction:  r_hat = alpha r + (1 - alpha) r0,
                C_hat = alpha^2 C + Sigma_omega
2. sigma points m^0 = r_hat and m^{+-j} = r_hat +- c L_j for the columns
   L_j of the lower Cholesky factor of C_hat
3. push all 2 n + 1 points through the forward map in one batch call,
   build the cross and output covariances from the off-center points with
   common weight w, and add Sigma_eta to the output covariance
4. Kalman update of (r, C).

The weights follow the modified unscented transform with kappa = 0 and
a = min(sqrt(4 / n), 1): spread c = sqrt(n + lam) with lam = a^2 n - n and
off-center weight w = 1 / (2 (n + lam)).  For n <= 4 this reduces to the
textbook choice c = sqrt(n), w = 1 / (2 n); for larger n the spread saturates
at 2 so sigma points stay within two marginal deviations.  The induced
quadrature is exact through second moments, hence exact for affine forward
maps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._lapack import dpotrf, dpotrs


class UkiError(RuntimeError):
    """An inversion step could not be completed."""


@dataclass
class GaussianState:
    """Mean and covariance of the current parameter Gaussian."""

    r: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.r = np.atleast_1d(np.asarray(self.r, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        n = self.r.size
        if self.C.shape != (n, n):
            raise ValueError(f"covariance shape {self.C.shape} != ({n}, {n})")

    @property
    def n_dim(self) -> int:
        return self.r.size


@dataclass(frozen=True)
class UKIConfig:
    """Step configuration: alpha in (0, 1] damps the prior mean toward r0,
    and sigma_omega is the artificial evolution covariance.  The observation
    noise covariance is the data's, never a copy kept here."""

    alpha: float
    r0: np.ndarray
    sigma_omega: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        object.__setattr__(self, "r0", np.atleast_1d(np.asarray(self.r0, dtype=float)))
        object.__setattr__(self, "sigma_omega",
                           np.atleast_2d(np.asarray(self.sigma_omega, dtype=float)))

    @classmethod
    def anchored(cls, alpha: float, r0, C0) -> "UKIConfig":
        """Both drivers' config: mean anchor r0, evolution covariance (2 - alpha^2) C0."""
        return cls(alpha=alpha, r0=r0, sigma_omega=(2.0 - alpha**2) * C0)


def unscented_weights(n_dim: int) -> tuple[float, float]:
    """(spread c, off-center weight w) of the modified unscented transform."""
    if n_dim < 1:
        raise ValueError("n_dim must be >= 1")
    a = min(np.sqrt(4.0 / n_dim), 1.0)
    lam = a * a * n_dim - n_dim
    c = np.sqrt(n_dim + lam)
    w = 1.0 / (2.0 * (n_dim + lam))
    return float(c), float(w)


def sigma_points(state: GaussianState) -> np.ndarray:
    """The (2 n + 1, n) sigma points of the state Gaussian, row 0 its mean.

    Raises UkiError when the covariance has lost positive definiteness.
    """
    n = state.n_dim
    c, _ = unscented_weights(n)
    try:
        L = np.linalg.cholesky(state.C)
    except np.linalg.LinAlgError as err:
        raise UkiError(f"covariance not positive definite: {err}") from err
    pts = np.empty((2 * n + 1, n))
    pts[0] = state.r
    pts[1:n + 1] = state.r + c * L.T  # row j of L.T is the j-th column of L
    pts[n + 1:] = state.r - c * L.T
    return pts


def _predict(state: GaussianState, cfg: UKIConfig) -> GaussianState:
    r_hat = cfg.alpha * state.r + (1.0 - cfg.alpha) * cfg.r0
    C_hat = cfg.alpha**2 * state.C + cfg.sigma_omega
    return GaussianState(r_hat, C_hat)


def uki_step(state: GaussianState, forward_batch, data, cfg: UKIConfig):
    """One prediction / update cycle; returns (new state, center prediction).

    ``forward_batch`` maps the (2 n + 1, n) sigma points to a (2 n + 1, p)
    array of observation vectors, one row per point; it is called once.
    ``data`` provides y_obs and the noise covariance added to the output
    covariance.  The center prediction is the output row of the predicted
    mean, the first sigma point.
    """
    pred = _predict(state, cfg)
    pts = sigma_points(pred)
    _, w = unscented_weights(pred.n_dim)
    Y = np.asarray(forward_batch(pts), dtype=float)
    if Y.ndim != 2 or Y.shape[0] != len(pts):
        raise ValueError(f"forward_batch gave shape {Y.shape}; need one row per sigma point")
    if not np.all(np.isfinite(Y)):
        bad = int(np.flatnonzero(~np.isfinite(Y).all(axis=1))[0])
        raise UkiError(f"non-finite forward output at sigma point {bad}")

    y_hat = Y[0]
    dm = pts[1:] - pred.r
    dy = Y[1:] - y_hat
    C_my = w * dm.T @ dy
    C_yy = w * dy.T @ dy + data.noise_cov
    if not np.all(np.isfinite(C_yy)):
        raise UkiError("innovation covariance not finite")
    c, info = dpotrf(C_yy, clean=0)  # cho_factor's call, without its checks
    if info > 0:
        raise UkiError(f"innovation covariance not positive definite: "
                       f"{info}-th leading minor of the array is not positive definite")
    gain = dpotrs(c, C_my.T)[0].T

    r_new = pred.r + gain @ (data.y_obs - y_hat)
    C_new = pred.C - gain @ C_my.T
    C_new = 0.5 * (C_new + C_new.T)
    return GaussianState(r_new, C_new), y_hat


def run_uki(state: GaussianState, forward_batch, data, cfg: UKIConfig, n_steps: int,
            on_step=None) -> list[GaussianState]:
    """Iterate uki_step n_steps times, one ``forward_batch`` call per step;
    returns the post-update trajectory.

    A failed step (a non-finite output row from a failed full-order solve or
    a surrogate blow-up, or a covariance breakdown) truncates the trajectory
    with a warning rather than raising.  ``on_step(k, state, y_center)`` is
    called after each successful step with the 1-based step index and the
    center sigma-point prediction, letting callers log fitting errors for free.
    """
    traj: list[GaussianState] = []
    for k in range(1, n_steps + 1):
        try:
            state, y_center = uki_step(state, forward_batch, data, cfg)
        except UkiError as err:
            warnings.warn(f"inversion stopped at step {k}: {err}", stacklevel=2)
            break
        traj.append(state)
        if on_step is not None:
            on_step(k, state, y_center)
    return traj
