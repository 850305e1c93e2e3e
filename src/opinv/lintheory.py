"""Exact fixed points of the inversion iteration for linear forward maps.

For G(m) = G m the unscented quadrature is exact, so the iteration reduces to
a deterministic map on (r, C) whose fixed point (r_inf, C_inf) satisfies

    C_inf^{-1}       = G^T Sigma_eta^{-1} G + (alpha^2 C_inf + Sigma_omega)^{-1}
    C_inf^{-1} r_inf = G^T Sigma_eta^{-1} y
                       + (alpha^2 C_inf + Sigma_omega)^{-1} (alpha r_inf + (1 - alpha) r0).

With alpha = 1 or a zero anchor r0 the mean equation takes its usual
anchor-free form.

``solve_fixed_point`` solves them directly.  They describe the steady state
of a Kalman filter with transition alpha I, observation G and noises
(Sigma_omega, Sigma_eta), so P = alpha^2 C_inf + Sigma_omega solves a discrete
algebraic Riccati equation, C_inf is P after one update with gain K, and
(I - alpha (I - K G)) r_inf = (1 - alpha) (I - K G) r0 + K y (Anderson &
Moore 1979, Optimal Filtering).  Both residuals, relative to the size of the
terms they compare, must lie below 1e-11.
``verify_error_bound`` perturbs G along a fixed unit direction, G -> G + eps
E, and confirms that the fixed-point errors ||r - r_hat|| and ||C^{-1} -
C_hat^{-1}||_2 shrink at first order in eps (log-log slope near one).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class LinearModel:
    """Linear inverse problem: data y = G m + noise(Sigma_eta)."""

    G: np.ndarray
    y: np.ndarray
    alpha: float
    r0: np.ndarray
    sigma_omega: np.ndarray
    sigma_eta: np.ndarray

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        p, n = G.shape[0], G.shape[-1]
        if G.size == 0:
            raise ValueError(f"G has shape {G.shape}, expected at least one row and column")
        shapes = {"G": (p, n), "y": (p,), "r0": (n,), "sigma_omega": (n, n),
                  "sigma_eta": (p, p)}
        for name, shape in shapes.items():
            value = np.asarray(getattr(self, name), dtype=float)
            value = np.atleast_2d(value) if len(shape) == 2 else np.atleast_1d(value)
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
            object.__setattr__(self, name, value)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def n_dim(self) -> int:
        return self.G.shape[1]


@dataclass
class FixedPoint:
    r: np.ndarray
    C: np.ndarray
    residual_cov: float
    residual_mean: float


def _update(model: LinearModel, C_hat: np.ndarray):
    """Gain K and updated covariance of the exact update from the predicted
    covariance C_hat."""
    GC = model.G @ C_hat
    K = np.linalg.solve(GC @ model.G.T + model.sigma_eta, GC).T
    C_new = C_hat - K @ GC
    return K, 0.5 * (C_new + C_new.T)


def exact_update(model: LinearModel, r: np.ndarray, C: np.ndarray):
    """One exact inversion step for the linear model (no sigma points needed)."""
    a = model.alpha
    r_hat = a * r + (1 - a) * model.r0
    K, C_new = _update(model, a * a * C + model.sigma_omega)
    return r_hat + K @ (model.y - model.G @ r_hat), C_new


def _residuals(model: LinearModel, r: np.ndarray, C: np.ndarray):
    """((res_cov, res_mean), (scale_cov, scale_mean)): the absolute residuals
    of the two fixed-point equations, and the size of the terms each one
    compares, never below 1."""
    a = model.alpha
    C_inv = np.linalg.inv(C)
    M_inv = np.linalg.inv(a * a * C + model.sigma_omega)
    rhs_cov = model.G.T @ np.linalg.solve(model.sigma_eta, model.G) + M_inv
    lhs = C_inv @ r
    rhs = (model.G.T @ np.linalg.solve(model.sigma_eta, model.y)
           + M_inv @ (a * r + (1 - a) * model.r0))
    res = (float(np.linalg.norm(C_inv - rhs_cov, 2)), float(np.linalg.norm(lhs - rhs)))
    scale = (max(1.0, np.linalg.norm(C_inv, 2), np.linalg.norm(rhs_cov, 2)),
             max(1.0, np.linalg.norm(lhs), np.linalg.norm(rhs)))
    return res, scale


def solve_fixed_point(model: LinearModel) -> FixedPoint:
    """Solve the Riccati equation for the predicted covariance, then one linear
    system for the mean.  Raises RuntimeError if a solve fails or either
    residual exceeds 1e-11 times the size of the terms it compares."""
    # imported here, its one user, so that importing opinv skips scipy.linalg
    from scipy.linalg import solve_discrete_are
    a, eye = model.alpha, np.eye(model.n_dim)
    try:
        P = solve_discrete_are(a * eye, model.G.T, model.sigma_omega, model.sigma_eta)
        K, C = _update(model, 0.5 * (P + P.T))
        I_KG = eye - K @ model.G
        r = np.linalg.solve(eye - a * I_KG, (1 - a) * I_KG @ model.r0 + K @ model.y)
        (res_cov, res_mean), (scale_cov, scale_mean) = _residuals(model, r, C)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(f"no fixed point: {err}") from err
    # written so that a NaN residual fails too
    if not (res_cov <= 1e-11 * scale_cov and res_mean <= 1e-11 * scale_mean):
        raise RuntimeError(f"no fixed point: relative residuals cov={res_cov / scale_cov:.3e}, "
                           f"mean={res_mean / scale_mean:.3e} above 1e-11")
    return FixedPoint(r, C, res_cov, res_mean)


def gram_min_eigenvalue(model: LinearModel) -> float:
    """Smallest eigenvalue of G^T Sigma_eta^{-1} G (positivity premise)."""
    Gw = model.G.T @ np.linalg.solve(model.sigma_eta, model.G)
    return float(np.linalg.eigvalsh(0.5 * (Gw + Gw.T)).min())


def verify_error_bound(model: LinearModel, eps_list=(1e-1, 1e-2, 1e-3, 1e-4),
                       rng=0) -> dict:
    """Numerically confirm the first-order perturbation bound.

    Perturbs G by eps times a fixed random direction of unit spectral norm,
    solves both fixed points, and fits log-log slopes of the mean error and
    the inverse-covariance error against eps.  Returns a JSON-friendly report
    with the slopes, per-eps errors, and the positivity premise for each
    perturbed model.
    """
    eps_list = sorted(float(e) for e in eps_list)
    E = np.random.default_rng(rng).standard_normal(model.G.shape)
    E /= np.linalg.norm(E, 2)

    base = solve_fixed_point(model)
    base_C_inv = np.linalg.inv(base.C)
    err_mean, err_cov_inv, gram_mins = [], [], []
    for eps in eps_list:
        pert = replace(model, G=model.G + eps * E)
        gram_mins.append(gram_min_eigenvalue(pert))
        fp = solve_fixed_point(pert)
        err_mean.append(float(np.linalg.norm(fp.r - base.r)))
        err_cov_inv.append(float(np.linalg.norm(np.linalg.inv(fp.C) - base_C_inv, 2)))

    log_eps = np.log(eps_list)
    slope_mean = float(np.polyfit(log_eps, np.log(err_mean), 1)[0])
    slope_cov = float(np.polyfit(log_eps, np.log(err_cov_inv), 1)[0])
    return {
        "eps": list(eps_list),
        "err_mean": err_mean,
        "err_cov_inv": err_cov_inv,
        "slope_mean": slope_mean,
        "slope_cov": slope_cov,
        "slope_band": [0.8, 1.2],
        "mean_in_band": bool(0.8 <= slope_mean <= 1.2),
        "cov_in_band": bool(0.8 <= slope_cov <= 1.2),
        "gram_min_eigs": gram_mins,
        "premise_positive": bool(min(gram_mins) > 0.0),
    }
