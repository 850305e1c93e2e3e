"""Exact fixed points of the inversion iteration for linear forward maps.

For G(m) = G m the unscented quadrature is exact, so the iteration reduces to
a deterministic map on (r, C) whose fixed point (r_inf, C_inf) satisfies

    C_inf^{-1}       = G^T Sigma_eta^{-1} G + (alpha^2 C_inf + Sigma_omega)^{-1}
    C_inf^{-1} r_inf = G^T Sigma_eta^{-1} y
                       + (alpha^2 C_inf + Sigma_omega)^{-1} (alpha r_inf + (1 - alpha) r0).

With alpha = 1 or a zero anchor r0 the mean equation takes its usual
anchor-free form.

``solve_fixed_point`` iterates the exact map until both the successive change
and the residuals of these two equations are small next to the size of the
terms they compare (or, where that is below 1, small in absolute terms).
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
        object.__setattr__(self, "G", np.atleast_2d(np.asarray(self.G, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "r0", np.atleast_1d(np.asarray(self.r0, dtype=float)))
        object.__setattr__(self, "sigma_omega",
                           np.atleast_2d(np.asarray(self.sigma_omega, dtype=float)))
        object.__setattr__(self, "sigma_eta",
                           np.atleast_2d(np.asarray(self.sigma_eta, dtype=float)))
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def n_dim(self) -> int:
        return self.G.shape[1]


@dataclass
class FixedPoint:
    r: np.ndarray
    C: np.ndarray
    n_iter: int
    residual_cov: float
    residual_mean: float


def exact_update(model: LinearModel, r: np.ndarray, C: np.ndarray):
    """One exact inversion step for the linear model (no sigma points needed)."""
    a = model.alpha
    r_hat = a * r + (1 - a) * model.r0
    C_hat = a * a * C + model.sigma_omega
    GC = model.G @ C_hat
    C_yy = GC @ model.G.T + model.sigma_eta
    K = np.linalg.solve(C_yy, GC).T
    r_new = r_hat + K @ (model.y - model.G @ r_hat)
    C_new = C_hat - K @ GC
    return r_new, 0.5 * (C_new + C_new.T)


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


def solve_fixed_point(model: LinearModel, tol: float = 1e-12, max_iter: int = 100_000,
                      r_init: np.ndarray | None = None,
                      C_init: np.ndarray | None = None) -> FixedPoint:
    """Iterate the exact map to its fixed point.

    Converged when the successive changes in r and in C drop below tol and
    both fixed-point residuals below 10 tol, each test relative to the size
    of the terms it compares where that exceeds 1; raises RuntimeError
    otherwise.
    """
    n = model.n_dim
    r = np.zeros(n) if r_init is None else np.asarray(r_init, dtype=float).copy()
    C = np.eye(n) if C_init is None else np.asarray(C_init, dtype=float).copy()
    for it in range(1, max_iter + 1):
        r_new, C_new = exact_update(model, r, C)
        step_r = np.linalg.norm(r_new - r) / max(1.0, np.linalg.norm(r_new), np.linalg.norm(r))
        step_C = (np.linalg.norm(C_new - C, 2)
                  / max(1.0, np.linalg.norm(C_new, 2), np.linalg.norm(C, 2)))
        r, C = r_new, C_new
        if max(step_r, step_C) < tol:
            (res_cov, res_mean), (scale_cov, scale_mean) = _residuals(model, r, C)
            if res_cov < 10 * tol * scale_cov and res_mean < 10 * tol * scale_mean:
                return FixedPoint(r, C, it, res_cov, res_mean)
    (res_cov, res_mean), _ = _residuals(model, r, C)
    raise RuntimeError(
        f"no fixed point after {max_iter} iterations "
        f"(residuals cov={res_cov:.3e}, mean={res_mean:.3e})"
    )


def gram_min_eigenvalue(model: LinearModel) -> float:
    """Smallest eigenvalue of G^T Sigma_eta^{-1} G (positivity premise)."""
    Gw = model.G.T @ np.linalg.solve(model.sigma_eta, model.G)
    return float(np.linalg.eigvalsh(0.5 * (Gw + Gw.T)).min())


def verify_error_bound(model: LinearModel, eps_list=(1e-1, 1e-2, 1e-3, 1e-4),
                       rng=0, tol: float = 1e-12) -> dict:
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

    base = solve_fixed_point(model, tol=tol)
    base_C_inv = np.linalg.inv(base.C)
    err_mean, err_cov_inv, gram_mins = [], [], []
    for eps in eps_list:
        pert = replace(model, G=model.G + eps * E)
        gram_mins.append(gram_min_eigenvalue(pert))
        fp = solve_fixed_point(pert, tol=tol)
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
