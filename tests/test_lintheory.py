import math

import numpy as np
import pytest

from opinv.lintheory import (
    FixedPoint,
    LinearModel,
    exact_update,
    gram_min_eigenvalue,
    solve_fixed_point,
    verify_error_bound,
)
from opinv.observe import ObservationData
from opinv.uki import GaussianState, UKIConfig, run_uki


def scalar_model(y=1.0, alpha=1.0):
    return LinearModel(G=np.eye(1), y=np.array([y]), alpha=alpha, r0=np.zeros(1),
                       sigma_omega=np.eye(1), sigma_eta=np.eye(1))


def random_model(rng, n=4, p=6, alpha=0.9):
    A = rng.standard_normal((p, n))
    B = rng.standard_normal((n, n))
    W = rng.standard_normal((p, p))
    return LinearModel(
        G=A,
        y=rng.standard_normal(p),
        alpha=alpha,
        r0=rng.standard_normal(n),
        sigma_omega=B @ B.T + np.eye(n),
        sigma_eta=0.5 * (W @ W.T) + np.eye(p),
    )


def test_scalar_fixed_point_golden_ratio():
    # G = 1, Sigma_eta = Sigma_omega = 1, alpha = 1:
    # C satisfies 1/C = 1 + 1/(C+1)  =>  C = (sqrt(5) - 1) / 2, and r = y
    fp = solve_fixed_point(scalar_model(y=2.5))
    assert fp.C[0, 0] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-10)
    assert fp.r[0] == pytest.approx(2.5, abs=1e-10)
    assert fp.residual_cov < 1e-11 and fp.residual_mean < 1e-11


def test_zero_map_fixed_point_is_damped_noise_balance():
    # G = 0, alpha < 1: update keeps C_hat, so C = alpha^2 C + Sigma_omega
    m = LinearModel(G=np.zeros((1, 1)), y=np.zeros(1), alpha=0.5, r0=np.array([1.5]),
                    sigma_omega=np.eye(1), sigma_eta=np.eye(1))
    fp = solve_fixed_point(m)
    assert fp.C[0, 0] == pytest.approx(1.0 / (1.0 - 0.25), abs=1e-10)
    assert fp.r[0] == pytest.approx(1.5, abs=1e-10)  # mean damps to the anchor


def test_fixed_point_satisfies_equations():
    rng = np.random.default_rng(0)
    m = random_model(rng)
    fp = solve_fixed_point(m)
    C_inv = np.linalg.inv(fp.C)
    M_inv = np.linalg.inv(m.alpha**2 * fp.C + m.sigma_omega)
    lhs_cov = C_inv
    rhs_cov = m.G.T @ np.linalg.solve(m.sigma_eta, m.G) + M_inv
    assert np.allclose(lhs_cov, rhs_cov, atol=1e-9)
    lhs_mean = C_inv @ fp.r
    rhs_mean = (m.G.T @ np.linalg.solve(m.sigma_eta, m.y)
                + M_inv @ (m.alpha * fp.r + (1 - m.alpha) * m.r0))
    assert np.allclose(lhs_mean, rhs_mean, atol=1e-9)


def test_fixed_point_is_update_invariant():
    rng = np.random.default_rng(1)
    m = random_model(rng, alpha=0.8)
    fp = solve_fixed_point(m)
    r2, C2 = exact_update(m, fp.r, fp.C)
    assert np.allclose(r2, fp.r, atol=1e-10)
    assert np.allclose(C2, fp.C, atol=1e-10)


def test_sigma_point_iteration_reaches_same_fixed_point():
    # the sampled iteration must agree with the exact map for linear G
    rng = np.random.default_rng(2)
    m = random_model(rng, n=3, p=4, alpha=1.0)
    cfg = UKIConfig(alpha=m.alpha, r0=m.r0, sigma_omega=m.sigma_omega, sigma_eta=m.sigma_eta)
    data = ObservationData(m.y, m.sigma_eta, 0.0)
    traj = run_uki(GaussianState(np.zeros(3), np.eye(3)), lambda V: V @ m.G.T, data, cfg, 150)
    fp = solve_fixed_point(m)
    assert np.allclose(traj[-1].r, fp.r, atol=1e-8)
    assert np.allclose(traj[-1].C, fp.C, atol=1e-8)


def test_gram_premise():
    rng = np.random.default_rng(3)
    m = random_model(rng)
    assert gram_min_eigenvalue(m) > 0.0
    flat = LinearModel(G=np.zeros((2, 2)), y=np.zeros(2), alpha=1.0, r0=np.zeros(2),
                       sigma_omega=np.eye(2), sigma_eta=np.eye(2))
    assert gram_min_eigenvalue(flat) == pytest.approx(0.0, abs=1e-14)


def test_perturbation_errors_scale_linearly():
    rng = np.random.default_rng(4)
    m = random_model(rng)
    report = verify_error_bound(m, rng=5)
    assert report["premise_positive"]
    assert report["mean_in_band"] and report["cov_in_band"]
    # halving eps roughly halves the error at the small end
    r = verify_error_bound(m, eps_list=(5e-4, 1e-3), rng=5)
    ratio = r["err_mean"][1] / r["err_mean"][0]
    assert ratio == pytest.approx(2.0, rel=0.25)


def test_zero_perturbation_gives_zero_error():
    rng = np.random.default_rng(6)
    m = random_model(rng)
    base = solve_fixed_point(m)
    again = solve_fixed_point(m)
    assert np.array_equal(base.r, again.r)  # deterministic
    report = verify_error_bound(m, eps_list=(1e-6, 1e-5), rng=7)
    assert max(report["err_mean"]) < 1e-3  # tiny eps, tiny error


def test_solver_reports_nonconvergence():
    m = scalar_model()
    with pytest.raises(RuntimeError):
        solve_fixed_point(m, tol=1e-12, max_iter=3)


def test_model_validation():
    with pytest.raises(ValueError):
        LinearModel(G=np.eye(2), y=np.zeros(2), alpha=0.0, r0=np.zeros(2),
                    sigma_omega=np.eye(2), sigma_eta=np.eye(2))
