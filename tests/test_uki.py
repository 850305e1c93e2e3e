import math
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from opinv import uki
from opinv.observe import ObservationData
from opinv.uki import (
    GaussianState,
    UkiError,
    UKIConfig,
    run_uki,
    sigma_points,
    uki_step,
    unscented_weights,
)


def random_spd(n, rng):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def kalman_affine_update(r, C, A, b, data, cfg):
    """Closed-form update for G(m) = A m + b: the oracle uki_step must hit."""
    y = data.y_obs
    r_hat = cfg.alpha * r + (1 - cfg.alpha) * cfg.r0
    C_hat = cfg.alpha**2 * C + cfg.sigma_omega
    C_yy = A @ C_hat @ A.T + data.noise_cov
    K = np.linalg.solve(C_yy, A @ C_hat).T
    r_new = r_hat + K @ (y - A @ r_hat - b)
    C_new = C_hat - K @ A @ C_hat
    return r_new, 0.5 * (C_new + C_new.T)


# -- weights -------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,c,w",
    [
        (1, 1.0, 0.5),  # a = 1, lam = 0
        (4, 2.0, 0.125),  # a = 1, lam = 0
        (128, 2.0, 0.125),  # a^2 = 1/32, lam = -124, n + lam = 4
    ],
)
def test_unscented_weights_table(n, c, w):
    got_c, got_w = unscented_weights(n)
    assert got_c == pytest.approx(c, rel=1e-14)
    assert got_w == pytest.approx(w, rel=1e-14)


def test_weights_consistency_identity():
    # 2 n w c^2 = n + lam over w c^2... must reconstruct covariance exactly
    for n in (2, 3, 7, 50, 200):
        c, w = unscented_weights(n)
        assert 2 * n * w * c * c == pytest.approx(n, rel=1e-12)


def test_sigma_points_reconstruct_moments():
    rng = np.random.default_rng(0)
    n = 5
    st = GaussianState(rng.standard_normal(n), random_spd(n, rng))
    pts = sigma_points(st)
    assert pts.shape == (11, n)
    assert np.array_equal(pts[0], st.r)
    d = pts[1:] - st.r
    C_rebuilt = unscented_weights(n)[1] * d.T @ d
    assert np.allclose(C_rebuilt, st.C, atol=1e-12)
    # symmetric pairs around the center
    assert np.allclose(pts[1:n + 1] + pts[n + 1:], 2 * st.r, atol=1e-12)


def test_sigma_points_reject_indefinite():
    st = GaussianState(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(UkiError):
        sigma_points(st)


# -- single step ------------------------------------------------------------------


def scalar_setup():
    cfg = UKIConfig(alpha=1.0, r0=np.zeros(1), sigma_omega=np.eye(1))
    data = ObservationData(np.array([1.0]), np.eye(1), 0.0)
    return GaussianState(np.zeros(1), np.eye(1)), cfg, data


def test_uki_step_scalar_hand_value():
    # identity forward, y = 1: first step lands exactly at (2/3, 2/3)
    st, cfg, data = scalar_setup()
    new, _ = uki_step(st, lambda P: P, data, cfg)
    assert new.r[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert new.C[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_uki_step_matches_affine_oracle():
    rng = np.random.default_rng(42)
    for trial in range(5):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, 7))
        A = rng.standard_normal((p, n))
        b = rng.standard_normal(p)
        y = rng.standard_normal(p)
        cfg = UKIConfig(
            alpha=float(rng.uniform(0.5, 1.0)),
            r0=rng.standard_normal(n),
            sigma_omega=random_spd(n, rng),
        )
        data = ObservationData(y, random_spd(p, rng), 0.0)
        st = GaussianState(rng.standard_normal(n), random_spd(n, rng))
        got, _ = uki_step(st, lambda P: P @ A.T + b, data, cfg)
        want_r, want_C = kalman_affine_update(st.r, st.C, A, b, data, cfg)
        assert np.allclose(got.r, want_r, atol=1e-10)
        assert np.allclose(got.C, want_C, atol=1e-10)


def test_uki_step_zero_innovation_keeps_mean():
    rng = np.random.default_rng(3)
    n = 3
    A = rng.standard_normal((4, n))
    st = GaussianState(rng.standard_normal(n), random_spd(n, rng))
    cfg = UKIConfig(alpha=1.0, r0=np.zeros(n), sigma_omega=np.eye(n))
    data = ObservationData(A @ st.r, np.eye(4), 0.0)  # y = G(r_hat) since alpha = 1
    new, _ = uki_step(st, lambda P: P @ A.T, data, cfg)
    assert np.allclose(new.r, st.r, atol=1e-12)
    # covariance still contracts
    assert np.trace(new.C) < np.trace(st.C) + np.trace(cfg.sigma_omega)


def test_uki_step_counts_forward_calls():
    st, cfg, data = scalar_setup()
    calls = []
    uki_step(st, lambda P: (calls.append(len(P)), P)[1], data, cfg)
    assert calls == [3]  # one batch of 2 n + 1 sigma points


def test_uki_step_rejects_nonfinite_forward():
    st, cfg, data = scalar_setup()
    with pytest.raises(UkiError):
        uki_step(st, lambda P: np.full((len(P), 1), np.nan), data, cfg)


def test_uki_step_rejects_misshaped_forward():
    st, cfg, data = scalar_setup()
    with pytest.raises(ValueError):
        uki_step(st, lambda P: P[:, 0], data, cfg)  # one value, not one row, per point


def test_gain_matches_cho_solve(monkeypatch):
    # the direct dpotrf/dpotrs calls give scipy's cho_factor/cho_solve bits
    rng = np.random.default_rng(5)
    n, p = 6, 36
    A = rng.standard_normal((p, n))
    st = GaussianState(rng.standard_normal(n), random_spd(n, rng))
    cfg = UKIConfig(alpha=0.8, r0=np.zeros(n), sigma_omega=np.eye(n))
    data = ObservationData(rng.standard_normal(p), random_spd(p, rng), 0.0)
    seen = {}
    dpotrf, dpotrs = uki.dpotrf, uki.dpotrs

    def potrf(a, **kw):
        seen["C_yy"] = a
        return dpotrf(a, **kw)

    def potrs(c, b, **kw):
        seen["rhs"] = b
        seen["x"], info = dpotrs(c, b, **kw)
        return seen["x"], info

    monkeypatch.setattr(uki, "dpotrf", potrf)
    monkeypatch.setattr(uki, "dpotrs", potrs)
    uki_step(st, lambda P: np.tanh(P @ A.T), data, cfg)
    want = cho_solve(cho_factor(seen["C_yy"]), seen["rhs"])
    assert np.array_equal(seen["x"], want)


def test_uki_step_names_the_failed_leading_minor():
    st, cfg, _ = scalar_setup()
    data = ObservationData(np.array([1.0]), -4.0 * np.eye(1), 0.0)  # C_yy = 2 - 4
    with pytest.raises(UkiError, match="innovation covariance not positive definite: "
                                      "1-th leading minor"):
        uki_step(st, lambda P: P, data, cfg)


def test_uki_step_rejects_overflowing_innovation_covariance():
    st, cfg, data = scalar_setup()
    with np.errstate(over="ignore"), pytest.raises(UkiError, match="not finite"):
        uki_step(st, lambda P: 1e200 * P, data, cfg)


def test_uki_config_validation():
    with pytest.raises(ValueError):
        UKIConfig(alpha=0.0, r0=np.zeros(1), sigma_omega=np.eye(1))
    with pytest.raises(ValueError):
        UKIConfig(alpha=1.5, r0=np.zeros(1), sigma_omega=np.eye(1))


def test_covariance_stays_symmetric():
    rng = np.random.default_rng(11)
    n = 6
    A = rng.standard_normal((8, n))
    st = GaussianState(rng.standard_normal(n), random_spd(n, rng))
    cfg = UKIConfig(alpha=0.7, r0=np.zeros(n), sigma_omega=np.eye(n))
    data = ObservationData(rng.standard_normal(8), np.eye(8), 0.0)
    for _ in range(5):
        st, _ = uki_step(st, lambda P: P @ A.T, data, cfg)
        assert np.array_equal(st.C, st.C.T)
        np.linalg.cholesky(st.C)  # stays SPD


# -- run loop -----------------------------------------------------------------------


def test_run_uki_trajectory_and_callback():
    st, cfg, data = scalar_setup()
    seen = []
    traj = run_uki(st, lambda P: P, data, cfg, 4,
                   on_step=lambda k, s, y0: seen.append((k, float(y0[0]))))
    assert len(traj) == 4
    assert [k for k, _ in seen] == [1, 2, 3, 4]
    # first step reproduces the single-step hand value
    assert traj[0].r[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    # alpha = 1: center prediction of step k+1 is G at the step-k mean
    assert seen[1][1] == pytest.approx(traj[0].r[0], rel=1e-12)


def test_run_uki_converges_to_scalar_fixed_point():
    st, cfg, data = scalar_setup()
    traj = run_uki(st, lambda P: P, data, cfg, 100)
    c_inf = (math.sqrt(5.0) - 1.0) / 2.0
    assert traj[-1].C[0, 0] == pytest.approx(c_inf, abs=1e-8)
    assert traj[-1].r[0] == pytest.approx(1.0, abs=1e-8)


def test_run_uki_truncates_on_failure():
    st, cfg, data = scalar_setup()
    count = [0]

    def flaky(P):
        # rows count up across calls; from the 8th on they read NaN
        rows = count[0] + np.arange(1, len(P) + 1)
        count[0] += len(P)
        return np.where((rows > 7)[:, None], np.nan, P)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = run_uki(st, flaky, data, cfg, 10)
    assert len(traj) == 2  # steps 1-2 complete; step 3 hits the NaN mid-ensemble
    assert any("stopped at step 3" in str(w.message) for w in caught)


def test_run_uki_total_eval_count():
    rng = np.random.default_rng(1)
    n = 4
    A = rng.standard_normal((5, n))
    st = GaussianState(np.zeros(n), np.eye(n))
    cfg = UKIConfig(alpha=1.0, r0=np.zeros(n), sigma_omega=np.eye(n))
    data = ObservationData(rng.standard_normal(5), np.eye(5), 0.0)
    calls = [0]

    def fwd(P):
        calls[0] += len(P)
        return P @ A.T

    run_uki(st, fwd, data, cfg, 6)
    assert calls[0] == 6 * (2 * n + 1)
