import math

import numpy as np
import pytest

from opinv.adaptive import (
    AnchorRecord,
    RefinePolicy,
    fem_eval_count,
    greedy_select,
    local_model_error,
    relative_inversion_error,
    run_adaptive,
    select_anchor,
    should_refine,
    speedup,
)
from opinv.deeponet import TrainingError
from opinv.grf import Field, Grid2D
from opinv.observe import ObservationData, misfit
from opinv.uki import GaussianState, UKIConfig, run_uki


def obs_data(y, var=1.0):
    y = np.asarray(y, dtype=float)
    return ObservationData(y, var * np.eye(y.size), 0.0)


class LinearTask:
    """Full model G z; surrogate adds a constant output bias that each
    refinement shrinks by a fixed factor.  Every model maps a batch of rows."""

    def __init__(self, G, bias=0.0, decay=0.5):
        self.G = np.asarray(G, dtype=float)
        self.bias = float(bias)
        self.decay = float(decay)
        self.calls = {"anchor-scan": 0, "adaptive-sample": 0, "diagnostic": 0}
        self.refine_count = 0

    def surrogate_forward(self, Z):
        return Z @ self.G.T + self.bias

    def surrogate_batch(self, Z):
        return Z @ self.G.T + self.bias

    def full_forward(self, Z, category):
        self.calls[category] += len(Z)
        return Z @ self.G.T

    def refine(self, Z):
        self.full_forward(Z, "adaptive-sample")
        self.refine_count += 1
        self.bias *= self.decay


# -- policy / trigger -----------------------------------------------------------


def test_policy_validation():
    RefinePolicy()
    with pytest.raises(ValueError):
        RefinePolicy(epsilon=0.0)
    with pytest.raises(ValueError):
        RefinePolicy(t_steps=0)
    with pytest.raises(ValueError):
        RefinePolicy(q_new=30, k_pool=10)


def test_should_refine_cases():
    assert should_refine(1.0, 0.5, 0.01)          # ratio 1.0
    assert not should_refine(0.7, 0.7, 0.01)      # no change
    assert not should_refine(1.0, 0.995, 0.01)    # ratio ~0.00503
    assert not should_refine(5.0, 0.0, 0.01)      # perfect fit stops
    assert should_refine(math.inf, 1.0, 0.01)


# -- anchor selection -----------------------------------------------------------


def states_with_misfits(values):
    # misfit of z against y=0 with unit variance is z^2/2
    return [GaussianState(np.array([math.sqrt(2.0 * e)]), np.eye(1)) for e in values]


def test_select_anchor_single_state():
    traj = states_with_misfits([4.0])
    rec = select_anchor(traj, lambda z: z, obs_data([0.0]))
    assert rec.step_index == 1
    assert rec.e == pytest.approx(4.0, rel=1e-12)


def test_select_anchor_argmin_and_misfit_list():
    traj = states_with_misfits([5.0, 2.0, 9.0])
    rec = select_anchor(traj, lambda z: z, obs_data([0.0]))
    assert rec.step_index == 2
    assert rec.e == pytest.approx(2.0, rel=1e-12)
    assert rec.misfits == pytest.approx([5.0, 2.0, 9.0], rel=1e-12)
    np.testing.assert_allclose(rec.r, traj[1].r)


def test_select_anchor_tie_breaks_to_earliest():
    traj = states_with_misfits([3.0, 3.0])
    assert select_anchor(traj, lambda z: z, obs_data([0.0])).step_index == 1


def test_select_anchor_skips_invalid_states():
    def fwd(Z):
        # a failed full-order solve reads as a row of NaN
        return np.where(Z > 2.0, np.nan, Z)

    traj = states_with_misfits([9.0, 1.0])  # z values ~ [4.24, 1.41]
    rec = select_anchor(traj, fwd, obs_data([0.0]))
    assert rec.step_index == 2
    assert rec.misfits[0] == math.inf

    nanfwd = lambda Z: np.full((len(Z), 1), np.nan)
    with pytest.raises(ValueError):
        select_anchor(traj, nanfwd, obs_data([0.0]))
    with pytest.raises(ValueError):
        select_anchor([], fwd, obs_data([0.0]))


# -- greedy selection -----------------------------------------------------------


def test_greedy_hand_example():
    pool = np.array([[-1.0], [0.0], [2.0]])
    picked = greedy_select(pool, lambda P: P**2, np.array([0.0]), 2)
    np.testing.assert_array_equal(picked, [[0.0], [2.0]])


def test_greedy_single_pick_is_closest_to_anchor():
    rng = np.random.default_rng(0)
    pool = rng.standard_normal((15, 3))
    anchor = rng.standard_normal(3)
    picked = greedy_select(pool, lambda P: P, anchor, 1)
    j = np.argmin(np.linalg.norm(pool - anchor, axis=1))
    np.testing.assert_array_equal(picked[0], pool[j])


def greedy_brute_force(pool, outputs, anchor, q, lam):
    """Re-evaluates the selection criterion from scratch at every step."""
    sel = []
    for _ in range(q):
        best, best_score = None, -math.inf
        for i in range(len(pool)):
            if i in sel:
                continue
            d = max((np.linalg.norm(outputs[i] - outputs[j]) for j in sel),
                    default=0.0)
            score = d - lam * np.linalg.norm(pool[i] - anchor)
            if score > best_score:
                best, best_score = i, score
        sel.append(best)
    return pool[sel]


def test_greedy_matches_brute_force_on_random_pools():
    rng = np.random.default_rng(42)
    for trial in range(50):
        pool = rng.standard_normal((20, 3))
        W = rng.standard_normal((3, 4))
        anchor = rng.standard_normal(3)
        lam = rng.uniform(0.2, 2.0)
        fast = greedy_select(pool, lambda P: np.tanh(P @ W), anchor, 5, lam)
        slow = greedy_brute_force(pool, np.tanh(pool @ W), anchor, 5, lam)
        np.testing.assert_array_equal(fast, slow, err_msg=f"trial {trial}")


def test_greedy_returns_distinct_pool_rows():
    rng = np.random.default_rng(5)
    pool = rng.standard_normal((12, 2))
    picked = greedy_select(pool, lambda P: P @ np.ones((2, 3)), pool[0], 12)
    assert picked.shape == (12, 2)
    # every pool row appears exactly once
    order = [np.flatnonzero((pool == row).all(axis=1))[0] for row in picked]
    assert sorted(order) == list(range(12))


def test_greedy_validation():
    with pytest.raises(ValueError):
        greedy_select(np.zeros((0, 2)), lambda P: P, np.zeros(2), 1)
    with pytest.raises(ValueError):
        greedy_select(np.zeros((3, 2)), lambda P: P, np.zeros(2), 4)


# -- error metrics --------------------------------------------------------------


def test_local_model_error_exact_surrogate_is_zero():
    samples = np.random.default_rng(1).standard_normal((6, 2))
    G = np.array([[1.0, 2.0], [0.0, 1.0]])
    err = local_model_error(lambda Z: Z @ G.T, lambda Z: Z @ G.T, samples)
    assert err == 0.0


def test_local_model_error_constant_offset():
    samples = np.zeros((4, 2))
    err = local_model_error(lambda Z: np.tile([3.0, 4.0], (len(Z), 1)),
                            lambda Z: np.zeros((len(Z), 2)), samples)
    assert err == pytest.approx(5.0, rel=1e-14)


def test_local_model_error_is_inf_when_a_full_solve_fails():
    samples = np.zeros((3, 2))
    full = lambda Z: np.array([[0.0, 1.0], [np.nan, np.nan], [1.0, 0.0]])
    assert local_model_error(lambda Z: np.zeros((len(Z), 2)), full, samples) == math.inf


def test_local_model_error_single_sample():
    err = local_model_error(lambda Z: np.ones((1, 3)), lambda Z: np.zeros((1, 3)),
                            np.zeros((1, 2)))
    assert err == pytest.approx(math.sqrt(3.0), rel=1e-14)


def test_relative_inversion_error_basics():
    grid = Grid2D(3, 3)
    ref = Field(grid, np.arange(1.0, 10.0))
    assert relative_inversion_error(ref, ref) == 0.0
    assert relative_inversion_error(Field(grid, np.zeros(9)), ref) == pytest.approx(1.0)
    assert relative_inversion_error(2.0 * ref.values, ref.values) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_inversion_error(ref.values, np.zeros(9))


def test_speedup_formula():
    assert fem_eval_count(128, 20) == 5140
    assert speedup(128, 20, 50, 10, 10) == pytest.approx(5140.0 / 600.0)
    n = 7
    assert speedup(n, 20, 0, 20, 1) == pytest.approx(2 * n + 1)


# -- the refinement loop ----------------------------------------------------------


def loop_fixture(n_dim=2, n_obs=3, seed=3):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n_obs, n_dim))
    z_true = rng.standard_normal(n_dim)
    data = obs_data(G @ z_true, var=0.01)
    state0 = GaussianState(np.zeros(n_dim), np.eye(n_dim))
    return G, z_true, data, state0


def test_single_cycle_matches_plain_inversion():
    # with an exact surrogate and one cycle, the loop is a plain sigma-point
    # run followed by an anchor scan
    G, _, data, state0 = loop_fixture()
    task = LinearTask(G)
    policy = RefinePolicy(epsilon=math.inf, i_max=1, t_steps=6, q_new=2, k_pool=10)
    record = run_adaptive(task, data, state0, policy, alpha=1.0, rng=0)

    cfg = UKIConfig(alpha=1.0, r0=state0.r, sigma_omega=state0.C,
                    sigma_eta=data.noise_cov)
    traj = run_uki(state0, lambda Z: Z @ G.T, data, cfg, 6)
    scan = [misfit(G @ st.r, data) for st in traj]
    j = int(np.argmin(scan))

    assert record.n_cycles == 1
    assert record.stopped == "stall"
    rec = record.cycles[0]
    assert rec.anchor.step_index == j + 1
    np.testing.assert_allclose(rec.anchor.r, traj[j].r, atol=1e-12)
    np.testing.assert_allclose(rec.anchor.C, traj[j].C, atol=1e-12)
    np.testing.assert_allclose(record.final_r, traj[j].r, atol=1e-12)
    assert task.calls == {"anchor-scan": 7, "adaptive-sample": 0, "diagnostic": 0}
    assert task.calls["anchor-scan"] == 1 + len(rec.anchor.misfits)


def test_exact_surrogate_stops_by_stall_and_respects_trigger():
    G, _, data, state0 = loop_fixture(seed=9)
    task = LinearTask(G)
    policy = RefinePolicy(epsilon=0.05, i_max=20, t_steps=5, q_new=2, k_pool=10)
    record = run_adaptive(task, data, state0, policy, alpha=1.0, rng=1)

    assert record.stopped == "stall"
    assert 1 <= record.n_cycles < 20
    # the recorded misfit sequence must reproduce the stopping rule exactly
    es = [record.e0] + [c.e_d for c in record.cycles]
    for prev, nxt in zip(es[:-2], es[1:-1]):
        assert should_refine(prev, nxt, policy.epsilon)
    assert not should_refine(es[-2], es[-1], policy.epsilon)
    # anchor misfit never increases on the linear fixture
    diffs = np.diff([c.e_d for c in record.cycles])
    assert np.all(diffs <= 1e-12)


def test_refinement_improves_biased_surrogate():
    G, _, data, state0 = loop_fixture(seed=11)
    task = LinearTask(G, bias=0.5, decay=0.3)
    policy = RefinePolicy(epsilon=0.01, i_max=4, t_steps=3, q_new=4, k_pool=30)
    record = run_adaptive(task, data, state0, policy, alpha=1.0, rng=2, n_probe=5)

    n_refined = sum(c.refined for c in record.cycles)
    assert n_refined == task.refine_count >= 1
    assert not record.cycles[-1].refined  # last cycle never fine-tunes

    # constant output bias b gives a model error of exactly b * sqrt(n_obs)
    expect = 0.5 * math.sqrt(3.0)
    for c in record.cycles:
        assert c.e_m == pytest.approx(expect, rel=1e-9)
        if c.refined:
            expect *= 0.3

    counts = task.calls
    assert counts["anchor-scan"] == 1 + sum(len(c.anchor.misfits) for c in record.cycles)
    assert counts["anchor-scan"] <= policy.t_steps * policy.i_max + 1
    assert counts["adaptive-sample"] == 4 * n_refined
    non_diag = counts["anchor-scan"] + counts["adaptive-sample"]
    assert non_diag <= (policy.q_new + policy.t_steps) * policy.i_max
    assert counts["diagnostic"] == 5 * record.n_cycles


def test_final_estimate_is_min_misfit_anchor():
    G, _, data, state0 = loop_fixture(seed=13)
    task = LinearTask(G, bias=0.2, decay=0.1)
    policy = RefinePolicy(epsilon=0.001, i_max=5, t_steps=4, q_new=3, k_pool=20)
    record = run_adaptive(task, data, state0, policy, alpha=1.0, rng=3)
    best = min(range(record.n_cycles), key=lambda i: record.cycles[i].e_d)
    assert record.final_cycle == best
    np.testing.assert_array_equal(record.final_r, record.cycles[best].anchor.r)


def test_inversion_error_metric_is_recorded():
    G, z_true, data, state0 = loop_fixture(seed=15)
    task = LinearTask(G)
    task.inversion_error = lambda z: float(
        np.linalg.norm(z - z_true) / np.linalg.norm(z_true))
    policy = RefinePolicy(epsilon=0.05, i_max=6, t_steps=5, q_new=2, k_pool=10)
    record = run_adaptive(task, data, state0, policy, alpha=1.0, rng=4)
    assert all(c.e_i is not None and c.e_i >= 0.0 for c in record.cycles)
    assert record.cycles[-1].e_i < 0.1  # exact surrogate recovers z_true


def test_failed_fine_tune_leaves_partial_record():
    G, _, data, state0 = loop_fixture(seed=17)
    task = LinearTask(G, bias=1.0)
    def bad_refine(Z):
        raise TrainingError("no descent")
    task.refine = bad_refine
    policy = RefinePolicy(epsilon=0.01, i_max=4, t_steps=3, q_new=2, k_pool=10)
    record = run_adaptive(task, data, state0, policy, alpha=1.0, rng=5)
    assert record.stopped.startswith("error at cycle 0")
    assert record.n_cycles == 1
    assert not record.cycles[0].refined
    np.testing.assert_array_equal(record.final_r, record.cycles[0].anchor.r)


def test_dead_surrogate_yields_empty_partial_record():
    G, _, data, state0 = loop_fixture(seed=19)
    task = LinearTask(G)
    task.surrogate_forward = lambda Z: np.full((len(Z), 3), np.nan)
    policy = RefinePolicy(epsilon=0.01, i_max=3, t_steps=3, q_new=2, k_pool=10)
    with pytest.warns(UserWarning):
        record = run_adaptive(task, data, state0, policy, alpha=1.0, rng=6)
    assert record.stopped.startswith("error at cycle 0")
    assert record.n_cycles == 0
    np.testing.assert_array_equal(record.final_r, state0.r)


def test_probe_draws_follow_seed():
    G, _, data, state0 = loop_fixture(seed=21)
    policy = RefinePolicy(epsilon=0.01, i_max=3, t_steps=3, q_new=2, k_pool=10)

    def run(seed):
        rec = run_adaptive(LinearTask(G, bias=0.3), data, state0, policy,
                           alpha=1.0, rng=seed, n_probe=4)
        return [c.e_m for c in rec.cycles]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_anchor_record_defaults_are_independent():
    a = AnchorRecord(np.zeros(1), np.eye(1), 1.0, 1)
    b = AnchorRecord(np.zeros(1), np.eye(1), 2.0, 1)
    a.misfits.append(1.0)
    assert b.misfits == []
