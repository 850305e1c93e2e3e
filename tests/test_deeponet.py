import gc
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from opinv.config import preset
from opinv.deeponet import (
    Adam,
    NetArch,
    Surrogate,
    TrainingError,
    TrainingSet,
    empirical_loss,
    encoder_indices,
    encoder_matrix,
    fine_tune,
    loss_and_grad,
    train,
    write_loss_history,
)
from opinv.grf import Grid2D, build_kl_basis, sample_field


def small_surrogate(seed=0, branch=(3, 6, 2), trunk=(2, 5, 2)):
    return Surrogate.init(NetArch(branch, trunk), np.random.default_rng(seed))


def zero_surrogate(branch=(2, 2), trunk=(1, 2), **kwargs):
    s = Surrogate.init(NetArch(branch, trunk), np.random.default_rng(0), **kwargs)
    s.w[:] = 0.0
    return s


# -- architecture / evaluation ------------------------------------------------


def test_arch_rejects_mismatched_output_width():
    with pytest.raises(ValueError):
        NetArch((4, 8, 3), (2, 8, 5))


def test_arch_rejects_single_width():
    with pytest.raises(ValueError):
        NetArch((4,), (4,))


def test_zero_network_outputs_zero():
    s = zero_surrogate()
    out = s.eval(np.random.default_rng(1).standard_normal((5, 2)), [[0.3], [0.7]])
    assert out.shape == (5, 2)
    assert np.all(out == 0.0)


def test_affine_calibration_applies_after_bias():
    s = zero_surrogate(out_shift=1.0, out_scale=0.5)
    s.w[-1] = 2.0  # bias0
    out = s.eval([[0.0, 0.0]], [[0.5]])
    # shift + scale * (0 + bias0)
    assert out[0, 0] == pytest.approx(2.0)


# flat order [W_b, b_b, W_t, b_t, bias0]
HAND_WEIGHTS = [2.0, 0.5, 3.0, -1.0, 0.25]


def test_single_linear_layer_hand_value():
    # branch (1,1) and trunk (1,1) have no hidden layer, so the output is
    # (w_b u + b_b)(w_t x + b_t) + bias0 exactly.
    s = Surrogate(NetArch((1, 1), (1, 1)), HAND_WEIGHTS)
    u, x = 0.7, 0.4
    expected = (2.0 * u + 0.5) * (3.0 * x - 1.0) + 0.25
    assert s.eval([[u]], [[x]])[0, 0] == pytest.approx(expected, rel=1e-15)


def test_tanh_hidden_layer_hand_value():
    # branch (1,1,1): hidden tanh then linear readout.
    s = Surrogate(NetArch((1, 1, 1), (1, 1)), [1.5, 0.2, 2.0, 0.1, 1.0, 0.0, 0.0])
    u, x = 0.3, 0.9
    beta = 2.0 * np.tanh(1.5 * u + 0.2) + 0.1
    assert s.eval([[u]], [[x]])[0, 0] == pytest.approx(beta * x, rel=1e-14)


def test_eval_shape_and_batching():
    s = small_surrogate()
    rng = np.random.default_rng(2)
    U = rng.standard_normal((7, 3))
    X = rng.standard_normal((4, 2))
    out = s.eval(U, X)
    assert out.shape == (7, 4)
    # row i only depends on input i
    np.testing.assert_allclose(out[3], s.eval(U[3:4], X)[0], rtol=1e-14)


def reference_acts(layers, x):
    """Every activation of an MLP, ``acts[0] = x``, from plain formulas."""
    acts = [x]
    for k, (W, b) in enumerate(layers):
        z = acts[-1] @ W + b
        acts.append(z if k == len(layers) - 1 else np.tanh(z))
    return acts


def _desk_darcy_surrogate():
    """The desk Darcy net (8x8 encoder inputs, three 64-wide tanh layers,
    p = 40) with random weights, nonzero biases and bias0, and a
    calibration that is not the identity."""
    cfg = preset("darcy")
    arch = NetArch((cfg.encoder_axis**2, *cfg.hidden, cfg.p_basis), (2, *cfg.hidden, cfg.p_basis))
    s = Surrogate.init(arch, np.random.default_rng(3), out_shift=0.7, out_scale=13.0)
    s.w += 0.05 * np.random.default_rng(4).standard_normal(s.w.size)
    return s


@pytest.mark.parametrize("stacked", [False, True])
def test_eval_is_bit_identical_to_the_formula(stacked):
    # out_shift + out_scale * (beta tval^T + bias0) from every layer's
    # activations, on a 2-D batch and on a (B, 1, n) stack; inputs untouched
    s = _desk_darcy_surrogate()
    rng = np.random.default_rng(5)
    U = rng.standard_normal((50, 1, 64) if stacked else (50, 64))
    X = rng.uniform(size=(36, 2))
    U0, X0 = U.copy(), X.copy()
    beta = reference_acts(s.branch_params, U)[-1]
    tval = reference_acts(s.trunk_params, X)[-1]
    want = s.out_shift + s.out_scale * (beta @ tval.T + s.w[-1])
    got = s.eval(U, X)
    assert got.shape == want.shape == ((50, 1, 36) if stacked else (50, 36))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(U, U0) and np.array_equal(X, X0)


def test_eval_keeps_one_activation_alive():
    # a 2,000-row greedy-pool stack peaks below its input, three hidden
    # activations and the output; keeping every layer's would not
    s = _desk_darcy_surrogate()
    X = np.random.default_rng(6).uniform(size=(36, 2))
    s.eval(np.zeros((1, 1, 64)), X)
    tracemalloc.start()
    try:
        U = np.random.default_rng(7).standard_normal((2000, 1, 64))
        out = s.eval(U, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    activation = 2000 * max(s.arch.branch[1:-1]) * 8
    assert peak < U.nbytes + 3 * activation + out.nbytes


def test_init_reproducible():
    a = small_surrogate(seed=9).w
    b = small_surrogate(seed=9).w
    np.testing.assert_array_equal(a, b)


# -- loss and gradient --------------------------------------------------------


def test_unit_loss_for_zero_net_and_unit_targets():
    s = zero_surrogate()
    ts = TrainingSet(np.zeros((4, 2)), np.ones((4, 3)), np.zeros((3, 1)))
    assert empirical_loss(s, ts) == pytest.approx(1.0)


def test_gradient_matches_central_differences():
    s = small_surrogate(seed=3)
    rng = np.random.default_rng(4)
    U = rng.standard_normal((5, 3))
    X = rng.standard_normal((4, 2))
    T = rng.standard_normal((5, 4))
    s.out_shift, s.out_scale = 0.3, 1.7  # calibration must enter the chain rule
    _, g = loss_and_grad(s, U, T, X)

    w0 = s.w.copy()
    h = 1e-6
    idx = rng.choice(w0.size - 1, size=19, replace=False).tolist() + [w0.size - 1]
    for i in idx:
        wp, wm = w0.copy(), w0.copy()
        wp[i] += h
        wm[i] -= h
        s.w[:] = wp
        lp, _ = loss_and_grad(s, U, T, X)
        s.w[:] = wm
        lm, _ = loss_and_grad(s, U, T, X)
        fd = (lp - lm) / (2 * h)
        assert abs(g[i] - fd) <= 1e-5 * max(1.0, abs(fd)), f"coordinate {i}"
    s.w[:] = w0


def test_gradient_of_exact_fit_is_zero():
    s = small_surrogate(seed=11)
    rng = np.random.default_rng(12)
    U = rng.standard_normal((3, 3))
    X = rng.standard_normal((2, 2))
    T = s.eval(U, X)
    loss, g = loss_and_grad(s, U, T, X)
    assert loss == pytest.approx(0.0, abs=1e-28)
    np.testing.assert_allclose(g, 0.0, atol=1e-13)


# -- optimizer ----------------------------------------------------------------


def test_adam_first_step_is_signed_learning_rate():
    opt = Adam(3, lr=0.01)
    g = np.array([5.0, -2.0, 0.0])
    w, m, v = np.zeros(3), opt.m, opt.v
    assert opt.step(w, g) is None  # w and the moments are updated in place
    assert opt.m is m and opt.v is v
    np.testing.assert_allclose(w[:2], [-0.01, 0.01], rtol=1e-6)
    assert w[2] == 0.0


def test_adam_steps_match_the_out_of_place_formula():
    # the in-place step rounds as w - lr m^ / (sqrt(v^) + eps) does
    rng = np.random.default_rng(50)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    w = rng.standard_normal(37)
    want, m, v = w.copy(), np.zeros(37), np.zeros(37)
    opt = Adam(37, lr)
    for t in range(1, 7):
        g = rng.standard_normal(37)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh, vh = m / (1 - b1**t), v / (1 - b2**t)
        want = want - lr * mh / (np.sqrt(vh) + eps)
        opt.step(w, g.copy())  # g is consumed
        for got, ref in ((w, want), (opt.m, m), (opt.v, v)):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), t


def test_training_fits_separable_toy_operator():
    # G(u)(x) = mean(u) + x, learnable with a tiny branch/trunk pair.
    rng = np.random.default_rng(7)
    U = rng.uniform(-1.0, 1.0, size=(40, 2))
    X = np.linspace(0.0, 1.0, 5)[:, None]
    T = 0.5 * (U[:, 0] + U[:, 1])[:, None] + X.T
    ts = TrainingSet(U, T, X)
    s = Surrogate.init(NetArch((2, 8, 2), (1, 8, 2)), np.random.default_rng(8))
    train(s, ts, 2500, lr=1e-2)
    assert empirical_loss(s, ts) < 1e-4
    assert s.iters_done == 2500
    assert s.train_log[-1][0] == 2500


def test_train_zero_iters_is_identity():
    s = small_surrogate(seed=1)
    w = s.w.copy()
    ts = TrainingSet(np.zeros((2, 3)), np.ones((2, 2)), np.zeros((2, 2)))
    train(s, ts, 0)
    np.testing.assert_array_equal(s.w, w)


def test_train_raises_when_loss_increases():
    rng = np.random.default_rng(20)
    ts = TrainingSet(rng.standard_normal((6, 2)), rng.standard_normal((6, 3)),
                     rng.standard_normal((3, 1)))
    s = Surrogate.init(NetArch((2, 4, 2), (1, 4, 2)), np.random.default_rng(21))
    with pytest.raises(TrainingError):
        train(s, ts, 3, lr=50.0)  # absurd step size overshoots immediately


def test_training_is_independent_of_target_layout():
    # batched sensor readings come out column-major; the in-place residual
    # must give the same descent either way and leave the targets untouched
    rng = np.random.default_rng(16)
    U = rng.uniform(-1, 1, size=(12, 2))
    X = rng.uniform(0, 1, size=(5, 2))
    T = rng.standard_normal((12, 5))
    weights = []
    for targets in (np.ascontiguousarray(T), np.asfortranarray(T)):
        s = Surrogate.init(NetArch((2, 6, 3), (2, 6, 3)), np.random.default_rng(17))
        train(s, TrainingSet(U, targets, X), 50, lr=1e-3)
        np.testing.assert_array_equal(targets, T)
        weights.append(s.w)
    np.testing.assert_array_equal(weights[0], weights[1])


def reference_train(params, ts, n_iters, lr, out_shift=0.0, out_scale=1.0):
    """Reference trainer: one (W, b) tuple per layer, packed into a flat
    vector with np.concatenate and stepped by an out-of-place Adam;
    params = [branch layers, trunk layers, bias0], returned updated.
    The calibrated residual is ``(raw + bias0) * out_scale + out_shift -
    targets``, in that order."""

    def backward(layers, acts, d):
        grads = [None] * len(layers)
        for k in range(len(layers) - 1, -1, -1):
            if k != len(layers) - 1:
                d = d * (1.0 - acts[k + 1] ** 2)
            grads[k] = (acts[k].T @ d, d.sum(axis=0))
            d = d @ layers[k][0].T
        return grads

    def pack(branch, trunk, bias0):
        flat = [g.ravel() for layers in (branch, trunk) for W, b in layers for g in (W, b)]
        return np.concatenate(flat + [np.array([bias0])])

    def unpack(w):
        k, nets = 0, []
        for layers in params[:2]:
            nets.append([])
            for W, b in layers:
                nets[-1].append((w[k:k + W.size].reshape(W.shape).copy(),
                                 w[k + W.size:k + W.size + b.size].copy()))
                k += W.size + b.size
        return nets + [float(w[k])]

    targets = np.ascontiguousarray(ts.targets)
    b1, b2, eps = 0.9, 0.999, 1e-8
    w = pack(*params)
    m, v = np.zeros(w.size), np.zeros(w.size)
    for t in range(1, n_iters + 1):
        branch, trunk, bias0 = params
        b_acts = reference_acts(branch, ts.inputs)
        t_acts = reference_acts(trunk, ts.queries)
        resid = (b_acts[-1] @ t_acts[-1].T + bias0) * out_scale + out_shift - targets
        d_raw = resid * (2.0 * out_scale / resid.size)
        g = pack(backward(branch, b_acts, d_raw @ t_acts[-1]),
                 backward(trunk, t_acts, d_raw.T @ b_acts[-1]), float(d_raw.sum()))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh, vh = m / (1 - b1**t), v / (1 - b2**t)
        w = w - lr * mh / (np.sqrt(vh) + eps)
        params = unpack(w)
    return params


def test_flat_in_place_training_matches_per_layer_reference():
    rng = np.random.default_rng(30)
    ts = TrainingSet(rng.uniform(-1, 1, size=(20, 3)), rng.standard_normal((20, 6)),
                     rng.uniform(0, 1, size=(6, 2)))
    arch = NetArch((3, 8, 8, 4), (2, 8, 4))
    s = Surrogate.init(arch, np.random.default_rng(31))
    w = s.w
    train(s, ts, 50, lr=1e-3)

    init = np.random.default_rng(31)
    params = [[(np.sqrt(2.0 / (a + b)) * init.standard_normal((a, b)), np.zeros(b))
               for a, b in zip(widths[:-1], widths[1:])] for widths in (arch.branch, arch.trunk)]
    branch, trunk, bias0 = reference_train(params + [0.0], ts, 50, 1e-3)
    want = np.concatenate([g.ravel() for layers in (branch, trunk) for W, b in layers
                           for g in (W, b)] + [np.array([bias0])])
    np.testing.assert_array_equal(s.w, want)
    # training steps the one flat vector, which the layer views still see
    assert s.w is w
    assert all(np.shares_memory(a, w) for layers in (s.branch_params, s.trunk_params)
               for layer in layers for a in layer)


DESK_ARCH = NetArch((64, 64, 64, 64, 40), (2, 64, 64, 64, 40))


def _desk_set(rng, n, queries):
    return TrainingSet(rng.uniform(-1, 1, size=(n, 64)), rng.standard_normal((n, len(queries))),
                       queries)


def _reference_params(s):
    """A surrogate's weights as reference_train takes them."""
    return [[(W.copy(), b.copy()) for W, b in net]
            for net in (s.branch_params, s.trunk_params)] + [float(s.w[-1])]


def _assert_weights_equal(s, params):
    branch, trunk, bias0 = params
    want = np.concatenate([g.ravel() for layers in (branch, trunk) for W, b in layers
                           for g in (W, b)] + [np.array([bias0])])
    assert np.array_equal(s.w.view(np.uint64), want.view(np.uint64))


def _desk_training(n=200, iters=20):
    """A calibrated desk Darcy net trained on n entries at 144 queries, and
    the reference's weights for the same run."""
    rng = np.random.default_rng(40)
    ts = _desk_set(rng, n, rng.uniform(size=(144, 2)))
    s = Surrogate.init(DESK_ARCH, np.random.default_rng(41), out_shift=0.3, out_scale=1.7)
    params = reference_train(_reference_params(s), ts, iters, 1e-3, 0.3, 1.7)
    train(s, ts, iters, lr=1e-3)
    return s, ts, params


def test_calibrated_desk_net_trains_as_the_reference():
    s, _, params = _desk_training()
    _assert_weights_equal(s, params)


def test_fine_tune_on_a_grown_set_trains_as_the_reference():
    # 200 -> 220 entries: the fine-tune builds a workspace of the new size
    s, ts, params = _desk_training()
    grown = ts.extend(_desk_set(np.random.default_rng(42), 20, ts.queries))
    fine_tune(s, grown, 20)
    _assert_weights_equal(s, reference_train(params, grown, 20, 5e-4, 0.3, 1.7))


def test_training_allocates_nothing_per_iteration():
    # 50 iterations peak no higher than one: every buffer is made once per
    # call; and each loss_and_grad call returns a gradient of its own
    rng = np.random.default_rng(43)
    ts = _desk_set(rng, 200, rng.uniform(size=(144, 2)))
    s0 = Surrogate.init(DESK_ARCH, np.random.default_rng(44), out_shift=0.3, out_scale=1.7)
    peaks = []
    for n_iters in (1, 50):
        s = Surrogate(DESK_ARCH, s0.w.copy(), s0.out_shift, s0.out_scale)
        tracemalloc.start()
        try:
            train(s, ts, n_iters, lr=1e-3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096
    _, g1 = loss_and_grad(s0, ts.inputs, ts.targets, ts.queries)
    g1_copy = g1.copy()
    _, g2 = loss_and_grad(s, ts.inputs, ts.targets, ts.queries)
    assert not np.shares_memory(g1, g2)
    np.testing.assert_array_equal(g1, g1_copy)


def test_fine_tune_beats_cold_start_on_extended_set():
    # Warm-starting from a net trained on the base set should win on the
    # union set for almost every seed, given an equal extra budget.
    base_q = np.linspace(0, 1, 4)[:, None]

    def make_sets(rng):
        U = rng.uniform(-1, 1, size=(25, 2))
        T = np.sin(U[:, :1]) + base_q.T
        extra_u = rng.uniform(-1, 1, size=(5, 2))
        extra_t = np.sin(extra_u[:, :1]) + base_q.T
        return TrainingSet(U, T, base_q), TrainingSet(extra_u, extra_t, base_q)

    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        base, extra = make_sets(rng)
        both = base.extend(extra)
        warm = Surrogate.init(NetArch((2, 8, 2), (1, 8, 2)), np.random.default_rng(seed))
        train(warm, base, 400, lr=5e-3)
        fine_tune(warm, both, 150)
        cold = Surrogate.init(NetArch((2, 8, 2), (1, 8, 2)), np.random.default_rng(seed))
        train(cold, both, 150, lr=5e-4)
        if empirical_loss(warm, both) < empirical_loss(cold, both):
            wins += 1
    assert wins >= 8


# -- training set -------------------------------------------------------------


def test_training_set_extend_stacks_and_checks_queries():
    q = np.array([[0.1], [0.9]])
    a = TrainingSet([[1.0, 2.0]], [[3.0, 4.0]], q)
    b = TrainingSet([[5.0, 6.0]], [[7.0, 8.0]], q)
    c = a.extend(b)
    assert c.n_entries == 2
    np.testing.assert_array_equal(c.inputs, [[1.0, 2.0], [5.0, 6.0]])
    np.testing.assert_array_equal(c.targets, [[3.0, 4.0], [7.0, 8.0]])
    with pytest.raises(ValueError):
        a.extend(TrainingSet([[5.0, 6.0]], [[7.0, 8.0]], q * 2.0))


def test_training_set_shape_validation():
    with pytest.raises(ValueError):
        TrainingSet(np.zeros((3, 2)), np.zeros((3, 5)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        TrainingSet(np.zeros((2, 2)), np.zeros((3, 4)), np.zeros((4, 1)))


# -- encoder ------------------------------------------------------------------


def encode(f, node_idx):
    """Oracle for encoder_matrix: pointwise readout of a field's node values."""
    return f[np.asarray(node_idx, dtype=int)]


def test_encoder_all_nodes_is_identity():
    grid = Grid2D(5, 5)
    idx = encoder_indices(grid, 5)
    basis = build_kl_basis(grid, 3)
    f = sample_field(basis, np.array([1.0, -2.0, 0.5]))
    np.testing.assert_array_equal(encode(f, idx), f)


def test_encoder_matrix_matches_pointwise_readout():
    grid = Grid2D(9, 9)
    basis = build_kl_basis(grid, 6)
    idx = encoder_indices(grid, 4)
    M = encoder_matrix(basis, idx)
    assert M.shape == (6, 16)
    z = np.random.default_rng(3).standard_normal(6)
    np.testing.assert_allclose(z @ M, encode(sample_field(basis, z), idx), rtol=1e-13)


def test_encoder_indices_rejects_oversampling():
    with pytest.raises(ValueError):
        encoder_indices(Grid2D(4, 4), 9)


# -- persistence --------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    s = small_surrogate(seed=17)
    s.out_shift, s.out_scale = -0.4, 2.5
    s.train_log = [(100, 0.5), (200, 0.25)]
    s.iters_done = 200
    stem = tmp_path / "net"
    s.save(stem)
    s2 = Surrogate.load(stem)
    np.testing.assert_array_equal(s2.w, s.w)
    assert s2.arch == s.arch
    assert s2.out_shift == s.out_shift and s2.out_scale == s.out_scale
    assert s2.train_log == s.train_log
    assert s2.iters_done == 200
    rng = np.random.default_rng(18)
    U, X = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
    np.testing.assert_array_equal(s2.eval(U, X), s.eval(U, X))


def test_checkpoint_bin_is_the_flat_vector(tmp_path):
    Surrogate(NetArch((1, 1), (1, 1)), HAND_WEIGHTS).save(tmp_path / "net")
    assert (tmp_path / "net.bin").read_bytes() == np.array(HAND_WEIGHTS, "<f8").tobytes()


@pytest.mark.parametrize("extra", [-1, 1])
def test_checkpoint_load_rejects_wrong_weight_count(tmp_path, extra):
    stem = tmp_path / "net"
    s = small_surrogate()
    s.save(stem)
    flat = s.w[:-1] if extra < 0 else np.append(s.w, 0.0)
    (tmp_path / "net.bin").write_bytes(flat.astype("<f8").tobytes())
    with pytest.raises(ValueError):
        Surrogate.load(stem)


def test_checkpoint_load_closes_its_file(tmp_path, monkeypatch):
    stem = tmp_path / "net"
    small_surrogate().save(stem)
    # an unclosed file warns as it is freed, where no exception can propagate
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        Surrogate.load(stem)
        gc.collect()
    assert [u.exc_value for u in unraisable] == []


def test_loss_history_csv(tmp_path):
    s = small_surrogate()
    s.train_log = [(1, 0.75), (2, 0.5)]
    path = tmp_path / "loss.csv"
    write_loss_history(path, s)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,loss"
    assert lines[1].startswith("1,0.75")
    assert len(lines) == 3
