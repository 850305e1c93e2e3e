"""Release gate: one test per acceptance criterion, each printing a verdict line.

The first six criteria check the numerical core against independent oracles
(closed-form Kalman algebra, manufactured PDE solutions, finite differences).
The last three run the shipped presets end to end and check the recovery and
bookkeeping properties the benchmarks promise.  Budget-heavy tests share one
module-scoped set of desk-scale runs.
"""

import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from opinv.adaptive import fem_eval_count, greedy_select
from opinv.config import SPECS, RunConfig, preset
from opinv.deeponet import NetArch, Surrogate, loss_and_grad
from opinv.forward import (
    DarcyProblem,
    HeatSourceFieldProblem,
    HeatSourceLocProblem,
    ReactionDiffusionProblem,
)
from opinv.grf import Grid2D
from opinv.harness import (
    cmd_invert,
    cmd_train_offline,
    load_record,
    random_linear_model,
)
from opinv.lintheory import LinearModel, exact_update, solve_fixed_point, verify_error_bound
from opinv.observe import ObservationData
from opinv.uki import GaussianState, UKIConfig, run_uki, uki_step

PI = math.pi
CHI_TRUE = np.array(SPECS["heat-loc"].point.truth)


def _verdict(k: int, ok: bool, detail: str) -> None:
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {k}: {detail}"


def _l2_error(grid, values, exact) -> float:
    w = grid.trapezoid_weights()
    return math.sqrt(w @ (values - exact) ** 2)


def _spd(rng, n: int) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return A @ A.T + np.diag(0.3 + rng.uniform(size=n))


# -- 1: sigma-point update equals the closed-form Kalman update ---------------


def test_criterion_1_unscented_exact_on_affine_models():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 7))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        y_obs = rng.standard_normal(m)
        alpha = float(rng.uniform(0.3, 1.0))
        r0 = rng.standard_normal(n)
        state = GaussianState(rng.standard_normal(n), _spd(rng, n))
        sigma_omega = _spd(rng, n)
        sigma_eta = _spd(rng, m)

        cfg = UKIConfig(alpha, r0, sigma_omega, sigma_eta)
        data = ObservationData(y_obs, sigma_eta, 0.05)
        got, _ = uki_step(state, lambda Z: Z @ A.T + b, data, cfg)

        # affine map folds into the linear oracle by shifting the data
        model = LinearModel(G=A, y=y_obs - b, alpha=alpha, r0=r0,
                            sigma_omega=sigma_omega, sigma_eta=sigma_eta)
        r_ref, C_ref = exact_update(model, state.r, state.C)
        worst = max(worst,
                    np.max(np.abs(got.r - r_ref)),
                    np.max(np.abs(got.C - C_ref)))
    wall = time.perf_counter() - t0
    _verdict(1, worst < 1e-10 and wall < 5.0,
             f"25 affine models, max elementwise error {worst:.3e}, {wall:.2f}s")


# -- 2: scalar fixed point, exact map and sigma-point trajectory --------------


def test_criterion_2_scalar_fixed_point():
    y = 1.7
    model = LinearModel(G=[[1.0]], y=[y], alpha=1.0, r0=[0.0],
                        sigma_omega=[[1.0]], sigma_eta=[[1.0]])
    fp = solve_fixed_point(model)
    c_star = (math.sqrt(5.0) - 1.0) / 2.0  # positive root of C^2 + C - 1 = 0
    err_c = abs(fp.C[0, 0] - c_star)
    err_r = abs(fp.r[0] - y)

    cfg = UKIConfig(1.0, np.zeros(1), np.eye(1), np.eye(1))
    data = ObservationData(np.array([y]), np.eye(1), 0.0)
    traj = run_uki(GaussianState(np.zeros(1), np.eye(1)),
                   lambda Z: Z.copy(), data, cfg, 100)
    final = traj[-1]
    err_traj = max(abs(final.r[0] - fp.r[0]), abs(final.C[0, 0] - fp.C[0, 0]))

    _verdict(2, err_c < 1e-8 and err_r < 1e-8 and len(traj) <= 100 and err_traj < 1e-6,
             f"|C-({c_star:.6f})|={err_c:.2e}, |r-y|={err_r:.2e}, "
             f"trajectory gap {err_traj:.2e} after {len(traj)} steps")


# -- 3: first-order sensitivity of the fixed point to forward-map error -------


def test_criterion_3_fixed_point_error_scaling():
    t0 = time.perf_counter()
    slopes = []
    for seed in (0, 1, 2):
        model = random_linear_model(4, 4, seed)
        rep = verify_error_bound(model)
        log_eps = np.log(rep["eps"])
        sm = float(np.polyfit(log_eps, np.log(rep["err_mean"]), 1)[0])
        sc = float(np.polyfit(log_eps, np.log(rep["err_cov_inv"]), 1)[0])
        slopes += [sm, sc]
        assert rep["premise_positive"], f"seed {seed}: degenerate model"
    wall = time.perf_counter() - t0
    ok = all(0.8 <= s <= 1.2 for s in slopes) and wall < 30.0
    _verdict(3, ok, "mean/cov-inverse slopes " +
             ", ".join(f"{s:.3f}" for s in slopes) + f", {wall:.2f}s")


# -- 4: greedy selection equals brute-force maximization -----------------------


def test_criterion_4_greedy_matches_brute_force():
    def brute(pool, outputs, anchor, q, lam):
        # literal sequential maximization of the selection score
        chosen: list = []
        for _ in range(q):
            best, best_score = None, -np.inf
            for i in range(pool.shape[0]):
                if i in chosen:
                    continue
                if chosen:
                    d = max(np.linalg.norm(outputs[i] - outputs[j]) for j in chosen)
                else:
                    d = 0.0
                score = d - lam * np.linalg.norm(pool[i] - anchor)
                if score > best_score:
                    best, best_score = i, score
            chosen.append(best)
        return chosen

    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(50):
        pool = rng.standard_normal((20, 3))
        P = rng.standard_normal((3, 4))
        q_off = rng.standard_normal(4)
        anchor = rng.standard_normal(3)
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        surrogate_map = lambda Z: np.tanh(np.atleast_2d(Z) @ P + q_off)
        got = greedy_select(pool, surrogate_map, anchor, 5, lam=lam)
        want = pool[brute(pool, surrogate_map(pool), anchor, 5, lam)]
        if not np.array_equal(got, want):
            mismatches += 1
    _verdict(4, mismatches == 0, f"50 instances, {mismatches} mismatches")


# -- 5: manufactured-solution convergence and discrete conservation -----------


def test_criterion_5_solver_orders_and_mass():
    orders = {}

    errs, hs = [], []
    for n in (9, 17, 33):
        g = Grid2D(n, n)
        X, Y = g.mesh()
        s = np.sin(PI * X) * np.sin(PI * Y)
        coeff = np.exp(X + Y)
        f = coeff * (2 * PI**2 * s - PI * np.cos(PI * X) * np.sin(PI * Y)
                     - PI * np.sin(PI * X) * np.cos(PI * Y))

        class PDarcy(DarcyProblem):
            def source_values(self):
                return f.ravel()

        (u,) = PDarcy(g).solve_batch((X + Y).reshape(1, -1))
        errs.append(_l2_error(g, u, s.ravel()))
        hs.append(1.0 / (n - 1))
    orders["darcy"] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    # time step shrinks with h^2 so the first-order march keeps pace
    errs, hs = [], []
    for n, steps in ((9, 16), (17, 64), (33, 256)):
        g = Grid2D(n, n)
        X, Y = g.mesh()
        base = (np.sin(PI * X) * np.sin(PI * Y)).ravel()

        class PField(HeatSourceFieldProblem):
            def initial_values(self):
                return base  # start on the manufactured solution

        (u,) = PField(g, n_steps=steps).solve_batch(((2 * PI**2 - 1) * base)[None])
        errs.append(_l2_error(g, u, math.exp(-1.0) * base))
        hs.append(1.0 / (n - 1))
    orders["heat-field"] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    errs, hs = [], []
    for n, steps in ((9, 16), (17, 64), (33, 256)):
        g = Grid2D(n, n)
        X, Y = g.mesh()
        base = (np.cos(PI * X) * np.cos(PI * Y)).ravel()

        class PLoc(HeatSourceLocProblem):
            def source_values(self, chi):
                return base  # steady manufactured forcing, center ignored

        ((u,),) = PLoc(g, t_cutoff=1.0, obs_times=(0.5,),
                       n_steps=steps).solve_batch([(0.3, 0.4)])
        exact = (1.0 - math.exp(-PI**2)) / (2 * PI**2) * base
        errs.append(_l2_error(g, u, exact))
        hs.append(1.0 / (n - 1))
    orders["heat-loc"] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    g = Grid2D(24, 24)
    p = ReactionDiffusionProblem(g)
    assert p.dt == 0.02
    m0 = np.random.default_rng(1).standard_normal(g.n_nodes)
    (u,) = p.solve_batch(m0[None])
    w = g.trapezoid_weights()
    drift = abs(w @ u - w @ m0) / abs(w @ m0)

    ok = all(1.8 <= o <= 2.2 for o in orders.values()) and drift < 1e-8
    _verdict(5, ok, "orders " +
             ", ".join(f"{k}={v:.2f}" for k, v in orders.items()) +
             f", mass drift {drift:.2e}")


# -- 6: analytic training gradient against central differences ----------------


def test_criterion_6_loss_gradient_finite_differences():
    s = Surrogate.init(NetArch((3, 6, 2), (2, 5, 2)), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    U = rng.standard_normal((5, 3))
    X = rng.standard_normal((4, 2))
    T = rng.standard_normal((5, 4))
    s.out_shift, s.out_scale = 0.3, 1.7
    _, grad = loss_and_grad(s, U, T, X)

    w0 = s.w.copy()
    h = 1e-6
    worst = 0.0
    for i in rng.choice(w0.size, size=20, replace=False):
        wp, wm = w0.copy(), w0.copy()
        wp[i] += h
        wm[i] -= h
        s.w[:] = wp
        lp, _ = loss_and_grad(s, U, T, X)
        s.w[:] = wm
        lm, _ = loss_and_grad(s, U, T, X)
        fd = (lp - lm) / (2 * h)
        worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-12))
    _verdict(6, worst < 1e-5, f"20 coordinates, worst relative error {worst:.2e}")


# -- 7/9: one shared desk-scale benchmark run ---------------------------------


@pytest.fixture(scope="module")
def darcy_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("darcy_e2e")
    t0 = time.perf_counter()
    stem = cmd_train_offline(replace(preset("darcy", "desk"), seed=7,
                                     out_dir=str(base / "train")))
    fem_path = cmd_invert(replace(preset("darcy", "desk"), seed=7,
                                  mode="fem-uki", out_dir=str(base / "fem")))
    ada_path = cmd_invert(replace(preset("darcy", "desk"), seed=7,
                                  mode="deeponet-adaptive", out_dir=str(base / "ada")),
                          checkpoint=stem)
    wall = time.perf_counter() - t0
    with open(base / "train" / "train_meta.json") as fh:
        meta = json.load(fh)
    return {"fem": load_record(fem_path), "ada": load_record(ada_path),
            "meta": meta, "wall": wall}


def _nondiagnostic(counts: dict) -> int:
    return sum(v for k, v in counts.items() if k not in ("diagnostic", "total", "offline"))


@pytest.mark.slow
def test_criterion_7_desk_darcy_end_to_end(darcy_runs):
    fem, ada = darcy_runs["fem"], darcy_runs["ada"]
    fem_ei = fem["series"][-1]["e_i"]
    ada_ei = ada["series"][ada["extras"]["final_cycle"]]["e_i"]

    em = [row["e_m"] for row in ada["series"] if row["e_m"] is not None]
    em_before = ada["extras"]["e0"]
    em_after = em[-1]

    cfgd = ada["config"]
    budget = (cfgd["q_new"] + cfgd["t_steps"]) * cfgd["i_max"]
    ada_evals = _nondiagnostic(ada["counts"])
    fem_evals = _nondiagnostic(fem["counts"])
    n_modes = fem["config"]["n_modes"]
    expected_fem = fem_eval_count(n_modes, fem["config"]["t_steps"])
    speedup = fem_evals / ada_evals

    ok = (ada_ei <= 2.0 * fem_ei
          and em_after <= em_before
          and ada_evals <= budget
          and fem["counts"]["fem-uki"] == expected_fem
          and speedup > 3.0
          and darcy_runs["wall"] <= 900.0)
    _verdict(7, ok,
             f"e_i {ada_ei:.3f} vs 2x fem {2 * fem_ei:.3f}; "
             f"e_m {em_after:.3f} <= {em_before:.3f}; "
             f"evals {ada_evals}/{budget} vs fem {fem_evals}; "
             f"speed-up {speedup:.1f}; wall {darcy_runs['wall']:.0f}s")


# -- 8: source localization from a cold start ---------------------------------


def _heat_loc_run(base, seed: int) -> str:
    stem = cmd_train_offline(replace(preset("heat-loc", "desk"), seed=seed,
                                     out_dir=str(base / f"train{seed}")))
    return cmd_invert(replace(preset("heat-loc", "desk"), seed=seed,
                              mode="deeponet-adaptive",
                              out_dir=str(base / f"run{seed}")),
                      checkpoint=stem)


@pytest.mark.slow
def test_criterion_8_heat_source_recovery(tmp_path_factory, monkeypatch):
    base = tmp_path_factory.mktemp("heat_loc_sweep")
    # The seeds are independent, so two fresh worker processes run them, each
    # with one BLAS thread: the training matrices are too small to gain from
    # more, and spin-waiting BLAS threads on shared cores slow it several-fold.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        paths = list(pool.map(_heat_loc_run, [base] * 10, range(10)))
    dists = []
    for path in paths:
        rec = load_record(path)
        chi_hat = np.asarray(rec["extras"]["chi_hat"], dtype=float)
        dists.append(float(np.linalg.norm(chi_hat - CHI_TRUE)))
    hits = sum(d <= 0.05 for d in dists)
    target = "(" + ", ".join(f"{c:g}" for c in CHI_TRUE) + ")"
    _verdict(8, hits >= 8, f"{hits}/10 seeds within 0.05 of {target}; "
             "distances " + ", ".join(f"{d:.3f}" for d in dists))


# -- 9: evaluation accounting --------------------------------------------------


@pytest.mark.slow
def test_criterion_9_ledger_identity(darcy_runs):
    checks = []
    for rec in (darcy_runs["fem"], darcy_runs["ada"]):
        counts = rec["counts"]
        checks.append(sum(v for k, v in counts.items() if k != "total")
                      == counts["total"])
    meta_counts = darcy_runs["meta"]["counts"]
    checks.append(sum(meta_counts.values()) == darcy_runs["meta"]["n_prior"])
    numerator = fem_eval_count(128, 20)
    checks.append(numerator == 5140)
    _verdict(9, all(checks),
             f"category sums match totals on {len(checks) - 1} records, "
             f"full-scale sigma-point count {numerator}")
