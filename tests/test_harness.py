import json
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from opinv import harness
from opinv.adaptive import local_model_error, select_anchor
from opinv.config import PROBLEMS, SPECS, ProblemSpec, RunConfig, preset
from opinv.deeponet import TrainingSet, encoder_indices
from opinv.forward import (
    DarcyProblem,
    EvalLedger,
    HeatSourceFieldProblem,
    HeatSourceLocProblem,
    ReactionDiffusionProblem,
    SolverError,
)
from opinv.grf import Grid2D, build_kl_basis, sample_field
from opinv.harness import Bench, make_truth
from opinv.lintheory import LinearModel, solve_fixed_point
from opinv.observe import observe
from opinv.uki import GaussianState

CHI_TRUE = np.array(SPECS["heat-loc"].point.truth)


def tiny_cfg(**over):
    base = dict(problem="darcy", mode="fem-uki", grid=10, n_modes=4, delta=0.01,
                seed=5, t_steps=4, i_max=2, q_new=3, k_pool=40, n_probe=3,
                n_prior=20, offline_iters=200, online_iters=80, p_basis=8,
                hidden=(16, 16), encoder_axis=3, query_axis=5, sensor_axis=3,
                out_dir="unused")
    base.update(over)
    return RunConfig(**base).resolved()


@pytest.fixture(scope="module")
def bench():
    return Bench(tiny_cfg())


@pytest.fixture(scope="module")
def trained(bench):
    ledger = EvalLedger()
    surrogate, dataset = harness.offline_train(bench.cfg, bench, ledger)
    return surrogate, dataset, ledger


# -- problem / truth assembly -------------------------------------------------


@pytest.mark.parametrize("name", PROBLEMS)
def test_registry_spec_builds_its_class_and_sets_n_dim(name):
    types = {"darcy": DarcyProblem, "heat-loc": HeatSourceLocProblem,
             "heat-field": HeatSourceFieldProblem,
             "reaction-diffusion": ReactionDiffusionProblem}
    spec = SPECS[name]
    problem = spec.build(7)
    assert type(problem) is spec.problem_class is types[name]
    assert problem.grid == Grid2D(7, 7)
    for scale in ("desk", "paper"):
        cfg = preset(name, scale)
        assert cfg.spec is spec
        assert cfg.n_dim == spec.n_dim(cfg.n_modes)
        assert cfg.n_dim == (2 if name == "heat-loc" else cfg.n_modes)


def test_truth_idd_uses_double_mode_count():
    cfg = tiny_cfg(truth="idd")
    grid = Grid2D(cfg.grid, cfg.grid)
    zeta, m_ref = make_truth(cfg, grid)
    assert zeta.shape == (2 * cfg.n_modes,)
    zeta2, m2 = make_truth(cfg, grid)
    assert np.array_equal(zeta, zeta2)
    assert np.array_equal(m_ref.values, m2.values)
    # target genuinely outside the inverted span: high modes carry weight
    assert np.linalg.norm(zeta[cfg.n_modes:]) > 0


def test_truth_ood_is_bounded_uniform():
    zeta, _ = make_truth(tiny_cfg(truth="ood"), Grid2D(10, 10))
    assert zeta.shape == (8,)
    assert np.all(np.abs(zeta) <= 20.0)


def test_truth_fixed_closed_form():
    cfg = tiny_cfg(problem="heat-field", truth="fixed")
    grid = Grid2D(cfg.grid, cfg.grid)
    zeta, m_ref = make_truth(cfg, grid)
    assert zeta is None
    X, Y = grid.mesh()
    assert np.allclose(m_ref.values.reshape(grid.nx, grid.ny), np.sin(np.pi * X) * np.cos(np.pi * Y))


def test_truth_heat_loc_fixed_center():
    chi, m_ref = make_truth(tiny_cfg(problem="heat-loc", truth="fixed"),
                            Grid2D(10, 10))
    assert m_ref is None
    assert np.array_equal(chi, CHI_TRUE)


# -- bench geometry -----------------------------------------------------------


def test_bench_query_geometry_steady(bench):
    assert bench.sensor_queries.shape == (9, 2)
    assert np.array_equal(bench.sensor_queries, bench.sensors.locations)
    assert bench.query_pts.shape == (25, 2)


def test_bench_query_geometry_heat_loc():
    b = Bench(tiny_cfg(problem="heat-loc", truth="fixed", start_cov=0.02))
    # time-major blocks matching observe_state concatenation order
    assert b.sensor_queries.shape == (18, 3)
    assert np.all(b.sensor_queries[:9, 2] == b.obs_times[0])
    assert np.all(b.sensor_queries[9:, 2] == b.obs_times[1])
    state = b.truth_state
    assert state.shape == (2, b.grid.n_nodes)  # one row per snapshot time
    manual = np.concatenate([observe(u, b.grid, b.sensors) for u in state])
    assert np.array_equal(b.readings(state[None])[0], manual)


def test_bench_encode_reads_lattice_nodes(bench):
    cfg = bench.cfg
    z = np.linspace(-1, 1, cfg.n_modes)
    idx = encoder_indices(bench.grid, cfg.encoder_axis)
    expected = sample_field(bench.basis, z).values[idx]
    assert np.allclose(bench.encode(z)[0], expected)


def test_bench_encode_identity_for_heat_loc():
    b = Bench(tiny_cfg(problem="heat-loc", truth="fixed"))
    Z = np.array([[0.3, 0.4], [0.7, 0.2]])
    assert np.array_equal(b.encode(Z), Z)


def test_initial_state_heat_loc_fixed_start():
    b = Bench(tiny_cfg(problem="heat-loc", truth="fixed", start_cov=0.02))
    st = b.initial_state()
    assert np.array_equal(st.r, [0.6, 0.6])
    assert np.allclose(st.C, 0.02 * np.eye(2))


def test_initial_state_field_reproducible(bench):
    a = bench.initial_state()
    b = Bench(tiny_cfg()).initial_state()
    assert np.array_equal(a.r, b.r)
    assert np.allclose(a.C, bench.cfg.start_cov * np.eye(bench.cfg.n_modes))


def test_data_reproducible_across_bench_instances(bench):
    again = Bench(tiny_cfg())
    assert np.array_equal(bench.data.y_obs, again.data.y_obs)
    assert np.array_equal(bench.data.noise_cov, again.data.noise_cov)


def test_inversion_error_zero_at_truth_for_heat_loc():
    b = Bench(tiny_cfg(problem="heat-loc", truth="fixed"))
    assert b.inversion_error(CHI_TRUE) == 0.0
    assert b.inversion_error([0.6, 0.6]) > 0.1


# -- offline training ---------------------------------------------------------


def test_offline_ledger_counts_exactly_n_prior(bench, trained):
    _, dataset, ledger = trained
    assert ledger.counts == {"offline": bench.cfg.n_prior}
    assert dataset.n_entries == bench.cfg.n_prior
    assert set(dataset.tags) == {"prior"}


def test_offline_surrogate_shapes(bench, trained):
    surrogate, dataset, _ = trained
    assert surrogate.arch.branch[0] == bench.cfg.encoder_axis**2
    assert surrogate.arch.trunk[0] == 2
    assert dataset.queries.shape == (bench.cfg.query_axis**2, 2)
    assert surrogate.train_log  # loss history recorded
    out = surrogate.eval(dataset.inputs[:3], bench.sensor_queries)
    assert out.shape == (3, 9)


def test_training_set_roundtrip(tmp_path, trained):
    _, dataset, _ = trained
    path = tmp_path / "ds.npz"
    harness.save_training_set(path, dataset)
    back = harness.load_training_set(path)
    assert np.array_equal(back.inputs, dataset.inputs)
    assert np.array_equal(back.targets, dataset.targets)
    assert np.array_equal(back.queries, dataset.queries)
    assert back.tags == dataset.tags
    assert np.array_equal(back.zetas, dataset.zetas)


# -- mode runners -------------------------------------------------------------


@pytest.fixture(scope="module")
def fem_record(bench):
    ledger = EvalLedger()
    return harness.run_plain_mode(bench.cfg, bench, ledger, "fem-uki",
                                  lambda P: bench.full_forward(P, ledger, "fem-uki"))


def test_fem_mode_eval_budget(bench, fem_record):
    n, T = bench.cfg.n_modes, bench.cfg.t_steps
    assert fem_record.counts["fem-uki"] == (2 * n + 1) * T
    assert fem_record.counts["diagnostic"] == 1
    assert fem_record.counts["total"] == (2 * n + 1) * T + 1
    assert fem_record.stopped == "budget"  # every step ran


def test_fem_mode_series_and_final(bench, fem_record):
    assert len(fem_record.series) == bench.cfg.t_steps
    assert all(np.isfinite(row["e_d"]) for row in fem_record.series)
    assert len(fem_record.final_r) == bench.cfg.n_modes
    assert np.isfinite(fem_record.extras["final_e_d"])
    # data misfit should drop from the first sweep
    assert fem_record.series[-1]["e_d"] < fem_record.series[0]["e_d"]


def _clone(s):
    """Independent copy so in-place fine-tuning can't leak across tests."""
    return harness.Surrogate(s.arch, s.w.copy(), s.out_shift, s.out_scale)


def test_direct_mode_uses_no_full_solves(bench, trained):
    s, _, _ = trained
    ledger = EvalLedger()
    task = harness.InversionTask(bench, _clone(s), None, ledger, 0)
    rec = harness.run_plain_mode(bench.cfg, bench, ledger, "deeponet-direct",
                                 task.surrogate_forward)
    counts = dict(rec.counts)
    counts.pop("total")
    diag = counts.pop("diagnostic")
    assert counts == {}  # nothing outside the diagnostic category
    assert diag == 1 + bench.cfg.n_probe
    assert rec.extras["final_e_m"] is not None


def test_adaptive_mode_budget_and_series(bench, trained):
    s, dataset, _ = trained
    ledger = EvalLedger()
    rec = harness.run_adaptive_mode(bench.cfg, bench, _clone(s), dataset, ledger)
    cfg = bench.cfg
    nondiag = sum(v for k, v in rec.counts.items() if k not in ("diagnostic", "total"))
    assert nondiag <= (cfg.q_new + cfg.t_steps) * cfg.i_max
    assert rec.stopped in ("budget", "stall")
    assert [row["cycle"] for row in rec.series] == list(range(len(rec.series)))
    assert rec.extras["cycles_used"] == len(rec.series)


# -- failed full-order solves -------------------------------------------------


def test_fem_mode_truncates_on_a_failed_sigma_point_solve(tmp_path):
    # a huge start covariance puts the off-center sigma points where exp(m)
    # overflows; the run truncates instead of crashing and counts every row
    cfg = tiny_cfg(start_cov=1e8, out_dir=str(tmp_path))
    with pytest.warns(UserWarning, match="inversion stopped at step 1"):
        rec = harness.load_record(harness.cmd_invert(cfg))
    n_sigma = 2 * cfg.n_dim + 1
    assert rec["extras"]["cycles_used"] == 0
    assert rec["stopped"] == "truncated at step 1"
    assert rec["counts"] == {"fem-uki": n_sigma * (0 + 1), "diagnostic": 1,
                             "total": n_sigma + 1}
    assert math.isfinite(rec["extras"]["final_e_d"])


def test_failed_rows_score_inf_and_refinement_raises(bench, trained):
    s, dataset, _ = trained
    ledger = EvalLedger()
    task = harness.InversionTask(bench, _clone(s), dataset, ledger, 1)
    Z = np.zeros((3, bench.cfg.n_dim))
    Z[1] = 1e4  # exp(m) overflows in this row only
    Y = task.full_forward(Z, "anchor-scan")
    assert np.all(np.isnan(Y[1]))
    assert np.array_equal(Y[0], bench.full_forward(Z[:1])[0])

    traj = [GaussianState(z, np.eye(len(z))) for z in Z]
    anchor = select_anchor(traj, lambda P: task.full_forward(P, "anchor-scan"), bench.data)
    assert anchor.misfits[1] == math.inf and anchor.step_index == 1
    assert local_model_error(task.surrogate_batch,
                             lambda P: task.full_forward(P, "diagnostic"), Z) == math.inf
    with pytest.raises(SolverError):
        task.refine(Z)
    assert task.dataset is dataset  # no NaN target entered the training set
    assert ledger.counts == {"anchor-scan": 6, "diagnostic": 3, "adaptive-sample": 3}


# -- persistence --------------------------------------------------------------


def test_record_roundtrip(tmp_path, bench, fem_record):
    m_hat = bench.field_of(np.array(fem_record.final_r))
    path = harness.save_record(tmp_path, fem_record, m_hat=m_hat, m_ref=bench.m_ref)
    back = harness.load_record(tmp_path)  # directory form
    assert back["mode"] == "fem-uki"
    assert back["counts"] == fem_record.counts
    assert back["final_r"] == fem_record.final_r
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert lines[0] == "cycle,e_d,e_m,e_i"
    assert len(lines) == 1 + len(fem_record.series)
    assert lines[1].split(",")[2] == ""  # fem rows carry no surrogate error
    assert (tmp_path / "fields" / "m_hat.bin").exists()
    assert harness.load_record(path)["mode"] == "fem-uki"


# -- commands -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    cfg = tiny_cfg(mode="deeponet-adaptive", out_dir=str(out))
    stem = harness.cmd_train_offline(cfg)
    return out, stem


def test_cmd_train_offline_artifacts(trained_dir):
    out, stem = trained_dir
    for name in ("checkpoint.json", "checkpoint.bin", "dataset.npz",
                 "loss.csv", "config.json", "train_meta.json"):
        assert (out / name).exists(), name
    meta = json.loads((out / "train_meta.json").read_text())
    assert meta["counts"] == {"offline": 20}


def test_cmd_invert_requires_checkpoint(tmp_path):
    cfg = tiny_cfg(mode="deeponet-direct", out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="checkpoint"):
        harness.cmd_invert(cfg)


def test_cmd_invert_checkpoint_arch_mismatch(tmp_path, trained_dir):
    _, stem = trained_dir
    cfg = tiny_cfg(mode="deeponet-direct", encoder_axis=4, out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="branch inputs"):
        harness.cmd_invert(cfg, checkpoint=stem)


@pytest.fixture(scope="module")
def run_records(tmp_path_factory, trained_dir):
    _, stem = trained_dir
    paths = {}
    for mode in ("fem-uki", "deeponet-direct", "deeponet-adaptive"):
        out = tmp_path_factory.mktemp(mode)
        cfg = tiny_cfg(mode=mode, out_dir=str(out))
        ckpt = None if mode == "fem-uki" else stem
        paths[mode] = harness.cmd_invert(cfg, checkpoint=ckpt)
    return paths


def test_cmd_invert_artifacts(run_records):
    from pathlib import Path
    run = Path(run_records["deeponet-adaptive"]).parent
    for name in ("record.json", "series.csv", "config.json", "observations.json"):
        assert (run / name).exists(), name
    assert (run / "fields" / "m_hat.bin").exists()
    assert (run / "checkpoint_final.json").exists()
    rec = harness.load_record(run)
    assert rec["mode"] == "deeponet-adaptive"
    assert rec["counts"].get("adaptive-sample", 0) >= 0


def test_cmd_report_deterministic(tmp_path, run_records):
    paths = list(run_records.values())
    text1 = harness.cmd_report(paths, out_dir=tmp_path)
    csv1 = (tmp_path / "report.csv").read_bytes()
    text2 = harness.cmd_report(paths, out_dir=tmp_path)
    assert text1 == text2
    assert (tmp_path / "report.csv").read_bytes() == csv1
    assert "fem-uki" in text1 and "deeponet-adaptive" in text1
    # fem row is its own baseline
    fem_line = next(l for l in text1.splitlines() if "fem-uki" in l)
    assert fem_line.split()[-3:-1] == ["1", "1"]


def test_cmd_report_rejects_empty():
    with pytest.raises(ValueError):
        harness.cmd_report([])


def _adaptive_record(out, series, final_cycle):
    cfg = tiny_cfg(mode="deeponet-adaptive")
    rec = harness.RunRecord(
        mode="deeponet-adaptive", config=cfg.to_dict(), seeds={"master": cfg.seed},
        series=series, counts={"anchor-scan": 9}, timings={"invert_s": 1.0},
        final_r=[0.0] * 4, final_c_diag=[1.0] * 4,
        extras={"cycles_used": len(series), "final_cycle": final_cycle,
                "final_e_d": 10.0, "n_dim": 4})
    return str(harness.save_record(out, rec))


def _report_row(tmp_path, path) -> dict:
    harness.cmd_report([path], out_dir=tmp_path)
    (row,) = json.loads((tmp_path / "report.json").read_text())
    return row


def test_cmd_report_reads_adaptive_e_i_at_the_final_cycle(tmp_path):
    # final_e_d and final_r come from the best cycle (0), so final_e_i must too
    series = [harness._series_row(0, e_d=10.0, e_i=0.5),
              harness._series_row(1, e_d=12.0, e_i=1.9)]
    row = _report_row(tmp_path, _adaptive_record(tmp_path / "two", series, 0))
    assert (row["final_e_i"], row["final_e_d"]) == ("0.5", "10")
    # (2*4 + 1) * 20 fem evaluations over (q_new 3 + t_steps 4) * 2 cycles
    assert row["speedup_formula"] == f"{180 / 14:.6g}"

    row = _report_row(tmp_path, _adaptive_record(tmp_path / "empty", [], 0))
    assert row["final_e_i"] == ""


def test_cmd_verify_linear(tmp_path):
    rep = harness.cmd_verify_linear(seed=0, out_dir=tmp_path)
    assert rep["passed"]
    assert 0.8 <= rep["slope_mean"] <= 1.2
    assert (tmp_path / "linear_check.json").exists()


def test_cmd_solve_forward_heat_loc(tmp_path):
    cfg = tiny_cfg(problem="heat-loc", truth="fixed", out_dir=str(tmp_path))
    harness.cmd_solve_forward(cfg)
    assert (tmp_path / "fields" / "state_0.bin").exists()
    assert (tmp_path / "fields" / "state_1.bin").exists()
    assert (tmp_path / "observations.json").exists()


def test_cmd_sample_prior(tmp_path):
    cfg = tiny_cfg(out_dir=str(tmp_path))
    harness.cmd_sample_prior(cfg, n=3)
    params = np.loadtxt(tmp_path / "params.csv", delimiter=",")
    assert params.shape == (3, 4)
    assert (tmp_path / "fields" / "sample_2.bin").exists()


def test_cmd_sample_prior_heat_loc_in_box(tmp_path):
    cfg = tiny_cfg(problem="heat-loc", truth="fixed", out_dir=str(tmp_path))
    harness.cmd_sample_prior(cfg, n=5)
    params = np.loadtxt(tmp_path / "params.csv", delimiter=",")
    lo, hi = cfg.chi_box
    assert params.shape == (5, 2)
    assert np.all((params >= lo) & (params <= hi))


@dataclass(frozen=True)
class FieldStateProblem:
    """Toy problem whose state is the realized field itself: a linear map."""

    grid: Grid2D
    obs_times = ()
    linear = True

    def solve_batch(self, P):
        return P


def test_fifth_problem_needs_only_a_spec(tmp_path, monkeypatch):
    monkeypatch.setitem(SPECS, "field-state", ProblemSpec(
        FieldStateProblem, desk=dict(grid=8, n_modes=3, t_steps=4, sensor_axis=3,
                                     encoder_axis=3)))
    cfg = replace(preset("field-state"), mode="fem-uki", out_dir=str(tmp_path / "inv"))
    rec = harness.load_record(harness.cmd_invert(cfg))
    assert rec["counts"]["fem-uki"] == (2 * cfg.n_dim + 1) * 4
    assert rec["counts"]["diagnostic"] == 1
    assert rec["stopped"] == "budget"
    assert (tmp_path / "inv" / "fields" / "m_hat.bin").is_file()

    path = harness.cmd_sample_prior(replace(cfg, out_dir=str(tmp_path / "prior")), n=2)
    assert np.loadtxt(path, delimiter=",").shape == (2, 3)
    assert len(list((tmp_path / "prior" / "fields").glob("sample_*.bin"))) == 2


def test_random_linear_model_reproducible():
    a = harness.random_linear_model(3, 5, seed=4)
    b = harness.random_linear_model(3, 5, seed=4)
    assert np.array_equal(a.G, b.G) and np.array_equal(a.y, b.y)


# -- linear end-to-end consistency ---------------------------------------------
# The time-stepped source-field problem is affine in the coefficients, so the
# full inversion pipeline must land on the closed-form fixed point.


def test_fem_inversion_matches_linear_fixed_point(tmp_path):
    cfg = tiny_cfg(problem="heat-field", truth="fixed", grid=9, n_modes=4,
                   t_steps=150, out_dir=str(tmp_path), seed=11)
    path = harness.cmd_invert(cfg)
    rec = harness.load_record(path)

    bench = Bench(cfg)  # same seed, same data
    b = bench.full_forward(np.zeros((1, 4)))[0]
    A = (bench.full_forward(np.eye(4)) - b).T
    st0 = bench.initial_state()
    model = LinearModel(G=A, y=bench.data.y_obs - b, alpha=cfg.alpha, r0=st0.r,
                        sigma_omega=(2.0 - cfg.alpha**2) * st0.C,
                        sigma_eta=bench.data.noise_cov)
    # the smoothing forward map is ill-conditioned; 1e-12 residuals are below
    # the float64 floor here, so solve at 1e-8 and compare at 1e-6
    fp = solve_fixed_point(model, tol=1e-8)
    assert np.allclose(rec["final_r"], fp.r, atol=1e-6)
