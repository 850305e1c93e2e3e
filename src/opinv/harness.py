"""Experiment orchestration on top of the library modules.

Owns everything a batch run needs: benchmark assembly (problem, truth,
synthetic data), the offline surrogate training stage, the three inversion
modes (full-order sigma-point inversion, frozen surrogate, adaptively
refined surrogate), persistence of run records, and report aggregation.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adaptive import (
    RefinePolicy,
    full_misfits,
    gaussian_pool,
    local_model_error,
    relative_inversion_error,
    run_adaptive,
    speedup,
)
from .config import RunConfig
from .deeponet import (
    NetArch,
    Surrogate,
    TrainingSet,
    encoder_indices,
    encoder_matrix,
    fine_tune,
    train,
    write_loss_history,
)
from .forward import EvalLedger, SolverError, forward_map
from .grf import Field, Grid2D, build_kl_basis, draw_uniform, sample_field, write_field_bin
from .lintheory import LinearModel, verify_error_bound
from .observe import (
    SensorArray,
    lattice_sensors,
    misfit,
    observe,  # noqa: F401  (unused here; bench/tracing.py rebinds it)
    observe_state,
    save_observation,
    synthesize_data,
)
from .uki import GaussianState, UKIConfig, run_uki

# ---------------------------------------------------------------------------
# benchmark assembly


def make_truth(cfg: RunConfig, grid: Grid2D):
    """Reference parameter for data synthesis, and its field (None for a
    point parameter, whose truth is the spec's fixed one).

    Field recipes draw twice as many modes as are inverted, so the target is
    never exactly representable; the fixed recipe uses a closed-form field."""
    point = cfg.spec.point
    if point is not None:
        return np.array(point.truth), None
    if cfg.truth == "fixed":
        X, Y = grid.mesh()
        values = np.sin(np.pi * X) * np.cos(np.pi * Y)
        return None, Field(grid, values.ravel())
    rng = cfg.rng("truth")
    n_t = 2 * cfg.n_modes
    basis_t = build_kl_basis(grid, n_t)
    zeta_t = rng.standard_normal(n_t) if cfg.truth == "idd" else draw_uniform(n_t, rng)
    return zeta_t, sample_field(basis_t, zeta_t)


class Bench:
    """One configured benchmark: problem, truth, sensors, data, start state."""

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        self.problem = cfg.spec.build(cfg.grid)
        self.grid = self.problem.grid
        # a point parameter is used as is: no basis to realize it on, no encoder
        self.basis = self.enc_matrix = None
        if cfg.spec.point is None:
            self.basis = build_kl_basis(self.grid, cfg.n_modes)
            idx = encoder_indices(self.grid, cfg.encoder_axis)
            self.enc_matrix = encoder_matrix(self.basis, idx)
        self.sensors = lattice_sensors(cfg.sensor_axis)
        self.query_sensors = lattice_sensors(cfg.query_axis)
        self.obs_times = self.problem.obs_times
        self.sensor_queries = self._time_tagged(self.sensors)
        self.query_pts = self._time_tagged(self.query_sensors)

        self.truth_param, self.m_ref = make_truth(cfg, self.grid)
        # what the solver takes: the truth field, or the point parameter
        self.truth = self.truth_param if self.m_ref is None else self.m_ref
        (self.truth_state,) = _solved(self.problem.solve_batch([self.truth]))
        y_ref = self.readings([self.truth_state])[0]
        self.data = synthesize_data(y_ref, cfg.delta, rng=cfg.rng("noise"))

    def _time_tagged(self, sensors: SensorArray) -> np.ndarray:
        """Trunk coordinates: (x, y) or, for snapshot problems, (x, y, t)
        blocks concatenated time-major to match observe_state's order."""
        if not self.obs_times:
            return sensors.locations.copy()
        rows = []
        for t in self.obs_times:
            rows.append(np.column_stack(
                [sensors.locations, np.full(len(sensors.locations), t)]))
        return np.vstack(rows)

    # -- extraction from a list of solved states, one row per state ---------

    def readings(self, states: list) -> np.ndarray:
        return observe_state(states, self.sensors)

    def targets(self, states: list) -> np.ndarray:
        return observe_state(states, self.query_sensors)

    # -- parameter-space helpers --------------------------------------------

    def encode(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if self.enc_matrix is None:
            return Z
        return Z @ self.enc_matrix

    def field_of(self, z) -> Field | None:
        if self.basis is None:
            return None
        return sample_field(self.basis, z)

    def inversion_error(self, z) -> float:
        estimate = np.asarray(z) if self.basis is None else self.field_of(z)
        return relative_inversion_error(estimate, self.truth)

    def initial_state(self) -> GaussianState:
        n, point = self.cfg.n_dim, self.cfg.spec.point
        r0 = (self.cfg.rng("init").standard_normal(n) if point is None
              else np.array(point.start))
        return GaussianState(r0, self.cfg.start_cov * np.eye(n))

    def full_forward(self, Z, ledger=None, category="forward") -> np.ndarray:
        """Full-order readings, one row per row of Z.  A row whose solve
        failed reads NaN: UKI truncates on it, the anchor scan scores it inf."""
        states = forward_map(self.problem, self.basis, Z, ledger, category)
        ok = [i for i, s in enumerate(states) if not isinstance(s, SolverError)]
        Y = np.full((len(states), self.data.n_obs), np.nan)
        if ok:
            Y[ok] = self.readings([states[i] for i in ok])
        return Y

    def full_targets(self, Z, ledger, category) -> np.ndarray:
        """Full-order training targets, one row per row of Z; raises the
        first SolverError, so no NaN target enters a training set."""
        return self.targets(_solved(forward_map(self.problem, self.basis, Z, ledger,
                                                category)))


def _solved(states: list) -> list:
    """The states of a batch that must all succeed; raises the first failure."""
    for s in states:
        if isinstance(s, SolverError):
            raise s
    return states


# ---------------------------------------------------------------------------
# offline surrogate training


def prior_params(cfg: RunConfig, n: int) -> np.ndarray:
    """n draws from the "prior" stream: a point parameter uniform on the
    chi_box square, standard-normal KL coefficients otherwise."""
    rng = cfg.rng("prior")
    if cfg.spec.point is not None:
        return rng.uniform(*cfg.chi_box, size=(n, cfg.n_dim))
    return rng.standard_normal((n, cfg.n_modes))


def offline_train(cfg: RunConfig, bench: Bench, ledger: EvalLedger):
    """Draw prior samples, solve the full model for each, train the net."""
    params = prior_params(cfg, cfg.n_prior)
    targets = bench.full_targets(params, ledger, "offline")
    dataset = TrainingSet(bench.encode(params), targets, bench.query_pts,
                          ["prior"] * cfg.n_prior, zetas=params)

    n_in = dataset.inputs.shape[1]
    q_dim = bench.query_pts.shape[1]
    arch = NetArch((n_in, *cfg.hidden, cfg.p_basis), (q_dim, *cfg.hidden, cfg.p_basis))
    scale = float(targets.std())
    surrogate = Surrogate.init(arch, cfg.rng("init"),
                               out_shift=float(targets.mean()),
                               out_scale=scale if scale > 0 else 1.0)
    train(surrogate, dataset, cfg.offline_iters, lr=1e-3)
    return surrogate, dataset


class InversionTask:
    """Adapter between one Bench + Surrogate pair and the refinement loop."""

    def __init__(self, bench: Bench, surrogate: Surrogate, dataset: TrainingSet,
                 ledger: EvalLedger, online_iters: int):
        self.bench = bench
        self.surrogate = surrogate
        self.dataset = dataset
        self.ledger = ledger
        self.online_iters = online_iters

    def surrogate_batch(self, Z) -> np.ndarray:
        return self.surrogate.eval(self.bench.encode(Z), self.bench.sensor_queries)

    def surrogate_forward(self, Z) -> np.ndarray:
        """Surrogate outputs for the inversion steps, one row per call: a call
        on all rows rounds differently, which the refinement loop amplifies."""
        return np.array([self.surrogate_batch(z[None])[0] for z in Z])

    def full_forward(self, Z, category) -> np.ndarray:
        return self.bench.full_forward(Z, self.ledger, category)

    def inversion_error(self, z):
        return self.bench.inversion_error(z)

    def refine(self, Z) -> None:
        new = TrainingSet(self.bench.encode(Z),
                          self.bench.full_targets(Z, self.ledger, "adaptive-sample"),
                          self.bench.query_pts, ["adaptive"] * len(Z), zetas=np.asarray(Z))
        self.dataset = self.dataset.extend(new)
        fine_tune(self.surrogate, self.dataset, self.online_iters)


# ---------------------------------------------------------------------------
# run records


@dataclass
class RunRecord:
    mode: str
    config: dict
    seeds: dict
    series: list
    counts: dict
    timings: dict
    final_r: list
    final_c_diag: list
    extras: dict = field(default_factory=dict)
    stopped: str = ""


def _series_row(cycle, e_d=None, e_m=None, e_i=None) -> dict:
    return {"cycle": int(cycle), "e_d": e_d, "e_m": e_m, "e_i": e_i}


def save_record(out_dir, record: RunRecord, m_hat: Field | None = None,
                m_ref: Field | None = None) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "record.json"
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(record), fh, indent=1, sort_keys=True)
    with open(out / "series.csv", "w") as fh:
        fh.write("cycle,e_d,e_m,e_i\n")
        for row in record.series:
            cells = [str(row["cycle"])] + [
                "" if row[k] is None else repr(float(row[k]))
                for k in ("e_d", "e_m", "e_i")]
            fh.write(",".join(cells) + "\n")
    if m_hat is not None or m_ref is not None:
        fdir = out / "fields"
        fdir.mkdir(exist_ok=True)
        if m_hat is not None:
            write_field_bin(fdir / "m_hat.bin", m_hat)
        if m_ref is not None:
            write_field_bin(fdir / "m_ref.bin", m_ref)
    return path


def load_record(path) -> dict:
    p = Path(path)
    if p.is_dir():
        p = p / "record.json"
    with open(p) as fh:
        rec = json.load(fh)
    rec["_path"] = str(p)
    return rec


# ---------------------------------------------------------------------------
# inversion modes


def _base_record(cfg: RunConfig, mode: str) -> RunRecord:
    return RunRecord(mode=mode, config=cfg.to_dict(), seeds={"master": cfg.seed},
                     series=[], counts={}, timings={}, final_r=[], final_c_diag=[])


def _finish(record: RunRecord, state, ledger: EvalLedger, wall: float) -> None:
    record.final_r = [float(v) for v in state.r]
    record.final_c_diag = [float(v) for v in np.diag(state.C)]
    record.counts = ledger.counts
    record.counts["total"] = ledger.total()
    record.timings["invert_s"] = wall


def run_plain_mode(cfg: RunConfig, bench: Bench, ledger: EvalLedger, mode: str,
                   forward_batch) -> RunRecord:
    """Sigma-point inversion for cfg.t_steps steps against one fixed forward
    map ``forward_batch(P) -> Y``: the full-order model for fem-uki, the
    offline surrogate for deeponet-direct.  A surrogate run also reports its
    local model error over cfg.n_probe draws from the final Gaussian."""
    record = _base_record(cfg, mode)
    state0 = bench.initial_state()
    ukicfg = UKIConfig(alpha=cfg.alpha, r0=state0.r,
                       sigma_omega=(2.0 - cfg.alpha**2) * state0.C,
                       sigma_eta=bench.data.noise_cov)
    centers = []
    t0 = time.perf_counter()
    traj = run_uki(state0, forward_batch, bench.data, ukicfg, cfg.t_steps,
                   on_step=lambda k, st, yc: centers.append(yc))
    wall = time.perf_counter() - t0
    # the center sigma point gives a free per-step misfit series
    for k, (st, yc) in enumerate(zip(traj, centers)):
        record.series.append(_series_row(
            k, e_d=misfit(yc, bench.data), e_i=bench.inversion_error(st.r)))
    final = traj[-1] if traj else state0
    record.stopped = ("budget" if len(traj) == cfg.t_steps
                      else f"truncated at step {len(traj) + 1}")

    diagnostic = lambda Z: bench.full_forward(Z, ledger, "diagnostic")  # noqa: E731
    record.extras = {"final_e_d": full_misfits(diagnostic, final.r, bench.data)[0],
                     "cycles_used": len(traj), "n_dim": cfg.n_dim}
    if mode == "deeponet-direct":
        e_m_final = None
        if cfg.n_probe > 0:
            probe = gaussian_pool(final.r, final.C, cfg.n_probe, cfg.rng("pool"))
            e_m_final = local_model_error(forward_batch, diagnostic, probe)
        record.extras["final_e_m"] = e_m_final
    _finish(record, final, ledger, wall)
    return record


def run_adaptive_mode(cfg: RunConfig, bench: Bench, surrogate: Surrogate,
                      dataset: TrainingSet, ledger: EvalLedger) -> RunRecord:
    record = _base_record(cfg, "deeponet-adaptive")
    task = InversionTask(bench, surrogate, dataset, ledger, cfg.online_iters)
    state0 = bench.initial_state()
    policy = RefinePolicy(epsilon=cfg.epsilon, i_max=cfg.i_max,
                          t_steps=cfg.t_steps, q_new=cfg.q_new,
                          k_pool=cfg.k_pool, lam=cfg.lam)
    t0 = time.perf_counter()
    result = run_adaptive(task, bench.data, state0, policy, alpha=cfg.alpha,
                          rng=cfg.rng("pool"), n_probe=cfg.n_probe)
    wall = time.perf_counter() - t0
    for c in result.cycles:
        record.series.append(_series_row(c.index, e_d=c.e_d, e_m=c.e_m, e_i=c.e_i))
    record.stopped = result.stopped
    record.extras = {"e0": result.e0, "cycles_used": result.n_cycles,
                     "final_cycle": result.final_cycle,
                     "final_e_d": (result.cycles[result.final_cycle].e_d
                                   if result.cycles else result.e0),
                     "n_dim": cfg.n_dim}
    final = GaussianState(result.final_r, result.final_C)
    _finish(record, final, ledger, wall)
    return record


# ---------------------------------------------------------------------------
# training-set persistence


def save_training_set(path, ts: TrainingSet) -> None:
    arrays = dict(inputs=ts.inputs, targets=ts.targets, queries=ts.queries,
                  tags=np.array(ts.tags))
    if ts.zetas is not None:
        arrays["zetas"] = ts.zetas
    np.savez(path, **arrays)


def load_training_set(path) -> TrainingSet:
    with np.load(path, allow_pickle=False) as z:
        return TrainingSet(z["inputs"], z["targets"], z["queries"],
                           [str(t) for t in z["tags"]],
                           z["zetas"] if "zetas" in z.files else None)


# ---------------------------------------------------------------------------
# commands


def cmd_train_offline(cfg: RunConfig) -> str:
    """Offline stage: prior dataset, full-order solves, surrogate training.
    Returns the checkpoint stem path."""
    cfg = cfg.resolved()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bench = Bench(cfg)
    ledger = EvalLedger()
    t0 = time.perf_counter()
    surrogate, dataset = offline_train(cfg, bench, ledger)
    wall = time.perf_counter() - t0
    stem = out / "checkpoint"
    surrogate.save(stem)
    save_training_set(out / "dataset.npz", dataset)
    write_loss_history(out / "loss.csv", surrogate)
    cfg.save(out / "config.json")
    meta = {"wall_s": wall, "counts": ledger.counts, "n_prior": cfg.n_prior,
            "final_loss": surrogate.train_log[-1][1] if surrogate.train_log else None}
    with open(out / "train_meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return str(stem)


def _load_checkpoint(bench: Bench, stem):
    surrogate = Surrogate.load(stem)
    bench_in = bench.encode(np.zeros(bench.cfg.n_dim)).shape[1]
    if surrogate.arch.branch[0] != bench_in:
        raise ValueError(
            f"checkpoint expects {surrogate.arch.branch[0]} branch inputs, "
            f"config implies {bench_in}")
    dataset = None
    ds_path = Path(stem).parent / "dataset.npz"
    if ds_path.exists():
        dataset = load_training_set(ds_path)
    return surrogate, dataset


def cmd_invert(cfg: RunConfig, checkpoint=None) -> str:
    """Run one inversion in the configured mode; returns the record path."""
    cfg = cfg.resolved()
    bench = Bench(cfg)
    ledger = EvalLedger()
    if cfg.mode == "fem-uki":
        record = run_plain_mode(cfg, bench, ledger, cfg.mode,
                                lambda P: bench.full_forward(P, ledger, "fem-uki"))
        surrogate = None
    else:
        if checkpoint is None:
            raise ValueError(f"mode {cfg.mode} requires a checkpoint")
        surrogate, dataset = _load_checkpoint(bench, checkpoint)
        if cfg.mode == "deeponet-direct":
            task = InversionTask(bench, surrogate, None, ledger, 0)
            record = run_plain_mode(cfg, bench, ledger, cfg.mode, task.surrogate_forward)
        else:
            if dataset is None:
                raise ValueError("adaptive mode needs dataset.npz next to the checkpoint")
            record = run_adaptive_mode(cfg, bench, surrogate, dataset, ledger)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    m_hat = bench.field_of(np.array(record.final_r))
    if m_hat is None:  # a point estimate goes into the record itself
        record.extras["chi_hat"] = record.final_r
    path = save_record(out, record, m_hat=m_hat, m_ref=bench.m_ref)
    cfg.save(out / "config.json")
    save_observation(out / "observations.json", bench.data, bench.sensors)
    if surrogate is not None:
        surrogate.save(out / "checkpoint_final")
    return str(path)


def _nondiag(counts: dict) -> int:
    skip = {"diagnostic", "total", "offline"}
    return sum(v for k, v in counts.items() if k not in skip)


def cmd_report(paths, out_dir=None) -> str:
    """Aggregate run records into a comparison table.

    Two speed-up figures are reported: measured (full-order evaluation count
    of the matching fem-uki record over this record's) and formula (the
    asymptotic count ratio at this record's settings and cycles actually
    used).  Output depends only on the records, so re-runs are identical."""
    if not paths:
        raise ValueError("need at least one record")
    records = [load_record(p) for p in paths]
    records.sort(key=lambda r: (r["config"]["problem"], r["mode"], r["_path"]))
    fem_base = {}
    for r in records:
        if r["mode"] == "fem-uki":
            fem_base.setdefault(r["config"]["problem"], r)

    header = ["problem", "mode", "final_e_i", "final_e_d", "cycles",
              "full_evals", "speedup_measured", "speedup_formula", "wall_s"]
    rows = []
    for r in records:
        cfgd = r["config"]
        own = _nondiag(r["counts"])
        base = fem_base.get(cfgd["problem"])
        measured = ""
        if base is not None and own > 0:
            measured = f"{_nondiag(base['counts']) / own:.6g}"
        formula = ""
        if r["mode"] == "fem-uki":
            formula = "1"
        elif r["mode"] == "deeponet-adaptive":
            cycles = max(1, int(r["extras"].get("cycles_used", 1)))
            t_fem = int(base["config"]["t_steps"]) if base is not None else 20
            ratio = speedup(int(r["extras"]["n_dim"]), t_fem, cfgd["q_new"],
                            cfgd["t_steps"], cycles)
            formula = f"{ratio:.6g}"
        series = r["series"]
        if r["mode"] == "deeponet-adaptive":  # at final_r's cycle, like final_e_d
            e_i = series[r["extras"]["final_cycle"]]["e_i"] if series else None
        else:
            e_i = next((row["e_i"] for row in reversed(series)
                        if row["e_i"] is not None), None)
        rows.append([
            cfgd["problem"], r["mode"],
            "" if e_i is None else f"{e_i:.6g}",
            f"{r['extras'].get('final_e_d', float('nan')):.6g}",
            str(r["extras"].get("cycles_used", "")),
            str(own), measured, formula,
            f"{r['timings'].get('invert_s', 0.0):.3f}",
        ])

    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    text = "\n".join(lines) + "\n"

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.csv", "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        payload = [dict(zip(header, row)) for row in rows]
        with open(out / "report.json", "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    return text


def random_linear_model(n_dim: int, n_obs: int, seed: int, alpha: float = 1.0,
                        noise_var: float = 0.04) -> LinearModel:
    """Well-posed random linear inverse problem with r0 = 0."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n_obs, n_dim))
    y = G @ rng.standard_normal(n_dim) + 0.1 * rng.standard_normal(n_obs)
    return LinearModel(G=G, y=y, alpha=alpha, r0=np.zeros(n_dim),
                       sigma_omega=np.eye(n_dim),
                       sigma_eta=noise_var * np.eye(n_obs))


def cmd_verify_linear(n_dim: int = 4, n_obs: int = 6, seed: int = 0,
                      eps=(1e-1, 1e-2, 1e-3, 1e-4), alpha: float = 1.0,
                      out_dir=None) -> dict:
    """Check the linear-case error bound numerically on a random model."""
    model = random_linear_model(n_dim, n_obs, seed, alpha)
    try:
        rep = verify_error_bound(model, eps_list=tuple(eps), rng=seed)
        rep["passed"] = bool(rep["mean_in_band"] and rep["cov_in_band"]
                             and rep["premise_positive"])
    except RuntimeError as err:
        # e.g. underdetermined observations: no fixed point to perturb
        rep = {"passed": False, "error": str(err)}
    rep["n_dim"] = n_dim
    rep["n_obs"] = n_obs
    rep["seed"] = seed
    rep["alpha"] = alpha
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "linear_check.json", "w") as fh:
            json.dump(rep, fh, indent=1, sort_keys=True, default=float)
    return rep


def cmd_solve_forward(cfg: RunConfig, out_dir=None) -> str:
    """Solve the configured truth forward problem and write state + data."""
    cfg = cfg.resolved()
    bench = Bench(cfg)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fdir = out / "fields"
    fdir.mkdir(exist_ok=True)
    state = bench.truth_state
    snaps = state if bench.obs_times else (state,)
    for i, f in enumerate(snaps):
        write_field_bin(fdir / f"state_{i}.bin", f)
    if bench.m_ref is not None:
        write_field_bin(fdir / "m_ref.bin", bench.m_ref)
    save_observation(out / "observations.json", bench.data, bench.sensors)
    cfg.save(out / "config.json")
    return str(out / "observations.json")


def cmd_sample_prior(cfg: RunConfig, n: int = 4, out_dir=None) -> str:
    """Draw prior parameter samples (and realized fields where applicable)."""
    cfg = cfg.resolved()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = prior_params(cfg, n)
    np.savetxt(out / "params.csv", params, delimiter=",", fmt="%.17g")
    if cfg.spec.point is None:
        grid = Grid2D(cfg.grid, cfg.grid)
        basis = build_kl_basis(grid, cfg.n_modes)
        fdir = out / "fields"
        fdir.mkdir(exist_ok=True)
        for i, z in enumerate(params):
            write_field_bin(fdir / f"sample_{i}.bin", sample_field(basis, z))
    return str(out / "params.csv")
