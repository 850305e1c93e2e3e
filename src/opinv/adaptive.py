"""Outer refinement loop: surrogate-driven inversion with on-the-fly retraining.

Each cycle runs a fixed number of inversion steps against the current
surrogate, scores every trajectory mean with the full-order misfit, and keeps
the best one (the anchor).  If the anchor misfit is still moving by more than
a relative tolerance, a candidate pool is drawn from the anchor Gaussian, a
greedy rule picks the samples that are close to the anchor in parameter space
yet far from each other in surrogate-output space, the full model is solved
at those points, and the surrogate is fine-tuned on the grown training set.
Otherwise the loop stops.

Full-order work is sorted into three ledger categories: "anchor-scan" misfit
evaluations (including the initial one before the loop), "adaptive-sample"
solves for new training data, and "diagnostic" solves for the local model
error, which never count toward speed-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .deeponet import TrainingError
from .forward import SolverError
from .observe import misfit
from .uki import GaussianState, UKIConfig, UkiError, run_uki


@dataclass(frozen=True)
class RefinePolicy:
    """Budget and thresholds for the refinement loop."""

    epsilon: float = 0.01   # relative anchor-misfit change that keeps refining
    i_max: int = 10         # max refinement cycles
    t_steps: int = 10       # inversion steps per cycle
    q_new: int = 50         # samples added per refinement
    k_pool: int = 2000      # candidate pool size
    lam: float = 1.0        # balance between spread and closeness to anchor

    def __post_init__(self):
        if self.epsilon <= 0 or self.lam <= 0:
            raise ValueError("epsilon and lam must be positive")
        if min(self.i_max, self.t_steps, self.q_new, self.k_pool) < 1:
            raise ValueError("i_max, t_steps, q_new, k_pool must be >= 1")
        if self.q_new > self.k_pool:
            raise ValueError("q_new cannot exceed k_pool")


@dataclass
class AnchorRecord:
    """Best trajectory state of one cycle, scored by the full-order model."""

    r: np.ndarray
    C: np.ndarray
    e: float            # full-order data misfit at r
    step_index: int     # 1-based position in the cycle trajectory
    misfits: list = field(default_factory=list)  # full scan, one per state


@dataclass
class CycleRecord:
    index: int
    anchor: AnchorRecord
    e_d: float
    e_m: float | None
    e_i: float | None
    refined: bool


@dataclass
class AdaptiveRecord:
    """Per-cycle metrics plus the chosen final estimate."""

    e0: float
    cycles: list = field(default_factory=list)
    final_r: np.ndarray | None = None
    final_C: np.ndarray | None = None
    final_cycle: int = 0
    stopped: str = ""

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)


def full_misfits(forward_full, Z, data) -> list:
    """Full-order data misfit of each row of Z, from one batch call; a row
    with non-finite outputs (a failed solve) counts as invalid (inf)."""
    Y = np.asarray(forward_full(np.atleast_2d(Z)), dtype=float)
    return [misfit(y, data) if np.all(np.isfinite(y)) else math.inf for y in Y]


def select_anchor(traj, forward_full, data) -> AnchorRecord:
    """Pick the trajectory state whose mean best fits the data under the
    full-order model.  One batch call scores every state; ties break to the
    earliest state; blown-up states score inf."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    misfits = full_misfits(forward_full, [st.r for st in traj], data)
    j = int(np.argmin(misfits))
    if not math.isfinite(misfits[j]):
        raise ValueError("all anchor candidates evaluated non-finite")
    st = traj[j]
    return AnchorRecord(st.r.copy(), st.C.copy(), misfits[j], j + 1, misfits)


def should_refine(e_prev: float, e_next: float, epsilon: float) -> bool:
    """True while the anchor misfit still changes by more than epsilon
    relative to its current value.  A perfect fit (e_next = 0) stops."""
    if e_next == 0.0:
        return False
    return abs((e_prev - e_next) / e_next) > epsilon


def greedy_select(pool: np.ndarray, surrogate_map, anchor: np.ndarray,
                  q: int, lam: float = 1.0) -> np.ndarray:
    """Sequentially pick q pool points maximizing

        max-distance of the surrogate output to the already-selected outputs
        minus lam * parameter-space distance to the anchor.

    The empty selected set contributes distance 0, so the first pick is the
    pool point closest to the anchor.  Surrogate outputs are computed once
    for the whole pool.  Ties break to the smallest pool index."""
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    if pool.shape[0] == 0:
        raise ValueError("empty candidate pool")
    if q > pool.shape[0]:
        raise ValueError("q exceeds pool size")
    outputs = np.atleast_2d(np.asarray(surrogate_map(pool), dtype=float))
    if outputs.shape[0] != pool.shape[0]:
        raise ValueError("surrogate_map must return one output row per pool row")

    param_dist = np.linalg.norm(pool - np.asarray(anchor, dtype=float), axis=1)
    d_max = np.zeros(pool.shape[0])
    taken: list = []
    for _ in range(q):
        score = d_max - lam * param_dist
        score[taken] = -np.inf
        j = int(np.argmax(score))
        taken.append(j)
        d_max = np.maximum(d_max, np.linalg.norm(outputs - outputs[j], axis=1))
    return pool[taken].copy()


def local_model_error(surrogate_map, forward_full, samples: np.ndarray) -> float:
    """Mean output-space distance between surrogate and full model over the
    probe samples.  Costs one full-order solve per sample, all in one batch
    call; a failed solve (non-finite row) makes the error inf."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    y_hat = np.atleast_2d(np.asarray(surrogate_map(samples), dtype=float))
    y_full = np.asarray(forward_full(samples), dtype=float)
    if not np.all(np.isfinite(y_full)):
        return math.inf
    return float(np.mean(np.linalg.norm(y_hat - y_full, axis=1)))


def relative_inversion_error(m_hat, m_ref) -> float:
    """l2 error of the estimate relative to the reference, on node values."""
    a = np.asarray(getattr(m_hat, "values", m_hat), dtype=float)
    b = np.asarray(getattr(m_ref, "values", m_ref), dtype=float)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        raise ValueError("zero reference")
    return float(np.linalg.norm(a - b) / nb)


def fem_eval_count(n_dim: int, t_fem: int) -> int:
    """Full-order evaluations of a plain sigma-point inversion."""
    return (2 * n_dim + 1) * t_fem


def speedup(n_dim: int, t_fem: int, q: int, t: int, i_max: int) -> float:
    """Evaluation-count ratio of the plain inversion to the adaptive loop."""
    return fem_eval_count(n_dim, t_fem) / float((q + t) * i_max)


def run_adaptive(task, data, state0: GaussianState, policy: RefinePolicy,
                 alpha: float = 1.0, rng=None, n_probe: int = 0,
                 on_cycle=None) -> AdaptiveRecord:
    """Drive the full refinement loop.

    task is duck-typed and supplies the models, each mapping a (B, n)
    parameter batch to (B, p) outputs:
      surrogate_forward(Z)  current surrogate for the inversion steps
      surrogate_batch(Z)    current surrogate for pools and probes (may
                            differ from surrogate_forward in the last bits)
      full_forward(Z, category)  full order, ledgered; a failed solve gives
                                 a row of NaN
      refine(Z) -> None   solve full model at the rows of Z (category
                          "adaptive-sample"), grow the training set, fine-tune
      inversion_error(z) -> float   optional per-cycle accuracy metric

    Each cycle: t_steps inversion steps with the surrogate, anchor selection
    by full-order misfit, optional n_probe-sample model-error diagnostic at
    the anchor Gaussian, then either refinement or stop.  The evolution
    covariance is fixed at (2 - alpha^2) C0 and the regularization anchor of
    each cycle is that cycle's starting mean.  A refinement that no later
    cycle would consume (trigger fires on the last cycle) is skipped, which
    keeps non-diagnostic work within (q_new + t_steps) * i_max calls.
    The final estimate is the anchor with the smallest full-order misfit.
    Stage failures stop the loop and leave a partial record."""
    rng = np.random.default_rng(rng)
    sigma_omega = (2.0 - alpha**2) * state0.C
    scan = lambda Z: task.full_forward(Z, "anchor-scan")  # noqa: E731
    e_prev = full_misfits(scan, state0.r, data)[0]
    record = AdaptiveRecord(e0=e_prev, final_r=state0.r.copy(),
                            final_C=state0.C.copy(), stopped="budget")
    err_metric = getattr(task, "inversion_error", None)
    state = state0
    failures = (UkiError, SolverError, TrainingError, ValueError,
                np.linalg.LinAlgError)
    for t in range(policy.i_max):
        try:
            cfg = UKIConfig(alpha=alpha, r0=state.r, sigma_omega=sigma_omega,
                            sigma_eta=data.noise_cov)
            traj = run_uki(state, task.surrogate_forward, data, cfg, policy.t_steps)
            anchor = select_anchor(traj, scan, data)
        except failures as exc:
            record.stopped = f"error at cycle {t}: {exc}"
            break

        e_m = None
        if n_probe > 0:
            probe = gaussian_pool(anchor.r, anchor.C, n_probe, rng)
            e_m = local_model_error(
                task.surrogate_batch, lambda Z: task.full_forward(Z, "diagnostic"), probe)
        e_i = err_metric(anchor.r) if err_metric is not None else None

        wants_refine = should_refine(e_prev, anchor.e, policy.epsilon)
        applied = wants_refine and t < policy.i_max - 1
        refine_failure = None
        if applied:
            try:
                pool = gaussian_pool(anchor.r, anchor.C, policy.k_pool, rng)
                chosen = greedy_select(pool, task.surrogate_batch, anchor.r,
                                       policy.q_new, policy.lam)
                task.refine(chosen)
            except failures as exc:
                applied = False
                refine_failure = f"error at cycle {t}: {exc}"

        rec = CycleRecord(t, anchor, anchor.e, e_m, e_i, applied)
        record.cycles.append(rec)
        if on_cycle is not None:
            on_cycle(rec)
        state = GaussianState(anchor.r, anchor.C)
        e_prev = anchor.e
        if refine_failure is not None:
            record.stopped = refine_failure
            break
        if not wants_refine:
            record.stopped = "stall"
            break

    if record.cycles:
        best = min(record.cycles, key=lambda c: c.e_d)
        record.final_r = best.anchor.r.copy()
        record.final_C = best.anchor.C.copy()
        record.final_cycle = best.index
    return record


def gaussian_pool(r, C, k, rng) -> np.ndarray:
    """k draws from N(r, C)."""
    L = np.linalg.cholesky(C)
    return r + rng.standard_normal((k, r.size)) @ L.T
