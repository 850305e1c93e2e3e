"""Spans around the calls into opinv's layers, installed from outside src/.

The tracer rebinds public names where the library looks them up (for
example ``opinv.harness.forward_map``), so each call opens a span with a
name, start, end, parent and run id.  Spans stay in memory until the run
ends.  Self time is a span's duration minus the part of it that its child
spans cover.  Everything here assumes one thread: the benchmark leaves
``OPINV_WORKERS`` unset, so ``parallel_map`` runs sequentially.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

PROBLEM_NAMES = {
    "DarcyProblem": "darcy",
    "HeatSourceFieldProblem": "heat-field",
    "ReactionDiffusionProblem": "reaction-diffusion",
    "HeatSourceLocProblem": "heat-loc",
}
MODULES = ("grf", "forward", "observe", "uki", "deeponet", "adaptive", "harness")


@dataclass
class Span:
    id: int
    parent: int | None
    run: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder for one run.

    ``overhead_s`` is the time the wrappers spend outside the calls they
    trace: span bookkeeping and the attribute hooks."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self._open: list[Span] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """Traced version of fn.  ``before(span, args)`` may return new args;
        ``after(span, args, result)`` runs also when fn raised (result None).
        The span covers the call of fn only."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            parent = self._open[-1].id if self._open else None
            s = Span(len(self.spans), parent, self.run_id, name, t_in)
            self.spans.append(s)
            self._open.append(s)
            if before is not None:
                args = before(s, args)
            result = None
            s.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                s.attrs["error"] = type(exc).__name__
                raise
            finally:
                s.end = time.perf_counter()
                self._open.pop()
                if after is not None:
                    after(s, args, result)
                self.overhead_s += (s.start - t_in) + (time.perf_counter() - s.end)

        return traced

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "run": s.run,
                                     "name": s.name, "start": s.start - t0,
                                     "end": s.end - t0, "attrs": s.attrs},
                                    default=float) + "\n")


# ---------------------------------------------------------------------------
# self time


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part covered by its direct children."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = s.duration - _covered([k for k in kids if k[1] > k[0]])
    return out


def module_self_times(spans) -> dict:
    """Module name -> summed self time of its spans."""
    own = self_times(spans)
    out = {m: 0.0 for m in MODULES}
    for s in spans:
        out[s.module] = out.get(s.module, 0.0) + own[s.id]
    return out


# ---------------------------------------------------------------------------
# installation


def _problem_name(problem) -> str:
    return PROBLEM_NAMES.get(type(problem).__name__, type(problem).__name__)


def _forward_before(s, args):
    s.attrs["problem"] = _problem_name(args[0])
    s.attrs["category"] = args[4] if len(args) > 4 else "forward"
    return args


def _uki_before(s, args):
    calls = s.attrs
    calls["forward_calls"] = 0
    forward = args[1]

    def counted(z):
        calls["forward_calls"] += 1
        return forward(z)

    s.attrs["n_steps"] = args[4]
    return (args[0], counted, *args[2:])


def _uki_after(s, args, result):
    if result is not None:
        s.attrs["steps"] = len(result)


def _train_before(s, args):
    surrogate, ts = args[0], args[1]
    s.attrs["iters0"] = surrogate.iters_done
    s.attrs["entries"] = ts.n_entries
    s.attrs["queries"] = len(ts.queries)
    s.attrs["branch"] = list(surrogate.arch.branch)
    s.attrs["trunk"] = list(surrogate.arch.trunk)
    return args


def _train_after(s, args, result):
    s.attrs["iters"] = args[0].iters_done - s.attrs.pop("iters0")


def _eval_after(s, args, result):
    s.attrs["rows"] = int(np.atleast_2d(args[1]).shape[0])
    s.attrs["queries"] = int(np.atleast_2d(args[2]).shape[0])
    s.attrs["branch"] = list(args[0].arch.branch)
    s.attrs["trunk"] = list(args[0].arch.trunk)


def _refine_after(s, args, result):
    s.attrs["wanted"] = bool(result)


def _targets():
    """(owner, attribute, span name, before, after) for every rebound name."""
    import opinv.adaptive as adaptive
    import opinv.forward as forward
    import opinv.harness as harness
    from opinv.config import RunConfig
    from opinv.deeponet import Surrogate

    return [
        (harness, "cmd_train_offline", "harness.train_offline", None, None),
        (harness, "cmd_invert", "harness.invert", None, None),
        (harness, "Bench", "harness.bench", None, None),
        (harness, "forward_map", "forward", _forward_before, None),
        (harness, "train", "deeponet.train", _train_before, _train_after),
        (harness, "fine_tune", "deeponet.finetune", _train_before, _train_after),
        (harness, "run_uki", "uki", _uki_before, _uki_after),
        (harness, "run_adaptive", "adaptive", None, None),
        (harness, "build_kl_basis", "grf.build_kl_basis", None, None),
        (harness, "sample_field", "grf.sample_field", None, None),
        (harness, "observe", "observe", None, None),
        (harness, "observe_state", "observe", None, None),
        (harness, "save_record", "harness.write", None, None),
        (harness, "save_training_set", "harness.write", None, None),
        (harness, "write_loss_history", "harness.write", None, None),
        (harness, "save_observation", "harness.write", None, None),
        (forward, "sample_field", "grf.sample_field", None, None),
        (adaptive, "run_uki", "uki", _uki_before, _uki_after),
        (adaptive, "greedy_select", "adaptive.greedy", None, None),
        (adaptive, "select_anchor", "adaptive.anchor", None, None),
        (adaptive, "local_model_error", "adaptive.diagnostic", None, None),
        (adaptive, "should_refine", "adaptive.should_refine", None, _refine_after),
        (Surrogate, "eval", "deeponet.eval", None, _eval_after),
        (Surrogate, "save", "harness.write", None, None),
        (RunConfig, "save", "harness.write", None, None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the traced names for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, before, after in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _mlp_weights(widths) -> int:
    return sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def eval_flop(rows: int, queries: int, branch, trunk) -> float:
    """Multiply-add count (x2) of one surrogate evaluation."""
    return 2.0 * (rows * _mlp_weights(branch) + queries * _mlp_weights(trunk)
                  + rows * queries * branch[-1])


def train_iter_flop(entries: int, queries: int, branch, trunk) -> float:
    """One full-batch loss-and-gradient iteration: forward plus a backward
    pass of twice its cost."""
    return 3.0 * eval_flop(entries, queries, branch, trunk)


def _percentile_ms(durations, q) -> float:
    if not durations:
        return 0.0
    return 1e3 * float(np.percentile(np.asarray(durations), q))


def layer_metrics(spans) -> dict:
    """Per-layer metric name -> value; BENCHMARK.json holds the units."""
    own = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def self_sum(name):
        return sum(own[s.id] for s in group(name))

    m = {}
    m["grf.sample_field.calls"] = len(group("grf.sample_field"))
    m["grf.sample_field.self_s"] = self_sum("grf.sample_field")
    m["grf.build_kl_basis.self_s"] = self_sum("grf.build_kl_basis")

    fwd = group("forward")
    m["forward.solves"] = len(fwd)
    m["forward.self_s"] = self_sum("forward")
    m["forward.solver_errors"] = sum(s.attrs.get("error") == "SolverError" for s in fwd)
    for problem in PROBLEM_NAMES.values():
        d = [s.duration for s in fwd if s.attrs["problem"] == problem]
        m[f"forward.{problem}.solve_ms.p50"] = _percentile_ms(d, 50)
        m[f"forward.{problem}.solve_ms.p99"] = _percentile_ms(d, 99)

    m["observe.calls"] = len(group("observe"))
    m["observe.self_s"] = self_sum("observe")

    uki = group("uki")
    m["uki.steps"] = sum(s.attrs.get("steps", 0) for s in uki)
    m["uki.forward_calls"] = sum(s.attrs["forward_calls"] for s in uki)
    m["uki.self_s"] = self_sum("uki")
    m["uki.truncations"] = sum(s.attrs.get("steps", 0) < s.attrs["n_steps"] for s in uki)

    gflop = 0.0
    for kind in ("train", "finetune"):
        spans_k = group(f"deeponet.{kind}")
        iters = sum(s.attrs["iters"] for s in spans_k)
        self_s = self_sum(f"deeponet.{kind}")
        m[f"deeponet.{kind}.iters"] = iters
        m[f"deeponet.{kind}.self_s"] = self_s
        m[f"deeponet.{kind}.iter_ms"] = 1e3 * self_s / iters if iters else 0.0
        gflop += sum(s.attrs["iters"] * train_iter_flop(
            s.attrs["entries"], s.attrs["queries"], s.attrs["branch"], s.attrs["trunk"])
            for s in spans_k) / 1e9
    ft = group("deeponet.finetune")
    m["deeponet.finetune.calls"] = len(ft)
    m["deeponet.finetune.failed"] = sum(s.attrs.get("error") == "TrainingError" for s in ft)
    ev = group("deeponet.eval")
    m["deeponet.eval.calls"] = len(ev)
    m["deeponet.eval.points"] = sum(s.attrs["rows"] * s.attrs["queries"] for s in ev)
    m["deeponet.eval.self_s"] = self_sum("deeponet.eval")
    gflop += sum(eval_flop(s.attrs["rows"], s.attrs["queries"], s.attrs["branch"],
                           s.attrs["trunk"]) for s in ev) / 1e9
    busy = (m["deeponet.train.self_s"] + m["deeponet.finetune.self_s"]
            + m["deeponet.eval.self_s"])
    m["deeponet.gflop"] = gflop
    m["deeponet.gflops"] = gflop / busy if busy > 0 else 0.0

    # solves the refinement loop made; parents precede their children
    in_loop: dict = {}
    for s in spans:
        in_loop[s.id] = s.name == "adaptive" or in_loop.get(s.parent, False)
    cats = [s.attrs["category"] for s in fwd if in_loop[s.id]]
    anchor, sample, diag = (cats.count(c) for c in
                            ("anchor-scan", "adaptive-sample", "diagnostic"))
    wanted = sum(s.attrs.get("wanted", False) for s in group("adaptive.should_refine"))
    applied = len(ft) - m["deeponet.finetune.failed"]
    m["adaptive.cycles"] = len(group("adaptive.should_refine"))
    m["adaptive.self_s"] = sum(self_sum(n) for n in by_name if n.startswith("adaptive"))
    m["adaptive.greedy.self_s"] = self_sum("adaptive.greedy")
    m["adaptive.anchor_solves"] = anchor
    m["adaptive.sample_solves"] = sample
    m["adaptive.diagnostic_solves"] = diag
    m["adaptive.refine_ratio"] = applied / wanted if wanted else 0.0
    invert_solves = anchor + sample + diag
    m["adaptive.diagnostic_share"] = diag / invert_solves if invert_solves else 0.0

    m["harness.bench.self_s"] = self_sum("harness.bench")
    m["harness.write.self_s"] = self_sum("harness.write")
    return m
