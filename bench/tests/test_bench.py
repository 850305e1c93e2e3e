"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(i, parent, name, start, end, **attrs):
    return Span(i, parent, "t", name, start, end, attrs)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, "harness.invert", 0.0, 10.0),
        _span(1, 0, "uki", 1.0, 9.0),
        _span(2, 1, "forward", 2.0, 4.0),
        _span(3, 2, "grf.sample_field", 2.5, 3.0),
        _span(4, 1, "forward", 5.0, 6.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 5.0, 2: 1.5, 3: 0.5, 4: 1.0})
    mods = tracing.module_self_times(spans)
    assert mods["forward"] == pytest.approx(2.5)
    assert mods["grf"] == pytest.approx(0.5)
    assert sum(mods.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, "adaptive", 0.0, 4.0),
             _span(1, 0, "forward", 1.0, 3.0),
             _span(2, 0, "forward", 2.0, 3.5)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_records_parents_errors_and_restores_names():
    import opinv.adaptive as adaptive
    original = adaptive.greedy_select
    tracer = Tracer("t")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return traced_inner(x) + 1

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer(1) == 2
    with pytest.raises(ValueError):
        traced_inner(-1)
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", None)]
    assert tracer.spans[2].attrs["error"] == "ValueError"
    assert tracer.overhead_s > 0

    with tracing.instrument(tracer):
        assert adaptive.greedy_select is not original
    assert adaptive.greedy_select is original


def test_metric_names_are_valid_and_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    layer = set(tracing.layer_metrics([])) | {"harness.write.bytes", "trace.overhead_s"}
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _fem_inversion():
    cfg = workloads.run_config(workloads.WORKLOADS["fem-desk"], "heat-loc", 7).resolved()
    n_sigma = 2 * cfg.n_dim + 1
    record = {
        "mode": "fem-uki", "stopped": "",
        "counts": {"fem-uki": n_sigma * cfg.t_steps, "diagnostic": 1,
                   "total": n_sigma * cfg.t_steps + 1},
        "extras": {"cycles_used": cfg.t_steps, "final_e_d": 1.5},
        "series": [{"cycle": 0, "e_i": 0.2}],
        "final_r": [0.21, 0.19],
        "timings": {"invert_s": 0.1},
    }
    return workloads.Inversion("heat-loc", cfg, record=record)


def _adaptive_inversion():
    cfg = workloads.run_config(workloads.WORKLOADS["darcy-adaptive"], "darcy", 1).resolved()
    assert cfg.seed == 7  # the Darcy instance is pinned
    # the seed-7 shape: two refined cycles, then a fine-tune abort in cycle 2
    record = {
        "mode": "deeponet-adaptive",
        "stopped": "error at cycle 2: training did not descend",
        "counts": {"anchor-scan": 31, "adaptive-sample": 60, "diagnostic": 60,
                   "total": 151},
        "extras": {"cycles_used": 3, "final_cycle": 1, "final_e_d": 3.0},
        "series": [{"e_i": 0.8}, {"e_i": 0.9}, {"e_i": 1.1}],
        "final_r": [0.0] * cfg.n_dim,
        "timings": {"invert_s": 1.0},
    }
    return workloads.Inversion("darcy", cfg, record=record,
                               train_meta={"counts": {"offline": 200}, "wall_s": 2.0})


def test_checker_accepts_sound_records():
    assert checks.invariant_errors(_fem_inversion()) == []
    assert checks.invariant_errors(_adaptive_inversion()) == []


@pytest.mark.parametrize("make, category", [
    (_fem_inversion, "fem-uki"),
    (_adaptive_inversion, "anchor-scan"),
    (_adaptive_inversion, "diagnostic"),
])
def test_checker_rejects_tampered_ledger(make, category):
    inv = make()
    rec = copy.deepcopy(inv.record)
    rec["counts"][category] += 1
    rec["counts"]["total"] += 1  # keep the category sum consistent
    inv.record = rec
    assert any(category in e or "solves" in e for e in checks.invariant_errors(inv))


def test_checker_rejects_offline_count_and_non_finite_estimate():
    inv = _adaptive_inversion()
    inv.train_meta = {"counts": {"offline": 199}, "wall_s": 2.0}
    assert any("offline" in e for e in checks.invariant_errors(inv))
    inv = _fem_inversion()
    inv.record["final_r"] = [float("nan"), 0.2]
    assert any("not finite" in e for e in checks.invariant_errors(inv))


def test_stage_accounting_counts_the_fine_tune_abort():
    attempted, failed = checks.stage_counts(_adaptive_inversion())
    # 351 solves + 30 UKI steps + 3 fine-tunes + 3 cycles + 1 train call
    assert (attempted, failed) == (151 + 200 + 30 + 3 + 3 + 1, 1)
    inv = _fem_inversion()
    inv.warnings = ["inversion stopped at step 20: covariance not positive definite"]
    assert checks.stage_counts(inv)[1] == 1


def test_flop_count_of_one_training_iteration():
    # branch 2->3->4, trunk 3->4: weights 18 and 12, p = 4
    flop = tracing.train_iter_flop(5, 7, [2, 3, 4], [3, 4])
    assert flop == 3 * 2 * (5 * 18 + 7 * 12 + 5 * 7 * 4)


def test_refuses_more_workers_than_cores(monkeypatch):
    import os

    import run
    nproc = len(os.sched_getaffinity(0))
    for var in run.BLAS_VARS:
        monkeypatch.setenv(var, "8")
    monkeypatch.setenv("OPINV_WORKERS", str(nproc + 1))
    with pytest.raises(run.StartError):
        run.pin_threads()
    monkeypatch.delenv("OPINV_WORKERS")
    assert run.pin_threads() == nproc
    assert all(os.environ[var] == "1" for var in run.BLAS_VARS)
