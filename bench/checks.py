"""Output checks and failure accounting for one operation's inversions.

The checks test invariants, not golden outputs, so a change that moves the
estimate legitimately is judged by its error metric instead of failing here:

* ledger identities: fem-uki solves are ``(2n+1)`` per attempted step plus
  one diagnostic; for adaptive runs anchor-scan is 1 + the steps taken,
  diagnostic is ``n_probe`` per cycle, offline is ``n_prior``, and the
  non-diagnostic count stays within ``(q_new + t_steps) * i_max``;
* the estimate and its data misfit are finite;
* one seed gives a bit-identical estimate (checked by the caller).

A stage operation is a full-order solve, a UKI step, a train or fine-tune
call, or an adaptive cycle.  It fails when a typed error escapes, when a UKI
step is truncated (a warning), or when the adaptive loop stops with an
``error at cycle`` reason.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

TRUNCATION = "inversion stopped at step"
ERROR_STOP = "error at cycle"


def _nondiag(counts: dict) -> int:
    """Full-order solves charged to the inversion, as ``cmd_report`` counts."""
    return sum(v for k, v in counts.items() if k not in ("diagnostic", "total", "offline"))


def full_solves(inv) -> int:
    return _nondiag(inv.record["counts"]) if inv.record else 0


def truncations(inv) -> int:
    return sum(m.startswith(TRUNCATION) for m in inv.warnings)


def final_e_i(inv) -> float:
    """Relative error of the estimate the record reports as final."""
    rec = inv.record
    if rec["mode"] == "deeponet-adaptive":
        return rec["series"][rec["extras"]["final_cycle"]]["e_i"]
    return rec["series"][-1]["e_i"]


def estimate_digest(inv) -> str:
    return hashlib.sha256(np.asarray(inv.record["final_r"], dtype="<f8").tobytes()).hexdigest()


def invariant_errors(inv) -> list:
    """Broken invariants of one inversion, as messages (empty when sound)."""
    if inv.error:
        return [f"{inv.problem}: {inv.error}"]
    rec, cfg = inv.record, inv.cfg
    counts = rec["counts"]
    errs = []

    def need(ok, msg):
        if not ok:
            errs.append(f"{inv.problem}: {msg}")

    need(sum(v for k, v in counts.items() if k != "total") == counts["total"],
         f"ledger categories do not sum to total {counts}")
    n_sigma = 2 * cfg.n_dim + 1
    cycles = rec["extras"]["cycles_used"]
    trunc = truncations(inv)
    if rec["mode"] == "fem-uki":
        need(counts.get("fem-uki") == n_sigma * (cycles + trunc),
             f"fem-uki solves {counts.get('fem-uki')} != (2n+1)*steps = "
             f"{n_sigma}*{cycles + trunc}")
        need(counts.get("diagnostic") == 1, f"diagnostic solves {counts.get('diagnostic')} != 1")
    else:
        anchor = counts.get("anchor-scan", 0)
        steps_bound = 1 + cfg.t_steps * cycles
        if trunc or rec["stopped"].startswith(f"{ERROR_STOP} {cycles}:"):
            # a truncated cycle, or one that failed before its record, scans
            # fewer (or uncounted) states
            need(anchor >= 1, f"anchor-scan {anchor} < 1")
        else:
            need(anchor == steps_bound,
                 f"anchor-scan {anchor} != 1 + t_steps*cycles = {steps_bound}")
        need(counts.get("diagnostic", 0) == cfg.n_probe * cycles,
             f"diagnostic {counts.get('diagnostic', 0)} != n_probe*cycles = "
             f"{cfg.n_probe * cycles}")
        budget = (cfg.q_new + cfg.t_steps) * cfg.i_max
        need(_nondiag(counts) <= budget,
             f"non-diagnostic solves {_nondiag(counts)} above budget {budget}")
        if inv.train_meta is not None:
            off = inv.train_meta["counts"].get("offline", 0)
            need(off == cfg.n_prior, f"offline solves {off} != n_prior {cfg.n_prior}")
    r = np.asarray(rec["final_r"], dtype=float)
    need(r.size == cfg.n_dim and bool(np.all(np.isfinite(r))), "estimate not finite")
    e_d = rec["extras"].get("final_e_d")
    need(e_d is not None and math.isfinite(e_d), f"final misfit {e_d} not finite")
    e_i = final_e_i(inv)
    need(e_i is not None and math.isfinite(e_i), f"final e_i {e_i} not finite")
    return errs


def stage_counts(inv) -> tuple:
    """(attempted, failed) stage operations of one inversion."""
    if inv.record is None:
        # the command raised: count the failed stage call on top of nothing
        return 1, 1
    rec, cfg = inv.record, inv.cfg
    counts = rec["counts"]
    trunc = truncations(inv)
    cycles = rec["extras"]["cycles_used"]
    attempted = counts["total"] + trunc
    failed = trunc
    if rec["mode"] == "fem-uki":
        attempted += cycles
    else:
        attempted += counts.get("anchor-scan", 1) - 1          # UKI steps
        attempted += counts.get("adaptive-sample", 0) // cfg.q_new  # fine-tunes
        attempted += cycles
        if rec["stopped"].startswith(ERROR_STOP):
            failed += 1
            if rec["stopped"].startswith(f"{ERROR_STOP} {cycles}:"):
                attempted += 1  # the cycle that failed before its record
    if inv.train_meta is not None:
        attempted += inv.train_meta["counts"].get("offline", 0) + 1  # solves + train
    return attempted, failed
