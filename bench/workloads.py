"""The benchmark's workloads and the operation each one repeats.

An operation is what a desk user runs through the public harness commands
(the README quick start and acceptance criterion 7), for one problem
seed:

* ``fem-desk``: ``cmd_invert`` in fem-uki mode on all four desk presets.
  Only the full-order solvers work here; the surrogate is never built.
* ``darcy-adaptive``: ``cmd_train_offline`` then ``cmd_invert`` in
  deeponet-adaptive mode on desk Darcy.  Training and fine-tuning dominate.

  It always runs problem seed 7, whose cycle-2 fine-tune aborts ("training
  did not descend"), a known defect the benchmark keeps visible.  Where the
  Darcy loop stops depends on the problem seed (after 1 to 8 cycles on seeds
  1-13), which moves the time of its inversion by up to 60%.

  Offline training runs 2,000 instead of 20,000 Adam iterations, so that an
  operation takes about 20 s and a run repeats it; the cycle-2 abort shows
  at both budgets.  Desk heat-loc is not run adaptively: its fine-tunes on a
  600 x 288 set are bound by memory traffic, and its time spread 15-21%
  between runs of identical work.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from opinv import harness
from opinv.config import preset


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple
    mode: str
    overrides: dict = field(default_factory=dict)  # problem -> config fields
    pinned: dict = field(default_factory=dict)     # problem -> fixed problem seed

    @property
    def trains(self) -> bool:
        """Surrogate modes train offline before they invert."""
        return self.mode != "fem-uki"


WORKLOADS = {w.name: w for w in (
    Workload("fem-desk", ("darcy", "heat-field", "reaction-diffusion", "heat-loc"),
             "fem-uki"),
    Workload("darcy-adaptive", ("darcy",), "deeponet-adaptive",
             overrides={"darcy": {"offline_iters": 2000}}, pinned={"darcy": 7}),
)}


def run_config(workload: Workload, problem: str, seed: int, out_dir: str = ""):
    """The desk preset of one problem, as the workload runs it."""
    return replace(preset(problem, "desk"), seed=workload.pinned.get(problem, seed),
                   mode=workload.mode, out_dir=out_dir,
                   **workload.overrides.get(problem, {}))


@dataclass
class Inversion:
    """One problem's share of an operation, as read back from its artifacts."""

    problem: str
    cfg: object               # the resolved RunConfig
    record: dict | None = None
    train_meta: dict | None = None
    warnings: list = field(default_factory=list)
    error: str = ""
    wall_s: float = 0.0       # harness command calls, writes included
    bytes_written: int = 0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_operation(workload: Workload, seed: int, out_root: Path) -> list:
    """Run the workload's harness commands once, on problem seed ``seed``
    unless the workload pins another."""
    out = []
    for problem in workload.problems:
        base = out_root / problem
        cfg = run_config(workload, problem, seed, str(base / "invert"))
        inv = Inversion(problem, cfg.resolved())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                checkpoint = None
                if workload.trains:
                    checkpoint = harness.cmd_train_offline(
                        replace(cfg, out_dir=str(base / "train")))
                path = harness.cmd_invert(cfg, checkpoint=checkpoint)
            except (RuntimeError, ValueError, ArithmeticError) as exc:
                # SolverError, UkiError and TrainingError are RuntimeErrors
                inv.error = f"{type(exc).__name__}: {exc}"
            inv.wall_s = time.perf_counter() - t0
        inv.warnings = [str(w.message) for w in caught]
        if not inv.error:
            inv.record = harness.load_record(path)
            if workload.trains:
                inv.train_meta = json.loads(
                    (base / "train" / "train_meta.json").read_text())
        inv.bytes_written = _dir_bytes(base)
        out.append(inv)
    return out
