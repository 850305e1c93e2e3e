"""Run configuration: the problem registry, presets, delta-dependent
defaults, JSON round-trip, and the master-seed split into named random
streams."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .forward import (
    DarcyProblem,
    HeatSourceFieldProblem,
    HeatSourceLocProblem,
    ReactionDiffusionProblem,
)
from .grf import Grid2D


@dataclass(frozen=True)
class PointParam:
    """A parameter used as is rather than realized on a KL basis, with a
    fixed truth, a fixed start mean and a prior uniform on the
    ``RunConfig.chi_box`` square."""

    truth: tuple
    start: tuple


@dataclass(frozen=True)
class ProblemSpec:
    """Everything that sets one benchmark problem apart.  The class has a
    ``solve_batch(P)`` method, a (B, n) parameter array to a float array of
    states with one row per parameter (NaN where a solve failed), an
    ``obs_times`` tuple (empty for a single state), and an ``affine`` flag,
    True only if the state is an affine map of the parameter field (then
    ``forward_map`` composes KL-coefficient states from the states of the
    zero field and the basis rows); ``desk`` and ``paper`` are the preset's
    RunConfig deltas."""

    problem_class: type
    point: PointParam | None = None  # None: KL coefficients realized on a basis
    desk: dict = field(default_factory=dict)
    paper: dict = field(default_factory=dict)

    def build(self, grid: int):
        return self.problem_class(Grid2D(grid, grid))

    def n_dim(self, n_modes: int) -> int:
        """Dimension of the inversion parameter vector."""
        return n_modes if self.point is None else len(self.point.truth)


# smaller adaptive batches keep the desk eval budget well under fem-uki
_FIELD_DESK = dict(q_new=20)
_FIELD_PAPER = dict(grid=70, n_modes=128, n_prior=1000, offline_iters=100000,
                    p_basis=100, hidden=(100,) * 5, encoder_axis=16, query_axis=16,
                    n_probe=100)
_LOC = dict(truth="fixed", n_modes=2, sensor_axis=3, start_cov=0.02)

SPECS = {
    "darcy": ProblemSpec(DarcyProblem, desk=_FIELD_DESK, paper=_FIELD_PAPER),
    "heat-loc": ProblemSpec(
        HeatSourceLocProblem, PointParam(truth=(0.2, 0.2), start=(0.6, 0.6)),
        # the source walks far outside the offline box; a tight stall
        # threshold (epsilon) keeps refinement alive through flat misfit stretches
        desk=dict(_LOC, n_prior=150, offline_iters=2500, p_basis=24, hidden=(48, 48),
                  q_new=50, k_pool=1500, n_probe=10, epsilon=0.001),
        paper=dict(_LOC, grid=70, n_prior=500, offline_iters=100000, p_basis=100,
                   hidden=(100,) * 5, query_axis=16, n_probe=100)),
    "heat-field": ProblemSpec(HeatSourceFieldProblem, desk=dict(_FIELD_DESK, truth="fixed"),
                              paper=dict(_FIELD_PAPER, truth="fixed")),
    "reaction-diffusion": ProblemSpec(ReactionDiffusionProblem,
                                      desk=dict(_FIELD_DESK, truth="ood"),
                                      paper=dict(_FIELD_PAPER, truth="ood")),
}
PROBLEMS = tuple(SPECS)
MODES = ("fem-uki", "deeponet-direct", "deeponet-adaptive")
TRUTHS = ("idd", "ood", "fixed")
SCALES = ("desk", "paper")
# fixed spawn order; every run derives all randomness from these streams
# "train" is reserved: nothing draws from it, but it fixes the seed of "truth"
STREAMS = ("prior", "noise", "init", "pool", "train", "truth")


@dataclass
class RunConfig:
    problem: str = "darcy"
    scale: str = "desk"
    mode: str = "deeponet-adaptive"
    truth: str = "idd"
    grid: int = 24
    n_modes: int = 32
    delta: float = 0.01
    seed: int = 7
    out_dir: str = "runs/latest"
    # inversion loop; None means "fill by the delta/mode rules in resolved()"
    alpha: float | None = None
    t_steps: int | None = None
    epsilon: float = 0.01
    i_max: int = 10
    q_new: int | None = None
    k_pool: int = 2000
    lam: float = 1.0
    n_probe: int = 20
    start_cov: float = 1.0     # initial covariance scale (C0 = start_cov * I)
    # surrogate and its training
    n_prior: int = 200
    offline_iters: int = 20000
    online_iters: int = 2000
    p_basis: int = 40
    hidden: tuple = (64, 64, 64)
    encoder_axis: int = 8
    query_axis: int = 12
    chi_box: tuple = (0.5, 1.0)  # offline sampling box for the source-location case
    # observation
    sensor_axis: int = 6

    def __post_init__(self):
        self.hidden = tuple(int(w) for w in self.hidden)
        self.chi_box = tuple(float(v) for v in self.chi_box)

    # -- derived defaults ---------------------------------------------------

    def resolved(self) -> "RunConfig":
        """Copy with the delta/mode-dependent defaults filled in."""
        alpha = self.alpha if self.alpha is not None else (
            1.0 if self.delta <= 0.01 else 0.5)
        t_steps = self.t_steps if self.t_steps is not None else (
            10 if self.mode == "deeponet-adaptive" else 20)
        q_new = self.q_new if self.q_new is not None else (
            50 if self.delta <= 0.01 else 20)
        out = dataclasses.replace(self, alpha=alpha, t_steps=t_steps, q_new=q_new)
        out.validate()
        return out

    def validate(self) -> None:
        if self.problem not in SPECS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.truth not in TRUTHS:
            raise ValueError(f"unknown truth recipe {self.truth!r}")
        if self.grid < 3:
            raise ValueError("grid must be at least 3")
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    @property
    def spec(self) -> ProblemSpec:
        return SPECS[self.problem]

    @property
    def n_dim(self) -> int:
        """Dimension of the inversion parameter vector."""
        return self.spec.n_dim(self.n_modes)

    # -- randomness ------------------------------------------------------------

    def seed_streams(self) -> dict:
        children = np.random.SeedSequence(self.seed).spawn(len(STREAMS))
        return dict(zip(STREAMS, children))

    def rng(self, stream: str) -> np.random.Generator:
        return np.random.default_rng(self.seed_streams()[stream])

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["hidden"] = list(self.hidden)
        d["chi_box"] = list(self.chi_box)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = {k: v for k, v in d.items() if k != "workers"}  # retired; never changed a result
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(d) - known
        if bad:
            raise ValueError(f"unknown config fields: {sorted(bad)}")
        return cls(**d)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def preset(problem: str, scale: str = "desk") -> RunConfig:
    """Baseline configuration for one benchmark at desk or paper scale: the
    spec's deltas on the RunConfig defaults.

    Desk scale shrinks grid, mode count, and training budget so a full run
    finishes in minutes; paper scale restores the published sizes."""
    if problem not in SPECS:
        raise ValueError(f"unknown problem {problem!r}")
    if scale not in SCALES:
        raise ValueError("scale must be 'desk' or 'paper'")
    return RunConfig(problem=problem, scale=scale, **getattr(SPECS[problem], scale))
