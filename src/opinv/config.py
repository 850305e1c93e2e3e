"""Run configuration: the problem registry, presets, delta-dependent
defaults, JSON round-trip, and the master seed's named random streams."""

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
    fixed truth, a fixed start mean and a prior uniform on the square
    ``box`` = (lo, hi) in every coordinate."""

    truth: tuple
    start: tuple
    box: tuple


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
        HeatSourceLocProblem,
        PointParam(truth=(0.2, 0.2), start=(0.6, 0.6), box=(0.5, 1.0)),
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
# every run derives all randomness from these streams; a stream's number is
# its fixed spawn key, so adding or deleting a stream re-seeds no other
STREAMS = {"prior": 0, "noise": 1, "init": 2, "pool": 3, "truth": 5}


class UsageError(ValueError):
    """A bad setting, file or path, refused before any work; the CLI exits 2."""


def default_t_steps(mode: str) -> int:
    """Inversion steps per cycle of the adaptive loop, or per plain run."""
    return 10 if mode == "deeponet-adaptive" else 20


# the values a field of each declared type takes (a bool is no number); a
# "| None" field also takes None
_KINDS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) is int or isinstance(v, float)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("a list of integers",
              lambda v: isinstance(v, (list, tuple)) and all(type(w) is int for w in v)),
}

_AT_LEAST_1 = ("n_modes", "n_prior", "i_max", "t_steps", "q_new", "k_pool", "p_basis",
               "query_axis", "sensor_axis")


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
    # observation
    sensor_axis: int = 6

    def __post_init__(self):
        self.hidden = tuple(int(w) for w in self.hidden)

    # -- derived defaults ---------------------------------------------------

    def resolved(self) -> "RunConfig":
        """Copy with the delta/mode-dependent defaults filled in."""
        alpha = self.alpha if self.alpha is not None else (
            1.0 if self.delta <= 0.01 else 0.5)
        t_steps = self.t_steps if self.t_steps is not None else default_t_steps(self.mode)
        q_new = self.q_new if self.q_new is not None else (
            50 if self.delta <= 0.01 else 20)
        out = dataclasses.replace(self, alpha=alpha, t_steps=t_steps, q_new=q_new)
        out.validate()
        return out

    def validate(self) -> None:
        """The one range check of every field, run before any work; a None
        left for resolved() to fill is checked once it is filled."""
        for name, allowed in (("problem", SPECS), ("scale", SCALES), ("mode", MODES),
                              ("truth", TRUTHS)):
            if getattr(self, name) not in allowed:
                raise UsageError(f"unknown {name} {getattr(self, name)!r}")
        if self.grid < 3:
            raise UsageError(f"grid must be at least 3, got {self.grid}")
        for name in _AT_LEAST_1:
            v = getattr(self, name)
            if v is not None and v < 1:
                raise UsageError(f"{name} must be at least 1, got {v}")
        if any(w < 1 for w in self.hidden):
            raise UsageError(f"hidden widths must be at least 1, got {list(self.hidden)}")
        if self.q_new is not None and self.q_new > self.k_pool:
            raise UsageError(f"q_new ({self.q_new}) cannot exceed k_pool ({self.k_pool})")
        for name in ("epsilon", "lam", "start_cov"):
            if not getattr(self, name) > 0:
                raise UsageError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("delta", "n_probe", "offline_iters", "online_iters", "seed"):
            if not getattr(self, name) >= 0:
                raise UsageError(f"{name} must be at least 0, got {getattr(self, name)}")
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise UsageError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.spec.point is None and not 1 <= self.encoder_axis <= self.grid:
            raise UsageError(f"encoder_axis must lie in [1, grid {self.grid}], "
                             f"got {self.encoder_axis}")

    @property
    def spec(self) -> ProblemSpec:
        return SPECS[self.problem]

    @property
    def n_dim(self) -> int:
        """Dimension of the inversion parameter vector."""
        return self.spec.n_dim(self.n_modes)

    # -- randomness ------------------------------------------------------------

    def rng(self, stream: str) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(STREAMS[stream],)))

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = {k: v for k, v in d.items() if k != "workers"}  # retired; never changed a result
        # retired: files hold heat-loc's PointParam.box; another box must not load
        box = d.pop("chi_box", None)
        if box is not None and tuple(box) != SPECS["heat-loc"].point.box:
            raise UsageError(f"chi_box {list(box)} is retired; the prior box is fixed")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        bad = set(d) - set(types)
        if bad:
            raise UsageError(f"unknown config fields: {sorted(bad)}")
        for name, v in d.items():
            kind, _, nullable = types[name].partition(" | ")
            what, ok = _KINDS[kind]
            if not (ok(v) or (nullable and v is None)):
                raise UsageError(f"config field {name} must be {what}"
                                 f"{' or null' if nullable else ''}, got {v!r}")
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
        raise UsageError(f"unknown problem {problem!r}")
    if scale not in SCALES:
        raise UsageError("scale must be 'desk' or 'paper'")
    return RunConfig(problem=problem, scale=scale, **getattr(SPECS[problem], scale))
