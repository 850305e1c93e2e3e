"""Pointwise sensors, synthetic noisy data, and the noise-weighted misfit.

Sensor conventions: an "s per axis" equidistant array means the interior
lattice ``{(i/(s+1), j/(s+1)) : i, j = 1..s}``, so no sensor sits on the
boundary.  Fields are read by bilinear interpolation on their grid.

Data synthesis follows ``y_obs = y_ref + delta * max|y_ref| * xi`` with
``xi`` i.i.d. standard normal per entry, and the noise covariance is the
matching ``(delta * max|y_ref|)^2 I``.  ``delta = 0`` produces exact data
with a small diagonal floor so the misfit stays defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class SensorArray:
    """Fixed read-out locations in the closed unit square."""

    locations: np.ndarray

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        if loc.ndim != 2 or loc.shape[1] != 2:
            raise ValueError("locations must be (n, 2)")
        if loc.min() < 0.0 or loc.max() > 1.0:
            raise ValueError("sensor locations must lie in the unit square")
        object.__setattr__(self, "locations", loc)


def lattice_sensors(per_axis: int) -> SensorArray:
    """Equidistant interior lattice of per_axis x per_axis sensors."""
    if per_axis < 1:
        raise ValueError("per_axis must be >= 1")
    t = np.arange(1, per_axis + 1) / (per_axis + 1)
    xx, yy = np.meshgrid(t, t, indexing="ij")
    return SensorArray(np.column_stack([xx.ravel(), yy.ravel()]))


def observe(fields: list, sensors: SensorArray) -> np.ndarray:
    """Bilinear read-out of Fields on one grid at the sensor locations, one
    row per Field."""
    g = fields[0].grid
    u = np.array([h.as_matrix() for h in fields])
    x = sensors.locations[:, 0]
    y = sensors.locations[:, 1]
    ix = np.minimum((x / g.hx).astype(int), g.nx - 2)
    iy = np.minimum((y / g.hy).astype(int), g.ny - 2)
    tx = x / g.hx - ix
    ty = y / g.hy - iy
    return ((1 - tx) * (1 - ty) * u[:, ix, iy]
            + tx * (1 - ty) * u[:, ix + 1, iy]
            + (1 - tx) * ty * u[:, ix, iy + 1]
            + tx * ty * u[:, ix + 1, iy + 1])


def observe_state(states: list, sensors: SensorArray) -> np.ndarray:
    """Observation vectors of solver states, one row per state.

    A state is a Field or a tuple of snapshots; snapshots concatenate in time
    order, so a two-time problem with s sensors yields 2 s readings a row.
    """
    if isinstance(states[0], tuple):
        return np.hstack([observe(list(snaps), sensors) for snaps in zip(*states)])
    return observe(states, sensors)


@dataclass
class ObservationData:
    """Observed vector with its (diagonal) noise covariance."""

    y_obs: np.ndarray
    noise_cov: np.ndarray
    delta: float
    seed: int | None = None

    def __post_init__(self):
        self.y_obs = np.asarray(self.y_obs, dtype=float).ravel()
        self.noise_cov = np.asarray(self.noise_cov, dtype=float)
        n = self.y_obs.size
        if self.noise_cov.shape != (n, n):
            raise ValueError("noise_cov shape must match y_obs")

    @property
    def n_obs(self) -> int:
        return self.y_obs.size


def synthesize_data(y_ref: np.ndarray, delta: float, rng=None, floor: float = 1e-12,
                    seed: int | None = None) -> ObservationData:
    """Perturb a reference observation with scaled white noise.

    delta = 0 keeps the data exact and installs ``floor * I`` as covariance
    (debugging mode); otherwise the per-entry noise standard deviation is
    ``delta * max|y_ref|``, which must be nonzero.
    """
    y_ref = np.asarray(y_ref, dtype=float).ravel()
    if delta < 0:
        raise ValueError("delta must be >= 0")
    n = y_ref.size
    if delta == 0.0:
        return ObservationData(y_ref.copy(), floor * np.eye(n), 0.0, seed=seed)
    amp = delta * np.abs(y_ref).max()
    if amp == 0.0:
        raise ValueError("reference observation is identically zero; noise scale undefined")
    xi = np.random.default_rng(rng).standard_normal(n)
    return ObservationData(y_ref + amp * xi, amp**2 * np.eye(n), delta, seed=seed)


def misfit(g_of_m: np.ndarray, data: ObservationData) -> float:
    """Half squared data mismatch in the noise-whitened norm.

    ``0.5 || Sigma^{-1/2} (y - g) ||^2`` via a Cholesky solve of the
    covariance, so non-diagonal SPD covariances work too.
    """
    r = data.y_obs - np.asarray(g_of_m, dtype=float).ravel()
    if r.size != data.n_obs:
        raise ValueError("prediction length does not match data")
    cf = scipy.linalg.cho_factor(data.noise_cov)
    return 0.5 * float(r @ scipy.linalg.cho_solve(cf, r))


# ---------------------------------------------------------------------------
# persistence (scalar-diagonal covariances only)


def save_observation(path, data: ObservationData, sensors: SensorArray) -> None:
    var = float(data.noise_cov[0, 0])
    if not np.allclose(data.noise_cov, var * np.eye(data.n_obs), rtol=0, atol=0):
        raise ValueError("only scalar-diagonal noise covariance serializes to JSON")
    doc = {
        "locations": sensors.locations.tolist(),
        "delta": data.delta,
        "seed": data.seed,
        "noise_var": var,
        "y_obs": data.y_obs.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def load_observation(path):
    with open(path) as fh:
        doc = json.load(fh)
    y = np.asarray(doc["y_obs"], dtype=float)
    data = ObservationData(y, doc["noise_var"] * np.eye(y.size), doc["delta"],
                           seed=doc.get("seed"))
    return data, SensorArray(np.asarray(doc["locations"], dtype=float))
