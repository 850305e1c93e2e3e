import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from opinv.grf import Grid2D
from opinv.observe import (
    ObservationData,
    SensorArray,
    lattice_sensors,
    load_observation,
    misfit,
    observe,
    observe_state,
    save_observation,
    synthesize_data,
)


def test_lattice_sensors_interior_positions():
    s = lattice_sensors(6)
    assert len(s.locations) == 36
    xs = np.unique(s.locations[:, 0])
    assert np.allclose(xs, np.arange(1, 7) / 7.0)
    assert s.locations.min() > 0.0 and s.locations.max() < 1.0

    s3 = lattice_sensors(3)
    assert len(s3.locations) == 9
    assert np.allclose(np.unique(s3.locations[:, 0]), [0.25, 0.5, 0.75])


def test_sensor_validation():
    with pytest.raises(ValueError):
        SensorArray(np.array([[0.5, 1.2]]))
    with pytest.raises(ValueError):
        SensorArray(np.array([[0.1, 0.2, 0.3]]))
    with pytest.raises(ValueError):
        lattice_sensors(0)


def test_observe_exact_at_grid_nodes():
    g = Grid2D(5, 5)
    v = np.random.default_rng(0).standard_normal(25)
    sensors = SensorArray(g.nodes())
    assert np.allclose(observe(v, g, sensors), v, atol=1e-14)


def test_observe_bilinear_hand_value():
    g = Grid2D(2, 2)
    # v[i, j] at (x_i, y_j)
    v = np.array([1.0, 2.0, 3.0, 4.0])  # v00, v01, v10, v11
    got = observe(v, g, SensorArray(np.array([[0.25, 0.75]])))
    want = 0.75 * 0.25 * 1.0 + 0.75 * 0.75 * 2.0 + 0.25 * 0.25 * 3.0 + 0.25 * 0.75 * 4.0
    assert got[0] == pytest.approx(want, rel=1e-14)


def test_observe_constant_field():
    g = Grid2D(9, 9)
    s = lattice_sensors(4)
    assert np.allclose(observe(np.full(81, 2.5), g, s), 2.5, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_observe_is_linear(seed):
    g = Grid2D(6, 7)
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, g.n_nodes))
    s = lattice_sensors(3)
    lhs = observe(a + 2.0 * b, g, s)
    rhs = observe(a, g, s) + 2.0 * observe(b, g, s)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_observe_state_concatenates_snapshots():
    g = Grid2D(4, 4)
    s = lattice_sensors(3)
    y = observe_state(np.array([[np.ones(16), 2.0 * np.ones(16)]]), g, s)[0]
    assert y.shape == (18,)
    assert np.allclose(y[:9], 1.0) and np.allclose(y[9:], 2.0)
    assert np.allclose(observe_state(np.ones((1, 16)), g, s)[0], np.ones(9))


def test_batch_readout_rows_equal_single_readouts():
    g = Grid2D(7, 9)
    V = np.random.default_rng(4).standard_normal((5, g.n_nodes))
    s = lattice_sensors(4)
    Y = observe(V, g, s)
    assert Y.shape == (5, 16)
    for row, v in zip(Y, V):
        assert np.array_equal(row, observe(v, g, s))
    snaps = np.stack([V[:-1], V[1:]], axis=1)  # (4 states, 2 times, nodes)
    Y = observe_state(snaps, g, s)
    assert Y.shape == (4, 32)
    for row, state in zip(Y, snaps):
        assert np.array_equal(row, observe_state(state[None], g, s)[0])
        assert np.array_equal(row, np.concatenate([observe(u, g, s) for u in state]))


def test_failed_state_reads_nan():
    # a failed solve is a NaN row; it reads NaN, and the other rows as alone
    g = Grid2D(6, 6)
    V = np.random.default_rng(8).standard_normal((3, g.n_nodes))
    V[1] = np.nan
    s = lattice_sensors(2)
    Y = observe_state(V, g, s)
    assert np.all(np.isnan(Y[1]))
    for i in (0, 2):
        assert np.array_equal(Y[i], observe(V[i], g, s))


# -- synthesis ----------------------------------------------------------------


def test_synthesize_scales_noise_by_max_abs():
    y_ref = np.array([1.0, -2.0, 3.0])
    data = synthesize_data(y_ref, 0.1, rng=0)
    assert np.allclose(np.diag(data.noise_cov), 0.09)  # (0.1 * 3)^2
    assert data.delta == 0.1
    assert data.y_obs.shape == (3,)


def test_synthesize_noise_statistics():
    y_ref = np.full(2000, 2.0)
    data = synthesize_data(y_ref, 0.05, rng=7)
    resid = data.y_obs - y_ref
    assert resid.std() == pytest.approx(0.1, rel=0.05)
    assert abs(resid.mean()) < 0.01


def test_synthesize_zero_delta_floor():
    y_ref = np.array([1.0, 2.0])
    data = synthesize_data(y_ref, 0.0)
    assert np.array_equal(data.y_obs, y_ref)
    assert np.allclose(data.noise_cov, 1e-12 * np.eye(2))


def test_synthesize_rejects_zero_reference():
    with pytest.raises(ValueError):
        synthesize_data(np.zeros(4), 0.05)
    with pytest.raises(ValueError):
        synthesize_data(np.ones(4), -0.1)


def test_synthesize_reproducible():
    y = np.arange(5, dtype=float)
    a = synthesize_data(y, 0.1, rng=3)
    b = synthesize_data(y, 0.1, rng=3)
    assert np.array_equal(a.y_obs, b.y_obs)


# -- misfit --------------------------------------------------------------------


def test_misfit_hand_value():
    data = ObservationData(np.array([1.0, 0.0]), 0.04 * np.eye(2), 0.1)
    # residual (1, 0), variance 0.04: 0.5 * 1 / 0.04 = 12.5
    assert misfit(np.zeros(2), data) == pytest.approx(12.5, rel=1e-12)


def test_misfit_zero_at_exact_fit():
    data = ObservationData(np.array([3.0, -1.0]), np.eye(2), 0.0)
    assert misfit(np.array([3.0, -1.0]), data) == 0.0


def test_misfit_matches_explicit_matrix_square_root():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    data = ObservationData(np.array([0.7, -0.2]), cov, 0.0)
    g = np.array([0.1, 0.4])
    r = data.y_obs - g
    whitened = scipy.linalg.sqrtm(np.linalg.inv(cov)) @ r
    assert misfit(g, data) == pytest.approx(0.5 * float(whitened @ whitened), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_misfit_nonnegative_and_quartic_scaling(seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(4)
    g = rng.standard_normal(4)
    var = 10.0 ** rng.uniform(-3, 1)
    data = ObservationData(y, var * np.eye(4), 0.0)
    phi = misfit(g, data)
    assert phi >= 0.0
    # doubling the residual quadruples the misfit
    data2 = ObservationData(2 * y - g, var * np.eye(4), 0.0)
    assert misfit(g, data2) == pytest.approx(4.0 * phi, rel=1e-9, abs=1e-12)


def test_misfit_rejects_length_mismatch():
    data = ObservationData(np.zeros(3), np.eye(3), 0.0)
    with pytest.raises(ValueError):
        misfit(np.zeros(2), data)


# -- persistence -----------------------------------------------------------------


def test_observation_json_roundtrip(tmp_path):
    y_ref = np.array([1.0, -2.0, 3.0, 0.5])
    data = synthesize_data(y_ref, 0.05, rng=11)
    sensors = SensorArray(np.array([[0.2, 0.2], [0.4, 0.6], [0.8, 0.8], [0.1, 0.9]]))
    p = tmp_path / "obs.json"
    save_observation(p, data, sensors)
    data2, sensors2 = load_observation(p)
    assert np.array_equal(data2.y_obs, data.y_obs)
    assert np.allclose(data2.noise_cov, data.noise_cov)
    assert data2.delta == data.delta
    assert np.array_equal(sensors2.locations, sensors.locations)
    assert "seed" not in json.loads(p.read_text())


def test_load_observation_reads_files_with_a_seed_key(tmp_path):
    # files written before the seed field was dropped carry "seed": null
    p = tmp_path / "obs.json"
    p.write_text(json.dumps({"delta": 0.05, "locations": [[0.5, 0.5]], "noise_var": 0.25,
                             "seed": None, "y_obs": [1.5]}))
    data, sensors = load_observation(p)
    assert np.array_equal(data.y_obs, [1.5]) and data.delta == 0.05
    assert np.array_equal(data.noise_cov, [[0.25]])
    assert np.array_equal(sensors.locations, [[0.5, 0.5]])


def test_save_rejects_nonscalar_covariance(tmp_path):
    data = ObservationData(np.zeros(2), np.diag([1.0, 2.0]), 0.0)
    with pytest.raises(ValueError):
        save_observation(tmp_path / "x.json", data, lattice_sensors(1))
