import dataclasses
import json
import math

import numpy as np
import pytest

from opinv.config import PROBLEMS, SCALES, STREAMS, RunConfig, preset


def test_defaults_validate():
    cfg = RunConfig().resolved()
    cfg.validate()
    assert cfg.problem == "darcy"
    assert cfg.mode == "deeponet-adaptive"


def test_delta_rules_small_noise():
    cfg = RunConfig(delta=0.01).resolved()
    assert cfg.alpha == 1.0
    assert cfg.q_new == 50


def test_delta_rules_large_noise():
    cfg = RunConfig(delta=0.05).resolved()
    assert cfg.alpha == 0.5
    assert cfg.q_new == 20


def test_t_steps_rule_depends_on_mode():
    assert RunConfig(mode="deeponet-adaptive").resolved().t_steps == 10
    assert RunConfig(mode="fem-uki").resolved().t_steps == 20
    assert RunConfig(mode="deeponet-direct").resolved().t_steps == 20


def test_explicit_values_survive_resolution():
    cfg = RunConfig(alpha=0.7, t_steps=33, q_new=9, delta=0.05).resolved()
    assert (cfg.alpha, cfg.t_steps, cfg.q_new) == (0.7, 33, 9)


def test_resolved_does_not_mutate_original():
    cfg = RunConfig()
    cfg.resolved()
    assert cfg.alpha is None and cfg.t_steps is None


@pytest.mark.parametrize("bad", [
    dict(problem="poisson"),
    dict(mode="mcmc"),
    dict(truth="exact"),
    dict(grid=2),
    dict(alpha=0.0),
    dict(alpha=1.5),
    dict(delta=-0.1),
    dict(n_modes=0),
    dict(n_prior=0),
    dict(scale="huge"),
    dict(epsilon=0.0),
    dict(epsilon=math.nan),
    dict(lam=-1.0),
    dict(start_cov=0.0),
    dict(i_max=0),
    dict(t_steps=0),
    dict(q_new=0),
    dict(k_pool=0),
    dict(q_new=30, k_pool=10),
    dict(k_pool=5),  # below the q_new of 50 that resolved() fills in
    dict(p_basis=0),
    dict(hidden=(16, 0)),
    dict(query_axis=0),
    dict(sensor_axis=0),
    dict(encoder_axis=0),
    dict(encoder_axis=25),  # above grid 24
    dict(n_probe=-1),
    dict(offline_iters=-1),
    dict(online_iters=-1),
    dict(seed=-1),
])
def test_validate_rejects(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad).resolved()


def test_validate_accepts_the_bounds():
    RunConfig(i_max=1, t_steps=1, q_new=1, k_pool=1, p_basis=1, hidden=(1,),
              query_axis=1, sensor_axis=1, encoder_axis=24, n_probe=0,
              offline_iters=0, online_iters=0, seed=0).resolved()
    # a point parameter has no encoder, so its encoder_axis is not read
    RunConfig(problem="heat-loc", encoder_axis=25).resolved()


def test_n_dim_property():
    assert RunConfig(problem="heat-loc").n_dim == 2
    assert RunConfig(problem="darcy", n_modes=17).n_dim == 17


def test_roundtrip_dict():
    cfg = RunConfig(problem="reaction-diffusion", hidden=(8, 9), seed=99).resolved()
    clone = RunConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    assert isinstance(clone.hidden, tuple)


def test_from_dict_loads_a_config_with_the_retired_workers_field():
    # files written before the thread-pool knob was deleted carry it as null
    d = RunConfig(seed=5).to_dict()
    d["workers"] = None
    assert RunConfig.from_dict(d) == RunConfig(seed=5)
    assert "workers" not in RunConfig.from_dict(d).to_dict()


def test_load_reads_a_config_with_the_retired_chi_box_field(tmp_path):
    # every config.json written before the box became PointParam.box holds it
    d = RunConfig(problem="heat-loc", seed=5).to_dict()
    d["chi_box"] = [0.5, 1.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    assert RunConfig.load(path) == RunConfig(problem="heat-loc", seed=5)


def test_from_dict_rejects_a_retired_chi_box_that_changed_the_prior():
    d = RunConfig(problem="heat-loc").to_dict()
    d["chi_box"] = [0.2, 0.9]
    with pytest.raises(ValueError, match="chi_box"):
        RunConfig.from_dict(d)


def test_from_dict_rejects_unknown_keys():
    d = RunConfig().to_dict()
    d["learning_rate"] = 0.1
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.from_dict(d)


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("scale", SCALES)
def test_from_dict_takes_every_preset_as_json(problem, scale):
    for cfg in (preset(problem, scale), preset(problem, scale).resolved()):
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_from_dict_checks_each_value_against_its_field_type():
    # a float field takes an integer; a "| None" field takes null
    cfg = RunConfig.from_dict({"delta": 1, "alpha": None, "t_steps": None, "hidden": [3]})
    assert (cfg.delta, cfg.alpha, cfg.t_steps, cfg.hidden) == (1, None, None, (3,))
    for name, bad in (("grid", 24.0), ("seed", True), ("delta", False), ("delta", "0.1"),
                      ("problem", None), ("epsilon", None), ("hidden", [4, 2.5]),
                      ("hidden", "64")):
        with pytest.raises(ValueError, match=f"config field {name} must be"):
            RunConfig.from_dict({name: bad})


def test_save_load(tmp_path):
    cfg = RunConfig(grid=13, n_modes=5, seed=123).resolved()
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert RunConfig.load(path) == cfg


def test_seed_streams_are_named_and_reproducible():
    # each stream keeps the state it had as a child of SeedSequence(seed).spawn(6),
    # so a run written before the keys were fixed draws the same numbers
    positions = {"prior": 0, "noise": 1, "init": 2, "pool": 3, "truth": 5}
    assert set(STREAMS) == set(positions)
    for seed in (0, 5, 2**40 + 3):
        children = np.random.SeedSequence(seed).spawn(6)
        cfg = RunConfig(seed=seed)
        for name, i in positions.items():
            want = np.random.default_rng(children[i]).standard_normal(4)
            assert np.array_equal(cfg.rng(name).standard_normal(4), want)
            assert np.array_equal(cfg.rng(name).standard_normal(4), want)


def test_seed_streams_are_distinct():
    cfg = RunConfig(seed=5)
    draws = {s: tuple(cfg.rng(s).standard_normal(4)) for s in STREAMS}
    assert len(set(draws.values())) == len(STREAMS)


def test_different_seeds_differ():
    a = RunConfig(seed=1).rng("noise").standard_normal(3)
    b = RunConfig(seed=2).rng("noise").standard_normal(3)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("scale", SCALES)
def test_presets_resolve(problem, scale):
    cfg = preset(problem, scale).resolved()
    cfg.validate()
    assert cfg.problem == problem and cfg.scale == scale


def test_preset_heat_loc_specifics():
    cfg = preset("heat-loc", "desk")
    assert cfg.truth == "fixed"
    assert cfg.n_dim == 2
    assert cfg.start_cov < 1.0  # tight start spread around the initial guess


def test_preset_paper_scale_sizes():
    cfg = preset("darcy", "paper")
    assert cfg.grid == 70
    assert cfg.n_modes == 128
    assert cfg.hidden == (100,) * 5


def test_preset_rejects_unknowns():
    with pytest.raises(ValueError):
        preset("poisson")
    with pytest.raises(ValueError):
        preset("darcy", "huge")


def test_replace_keeps_tuple_coercion():
    cfg = dataclasses.replace(RunConfig(), hidden=[4, 5])
    assert cfg.hidden == (4, 5)
