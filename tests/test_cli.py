import dataclasses
import json

import numpy as np
import pytest

from opinv import cli
from opinv.cli import build_config, main, make_parser
from opinv.config import RunConfig
from opinv.grf import Grid2D, build_kl_basis, sample_field
from opinv.harness import Bench


def parse(*argv):
    return make_parser().parse_args(list(argv))


# -- config layering ----------------------------------------------------------


def test_every_run_config_field_has_a_flag():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(cli._ALL_FIELDS) == fields
    assert len(cli._ALL_FIELDS) == len(fields)  # no flag listed twice
    assert fields <= set(vars(parse("invert")))  # and the parser defines each one


def test_flags_over_preset():
    args = parse("invert", "--problem", "heat-loc", "--grid", "15", "--seed", "3")
    cfg = build_config(args)
    assert cfg.problem == "heat-loc"
    assert cfg.grid == 15
    assert cfg.seed == 3
    assert cfg.truth == "fixed"      # from the heat-loc preset
    assert cfg.start_cov == 0.02


def test_config_file_over_preset(tmp_path):
    path = tmp_path / "run.json"
    cfg0 = RunConfig(problem="darcy", n_prior=77, seed=42)
    cfg0.save(path)
    cfg = build_config(parse("invert", "--config", str(path)))
    assert cfg.n_prior == 77
    assert cfg.seed == 42


def test_flags_over_config_file(tmp_path):
    path = tmp_path / "run.json"
    RunConfig(problem="darcy", n_prior=77, grid=30).save(path)
    cfg = build_config(parse("invert", "--config", str(path), "--grid", "12"))
    assert cfg.grid == 12
    assert cfg.n_prior == 77


def test_file_problem_selects_preset(tmp_path):
    # the preset keyed by the file's problem applies underneath the file
    path = tmp_path / "run.json"
    doc = {"problem": "heat-loc"}
    path.write_text(json.dumps(doc))
    cfg = build_config(parse("invert", "--config", str(path)))
    assert cfg.truth == "fixed" and cfg.n_modes == 2


def test_hidden_and_chi_box_parsing():
    cfg = build_config(parse("invert", "--hidden", "8,9,10", "--chi-box", "0.2,0.9"))
    assert cfg.hidden == (8, 9, 10)
    assert cfg.chi_box == (0.2, 0.9)


def test_unknown_problem_rejected(capsys):
    with pytest.raises(SystemExit):
        parse("invert", "--problem", "wave")


# -- subcommands end to end -----------------------------------------------------


def _tiny_flags(out_dir, *extra):
    return ["--grid", "10", "--n-modes", "4", "--sensor-axis", "3",
            "--query-axis", "5", "--encoder-axis", "3", "--n-prior", "15",
            "--offline-iters", "150", "--online-iters", "60", "--p-basis", "8",
            "--hidden", "12,12", "--t-steps", "3", "--i-max", "2",
            "--q-new", "3", "--k-pool", "30", "--n-probe", "2",
            "--seed", "5", "--out-dir", str(out_dir), *extra]


def test_full_pipeline(tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert main(["train-offline", *_tiny_flags(train_dir)]) == 0
    stem = capsys.readouterr().out.strip()
    assert stem.endswith("checkpoint")

    fem_dir = tmp_path / "fem"
    assert main(["invert", "--mode", "fem-uki", *_tiny_flags(fem_dir)]) == 0
    fem_rec = capsys.readouterr().out.strip()

    ada_dir = tmp_path / "ada"
    assert main(["invert", "--mode", "deeponet-adaptive",
                 *_tiny_flags(ada_dir), "--checkpoint", stem]) == 0
    ada_rec = capsys.readouterr().out.strip()

    assert main(["report", fem_rec, ada_rec, "--out", str(tmp_path / "rep")]) == 0
    table = capsys.readouterr().out
    assert "fem-uki" in table and "deeponet-adaptive" in table
    assert (tmp_path / "rep" / "report.csv").exists()
    assert (tmp_path / "rep" / "report.json").exists()

    rows = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert {r["mode"] for r in rows} == {"fem-uki", "deeponet-adaptive"}
    fem_row = next(r for r in rows if r["mode"] == "fem-uki")
    assert fem_row["speedup_measured"] == "1"


def test_verify_linear_exit_codes(tmp_path, capsys):
    assert main(["verify-linear", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    assert (tmp_path / "linear_check.json").exists()

    # underdetermined observations: no fixed point exists to perturb
    assert main(["verify-linear", "--n-dim", "4", "--n-obs", "2"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False
    assert "error" in rep


@pytest.mark.parametrize("flag", ["--n-dim", "--n-obs"])
def test_verify_linear_rejects_sizes_below_one(flag, capsys):
    # a usage error, exit code 2, before any linear algebra runs
    with pytest.raises(SystemExit) as exc:
        main(["verify-linear", flag, "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least 1, got 0" in err
    assert "Traceback" not in err


def test_solve_forward_cli(tmp_path, capsys):
    out = tmp_path / "fwd"
    flags = ["--problem", "heat-field", "--grid", "9", "--n-modes", "4",
             "--sensor-axis", "3", "--out-dir", str(out)]
    assert main(["solve-forward", *flags]) == 0
    assert (out / "observations.json").exists()
    # the written fields are the bench's truth and its state, as (nx, ny) arrays
    bench = Bench(build_config(parse("solve-forward", *flags)))
    m_ref = np.load(out / "fields" / "m_ref.npy", allow_pickle=False)
    assert m_ref.shape == (9, 9)
    assert np.array_equal(m_ref.ravel(), bench.truth)
    state = np.load(out / "fields" / "state_0.npy", allow_pickle=False)
    assert np.array_equal(state, bench.truth_state.reshape(9, 9))


def test_sample_prior_cli(tmp_path, capsys):
    out = tmp_path / "prior"
    assert main(["sample-prior", "--grid", "8", "--n-modes", "3",
                 "--n", "2", "--out-dir", str(out)]) == 0
    params = np.loadtxt(out / "params.csv", delimiter=",")
    assert params.shape == (2, 3)
    basis = build_kl_basis(Grid2D(8, 8), 3)
    for i, z in enumerate(params):
        sample = np.load(out / "fields" / f"sample_{i}.npy", allow_pickle=False)
        assert np.array_equal(sample, sample_field(basis, z).reshape(8, 8))


def test_invert_without_checkpoint_fails(tmp_path):
    with pytest.raises(ValueError, match="checkpoint"):
        main(["invert", "--mode", "deeponet-direct",
              *_tiny_flags(tmp_path / "x")])
