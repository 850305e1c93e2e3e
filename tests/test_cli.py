import dataclasses
import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from opinv.cli import build_config, main, make_parser
from opinv.config import RunConfig
from opinv.grf import Grid2D, build_kl_basis, sample_field
from opinv.harness import Bench


def parse(*argv):
    return make_parser().parse_args(list(argv))


# -- config layering ----------------------------------------------------------


def test_every_run_config_field_has_a_flag():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for command in ("train-offline", "invert", "solve-forward", "sample-prior"):
        args = vars(parse(command))
        assert fields <= set(args)
        assert all(args[name] is None for name in fields)  # unset leaves the preset
    # each flag sets its field, whatever the preset holds
    cfg = RunConfig(problem="heat-loc", mode="fem-uki", truth="ood", grid=9, delta=0.05,
                    seed=3, out_dir="x", alpha=0.5, t_steps=4, q_new=7, epsilon=0.2,
                    hidden=(5, 6))
    argv = [f"--{name.replace('_', '-')}={value}" for name, value in cfg.to_dict().items()
            if name != "hidden"]
    assert build_config(parse("invert", *argv, "--hidden", "5,6")) == cfg


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
    cfg = build_config(parse("invert", "--hidden", "8,9,10"))
    assert cfg.hidden == (8, 9, 10)
    with pytest.raises(SystemExit):  # the prior box is spec data, not a flag
        parse("invert", "--chi-box", "0.2,0.9")


def test_config_file_with_the_retired_chi_box_loads(tmp_path):
    # a config.json written while chi_box was a field holds heat-loc's box
    path = tmp_path / "config.json"
    d = RunConfig(problem="heat-loc", seed=3).to_dict()
    path.write_text(json.dumps(dict(d, chi_box=[0.5, 1.0])))
    cfg = build_config(parse("invert", "--config", str(path)))
    assert cfg == RunConfig(problem="heat-loc", seed=3)


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

    # underdetermined observations: no fixed point exists to perturb; a failed
    # check exits 1, apart from the usage errors' 2
    assert main(["verify-linear", "--n-dim", "4", "--n-obs", "2"]) == 1
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
    assert f"{flag[2:].replace('-', '_')} must be at least 1, got 0" in err
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


@pytest.mark.parametrize("argv", [
    ["sample-prior", "--n", "-1"],
    ["verify-linear", "--eps", "0,0.1"],
    ["verify-linear", "--eps", "0.1"],
    ["verify-linear", "--alpha", "2"],
    ["verify-linear", "--alpha", "0"],
    ["invert", "--alpha", "2"],
    ["invert", "--grid", "2"],
    ["train-offline", "--n-prior", "0"],
    *(["invert", "--mode", "deeponet-adaptive", flag, value] for flag, value in (
        ("--q-new", "0"), ("--k-pool", "5"), ("--i-max", "0"), ("--t-steps", "0"),
        ("--epsilon", "0"), ("--lam", "-1"))),
    ["invert", "--seed", "-1"],
    ["invert", "--encoder-axis", "30"],
    ["invert", "--query-axis", "0"],
    ["invert", "--sensor-axis", "0"],
    ["train-offline", "--offline-iters", "-1"],
    ["train-offline", "--p-basis", "0"],
    ["train-offline", "--hidden", "0"],
    ["invert", "--n-probe", "-1"],
    ["invert", "--start-cov", "0"],
    ["invert", "--online-iters", "-1"],
    ["invert", "--mode", "fem-uki", "--t-steps", "0"],
], ids=lambda argv: " ".join(argv))
def test_bad_input_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no solve may run, so no file may land here
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_bad_config_file_value_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps({"q_new": 0}))
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--config", "run.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "q_new must be at least 1, got 0" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("settings, message", [
    ({"grid": "a"}, "grid must be an integer, got 'a'"),
    ({"hidden": 5}, "hidden must be a list of integers, got 5"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"epsilon": "x"}, "epsilon must be a number, got 'x'"),
], ids=["grid", "hidden", "seed", "epsilon"])
def test_config_file_value_of_the_wrong_type_is_a_usage_error(settings, message, tmp_path,
                                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps(settings))
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--config", "run.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config file"),
    ("{", "cannot read config file"),
    ("[1]", "does not hold a JSON object"),
], ids=["missing", "not-json", "not-an-object"])
def test_unreadable_config_file_is_a_usage_error(content, message, tmp_path, capsys):
    path = tmp_path / "run.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and str(path) in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """A tiny trained checkpoint in train/, a copy of its net with no
    dataset.npz beside it in bare/, and a fem-uki run record in fem/."""
    root = tmp_path_factory.mktemp("tiny")
    assert main(["train-offline", *_tiny_flags(root / "train")]) == 0
    (root / "bare").mkdir()
    for name in ("checkpoint.json", "checkpoint.bin"):
        shutil.copy(root / "train" / name, root / "bare")
    assert main(["invert", "--mode", "fem-uki", *_tiny_flags(root / "fem")]) == 0
    return root


# "{root}" stands for the tiny_runs directory; "taken" is a file in the working
# directory, and "run" a directory that must not be made
@pytest.mark.parametrize("argv, message", [
    (["invert", "--mode", "deeponet-direct"], "--mode deeponet-direct requires --checkpoint"),
    (["invert", "--mode", "deeponet-adaptive", "--checkpoint", "missing/checkpoint"],
     "--checkpoint missing/checkpoint: no file missing/checkpoint.json"),
    (["report", "missing_dir"], "no run record at missing_dir"),
    (["invert", "--mode", "deeponet-adaptive", *_tiny_flags("run"),
      "--checkpoint", "{root}/bare/checkpoint"], "no file {root}/bare/dataset.npz"),
    (["invert", "--mode", "deeponet-direct", *_tiny_flags("run", "--encoder-axis", "4"),
      "--checkpoint", "{root}/train/checkpoint"],
     "expects 9 branch inputs, config implies 16"),
    (["invert", "--mode", "deeponet-adaptive", *_tiny_flags("run", "--query-axis", "4"),
      "--checkpoint", "{root}/train/checkpoint"],
     "5 x 5 query lattice (25 points), config implies 4 x 4 (16)"),
    (["invert", "--mode", "fem-uki", *_tiny_flags("taken")], "output path taken"),
    (["train-offline", *_tiny_flags("taken")], "output path taken"),
    (["solve-forward", *_tiny_flags("taken")], "output path taken"),
    (["report", "{root}/fem", "--out", "taken"], "output path taken"),
    (["verify-linear", "--out", "taken"], "output path taken"),
    (["sample-prior", *_tiny_flags("taken/run")], "output path taken/run: taken exists"),
], ids=["no-checkpoint", "missing-checkpoint", "missing-record", "missing-dataset",
        "branch-width", "query-lattice", "invert-out-dir", "train-offline-out-dir",
        "solve-forward-out-dir", "report-out", "verify-linear-out", "out-dir-below-a-file"])
def test_bad_path_is_a_usage_error(argv, message, tiny_runs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # checked before any work, so nothing lands here
    Path("taken").write_text("")
    with pytest.raises(SystemExit) as exc:
        main([word.format(root=tiny_runs) for word in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert message.format(root=tiny_runs) in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def _readme_commands() -> list:
    """Every opinv command line in the README's sh blocks, split into words:
    continuation lines joined, leading VAR=value assignments and a trailing
    & dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"[A-Z_]+=\S*", words[0]):
                words.pop(0)
            if words and words[-1] == "&":
                words.pop()
            if words and words[0] == "opinv":
                commands.append(words[1:])
    return commands


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        parse(*argv)
        for word in argv:  # written out in full, not as an abbreviation
            if word.startswith("--"):
                assert word.split("=")[0] in _option_strings(argv[0]), (word, argv)


def _option_strings(command: str) -> set:
    sub = next(a for a in make_parser()._actions if a.dest == "command")
    return {s for a in sub.choices[command]._actions for s in a.option_strings}
