"""tools/output_digest.py on a hand-made run directory: values that differ
between identical runs leave the digest as it is, a result changes it."""

import importlib.util
import json
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", TOOL)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def _write_run(root: Path, wall=1.5, invert_s=2.5, out_dir="a", final_r=(0.1, 0.2)):
    config = {"seed": 7, "out_dir": out_dir}
    (root / "train").mkdir(parents=True)
    (root / "invert" / "fields").mkdir(parents=True)
    (root / "train" / "config.json").write_text(json.dumps(config))
    (root / "train" / "train_meta.json").write_text(
        json.dumps({"wall_s": wall, "counts": {"offline": 20}}))
    (root / "invert" / "record.json").write_text(json.dumps(
        {"config": config, "timings": {"invert_s": invert_s}, "final_r": list(final_r),
         "counts": {"fem-uki": 9, "total": 9}}, indent=1))
    np.save(root / "invert" / "fields" / "m_hat.npy", np.arange(4.0).reshape(2, 2))


def test_digest_drops_timings_and_out_dir_only(tmp_path):
    _write_run(tmp_path / "base")
    base = output_digest.dir_digest(tmp_path / "base")
    assert [line.split()[1] for line in base] == [
        "invert/fields/m_hat.npy", "invert/record.json", "train/config.json",
        "train/train_meta.json"]

    _write_run(tmp_path / "noise", wall=9.0, invert_s=0.1, out_dir="elsewhere")
    assert output_digest.dir_digest(tmp_path / "noise") == base

    _write_run(tmp_path / "moved", final_r=(0.1, 0.2000000000000001))
    moved = output_digest.dir_digest(tmp_path / "moved")
    assert moved != base
    assert [a == b for a, b in zip(moved, base)] == [True, False, True, True]


def test_series_lines_print_each_value_in_repr():
    record = {"series": [
        {"cycle": 0, "e_d": 118.98, "e_m": 6.007, "e_i": 0.1 + 0.2},
        {"cycle": 1, "e_d": 5.5, "e_m": None, "e_i": None},
    ]}
    assert output_digest.series_lines("darcy", record) == [
        "darcy: cycle 0 e_d 118.98 e_m 6.007 e_i 0.30000000000000004",
        "darcy: cycle 1 e_d 5.5 e_m None e_i None",
    ]
    assert output_digest.series_lines("darcy", {"series": []}) == []
