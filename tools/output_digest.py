"""Digest of one benchmark operation's artifacts, for bit-identity checks.

    python3 tools/output_digest.py darcy-adaptive [--seed 7] > digest.txt

Runs the workload's operation (``bench/workloads.py``, imported as is) once
into a temporary directory.  Prints each problem's stop reason, solve counts
and series rows (``series_lines``), then one sha256 per artifact, by path.
A JSON artifact is hashed after dropping the values that differ between
identical runs (``DROPPED``: the timings and the output directory) and
re-serialized with sorted keys; any other artifact is hashed as raw bytes
(``np.savez`` writes a fixed zip timestamp, so ``dataset.npz`` hashes are
stable).  Run it in two checkouts and compare the outputs with ``diff``.
BLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# record.json "timings", train_meta.json "wall_s", every config's "out_dir"
DROPPED = frozenset({"timings", "wall_s", "out_dir"})


def _scrub(value):
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items() if k not in DROPPED}
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


def file_digest(path: Path) -> str:
    if path.suffix == ".json":
        text = json.dumps(_scrub(json.loads(path.read_text())), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_digest(root: Path) -> list:
    """'<sha256>  <relative path>' for every file under root, by path."""
    return [f"{file_digest(p)}  {p.relative_to(root).as_posix()}"
            for p in sorted(root.rglob("*")) if p.is_file()]


def series_lines(problem: str, record: dict) -> list:
    """One line per series row of a run record: the cycle, then e_d, e_m and
    e_i in repr, so that a diff of two digests names the value that moved."""
    return [f"{problem}: cycle {row['cycle']} "
            + " ".join(f"{k} {row[k]!r}" for k in ("e_d", "e_m", "e_i"))
            for row in record["series"]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        for inv in workloads.run_operation(workload, args.seed, Path(tmp)):
            if inv.error:
                print(f"{inv.problem}: error {inv.error}")
                continue
            print(f"{inv.problem}: stopped {inv.record['stopped']!r}, "
                  f"counts {json.dumps(inv.record['counts'], sort_keys=True)}")
            if inv.train_meta is not None:
                print(f"{inv.problem}: offline counts "
                      f"{json.dumps(inv.train_meta['counts'], sort_keys=True)}")
            for line in series_lines(inv.problem, inv.record):
                print(line)
        for line in dir_digest(Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
