"""Set-up probe: import opinv and build every Bench of one workload.

Run in a fresh interpreter by ``run.py``; prints the monotonic clock when
the last Bench is built, so the parent can time interpreter start, imports,
preset resolution, KL basis, truth solve and synthetic data together.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opinv.harness import Bench  # noqa: E402
from workloads import WORKLOADS, run_config  # noqa: E402


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    for problem in workload.problems:
        Bench(run_config(workload, problem, int(sys.argv[2])).resolved())
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
