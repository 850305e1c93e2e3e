"""opinv benchmark: one workload per call, one client in a closed loop.

    python3 bench/run.py --workload fem-desk --seed 7 --seconds 55 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

The run measures set-up (median of fresh-process probes), builds the
workload's Benches once as a warm-up, then repeats the workload's operation
for the problem seed ``--seed`` until the next one would end after
``--seconds`` (at least one runs) and reports medians over the operations.
Every operation goes through the public harness commands and is checked
(see checks.py).  With ``--trace 1`` one operation runs under the span
tracer instead and the per-layer metrics are reported.

Output: a human-readable summary, then as the last line one JSON object with
the keys correct, attempted, failed and metrics.  A result set (environment,
every operation, every metric) is written to ``.bench_results/``; traced runs
also write their spans there.  Exit code 0 when every check passed, 1 when a
check failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_runs"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# printed every run; BENCHMARK.json gates the ones that are never 0 and
# steady across problem seeds
REPORTED = (("setup_s", "s"), ("train_s", "s"), ("invert_s", "s"), ("total_s", "s"),
            ("full_solves", "count"), ("final_e_i", "1"), ("failed_frac", "1"),
            ("peak_rss_mb", "MB"))


class StartError(RuntimeError):
    """The run cannot start in this checkout or environment."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, default=7,
                   help="problem seed of every operation (held-out seed: 1)")
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> int:
    """Pin BLAS to one thread before numpy loads; refuse oversubscription."""
    nproc = len(os.sched_getaffinity(0))
    workers = os.environ.get("OPINV_WORKERS", "1")
    if not workers.isdigit() or not 1 <= int(workers) <= nproc:
        raise StartError(f"OPINV_WORKERS={workers!r}: need 1..{nproc} (nproc)")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return nproc


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise StartError(f"missing {path}")
    return json.loads(path.read_text())


def import_opinv():
    if not (SRC / "opinv" / "__init__.py").is_file():
        raise StartError(f"no opinv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import opinv
    if Path(opinv.__file__).resolve().parent != SRC / "opinv":
        raise StartError(f"imported opinv from {opinv.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# environment record


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha(), "src_sha256": src_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "nproc": nproc, "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "OPINV_WORKERS": os.environ.get("OPINV_WORKERS"), "seed": seed}


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from spawning a fresh interpreter to its last built Bench."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(seed)], capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def op_summary(invs, setup_s: float) -> dict:
    """The operation's end-to-end figures (see REPORTED)."""
    from checks import final_e_i, full_solves, stage_counts
    attempted = failed = 0
    for inv in invs:
        a, f = stage_counts(inv)
        attempted += a
        failed += f
    ok = [inv for inv in invs if inv.record is not None]
    e_i = [final_e_i(inv) for inv in ok]
    return {
        "setup_s": setup_s,
        "train_s": sum(inv.train_meta["wall_s"] for inv in ok if inv.train_meta),
        "invert_s": sum(inv.record["timings"]["invert_s"] for inv in ok),
        "total_s": setup_s + sum(inv.wall_s for inv in invs),
        "full_solves": sum(full_solves(inv) for inv in ok),
        "final_e_i": statistics.fmean(e_i) if e_i else float("nan"),
        "failed_frac": failed / attempted,
        "stage_ops": [attempted, failed],
        "write_bytes": sum(inv.bytes_written for inv in invs),
        "inversions": [{
            "problem": inv.problem, "seed": inv.cfg.seed, "error": inv.error,
            "wall_s": inv.wall_s,
            "invert_s": inv.record["timings"]["invert_s"] if inv.record else None,
            "train_s": inv.train_meta["wall_s"] if inv.train_meta else None,
            "full_solves": full_solves(inv),
            "counts": inv.record["counts"] if inv.record else None,
            "stopped": inv.record["stopped"] if inv.record else None,
            "final_e_i": final_e_i(inv) if inv.record else None,
        } for inv in invs],
    }


def check_ops(ops, key_prefix: str) -> tuple:
    """(messages per operation, digests): invariant breaks and determinism
    within the run."""
    from checks import estimate_digest, invariant_errors
    errs, digests = [], {}
    for k, invs in enumerate(ops):
        errs.append([f"op {k}: {e}" for inv in invs for e in invariant_errors(inv)])
        for inv in invs:
            if inv.record is None:
                continue
            key = f"{key_prefix}:{inv.problem}:{inv.cfg.seed}"
            d = estimate_digest(inv)
            if digests.setdefault(key, d) != d:
                errs[k].append(f"op {k}: {inv.problem} estimate differs from op 0")
    return errs, digests


def check_digests(digests: dict) -> list:
    """Compare with estimates stored by earlier runs of the same sources."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    errs = [f"{k}: estimate differs from an earlier run of the same seed"
            for k, d in digests.items() if known.get(k, d) != d]
    known.update(digests)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return errs


def speedup_line(workload: str, src_sha: str, summary: dict) -> str | None:
    """ROADMAP aim 1: count speed-up beside wall speed-up on Darcy, from this
    run and the newest untraced run of the other workload on the same Darcy
    problem seed and sources."""
    other = {"fem-desk": "darcy-adaptive", "darcy-adaptive": "fem-desk"}.get(workload)
    if other is None:
        return None

    def darcy(s):
        return next(i for i in s["inversions"] if i["problem"] == "darcy")

    found = None
    for path in sorted(RESULTS.glob(f"{other}-seed*-trace0-*.json")):
        rs = json.loads(path.read_text())
        if (rs["env"]["src_sha256"] == src_sha and rs["correct"]
                and darcy(rs["summary"]).get("seed") == darcy(summary)["seed"]):
            found = rs["summary"]
    if found is None:
        return None
    fem, ada = (summary, found) if workload == "fem-desk" else (found, summary)
    fem, ada = darcy(fem), darcy(ada)
    ada_wall = ada["train_s"] + ada["invert_s"]
    return (f"darcy speed-up (problem seed {fem['seed']}): count "
            f"{fem['full_solves']} / {ada['full_solves']} solves = "
            f"{fem['full_solves'] / ada['full_solves']:.2f}x; wall "
            f"{fem['invert_s']:.2f} s / ({ada['train_s']:.2f} + {ada['invert_s']:.2f}) s"
            f" = {fem['invert_s'] / ada_wall:.3f}x")


def median_summary(summaries) -> dict:
    """Per-operation figures reduced to their medians, operations kept."""
    out = {k: statistics.median(s[k] for s in summaries) for k, _ in REPORTED
           if k != "peak_rss_mb"}
    out["inversions"] = [
        {**inv, **{k: statistics.median(s["inversions"][i][k] or 0.0 for s in summaries)
                   for k in ("train_s", "invert_s")}}
        for i, inv in enumerate(summaries[0]["inversions"])]
    out["operations"] = summaries
    return out


def module_table(spans, setup_s: float, total_s: float) -> list:
    from tracing import module_self_times
    mods = module_self_times(spans)
    lines = [f"{'module':<10} {'self_s':>10} {'share':>7}"]
    for name, v in mods.items():
        lines.append(f"{name:<10} {v:>10.4f} {v / total_s:>7.1%}")
    covered = sum(mods.values())
    lines.append(f"{'(setup)':<10} {setup_s:>10.4f} {setup_s / total_s:>7.1%}")
    lines.append(f"self-time sum + setup = {covered + setup_s:.4f} s of traced "
                 f"total_s {total_s:.4f} s ({(covered + setup_s) / total_s:.1%})")
    return lines


# ---------------------------------------------------------------------------


def run(args, spec: dict, nproc: int) -> int:
    from checks import truncations
    from opinv.harness import Bench
    from tracing import Tracer, instrument, layer_metrics
    from workloads import WORKLOADS, run_config, run_operation

    if args.workload not in WORKLOADS:
        raise StartError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(args.seed, nproc)
    print("env " + json.dumps(env, sort_keys=True))
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    scratch = SCRATCH / stem

    setup_times = measure_setup(args.workload, args.seed)
    setup_s = statistics.median(setup_times)
    print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup_times)}")

    # warm-up: imports, the solvers' operator caches and the KL bases
    for problem in workload.problems:
        Bench(run_config(workload, problem, args.seed).resolved())

    ops, summaries, tracer = [], [], None
    try:
        if args.trace:
            tracer = Tracer(stem)
            with instrument(tracer):
                ops.append(run_operation(workload, args.seed, scratch / "op0"))
        else:
            t_start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                ops.append(run_operation(workload, args.seed, scratch / f"op{len(ops)}"))
                now = time.perf_counter()
                if now - t_start + (now - t0) > args.seconds:
                    break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for k, invs in enumerate(ops):
        s = op_summary(invs, setup_s)
        summaries.append(s)
        stops = "; ".join(f"{i['problem']}: {i['stopped'] or i['error']}"
                          for i in s["inversions"] if i["stopped"] or i["error"])
        print(f"op {k}: total_s {s['total_s']:.4f} train_s {s['train_s']:.4f} "
              f"invert_s {s['invert_s']:.4f} full_solves {s['full_solves']} "
              f"final_e_i {s['final_e_i']:.4f} stage ops {s['stage_ops'][0]} "
              f"failed {s['stage_ops'][1]} truncations "
              f"{sum(truncations(i) for i in invs)}" + (f" [{stops}]" if stops else ""))

    op_errs, digests = check_ops(ops, f"{env['src_sha256']}:{args.workload}")
    failed_ops = sum(bool(e) for e in op_errs)
    errs = [e for es in op_errs for e in es] + check_digests(digests)
    summary = median_summary(summaries)
    summary["peak_rss_mb"] = peak_rss_mb
    print(f"{len(ops)} operation(s), medians; * = gated in BENCHMARK.json")
    gated = {m["name"] for m in spec["end_to_end"]}
    for name, unit in REPORTED:
        print(f"  {'*' if name in gated else ' '} {name:<12} {summary[name]:>14.6g} {unit}")

    if args.trace:
        spans = tracer.spans
        metrics = layer_metrics(spans)
        metrics["harness.write.bytes"] = summaries[0]["write_bytes"]
        metrics["trace.overhead_s"] = tracer.overhead_s
        for line in module_table(spans, setup_s, summaries[0]["total_s"]):
            print(line)
        op = summaries[0]
        nets = metrics["deeponet.train.self_s"] + metrics["deeponet.finetune.self_s"]
        print(f"stress: forward.self_s / invert_s = "
              f"{metrics['forward.self_s'] / op['invert_s']:.1%}; deeponet train + "
              f"finetune self_s / total_s = {nets / op['total_s']:.1%}")
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{stem}-spans.jsonl")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: summary[k] for k in units if k in summary}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")
    for e in errs:
        print(f"CHECK FAILED: {e}")
    correct = not errs and failed_ops == 0
    result = {"correct": correct, "attempted": len(ops), "failed": failed_ops,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                          for k in units}}

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"env": env, "args": vars(args), "correct": correct, "checks": errs,
         "setup_probes_s": setup_times, "summary": summary, "result": result},
        indent=1, sort_keys=True, default=float))
    if not args.trace:
        line = speedup_line(args.workload, env["src_sha256"], summary)
        if line:
            print(line)
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        nproc = pin_threads()
        spec = load_spec()
        if args.workload == "all":
            return max(subprocess.run(
                [sys.executable, __file__, "--workload", w["name"], "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)]).returncode for w in spec["workloads"])
        import_opinv()
        return run(args, spec, nproc)
    except StartError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
