"""Command-line entry point.

Subcommands mirror the harness drivers: train-offline, invert, report,
verify-linear, solve-forward, sample-prior.  Run settings resolve in three
layers: the (problem, scale) preset, then an optional --config JSON file,
then individual flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .config import MODES, PROBLEMS, SCALES, TRUTHS, RunConfig, preset
from .harness import (
    cmd_invert,
    cmd_report,
    cmd_sample_prior,
    cmd_solve_forward,
    cmd_train_offline,
    cmd_verify_linear,
)

_INT_FLAGS = ("grid", "n_modes", "seed", "t_steps", "q_new", "i_max", "k_pool",
              "n_probe", "n_prior", "offline_iters", "online_iters", "p_basis",
              "encoder_axis", "query_axis", "sensor_axis")
_FLOAT_FLAGS = ("delta", "alpha", "epsilon", "lam", "start_cov")


def _int_tuple(s: str) -> tuple:
    return tuple(int(v) for v in s.split(","))


def _float_tuple(s: str) -> tuple:
    return tuple(float(v) for v in s.split(","))


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON file of run settings")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--scale", choices=SCALES)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--truth", choices=TRUTHS)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--hidden", type=_int_tuple, metavar="W1,W2,...",
                   help="hidden layer widths")
    p.add_argument("--chi-box", dest="chi_box", type=_float_tuple, metavar="LO,HI",
                   help="offline sampling box for the source center")
    for name in _INT_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=int)
    for name in _FLOAT_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=float)


_ALL_FIELDS = (("problem", "scale", "mode", "truth", "out_dir", "hidden", "chi_box")
               + _INT_FLAGS + _FLOAT_FLAGS)


def build_config(args: argparse.Namespace) -> RunConfig:
    """preset < config file < explicit flags."""
    file_dict = {}
    if args.config:
        with open(args.config) as fh:
            file_dict = json.load(fh)
        RunConfig.from_dict(file_dict)  # partial files allowed; keys checked here
    problem = args.problem or file_dict.get("problem") or "darcy"
    scale = args.scale or file_dict.get("scale") or "desk"
    merged = preset(problem, scale).to_dict()
    merged.update(file_dict)
    for name in _ALL_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return RunConfig.from_dict(merged)


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="opinv",
        description="Surrogate-accelerated Kalman inversion for PDE inverse problems")
    top.add_argument("--version", action="version", version=f"opinv {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-offline", help="train the operator surrogate on prior draws")
    _add_config_flags(p)

    p = sub.add_parser("invert", help="run one inversion, writing a run record")
    _add_config_flags(p)
    p.add_argument("--checkpoint", metavar="STEM",
                   help="surrogate checkpoint stem (required for deeponet modes)")

    p = sub.add_parser("report", help="tabulate run records side by side")
    p.add_argument("records", nargs="+", metavar="RECORD",
                   help="record.json paths or run directories")
    p.add_argument("--out", metavar="DIR", help="also write report.csv / report.json")

    p = sub.add_parser("verify-linear", help="check the linear-case error bound")
    p.add_argument("--n-dim", dest="n_dim", type=int, default=4)
    p.add_argument("--n-obs", dest="n_obs", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--eps", type=_float_tuple, default=(1e-1, 1e-2, 1e-3, 1e-4),
                   metavar="E1,E2,...")
    p.add_argument("--out", metavar="DIR", help="also write linear_check.json")

    p = sub.add_parser("solve-forward", help="solve the truth forward problem, write data")
    _add_config_flags(p)

    p = sub.add_parser("sample-prior", help="draw parameter samples from the prior")
    _add_config_flags(p)
    p.add_argument("--n", type=int, default=4)

    return top


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)

    if args.command == "report":
        print(cmd_report(args.records, out_dir=args.out), end="")
        return 0

    if args.command == "verify-linear":
        rep = cmd_verify_linear(n_dim=args.n_dim, n_obs=args.n_obs,
                                seed=args.seed, eps=args.eps, alpha=args.alpha,
                                out_dir=args.out)
        print(json.dumps(rep, indent=1, sort_keys=True, default=float))
        return 0 if rep["passed"] else 2

    cfg = build_config(args)
    if args.command == "train-offline":
        print(cmd_train_offline(cfg))
    elif args.command == "invert":
        print(cmd_invert(cfg, checkpoint=args.checkpoint))
    elif args.command == "solve-forward":
        print(cmd_solve_forward(cfg))
    elif args.command == "sample-prior":
        print(cmd_sample_prior(cfg, n=args.n))
    return 0


if __name__ == "__main__":
    sys.exit(main())
