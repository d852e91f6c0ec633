"""Command-line driver.

    vcsqse run --config experiments.cfg [--output out.csv] [--validate-config]
    vcsqse point --fcidump FILE [--channel ap --tp-over-t1 0.05 ...]
    vcsqse --version

Exit codes: 0 success, 2 bad input (configuration, manifest or FCIDUMP),
3 numerical failure.
"""

import argparse
import sys
from pathlib import Path

from . import __version__
from .channels import DEFAULT_RATIOS, ChannelSpec, channel_kind_from_token
from .config import (DEFAULT_SHOT_COUNT, DEFAULT_SHOT_SEED, ConfigError,
                     ExperimentConfig, config_to_text, load_config)
from .experiments import ExperimentError, run_experiment, single_point
from .molecule import FcidumpError
from .qse import QSE_METRIC_CUTOFF

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vcsqse",
        description="Noisy variational state preparation and subspace expansion "
                    "experiments on molecular fixtures.")
    parser.add_argument("--version", action="version",
                        version=f"vcsqse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured sweep experiment")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--output", help="override the configured CSV path")
    run.add_argument("--validate-config", action="store_true",
                     help="parse and echo the run plan without executing")

    point = sub.add_parser("point", help="ad-hoc report for one fixture")
    point.add_argument("--fcidump", required=True)
    point.add_argument("--channel", help="dephasing | ap | depol")
    point.add_argument("--tp-over-t1", type=float, default=DEFAULT_RATIOS[0])
    point.add_argument("--tp-over-t2", type=float, default=DEFAULT_RATIOS[1])
    point.add_argument("--kind", default="fermionic",
                       choices=("fermionic", "qubit"))
    point.add_argument("--k", type=int, default=1, choices=(1, 2))
    point.add_argument("--metric-cutoff", type=float, default=QSE_METRIC_CUTOFF)
    point.add_argument("--penalty", nargs=3, action="append", default=[],
                       metavar=("NAME", "TARGET", "WEIGHT"),
                       help="e.g. --penalty s_squared 0 100 (repeatable)")
    point.add_argument("--project", nargs=3, metavar=("NAME", "TARGET", "WINDOW"),
                       help="symmetry projection of the subspace problem")
    point.add_argument("--shots", type=int,
                       help="also report a sampled energy with this shot budget")
    point.add_argument("--seed", type=int, default=DEFAULT_SHOT_SEED)
    point.add_argument("--sampled-rdms", action="store_true",
                       help="feed measurement-sampled RDMs into the subspace "
                            f"solve (implies --shots, default {DEFAULT_SHOT_COUNT})")
    return parser


def _exit_code(action) -> int:
    """action()'s code, or the exit code of the input or numerical error it raises."""
    try:
        return action()
    except (ConfigError, FcidumpError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExperimentError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _print_report(cfg) -> int:
    report = single_point(cfg)
    if cfg.output:
        Path(cfg.output).write_text(report)
    print(report, end="")
    return EXIT_OK


def _run_command(args) -> int:
    cfg = load_config(args.config)
    if args.output:
        cfg.output = str(Path(args.output).resolve())
    cfg.validate()
    if args.validate_config:
        print(config_to_text(cfg), end="")
    elif cfg.experiment == "single-point":
        _print_report(cfg)
    else:
        print(run_experiment(cfg).summary())
    return EXIT_OK


def _point_command(args) -> int:
    try:
        channel = None
        if args.channel:
            channel = ChannelSpec(kind=channel_kind_from_token(args.channel),
                                  tp_over_t1=args.tp_over_t1,
                                  tp_over_t2=args.tp_over_t2)
        penalties = [(name, float(target), float(weight))
                     for name, target, weight in args.penalty]
        projection = None
        if args.project:
            projection = (args.project[0], float(args.project[1]),
                          float(args.project[2]))
        shots = args.shots
        if args.sampled_rdms and shots is None:
            shots = DEFAULT_SHOT_COUNT
        cfg = ExperimentConfig(
            experiment="single-point",
            fcidump=str(Path(args.fcidump).resolve()),
            channel=channel, penalties=penalties, projection=projection,
            subspace_kind=args.kind, subspace_order=args.k,
            metric_cutoff=args.metric_cutoff,
            shots=None if shots is None else (shots, args.seed),
            sampled_rdms=args.sampled_rdms)
        cfg.validate()
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _exit_code(lambda: _print_report(cfg))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _exit_code(lambda: _run_command(args))
    return _point_command(args)


if __name__ == "__main__":
    sys.exit(main())
