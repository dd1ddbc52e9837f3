"""Command-line interface: `priv-ebc <family> [options]`.

Families: sweep (error vs epsilon), isolate (noise confined to one
mechanism), timing (wall-clock vs epsilon, single worker), degree
(error vs ego degree). Output is CSV on stdout or --out. Exit codes:
0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    MASK_TOKENS,
    ConfigError,
    ExperimentConfig,
    run_degree_sweep,
    run_error_sweep,
    run_mechanism_isolation,
    run_timing,
)
from .graphs import GraphParseError
from .protocol import ALL_MECHS

_FAMILIES = {
    "sweep": run_error_sweep,
    "isolate": run_mechanism_isolation,
    "timing": run_timing,
    "degree": run_degree_sweep,
}

_DEFAULT_EPS = {
    "sweep": "0.1,0.5,1,1.5,3,7",
    "timing": "0.1,0.5,1,1.5,3,7",
    "isolate": "1",
    "degree": "1",
}


def _synthetic_spec(text: str) -> tuple[int, int]:
    parts = dict(tok.split("=", 1) for tok in text.split(",") if tok)
    try:
        return int(parts["n"]), int(parts["m"])
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(
            f"synthetic spec must look like n=2000,m=5, got {text!r}") from None


def _eps_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("epsilon list is empty")
    return values


def _parallel_spec(text: str) -> int:
    if text == "off":
        return 0
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"parallel must be 'off' or a count, got {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError("worker count must be at least 1")
    return workers


def _mask_list(text: str) -> tuple[frozenset[str], ...]:
    masks = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in MASK_TOKENS:
            raise argparse.ArgumentTypeError(
                f"unknown mask {tok!r}; choose from {sorted(MASK_TOKENS)}")
        masks.append(MASK_TOKENS[tok])
    if not masks:
        raise argparse.ArgumentTypeError("mask list is empty")
    return tuple(masks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priv-ebc",
        description="Differentially private two-party egocentric betweenness experiments")
    sub = parser.add_subparsers(dest="family", required=True)

    for family in _FAMILIES:
        p = sub.add_parser(family, help=f"run the {family} experiment family")
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph", help="edge-list file")
        src.add_argument("--synthetic", type=_synthetic_spec, metavar="n=N,m=M",
                         help="preferential-attachment graph instead of a file")
        p.add_argument("--partition-seed", type=int, default=0, metavar="S")
        p.add_argument("--x-frac", type=float, default=0.5, metavar="F",
                       help="probability a node joins party X")
        egos = p.add_mutually_exclusive_group(required=True)
        egos.add_argument("--egos", type=int, metavar="K",
                          help="number of egos (random; degree family: stratified)")
        if family != "degree":
            egos.add_argument("--ego-ids", metavar="ID,ID,...",
                              help="explicit comma-separated ego labels")
        p.add_argument("--eps", type=_eps_list, default=None, metavar="E,E,...",
                       help=f"epsilon list (default {_DEFAULT_EPS[family]})")
        p.add_argument("--trials", type=int, default=1, metavar="T")
        p.add_argument("--clamp", choices=["nonneg", "raw"], default="nonneg")
        p.add_argument("--parallel", type=_parallel_spec, default=0, metavar="off|N")
        p.add_argument("--seed", type=int, default=0, metavar="S",
                       help="master seed for ego choice and noise")
        if family == "isolate":
            p.add_argument("--masks", type=_mask_list,
                           default=(MASK_TOKENS["mech1"], MASK_TOKENS["mech2"],
                                    MASK_TOKENS["mech3"], MASK_TOKENS["all"]),
                           metavar="M,M,...",
                           help="mechanism masks (mech1,mech2,mech3,all,none)")
        p.add_argument("--out", default="-", metavar="PATH",
                       help="output CSV path ('-' = stdout)")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    eps = args.eps if args.eps is not None else _eps_list(_DEFAULT_EPS[args.family])
    ego_ids = None
    if getattr(args, "ego_ids", None):
        ego_ids = tuple(tok for tok in args.ego_ids.split(",") if tok)
        if not ego_ids:
            raise ConfigError("--ego-ids list is empty")
    return ExperimentConfig(
        dataset=args.graph,
        synthetic=args.synthetic,
        partition_seed=args.partition_seed,
        x_fraction=args.x_frac,
        ego_ids=ego_ids,
        ego_count=args.egos,
        stratified=args.family == "degree",
        epsilons=eps,
        trials=args.trials,
        clamp_mode="clamp_nonneg" if args.clamp == "nonneg" else "raw",
        mech_masks=getattr(args, "masks", None) or (ALL_MECHS,),
        parallel=args.parallel,
        master_seed=args.seed,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        csv_text = _FAMILIES[args.family](config)
    except ConfigError as exc:
        print(f"priv-ebc: configuration error: {exc}", file=sys.stderr)
        return 2
    except GraphParseError as exc:
        print(f"priv-ebc: cannot parse graph: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"priv-ebc: i/o error: {exc}", file=sys.stderr)
        return 3
    if args.out == "-":
        sys.stdout.write(csv_text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    except OSError as exc:
        print(f"priv-ebc: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
