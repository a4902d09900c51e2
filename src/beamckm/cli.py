"""Command-line front end: build maps, run sweeps, summarize results."""

from __future__ import annotations

import argparse
import os
import sys

from .ckm import build_ckm, load_ckm, save_ckm
from .codebook import build_codebook
from .harness import (
    ALGORITHMS,
    load_scenario,
    read_results_csv,
    run_trials,
    summarize,
    write_cdf_csv,
    write_results_csv,
    write_summary_csv,
)


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_build_ckm(args) -> int:
    config = load_scenario(args.config)
    codebook = build_codebook(config.array.num_antennas)
    ckm = build_ckm(
        config.environment,
        config.array,
        codebook,
        config.grid,
        staleness_sigma=config.ckm_staleness_sigma,
    )
    with open(args.out, "wb") as fh:
        fh.write(save_ckm(ckm))
    print(
        f"wrote {args.out}: {ckm.gains.shape[0]} codewords x "
        f"{ckm.grid.num_points} grid points"
    )
    return 0


def _cmd_run(args) -> int:
    config = load_scenario(args.config)
    with open(args.ckm, "rb") as fh:
        ckm = load_ckm(fh.read())
    algos = None if args.algo is None else _split_list(args.algo)
    snrs = None if args.snr_db is None else _split_list(args.snr_db)
    records = run_trials(
        config,
        ckm,
        algorithms=algos,
        trials=args.trials,
        seed=args.seed,
        snr_db=snrs,
    )
    write_results_csv(records, args.out)
    print(f"wrote {args.out}: {len(records)} rows")
    return 0


def _cmd_summarize(args) -> int:
    records = read_results_csv(args.infile)
    kinds = tuple(_split_list(args.cdf)) if args.cdf else ()
    stats, tables = summarize(records, cdf_kinds=kinds)
    write_summary_csv(stats, args.out)
    print(f"wrote {args.out}: {len(stats)} groups")
    stem, ext = os.path.splitext(args.out)
    for kind in kinds:
        path = f"{stem}_cdf_{kind}{ext or '.csv'}"
        write_cdf_csv(tables[kind], path)
        print(f"wrote {path}: {len(tables[kind])} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamckm",
        description="Map-aided hierarchical beam training simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-ckm", help="precompute the beam gain map for a scenario")
    p.add_argument("--config", required=True, help="scenario JSON path")
    p.add_argument("--out", required=True, help="output map path (.ckm)")
    p.set_defaults(func=_cmd_build_ckm)

    p = sub.add_parser("run", help="run Monte-Carlo trials and write a results CSV")
    p.add_argument("--config", required=True, help="scenario JSON path")
    p.add_argument("--ckm", required=True, help="map file from build-ckm")
    p.add_argument(
        "--algo",
        default=None,
        help=f"comma-separated subset of {','.join(ALGORITHMS)} (default: config)",
    )
    p.add_argument("--trials", type=int, default=None, help="override trial count")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument(
        "--snr-db",
        default=None,
        help="comma-separated SNR points in dB ('inf' = noiseless; default: config)",
    )
    p.add_argument("--out", required=True, help="output results CSV path")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("summarize", help="aggregate a results CSV")
    p.add_argument("--in", dest="infile", required=True, help="results CSV from run")
    p.add_argument("--out", required=True, help="output summary CSV path")
    p.add_argument(
        "--cdf",
        default=None,
        help="also write CDF tables: comma-separated subset of overhead,gain",
    )
    p.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad input (a config, map or results file) is the user's to fix: one line, no traceback
        print(f"beamckm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
