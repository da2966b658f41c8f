"""Command-line interface.

Subcommands: sample, verify, esd-convergence, plot-data, dump-matrix.
Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
`--log-level`, given before the subcommand, prints the package's log
records (sampler acceptance, last-coefficient renormalisation, Cayley pole
moves at debug level) on stderr.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager

from . import __version__, harness
from .errors import CircJacobiError


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--stream", type=int, help="base RNG stream id")
    p.add_argument("--out", help="output path")
    p.add_argument("--format", choices=("csv", "json"), help="data file format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circjacobi",
        description="Circular Jacobi beta-ensemble sampling and verification harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", dest="log_level",
                        choices=("debug", "info", "warning", "error"),
                        help="print circjacobi log records of this level and above on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample spectra; emit per-sample angles and weights")
    p.add_argument("--n", type=int, help="matrix dimension")
    p.add_argument("--beta", type=float, help="inverse temperature")
    p.add_argument("--delta-re", type=float, dest="delta_re", help="Re of the tilt exponent")
    p.add_argument("--delta-im", type=float, dest="delta_im", help="Im of the tilt exponent")
    p.add_argument("--samples", type=int, help="number of sampled matrices")
    _add_common(p)

    p = sub.add_parser("dump-matrix", help="sample one matrix and dump it as JSON")
    p.add_argument("--n", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--delta-re", type=float, dest="delta_re")
    p.add_argument("--delta-im", type=float, dest="delta_im")
    _add_common(p)

    p = sub.add_parser("verify", help="run the identity and distribution check suites")
    p.add_argument("--seed", type=int)
    p.add_argument("--scale", type=float, help="multiplier on Monte Carlo sizes")
    p.add_argument("--inject-bug", action="store_true", dest="inject_bug", default=None,
                   help="flip a sign inside the Hessenberg constructor (sentinel mode; "
                        "the factorization check must then fail)")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", help="manifest path")

    p = sub.add_parser("esd-convergence", help="distance of sampled spectra to the limit law")
    p.add_argument("--d-re", type=float, dest="d_re", help="Re of the scaling parameter d")
    p.add_argument("--d-im", type=float, dest="d_im", help="Im of the scaling parameter d")
    p.add_argument("--beta", type=float)
    p.add_argument("--ladder", help="comma-separated dimensions, e.g. 25,50,100,200")
    p.add_argument("--reps", type=int, help="samples per dimension")
    _add_common(p)

    p = sub.add_parser("plot-data", help="tabulate the limit density, potential and cdf")
    p.add_argument("--d-re", type=float, dest="d_re")
    p.add_argument("--d-im", type=float, dest="d_im")
    p.add_argument("--grid", type=int, help="number of grid points")
    p.add_argument("--mft-n", type=int, dest="mft_n",
                   help="if > 0, also tabulate the finite-n joint transform at this n")
    p.add_argument("--mft-beta", type=float, dest="mft_beta")
    _add_common(p)

    return parser


@contextmanager
def _log_to_stderr(level: str | None):
    """Print the package's log records of `level` and above on stderr for the block."""
    if level is None:
        yield
        return
    logger = logging.getLogger("circjacobi")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = logger.level
    logger.setLevel(level.upper())
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved)


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    log_level = args.pop("log_level")  # how a run reports, not what it computes
    overrides = {k: v for k, v in args.items() if v is not None}
    try:
        with _log_to_stderr(log_level):
            file_values = harness.parse_config_file(config_path) if config_path else None
            config = harness.build_config(command, file_values, overrides)
            manifest = harness.COMMANDS[command](config)
    except (CircJacobiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in manifest.checks:
        status = "PASS" if check.passed else "FAIL"
        stat = "" if check.stat is None else f" stat={check.stat:.6g}"
        print(f"[{status}] {check.check_id}{stat}")
    if manifest.summary:
        for key, value in manifest.summary.items():
            print(f"{key}: {value}")
    print(f"manifest: {manifest.manifest_path}")
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
