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


COMMAND_HELP = {
    "sample": "sample spectra; emit per-sample angles and weights",
    "dump-matrix": "sample one matrix and dump it as JSON",
    "verify": "run the identity and distribution check suites",
    "esd-convergence": "distance of sampled spectra to the limit law",
    "plot-data": "tabulate the limit density, potential and cdf",
}

FLAG_HELP = {
    "n": "matrix dimension",
    "beta": "inverse temperature",
    "delta_re": "Re of the tilt exponent",
    "delta_im": "Im of the tilt exponent",
    "samples": "number of sampled matrices",
    "seed": "base RNG seed",
    "stream": "base RNG stream id",
    "out": "output path (for verify, the manifest)",
    "format": "data file format, csv or json",
    "scale": "multiplier on Monte Carlo sizes, > 0; each scaled sample keeps at least 2000 draws",
    "inject_bug": "flip a sign inside the Hessenberg constructor (sentinel mode; "
                  "the factorization check must then fail)",
    "d_re": "Re of the scaling parameter d",
    "d_im": "Im of the scaling parameter d",
    "ladder": "comma-separated dimensions, e.g. 25,50,100,200",
    "reps": "samples per dimension",
    "grid": "number of grid points",
    "mft_n": "if > 0, also tabulate the finite-n joint transform at this n",
    "mft_beta": "inverse temperature of the finite-n joint transform",
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per `harness.DEFAULTS` command and one flag per config key,
    typed like its default; an unset flag is None and overrides nothing."""
    parser = argparse.ArgumentParser(
        prog="circjacobi",
        description="Circular Jacobi beta-ensemble sampling and verification harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", dest="log_level",
                        choices=("debug", "info", "warning", "error"),
                        help="print circjacobi log records of this level and above on stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in harness.DEFAULTS.items():
        p = sub.add_parser(command, help=COMMAND_HELP[command])
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, action="store_true", default=None, help=FLAG_HELP[key])
            else:
                p.add_argument(flag, type=type(default), help=FLAG_HELP[key])
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
