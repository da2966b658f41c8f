"""Run one benchmark workload against the circjacobi sources of this checkout.

    python3 perfbench/run.py --workload sample-small --seed 1 --seconds 15 --trace 0

Prints an `info` line (environment, output digest, failed fraction) and, as
the last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  Outputs, a result file and the span dump go to
`.bench_out/` in the checkout.  Exits non-zero without a result when the
checkout has no `src/circjacobi`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# one BLAS thread, at most nproc, set before numpy loads; child processes inherit it
BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "circjacobi" / "__init__.py").is_file():
        print(f"error: no circjacobi sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}")
    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
