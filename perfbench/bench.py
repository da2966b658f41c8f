"""Closed-loop benchmark of the circjacobi command bodies.

One client in one process runs one command at a time through the public
`circjacobi.harness.COMMANDS` bodies, checks every output outside the timed
region, and starts the next command when the previous one has returned.
`run.py` is the entry point; it fixes the BLAS thread count and puts the
checkout's `src/` on the path before this module is imported.

Untraced runs report the end-to-end metrics.  Traced runs alternate
untraced and traced commands and report per-layer self time and call
counts, read from spans that `spans.instrument` records around the public
functions of each module; `trace.overhead_s` is the difference of the two
median command times.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from circjacobi import harness, tolerances

import spans

TWO_PI = 2.0 * np.pi
SETUP_REPS = 3
OUT_DIR = ".bench_out"
# verify's statistical checks each have a designed false-alarm rate (1e-3 or
# 3 standard errors), about 1.4% per call in all; the suite is run at its
# default seed, as the acceptance tests hold theirs, so a run cannot fail by
# chance.  The benchmark seed still picks the inputs of every other workload.
VERIFY_SEED = harness.DEFAULTS["verify"]["seed"]


@dataclass(frozen=True)
class Workload:
    command: str
    overrides: dict
    spectra: int  # spectra one command completes


WORKLOADS = {
    "sample-small": Workload(
        "sample",
        {"n": 8, "beta": 2.0, "delta_re": 1.0, "delta_im": 0.0, "samples": 2000},
        2000,
    ),
    "sample-large": Workload(
        "sample",
        {"n": 400, "beta": 2.0, "delta_re": 1.0, "delta_im": 0.0, "samples": 2},
        2,
    ),
    "esd-tilted": Workload(
        "esd-convergence",
        {"d_re": 1.0, "d_im": 0.06, "beta": 2.0, "ladder": "25,50", "reps": 20},
        40,
    ),
    "verify": Workload(
        "verify",
        {"seed": VERIFY_SEED, "scale": 0.1},
        # weights-dirichlet check: max(20000 * scale, 2000) spectra at n=4,
        # esd-ks-smoke: 8 spectra at n=50
        2008,
    ),
}

# (span name, module of circjacobi, attribute path) -- see spans.instrument
TARGETS = [
    ("sampling.sample_eta", "sampling", "sample_eta"),
    ("sampling.sample_eta_batch", "sampling", "sample_eta_batch"),
    ("sampling.sample_gamma_k", "sampling", "sample_gamma_k"),
    ("sampling.sample_lambda_delta", "sampling", "sample_lambda_delta"),
    ("models.reflection_product", "models", "reflection_product"),
    ("models.DenseUnitary.from_entries", "models", "DenseUnitary.from_entries"),
    ("models.eigen_unitary", "models", "eigen_unitary"),
    ("models.schur", "models", "scipy.linalg.schur"),
    ("models.spectral_measure", "models", "spectral_measure"),
    ("models.sample_cj_spectrum", "models", "sample_cj_spectrum"),
    ("models.ggt_from_alpha", "models", "ggt_from_alpha"),
    ("models.agr_product", "models", "agr_product"),
    ("models.cmv_from_alpha", "models", "cmv_from_alpha"),
    ("opuc.SpectralMeasure.validate", "opuc", "SpectralMeasure.__post_init__"),
    ("opuc.DeformedCoeffs.validate", "opuc", "DeformedCoeffs.__post_init__"),
    ("opuc.gamma_from_alpha", "opuc", "gamma_from_alpha"),
    ("opuc.alpha_from_gamma", "opuc", "alpha_from_gamma"),
    ("opuc.verblunsky_from_measure", "opuc", "verblunsky_from_measure"),
    ("opuc.szego_polynomials", "opuc", "szego_polynomials"),
    ("analysis.ks_distance", "analysis", "ks_distance"),
    ("analysis.mu_d_cdf", "analysis", "mu_d_cdf"),
    ("analysis.mu_d_grid", "analysis", "mu_d_grid"),
    ("analysis.weight_gap_stat", "analysis", "weight_gap_stat"),
    ("analysis.EmpiricalMeasure.validate", "analysis", "EmpiricalMeasure.__post_init__"),
    ("analysis.rate_function", "analysis", "rate_function"),
    ("gof.disk_integral_quad", "gof", "disk_integral_quad"),
    ("gof.partition_quad", "gof", "partition_quad"),
    ("gof.disk_coefficient_chi2", "gof", "disk_coefficient_chi2"),
    ("gof.circle_angle_chi2", "gof", "circle_angle_chi2"),
    ("gof.ks_pvalue", "gof", "ks_pvalue"),
    ("harness.write_rows", "harness", "write_rows"),
    ("harness.RunManifest.write", "harness", "RunManifest.write"),
]
ROOT_SPAN = "harness.cmd"  # the command body, opened by the benchmark itself
LAYERS = ("sampling", "models", "opuc", "analysis", "gof", "harness")

END_TO_END = {
    "wall_s": "s", "spectra_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for name in [t[0] for t in TARGETS] + [ROOT_SPAN]:
        out[f"{name}.self_s"] = "s"
        out[f"{name}.calls"] = "count"
    for layer in LAYERS:
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.share"] = "ratio"
    out.update({
        "trace.overhead_s": "s",
        "trace.wall_s": "s",
        "trace.covered_share": "ratio",
        "sampling.half_angle.acceptance": "ratio",
        "sampling.half_angle.calls": "count",
        "models.last_renormalizations": "count",
    })
    return out


class CheckFailed(Exception):
    """A command returned, but its outputs fail a benchmark-side check."""


# ---------------------------------------------------------------------------
# output checks: they hold for any correct sampler, not just this one


def _read_manifest(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not data.get("passed") or not all(c["passed"] for c in data["checks"]):
        failed = [c["check_id"] for c in data["checks"] if not c["passed"]]
        raise CheckFailed(f"manifest {path} reports failed checks {failed}")
    return data


def _read_rows(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)


def check_sample(manifest, config: dict, firsts: list) -> None:
    _read_manifest(manifest.manifest_path)
    n, samples = config["n"], config["samples"]
    rows = _read_rows(config["out"])
    if rows.shape != (n * samples, 4):
        raise CheckFailed(f"expected {n * samples} rows of 4 columns, got {rows.shape}")
    thetas = rows[:, 2]
    weights = rows[:, 3].reshape(samples, n)
    if not np.all((thetas >= 0.0) & (thetas < TWO_PI)):
        raise CheckFailed("an angle lies outside [0, 2pi)")
    if np.any(weights <= 0.0):
        raise CheckFailed("a weight is not positive")
    worst = float(np.max(np.abs(weights.sum(axis=1) - 1.0)))
    if worst > tolerances.STRUCTURAL_TOL:
        raise CheckFailed(f"weights sum to 1 only within {worst:.3e}")
    firsts.append(weights[:, 0])


def check_first_weight(firsts: list, n: int) -> None:
    """Dirichlet(beta/2, ...) weights are exchangeable: E[w_0] = 1/n."""
    w = np.concatenate(firsts)
    se = float(np.std(w) / np.sqrt(w.size))
    if abs(float(w.mean()) - 1.0 / n) > 4.0 * se:
        raise CheckFailed(f"mean first weight {w.mean():.5f} is not within 4 s.e. of 1/{n}")


def check_esd(manifest, config: dict, _firsts: list) -> None:
    _read_manifest(manifest.manifest_path)
    ladder = [int(x) for x in config["ladder"].split(",")]
    rows = _read_rows(config["out"])
    if rows.shape != (config["reps"] * len(ladder), 5):
        raise CheckFailed(f"unexpected esd table shape {rows.shape}")
    if not np.all((rows[:, 2:4] >= 0.0) & (rows[:, 2:4] <= 1.0)):
        raise CheckFailed("a KS distance lies outside [0, 1]")
    ks50 = manifest.summary["medians"]["50"]["ks_esd"]
    if not ks50 <= 0.25:
        raise CheckFailed(f"median KS at n=50 is {ks50:.4f} > 0.25")


def check_verify(manifest, config: dict, _firsts: list) -> None:
    data = _read_manifest(config["out"])
    if len(data["checks"]) != 19:
        raise CheckFailed(f"verify ran {len(data['checks'])} checks, expected 19")


CHECKS = {"sample": check_sample, "esd-convergence": check_esd, "verify": check_verify}


def output_digest(command: str, config: dict) -> str:
    """sha256 of what a command computed: its data file, or verify's check results."""
    if command == "verify":  # the manifest also holds the wall time
        with open(config["out"], encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        blob = json.dumps(checks, sort_keys=True).encode()
    else:
        blob = Path(config["out"]).read_bytes()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    traced: bool


def closed_loop(step, seconds: float, first_index: int = 0, min_steps: int = 1):
    """Call step(i) for i = first_index, ... one at a time until `seconds` pass.

    A step that raises counts as failed; at least `min_steps` steps run.
    Returns (samples of the steps that passed, attempted, failed).
    """
    samples, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    i = first_index
    while True:
        attempted += 1
        try:
            samples.append(step(i))
        except Exception:  # a failing command is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
        i += 1
        if attempted >= min_steps and time.perf_counter() >= deadline:
            return samples, attempted, failed


class _LogCounter(logging.Handler):
    """Collects the sampler and model debug records during traced commands."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.acceptance: list[float] = []
        self.renormalizations = 0

    def emit(self, record):
        if record.msg.startswith("tilted half-angle acceptance"):
            self.acceptance.append(float(record.args[0]))
        elif record.msg.startswith("renormalizing last coefficient"):
            self.renormalizations += 1


@contextmanager
def debug_records(counter: _LogCounter):
    """Route the sampler and model debug records to `counter` for the block."""
    saved = []
    for name in ("circjacobi.sampling", "circjacobi.models"):
        logger = logging.getLogger(name)
        saved.append((logger, logger.level, logger.propagate))
        logger.setLevel(logging.DEBUG)
        logger.propagate = False
        logger.addHandler(counter)
    try:
        yield
    finally:
        for logger, level, propagate in saved:
            logger.removeHandler(counter)
            logger.setLevel(level)
            logger.propagate = propagate


class Runner:
    """Runs one workload's commands and checks each one's outputs."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.out_dir = out_dir
        self.body = harness.COMMANDS[self.workload.command]
        self.check = CHECKS[self.workload.command]
        self.firsts: list = []
        self.recorder = spans.Recorder()
        self.log_counter = _LogCounter()
        self.first_digest = None

    def config(self, index: int) -> dict:
        overrides = dict(self.workload.overrides)
        if self.workload.command == "verify":
            overrides["out"] = str(self.out_dir / "verify.manifest.json")
        else:
            overrides.update(seed=self.seed, stream=index,
                             out=str(self.out_dir / f"{self.workload.command}.csv"))
        return harness.build_config(self.workload.command, None, overrides)

    def step(self, index: int, traced: bool = False) -> Sample:
        config = self.config(index)
        if traced:
            with spans.instrument(self.recorder, "circjacobi", TARGETS), \
                    debug_records(self.log_counter):
                c0, t0 = time.process_time(), time.perf_counter()
                with self.recorder.span(ROOT_SPAN):
                    manifest = self.body(config)
                t1, c1 = time.perf_counter(), time.process_time()
        else:
            c0, t0 = time.process_time(), time.perf_counter()
            manifest = self.body(config)
            t1, c1 = time.perf_counter(), time.process_time()
        self.check(manifest, config, self.firsts)
        if self.first_digest is None:
            self.first_digest = output_digest(self.workload.command, config)
        return Sample(t1 - t0, c1 - c0, traced)

    def run_checks(self) -> list[str]:
        """Checks over the whole run; returns the failures."""
        if self.name != "sample-small" or not self.firsts:
            return []
        try:
            check_first_weight(self.firsts, self.workload.overrides["n"])
        except CheckFailed as exc:
            return [str(exc)]
        return []


# ---------------------------------------------------------------------------
# metrics


SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from circjacobi import cli, harness\n"
    "cli.build_parser()\n"
    "harness.build_config(sys.argv[2], None, json.loads(sys.argv[3]))\n"
)


def time_setup(root: Path, workload: Workload) -> float:
    """Wall time of a fresh interpreter importing the CLI and building the command's config."""
    args = [sys.executable, "-c", SETUP_CODE, str(root / "src"), workload.command,
            json.dumps(workload.overrides)]
    t0 = time.perf_counter()
    subprocess.run(args, check=True, cwd=root, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def end_to_end_metrics(samples: list[Sample], workload: Workload, setup_s: float) -> dict:
    wall = statistics.median(s.wall_s for s in samples)
    return {
        "wall_s": wall,
        "spectra_per_s": workload.spectra / wall,
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer_metrics(samples: list[Sample], runner: Runner) -> dict:
    traced = [s.wall_s for s in samples if s.traced]
    plain = [s.wall_s for s in samples if not s.traced]
    commands = len(traced)
    totals = runner.recorder.totals()
    traced_wall = sum(traced)
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in [t[0] for t in TARGETS] + [ROOT_SPAN]:
        self_s, calls = totals.get(name, (0.0, 0))
        out[f"{name}.self_s"] = self_s / commands
        out[f"{name}.calls"] = calls / commands
        layer_self[name.split(".", 1)[0]] += self_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / commands
        out[f"{layer}.share"] = layer_self[layer] / traced_wall
    acceptance = runner.log_counter.acceptance
    out.update({
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.wall_s": traced_wall / commands,
        "trace.covered_share": sum(s for s, _ in totals.values()) / traced_wall,
        # 1.0 when no tilted draw ran: nothing was rejected
        "sampling.half_angle.acceptance": statistics.fmean(acceptance) if acceptance else 1.0,
        "sampling.half_angle.calls": len(acceptance) / commands,
        "models.last_renormalizations": runner.log_counter.renormalizations / commands,
    })
    return out


# ---------------------------------------------------------------------------
# environment


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "circjacobi").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
    }


# ---------------------------------------------------------------------------
# entry


def main(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    out_dir = root / OUT_DIR / f"{workload}-{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment(root)
    runner = Runner(workload, seed, out_dir)

    # warm-up: fills lazy caches (LAPACK dispatch, the limit-cdf table); its
    # outputs are checked and it counts as attempted, but it is not timed
    _, attempted, failed = closed_loop(runner.step, 0.0)
    if trace:  # alternate untraced and traced commands
        samples, more_attempted, more_failed = closed_loop(
            lambda i: runner.step(i, traced=i % 2 == 0), seconds, first_index=1, min_steps=2)
    else:
        # set-up runs are spread over the window, so that they and the commands
        # see the same machine load
        setup_times: list[float] = []
        start = time.perf_counter()

        def step(i):
            if len(setup_times) <= SETUP_REPS * (time.perf_counter() - start) / max(seconds, 1e-9):
                setup_times.append(time_setup(root, runner.workload))
            return runner.step(i)

        samples, more_attempted, more_failed = closed_loop(step, seconds, first_index=1)
        while len(setup_times) < SETUP_REPS:
            setup_times.append(time_setup(root, runner.workload))
    attempted += more_attempted
    failed += more_failed
    run_failures = runner.run_checks()
    for message in run_failures:
        print(f"check failed: {message}", file=sys.stderr)
    failed = min(attempted, failed + len(run_failures))

    if trace:
        if not any(s.traced for s in samples) or all(s.traced for s in samples):
            print("error: a traced run needs a traced and an untraced command", file=sys.stderr)
            return 1
        metrics = per_layer_metrics(samples, runner)
        units = per_layer_units()
        runner.recorder.write(out_dir / "spans.csv")
    else:
        if not samples:
            print("error: no command passed", file=sys.stderr)
            return 1
        metrics = end_to_end_metrics(samples, runner.workload, statistics.median(setup_times))
        units = END_TO_END

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commands_timed": len(samples),
        "command_wall_s": [s.wall_s for s in samples],
        "failed_frac": failed / attempted,
        "output_sha256": runner.first_digest,
        "environment": env,
    }
    (out_dir / "result.json").write_text(json.dumps({**info, **result}, indent=1) + "\n")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0
