"""Reproducible experiment runner behind the command-line interface.

Parses flat key=value config files merged with command-line overrides,
validates them against the per-command defaults (unknown keys are rejected,
and each value takes the type of its default),
executes the command bodies, and emits deterministic CSV/JSON data plus a
JSON manifest for every run.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import __version__, analysis, gof, models, opuc, sampling
from . import tolerances as tol
from .errors import ParameterError
from .opuc import TWO_PI

# ---------------------------------------------------------------------------
# configuration

# each command's config keys; a key's default also fixes its type
DEFAULTS: dict[str, dict] = {
    "sample": {
        "n": 4, "beta": 2.0, "delta_re": 0.0, "delta_im": 0.0, "samples": 10,
        "seed": 1234, "stream": 0, "out": "samples.csv", "format": "csv",
    },
    "dump-matrix": {
        "n": 4, "beta": 2.0, "delta_re": 0.0, "delta_im": 0.0, "seed": 1234,
        "stream": 0, "out": "matrix.json",
    },
    "verify": {"seed": 1234, "scale": 1.0, "inject_bug": False, "out": "verify.manifest.json"},
    "esd-convergence": {
        "d_re": 1.0, "d_im": 0.0, "beta": 2.0, "ladder": "25,50,100,200",
        "reps": 50, "seed": 1234, "stream": 0, "out": "esd.csv", "format": "csv",
    },
    "plot-data": {
        "d_re": 1.0, "d_im": 0.0, "grid": 2048, "mft_n": 0, "mft_beta": 2.0,
        "out": "density.csv", "format": "csv",
    },
}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _coerce(command: str, key: str, value):
    defaults = DEFAULTS[command]
    if key not in defaults:
        raise ParameterError(f"unknown config key {key!r} for command {command!r}")
    target = type(defaults[key])
    if isinstance(value, bool) and target is not bool:
        raise ParameterError(f"config key {key!r} takes a {target.__name__}, not the bool {value!r}")
    if isinstance(value, target):
        return value
    try:
        if target is bool:
            lowered = value.lower() if isinstance(value, str) else None
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if target is int and not isinstance(value, str) and int(value) != value:
            raise ValueError(value)  # int() would truncate it
        return target(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"config key {key!r}: cannot parse {value!r} as {target.__name__}") from exc


def build_config(command: str, file_values: dict | None = None, overrides: dict | None = None) -> dict:
    """Defaults <- config file <- explicit overrides, each typed like its default."""
    if command not in DEFAULTS:
        raise ParameterError(f"unknown command {command!r}")
    config = dict(DEFAULTS[command])
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            config[key] = _coerce(command, key, value)
    if "format" in config and config["format"] not in ("csv", "json"):
        raise ParameterError(f"format must be csv or json, got {config['format']!r}")
    return config


def config_hash(config: dict) -> str:
    """Hash of the computation a config describes; the output path is not part of it."""
    canon = json.dumps({k: v for k, v in config.items() if k != "out"},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# manifests and data files


@dataclass
class CheckResult:
    check_id: str
    kind: str  # deterministic | statistical
    passed: bool
    stat: float | None = None
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        if self.stat is not None:
            self.stat = float(self.stat)


def _write_json(path: str, payload, **json_options) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, **json_options)
        fh.write("\n")


@dataclass
class RunManifest:
    """The record of one run.  Its wall time runs from its creation to `write`."""

    command: str
    config: dict
    version: str = __version__
    wall_clock_s: float = 0.0
    outputs: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    manifest_path: str = ""
    started: float = field(init=False, default_factory=time.perf_counter, repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "config_hash": config_hash(self.config),
            "wall_clock_s": self.wall_clock_s,
            "outputs": list(self.outputs),
            "checks": [asdict(c) for c in self.checks],
            "summary": self.summary,
            "passed": self.passed,
        }

    def table(self, path: str, header: list[str], rows) -> None:
        """Write a data table stamped with this run's config hash and format, and list it."""
        write_rows(path, header, rows, config_hash(self.config), self.config["format"])
        self.outputs.append(path)

    def write(self, path: str) -> "RunManifest":
        """Stop the wall clock and write the manifest to `path`."""
        self.wall_clock_s = time.perf_counter() - self.started
        _write_json(path, self.to_dict(), indent=2, sort_keys=True)
        self.manifest_path = path
        return self


def write_rows(path: str, header: list[str], rows, cfg_hash: str, fmt: str) -> None:
    """Write an iterable of row tuples as CSV or JSON.

    The first row fixes each column's CSV format, one `%` call per row:
    floats with 17 significant digits (exact round trip), the rest via `str`.
    """
    if fmt == "json":
        _write_json(path, {"config_hash": cfg_hash, "columns": header, "rows": list(rows)},
                    indent=1)
        return
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={cfg_hash}\n{','.join(header)}\n")
        if first is None:
            return
        line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
        fh.write(line % first)
        fh.writelines(map(line.__mod__, rows))


def _delta(config) -> complex:
    return complex(config["delta_re"], config["delta_im"])


def _d_value(config) -> complex:
    return complex(config["d_re"], config["d_im"])


# ---------------------------------------------------------------------------
# command bodies


def cmd_sample(config: dict) -> RunManifest:
    manifest = RunManifest("sample", config)
    params = opuc.EnsembleParams(config["n"], config["beta"], _delta(config))
    total = config["samples"]
    if total < 1:
        raise ParameterError("samples must be >= 1")
    rng = sampling.SeededRng(config["seed"], config["stream"])
    n = params.n
    thetas, weights = models.sample_cj_spectra(rng, params, total)
    worst_sum = float(np.max(np.abs(weights.sum(axis=1) - 1.0)))
    rows = zip(np.repeat(np.arange(total), n).tolist(), np.tile(np.arange(n), total).tolist(),
               thetas.ravel().tolist(), weights.ravel().tolist())
    manifest.table(config["out"], ["sample_id", "j", "theta", "weight"], rows)
    manifest.checks.append(
        CheckResult("sample-weight-normalization", "deterministic",
                    worst_sum <= tol.STRUCTURAL_TOL, worst_sum, "max |sum(weights) - 1| per sample")
    )
    manifest.summary = {"samples": total, "rows": total * n, "min_weight": float(weights.min())}
    # how many eigenangles land outside the large-n support window for the
    # matched scaling parameter d = delta / (beta' n)
    d_equiv = params.delta / (params.beta_half * params.n)
    if d_equiv != 0:
        lp = analysis.limit_params(d_equiv)
        lo, hi = lp.support
        outside = float(np.mean((thetas <= lo) | (thetas >= hi)))
        manifest.summary["fraction_outside_support"] = outside
    return manifest.write(config["out"] + ".manifest.json")


def cmd_dump_matrix(config: dict) -> RunManifest:
    manifest = RunManifest("dump-matrix", config)
    params = opuc.EnsembleParams(config["n"], config["beta"], _delta(config))
    rng = sampling.SeededRng(config["seed"], config["stream"])
    gammas = sampling.sample_eta(rng, params)
    u = models.reflection_product(gammas)
    payload = models.matrix_to_json_dict(
        u,
        beta=params.beta,
        delta=[params.delta.real, params.delta.imag],
        seed=config["seed"],
        stream=config["stream"],
        version=__version__,
        gammas=opuc.coeffs_to_pairs(gammas.gammas),
    )
    _write_json(config["out"], payload, indent=1)
    manifest.outputs.append(config["out"])
    manifest.checks.append(
        CheckResult("matrix-unitarity", "deterministic",
                    u.unitarity_residual <= tol.STRUCTURAL_TOL, u.unitarity_residual)
    )
    return manifest.write(config["out"] + ".manifest.json")


def cmd_esd_convergence(config: dict) -> RunManifest:
    manifest = RunManifest("esd-convergence", config)
    d = _d_value(config)
    beta = config["beta"]
    try:
        ladder = [int(x) for x in config["ladder"].split(",") if x.strip()]
    except ValueError as exc:
        raise ParameterError(f"cannot parse ladder {config['ladder']!r}") from exc
    if not ladder or any(n < 2 for n in ladder):
        raise ParameterError("ladder must list dimensions >= 2")
    if len(set(ladder)) < len(ladder):
        raise ParameterError(f"ladder {config['ladder']!r} repeats a dimension")
    reps = config["reps"]
    lp = analysis.limit_params(d)
    cdf = lambda t: analysis.mu_d_cdf(lp, t)  # noqa: E731

    rows = []
    medians = {}
    rng = sampling.SeededRng(config["seed"], config["stream"])
    for n in ladder:
        thetas, weights = models.sample_cj_spectra(rng, lp.ensemble(n, beta), reps)
        ks_esd, ks_sp, gap = (a.tolist() for a in analysis.convergence_stats(thetas, weights, cdf))
        rows.extend(zip([n] * reps, range(reps), ks_esd, ks_sp, gap))
        medians[n] = {
            "ks_esd": statistics.median(ks_esd),
            "ks_sp": statistics.median(ks_sp),
            "weight_gap": statistics.median(gap),
        }

    manifest.table(config["out"], ["n", "rep", "ks_esd", "ks_sp", "weight_gap"], rows)
    ks_series = [medians[n]["ks_esd"] for n in ladder]
    gap_series = [medians[n]["weight_gap"] for n in ladder]
    manifest.summary = {
        "medians": {str(n): medians[n] for n in ladder},
        "ks_esd_monotone_decreasing": all(b < a for a, b in zip(ks_series, ks_series[1:])),
        "weight_gap_monotone_decreasing": all(b < a for a, b in zip(gap_series, gap_series[1:])),
    }
    return manifest.write(config["out"] + ".manifest.json")


def cmd_plot_data(config: dict) -> RunManifest:
    manifest = RunManifest("plot-data", config)
    d = _d_value(config)
    lp = analysis.limit_params(d)
    grid = config["grid"]
    if grid < 8:
        raise ParameterError("grid must be >= 8")
    thetas = (np.arange(grid) + 0.5) * TWO_PI / grid
    dens = analysis.w_d(lp, thetas)
    pot = analysis.potential_q(d, thetas)
    cdf = analysis.mu_d_cdf(lp, thetas)
    rows = [
        (float(t), float(wv), float(qv), float(fv))
        for t, wv, qv, fv in zip(thetas, dens, pot, cdf)
    ]
    manifest.table(config["out"], ["theta", "w_d", "q_d", "cdf"], rows)
    trapz = float(np.sum(dens) * (TWO_PI / grid) / TWO_PI)
    manifest.summary = {"density_integral": trapz}
    # square-root kinks at the support endpoints make the midpoint rule
    # O(h^{3/2}), so the bound follows the grid; 1e-4 at the default grid
    norm_tol = max(1e-4, 8.0 * (TWO_PI / grid) ** 1.5)
    manifest.checks.append(
        CheckResult("density-normalization", "deterministic",
                    abs(trapz - 1.0) <= norm_tol, abs(trapz - 1.0),
                    "midpoint integral of emitted density column")
    )
    if config["mft_n"] > 0:
        params = lp.ensemble(config["mft_n"], config["mft_beta"])
        ts = np.linspace(0.0, 3.0, 25)
        mft_rows = []
        for t in ts:
            val = analysis.mellin_fourier(params, 0.0, t)
            mft_rows.append((float(t), float(val.real), float(val.imag)))
        manifest.table(f"{config['out']}.mft.{config['format']}", ["t", "mft_re", "mft_im"],
                       mft_rows)
    return manifest.write(config["out"] + ".manifest.json")


# ---------------------------------------------------------------------------
# verification suite


def random_alphas(gen: np.random.Generator, n: int) -> opuc.VerblunskyCoeffs:
    """Valid coefficient vector: interior points in the disk, last on the circle."""
    radii = np.sqrt(gen.uniform(0.0, 0.95, n))
    phases = gen.uniform(0.0, TWO_PI, n)
    alphas = radii * np.exp(1j * phases)
    alphas[-1] = np.exp(1j * phases[-1])
    return opuc.VerblunskyCoeffs(alphas)


def _rel_err(value, reference) -> float:
    return abs(value - reference) / max(abs(reference), np.finfo(float).tiny)


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _worst(values) -> float:
    """The value of largest magnitude; NaN if any value is NaN, so that a NaN fails every bound."""
    arr = np.asarray(list(values), dtype=float)
    return float(arr[np.argmax(np.abs(arr))])


# Each check takes its inputs -- coefficient sets, parameter tuples or an
# already-drawn sample -- and reads its bound from `tolerances`.  `verify`
# and the acceptance tests call the same functions on their own corpora.


def _size_groups(corpus):
    """Each coefficient size of a corpus, in order of first appearance.

    Yields the alphas of its sets stacked (count, n) and their deformed
    coefficients, one `gamma_rows` call per size.
    """
    groups: dict[int, list] = {}
    for coeffs in corpus:
        groups.setdefault(coeffs.n, []).append(coeffs.alphas)
    for group in groups.values():
        alphas = np.stack(group)
        yield alphas, opuc.gamma_rows(alphas)


def _row_spreads(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest |a - b| of each matching pair of rows or matrices of two stacks; NaN propagates."""
    return np.abs(a - b).reshape(len(a), -1).max(axis=1)


def check_factorization(corpus, *, inject_bug: bool = False) -> CheckResult:
    """GGT matrix = AGR block product = reflection product of the gammas.

    One stack of each model per coefficient size; the spreads are per set.
    """
    spreads = []
    for alphas, gammas in _size_groups(corpus):
        ggt = models.ggt_rows(alphas, _alpha_init=1.0 if inject_bug else -1.0)
        spreads += [_row_spreads(ggt, models.agr_rows(alphas)),
                    _row_spreads(ggt, models.reflection_rows(gammas))]
    worst = _worst(np.concatenate(spreads))
    return CheckResult("factorization-three-models", "deterministic",
                       worst <= tol.STRUCTURAL_TOL, worst,
                       "max entrywise spread across constructions")


def check_char_poly(corpus) -> CheckResult:
    """det(Id - U) = prod_k (1 - gamma_k), relative error per set.

    det(Id - U) of the GGT matrices of each coefficient size comes from one
    stacked LU determinant.
    """
    errors = []
    for alphas, gammas in _size_groups(corpus):
        dets = np.linalg.det(np.eye(alphas.shape[1]) - models.ggt_rows(alphas))
        errors += [_rel_err(complex(det), opuc.char_poly_at_one(opuc.DeformedCoeffs(g)))
                   for det, g in zip(dets, gammas)]
    worst = _worst(errors)
    return CheckResult("char-poly-product", "deterministic",
                       worst <= tol.CHAR_POLY_REL_TOL, worst)


def check_cmv(coeffs: opuc.VerblunskyCoeffs) -> CheckResult:
    """The CMV matrix is five-diagonal and has the GGT spectrum (NumPy's `eigvals` of each)."""
    cmv = models.cmv_from_alpha(coeffs)
    idx = np.arange(coeffs.n)
    off_band = float(np.abs(cmv.entries)[np.abs(np.subtract.outer(idx, idx)) > 2].max())
    lam_c = np.linalg.eigvals(cmv.entries)
    lam_h = np.linalg.eigvals(models.ggt_from_alpha(coeffs).entries)
    spec_diff = float(np.max(np.min(np.abs(lam_c[:, None] - lam_h[None, :]), axis=1)))
    ok = off_band <= tol.CMV_BAND_TOL and spec_diff <= tol.EIGEN_RESIDUAL_TOL
    return CheckResult("cmv-bandwidth-and-spectrum", "deterministic", ok,
                       _worst([off_band, spec_diff]))


def check_coefficient_roundtrip(corpus) -> CheckResult:
    """alpha -> gamma -> alpha reproduces the coefficients, with one `alpha_rows` per size."""
    spreads = []
    for alphas, gammas in _size_groups(corpus):
        spreads.append(_row_spreads(opuc.alpha_rows(gammas), alphas))
    worst = _worst(np.concatenate(spreads))
    return CheckResult("coefficient-roundtrip", "deterministic",
                       worst <= tol.ROUNDTRIP_TOL, worst)


def check_measure_roundtrip(corpus) -> CheckResult:
    """alpha -> spectral measure -> alpha reproduces the coefficients.

    The measures of each coefficient size come from one `spectra_from_gammas`
    call, the eigensolver that `sample` uses, so its weights are checked too.
    """
    errors = []
    for alphas, gammas in _size_groups(corpus):
        for thetas, weights, row in zip(*models.spectra_from_gammas(gammas), alphas):
            back = opuc.verblunsky_from_measure(opuc.SpectralMeasure(thetas, weights))
            errors.append(_max_abs_diff(back.alphas, row))
    worst = _worst(errors)
    return CheckResult("measure-roundtrip", "deterministic",
                       worst <= tol.MEASURE_ROUNDTRIP_TOL, worst)


def check_szego_pointwise(coeffs: opuc.VerblunskyCoeffs, zs: np.ndarray) -> CheckResult:
    """Phi_{j+1}(z) = z Phi_j(z) - conj(alpha_j) Phi_j^*(z) at the points zs (1-D)."""
    phi, phi_star = (npoly.polyval(zs, rows.T) for rows in opuc.szego_polynomials(coeffs))
    rhs = zs * phi[:-1] - np.conj(coeffs.alphas)[:, None] * phi_star[:-1]
    worst = _worst(np.abs(phi[1:] - rhs).ravel())
    return CheckResult("szego-pointwise", "deterministic", worst <= tol.RECURSION_TOL, worst)


def check_coefficient_function_factorization(coeffs: opuc.VerblunskyCoeffs, zs) -> CheckResult:
    """Phi_k(z) = prod_{j<k} (z - gamma_j(z)) at each point z of zs, relative error.

    The products come from the value recursion (`gamma_functions_at`), the
    reference from the coefficient rows of `szego_polynomials`.
    """
    zs = np.asarray(zs, dtype=np.complex128).reshape(-1)
    products = np.cumprod(zs[:, None] - opuc.gamma_functions_at(coeffs, zs), axis=1)
    phi, _ = opuc.szego_polynomials(coeffs)
    reference = npoly.polyval(zs, phi[1:].T).T
    worst = _worst((np.abs(products - reference)
                    / np.maximum(np.abs(reference), np.finfo(float).tiny)).ravel())
    return CheckResult("coefficient-function-factorization", "deterministic",
                       worst <= tol.STRUCTURAL_TOL, worst)


def check_disk_integral(triples) -> CheckResult:
    """Quadrature of the disk integral at each (ell, s, t) against its closed form."""
    worst = _worst(_rel_err(gof.disk_integral_quad(ell, s, t), gof.disk_integral_closed(ell, s, t))
                   for ell, s, t in triples)
    return CheckResult("disk-integral-identity", "deterministic",
                       worst <= tol.QUAD_REL_TOL, worst)


def check_partition_quadrature(cases) -> CheckResult:
    """Closed-form angular partition function at each (n, beta, s, t) against quadrature."""
    worst = _worst(_rel_err(gof.partition_quad(n, beta, s, t), analysis.partition_zst(n, beta, s, t))
                   for n, beta, s, t in cases)
    return CheckResult("partition-quadrature", "deterministic",
                       worst <= tol.QUAD_REL_TOL, worst)


def check_mft_factorization(params: opuc.EnsembleParams, exponents) -> CheckResult:
    """The joint transform of det(Id - U) at each (s, t) factorizes over the coefficients."""
    worst = _worst(_rel_err(np.prod(gof.tilted_disk_power_moment(
        params.radial_exponents, params.delta, 0.5 * (t + s), 0.5 * (t - s))),
        analysis.mellin_fourier(params, s, t)) for s, t in exponents)
    return CheckResult("mft-factorization", "deterministic", worst <= tol.STRUCTURAL_TOL, worst)


def check_b_const_two_route(ds) -> CheckResult:
    """B(d) in closed form against its finite-n route at n = 400 and beta = 2, for each d.

    The finite-n route is taken relative to d = 0, which cancels its
    normalization term that does not depend on d."""
    at_zero = analysis.b_const_finite_n(0.0, 400)
    diff = _worst(abs(analysis.b_const(d) - (analysis.b_const_finite_n(d, 400) - at_zero))
                  for d in ds)
    return CheckResult("b-const-two-route", "deterministic",
                       diff <= tol.B_CONST_TWO_ROUTE_TOL, diff)


def check_rate_at_minimizer(ds) -> CheckResult:
    """The rate function vanishes at the limit measure mu_d, for each d."""
    worst = _worst(analysis.rate_function(d, analysis.mu_d_grid(analysis.limit_params(d))).rate
                   for d in ds)
    return CheckResult("rate-at-minimizer", "deterministic",
                       abs(worst) <= tol.RATE_AT_MINIMIZER_TOL, worst)


def check_limit_params_example() -> CheckResult:
    """At d = 1: gamma_inf = -1/2, theta_d = pi/3, xi_d = 0."""
    lp = analysis.limit_params(1.0)
    ok = (
        abs(lp.gamma_inf + 0.5) <= tol.CLOSED_FORM_TOL
        and abs(lp.theta_d - np.pi / 3.0) <= tol.CLOSED_FORM_TOL
        and abs(lp.xi_d) <= tol.CLOSED_FORM_TOL
    )
    return CheckResult("limit-params-example", "deterministic", ok)


def check_nu_s_radial(draws: np.ndarray) -> CheckResult:
    """Draws of nu_3: the squared radius is uniform on (0, 1) (KS test)."""
    _, p = gof.ks_pvalue(np.abs(draws) ** 2, lambda x: np.clip(x, 0, 1))
    return CheckResult("nu-s-radial-uniformity", "statistical", p >= tol.SIGNIFICANCE, p)


def check_disk_coefficient(z: np.ndarray, spec: sampling.DiskDensitySpec) -> CheckResult:
    """Disk coefficient draws follow the density of `spec` (binned chi-square)."""
    _, p, _ = gof.disk_coefficient_chi2(z, spec)
    return CheckResult("disk-coefficient-chi2", "statistical", p >= tol.SIGNIFICANCE, p)


def check_circle_tilt(draws) -> CheckResult:
    """Last-coefficient draws on the circle follow the delta-tilted law (binned chi-square).

    `draws` holds (z, delta) pairs; each p-value is held to `SIGNIFICANCE`,
    and the stat is the smallest.
    """
    ps = [gof.circle_angle_chi2(np.angle(z), delta)[1] for z, delta in draws]
    return CheckResult("circle-tilt-chi2", "statistical", min(ps) >= tol.SIGNIFICANCE, min(ps),
                       "p " + ", ".join(f"{p:.4f} at delta {complex(d)}" for p, (_, d) in zip(ps, draws)))


def check_weights_law(weights: np.ndarray, thetas: np.ndarray, beta_half: float) -> CheckResult:
    """Spectral weights are Dirichlet(beta/2, ..., beta/2) and independent of the angles.

    `weights` and `thetas` hold one sampled spectrum per row.  Tests the
    first two moments of the first weight and its correlation with
    sum_j cos(theta_j) and sum_j cos(2 theta_j), each in standard errors.
    """
    reps, n = weights.shape
    first = weights[:, 0]
    m1_dev = se_deviation(first, 1.0 / n)
    m2_dev = se_deviation(first**2, (beta_half + 1.0) / (n * (n * beta_half + 1.0)))
    c1 = abs(np.corrcoef(first, np.cos(thetas).sum(axis=1))[0, 1]) * np.sqrt(reps)
    c2 = abs(np.corrcoef(first, np.cos(2 * thetas).sum(axis=1))[0, 1]) * np.sqrt(reps)
    worst = _worst([m1_dev, m2_dev, c1, c2])
    return CheckResult("weights-dirichlet-and-independence", "statistical",
                       worst <= tol.SE_BOUND, worst,
                       f"moment devs {m1_dev:.2f}, {m2_dev:.2f} s.e.; "
                       f"corr devs {c1:.2f}, {c2:.2f} s.e.")


def se_deviation(x: np.ndarray, target: float) -> float:
    """|mean(x) - target| in standard errors of the mean (sample deviation, ddof = 1)."""
    return float(abs(x.mean() - target) / (x.std(ddof=1) / np.sqrt(x.size)))


def check_coefficient_mean(z: np.ndarray) -> CheckResult:
    """Draws with radial exponent 1 and tilt 1 have mean real part -1/3 (in standard errors)."""
    dev = se_deviation(z.real, -1.0 / 3.0)
    return CheckResult("coefficient-mean-closed-form", "statistical",
                       dev <= tol.SE_BOUND, dev, "|mean - (-1/3)| in standard errors")


def median_esd_ks(thetas: np.ndarray, weights: np.ndarray, lp: analysis.LimitParams) -> float:
    """Median KS distance to the arc law `lp` of the eigenangle distributions, one spectrum per row."""
    cdf = lambda t: analysis.mu_d_cdf(lp, t)  # noqa: E731
    ks_esd, _, _ = analysis.convergence_stats(thetas, weights, cdf)
    return statistics.median(ks_esd.tolist())


def check_esd_ks_smoke(thetas: np.ndarray, weights: np.ndarray,
                       lp: analysis.LimitParams) -> CheckResult:
    """Sampled spectra in the regime of `lp` are close to its arc law (median KS distance)."""
    med = median_esd_ks(thetas, weights, lp)
    return CheckResult("esd-ks-smoke", "statistical", med <= tol.ESD_KS_SMOKE_MAX, med,
                       "median KS to the limit at n=50")


def _stat_plan(seed: int, scale: float):
    """The statistical checks of `verify`, each bound to its freshly drawn sample."""
    size = lambda base: max(int(base * scale), 2000)  # noqa: E731
    yield partial(check_nu_s_radial,
                  sampling.sample_nu_s(sampling.SeededRng(seed, 101), 3.0, size=size(20000)))
    spec = sampling.DiskDensitySpec(1.5, 1.0 + 0.5j)
    yield partial(check_disk_coefficient,
                  sampling.sample_gamma_k(sampling.SeededRng(seed, 102), spec, size=size(30000)),
                  spec)
    # a pure-imaginary tilt draws its half angle by inversion, not by rejection
    yield partial(check_circle_tilt, [
        (sampling.sample_lambda_delta(sampling.SeededRng(seed, stream), delta, size=size(30000)),
         delta)
        for stream, delta in ((103, 1.0 + 1.0j), (107, 0.3j))])
    yield partial(check_coefficient_mean,
                  sampling.sample_gamma_k(sampling.SeededRng(seed, 104),
                                          sampling.DiskDensitySpec(1.0, 1.0), size=size(50000)))
    params = opuc.EnsembleParams(4, 2.0, 1.0)
    thetas, weights = models.sample_cj_spectra(sampling.SeededRng(seed, 105), params, size(20000))
    yield partial(check_weights_law, weights, thetas, params.beta_half)
    lp = analysis.limit_params(1.0)
    yield partial(check_esd_ks_smoke,
                  *models.sample_cj_spectra(sampling.SeededRng(seed, 106), lp.ensemble(50, 2.0), 8),
                  lp)


def _verify_plan(seed: int, scale: float, inject_bug: bool):
    """Each check of `verify` in order, as a call bound to its inputs.

    A check's inputs are drawn when the generator reaches it, so the draws
    from `gen` keep their order however long the consumer takes.
    """
    if not np.isfinite(scale):
        raise ParameterError(f"scale must be finite, got {scale!r}")
    if scale <= 0:
        raise ParameterError(f"scale must be > 0, got {scale!r}")
    gen = np.random.default_rng(seed)

    def corpus(sizes, per_size):
        return [random_alphas(gen, n) for n in sizes for _ in range(per_size)]

    yield partial(check_factorization, corpus((2, 4, 8, 16, 32), 8), inject_bug=inject_bug)
    yield partial(check_char_poly, corpus((2, 4, 8, 16, 32), 4))
    yield partial(check_cmv, random_alphas(gen, 16))
    yield partial(check_coefficient_roundtrip, corpus((2, 5, 16, 64), 10))
    yield partial(check_measure_roundtrip, corpus((2, 8, 16), 1))
    yield partial(check_szego_pointwise, random_alphas(gen, 12),
                  np.exp(1j * gen.uniform(0.0, TWO_PI, 50)))
    yield partial(check_coefficient_function_factorization, random_alphas(gen, 10),
                  [gen.uniform(0, 0.9) * np.exp(1j * gen.uniform(0, TWO_PI)) for _ in range(50)])
    yield partial(check_disk_integral, [(1.0, 1.0, 1.0), (2.5, 1 + 1j, 1 - 1j), (0.5, 0.5, 0.5)])
    yield partial(check_partition_quadrature, [(1, 2.0, 1.0, 1.0), (2, 2.0, 1.0, 1.0)])
    yield partial(check_mft_factorization, opuc.EnsembleParams(6, 3.0, 0.7 + 0.4j),
                  [(0.0, 1.0), (1.0, 2.0), (-0.5, 1.5)])
    yield partial(check_b_const_two_route, [1.0])
    yield partial(check_rate_at_minimizer, [1.0])
    yield check_limit_params_example
    yield from _stat_plan(seed, scale)


def run_verify_checks(seed: int, scale: float = 1.0, inject_bug: bool = False):
    """Each check of `verify` in order and the wall time in s of each check by id.

    The checks run on NumPy alone: no `scipy` submodule is loaded."""
    checks, wall = [], {}
    for check in _verify_plan(seed, scale, inject_bug):
        start = time.perf_counter()  # after the check's inputs are drawn
        checks.append(check())
        wall[checks[-1].check_id] = time.perf_counter() - start
    return checks, wall


def cmd_verify(config: dict) -> RunManifest:
    manifest = RunManifest("verify", config)
    checks, wall = run_verify_checks(config["seed"], config["scale"], config["inject_bug"])
    manifest.checks = checks
    manifest.summary = {
        "total": len(checks),
        "failed": [c.check_id for c in checks if not c.passed],
        "check_wall_s": wall,
    }
    return manifest.write(config["out"])


COMMANDS = {
    "sample": cmd_sample,
    "dump-matrix": cmd_dump_matrix,
    "verify": cmd_verify,
    "esd-convergence": cmd_esd_convergence,
    "plot-data": cmd_plot_data,
}
