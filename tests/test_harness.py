import argparse
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from circjacobi import ParameterError, SeededRng, analysis, gof, models, opuc, tolerances
from circjacobi.cli import build_parser, main
from circjacobi.harness import (
    COMMANDS,
    DEFAULTS,
    _stat_plan,
    _verify_plan,
    build_config,
    check_b_const_two_route,
    check_char_poly,
    check_coefficient_roundtrip,
    check_disk_integral,
    check_factorization,
    check_partition_quadrature,
    check_weights_law,
    cmd_sample,
    config_hash,
    parse_config_file,
    run_verify_checks,
    write_rows,
)
from circjacobi.models import matrix_from_json_dict
from circjacobi.opuc import TWO_PI

from conftest import random_alphas


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = build_config("sample", {"n": "6"}, {"beta": 4.0})
        assert cfg["n"] == 6 and cfg["beta"] == 4.0
        assert cfg["samples"] == 10  # default untouched

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            build_config("sample", {"bogus": "1"}, None)

    def test_bad_value_rejected(self):
        with pytest.raises(ParameterError):
            build_config("sample", {"n": "three"}, None)

    def test_int_key_takes_only_integral_values(self):
        n = build_config("sample", None, {"n": 4.0})["n"]
        assert n == 4 and type(n) is int
        for value in (4.7, float("nan"), float("inf"), "4.7"):
            with pytest.raises(ParameterError):
                build_config("sample", None, {"n": value})

    @pytest.mark.parametrize("key", ["n", "samples", "beta", "delta_re"])
    def test_bool_is_not_a_number(self, key):
        with pytest.raises(ParameterError):
            build_config("sample", None, {key: True})

    @pytest.mark.parametrize("value", [0.5, 2, None])
    def test_bool_key_takes_only_a_bool_or_a_listed_word(self, value):
        with pytest.raises(ParameterError):
            build_config("verify", None, {"inject_bug": value})

    def test_bad_format_rejected(self):
        with pytest.raises(ParameterError):
            build_config("sample", None, {"format": "xml"})

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nn=5\nbeta = 4.0\n\nsamples=3\n")
        values = parse_config_file(str(path))
        assert values == {"n": "5", "beta": "4.0", "samples": "3"}

    def test_config_file_diagnostics_carry_line_numbers(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n=5\nnot a pair\n")
        with pytest.raises(ParameterError, match=":2:"):
            parse_config_file(str(path))

    def test_hash_stability(self):
        cfg = build_config("sample", None, None)
        assert config_hash(cfg) == config_hash(dict(cfg))

    def test_hash_identifies_the_computation_not_the_output_path(self):
        a = build_config("sample", None, {"out": "a.csv"})
        b = build_config("sample", None, {"out": "elsewhere/b.csv"})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(build_config("sample", None, {"seed": 99}))
        assert config_hash(build_config("verify", None, {"out": "v1.json"})) == config_hash(
            build_config("verify", None, {"out": "v2.json"}))


def test_write_rows_formats_floats_with_17_digits(tmp_path):
    rows = [(0, 1, 0.1, 1.0 / 3.0), (12, 0, 6.283185307179586, 5e-324), (3, 2, 2.0, 1e22)]
    path = tmp_path / "rows.csv"
    write_rows(str(path), ["a", "b", "c", "d"], iter(rows), "abc", "csv")
    expected = ["# config_hash=abc", "a,b,c,d"] + [
        ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    assert path.read_text() == "\n".join(expected) + "\n"
    write_rows(str(path), ["a"], [], "abc", "csv")
    assert path.read_text() == "# config_hash=abc\na\n"


def test_cli_import_loads_no_scipy_submodule():
    src = str(Path(__import__("circjacobi").__file__).resolve().parent.parent)
    heavy = ("scipy.linalg", "scipy.special", "scipy.stats", "scipy.integrate")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import circjacobi.cli; "
        f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == ""


def test_batched_spectra_load_no_scipy_linalg():
    # the batched eigensolves are NumPy's; loading scipy.linalg raises the
    # peak memory of a large-n `sample` run by about a third
    src = str(Path(__import__("circjacobi").__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from circjacobi import EnsembleParams, SeededRng, sample_cj_spectra; "
        "sample_cj_spectra(SeededRng(3), EnsembleParams(16, 2.0, 1.0), 3); "
        "sample_cj_spectra(SeededRng(1), EnsembleParams(64, 2.0, 1.0), 3); "
        "sample_cj_spectra(SeededRng(2), EnsembleParams(400, 2.0, 1.0), 1); "
        "print('scipy.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_each_command_loads_only_the_scipy_submodules_it_uses(tmp_path):
    # one process runs the five commands in turn, as a long-lived caller
    # would; verify takes its p-values and quadrature rules from
    # scipy.special, and scipy.stats or scipy.integrate would each add about
    # 20 MB and 0.2-0.3 s to a run
    src = str(Path(__import__("circjacobi").__file__).resolve().parent.parent)
    runs = [
        ("sample", {"n": 50, "samples": 3, "delta_re": 1.0, "delta_im": 0.5}),
        ("dump-matrix", {}),
        ("esd-convergence", {"ladder": "8,25", "reps": 2, "d_im": 0.06}),
        ("plot-data", {"grid": 64, "mft_n": 2}),
        ("verify", {"scale": 0.05}),
    ]
    for command, overrides in runs:
        overrides["out"] = str(tmp_path / command)
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); import scipy; "
        "from circjacobi.harness import COMMANDS, build_config; loaded = {}\n"
        f"for command, overrides in {runs!r}:\n"
        "    COMMANDS[command](build_config(command, None, overrides))\n"
        "    loaded[command] = [m for m in scipy.submodules if 'scipy.' + m in sys.modules]\n"
        "print(json.dumps(loaded))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=300)
    loaded = json.loads(out.stdout)
    assert loaded["sample"] == loaded["dump-matrix"] == loaded["esd-convergence"] == []
    assert loaded["plot-data"] == ["special"]
    assert loaded["verify"] == ["linalg", "special"]


def test_cli_flags_are_the_config_keys():
    # every flag of a subcommand is a key of its config and every key has a
    # flag; --config names the config file and is not itself a key
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(DEFAULTS)
    for command, sub in commands.choices.items():
        flags = {a.dest for a in sub._actions} - {"help", "config"}
        assert flags == set(DEFAULTS[command]), command


class _ReadLog(dict):
    """A config that records every key a command reads."""

    def __init__(self, config):
        super().__init__(config)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# small inputs; plot-data tabulates the joint transform so that it reads mft_beta
GUARD_OVERRIDES = {
    "sample": {"n": 3, "samples": 2},
    "dump-matrix": {"n": 3},
    "verify": {"scale": 0.05},
    "esd-convergence": {"ladder": "4,6", "reps": 2},
    "plot-data": {"grid": 64, "mft_n": 3},
}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_every_config_key_is_read(command, tmp_path):
    out = str(tmp_path / ("verify.json" if command == "verify" else "out.csv"))
    config = _ReadLog(build_config(command, None, {**GUARD_OVERRIDES[command], "out": out}))
    COMMANDS[command](config)
    assert config.read == set(DEFAULTS[command])


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_run_frame_writes_the_manifest_and_stamps_every_table(command, tmp_path):
    # the manifest sits at <out>.manifest.json, or at out itself for verify
    formats = ["csv", "json"] if "format" in DEFAULTS[command] else [None]
    for fmt in formats:
        run_dir = tmp_path / str(fmt)
        run_dir.mkdir()
        out = run_dir / ("verify.json" if command == "verify" else "out.dat")
        overrides = {**GUARD_OVERRIDES[command], "out": str(out)}
        if fmt:
            overrides["format"] = fmt
        config = build_config(command, None, overrides)
        manifest = COMMANDS[command](config)
        path = out if command == "verify" else run_dir / "out.dat.manifest.json"
        assert manifest.manifest_path == str(path)
        data = json.loads(path.read_text())
        assert data["wall_clock_s"] > 0 and data["wall_clock_s"] == manifest.wall_clock_s
        assert data["config_hash"] == config_hash(config)
        written = sorted(str(p) for p in run_dir.iterdir() if p != path)
        assert sorted(data["outputs"]) == sorted(manifest.outputs) == written
        if fmt is None:  # dump-matrix and verify write no table
            continue
        for output in data["outputs"]:
            text = Path(output).read_text()
            if fmt == "csv":
                assert text.splitlines()[0] == f"# config_hash={config_hash(config)}"
            else:
                assert json.loads(text)["config_hash"] == config_hash(config)


def test_only_opuc_reduces_angles():
    # `opuc.circle_angles` is the one rule that reduces angles to [0, 2pi)
    package = Path(opuc.__file__).parent
    assert "np.mod(" in (package / "opuc.py").read_text()
    assert [p.name for p in sorted(package.glob("*.py")) if p.name != "opuc.py"
            and re.search(r"np\.(mod|remainder|fmod)\(|%\s*TWO_PI", p.read_text())] == []


def test_every_tolerance_is_used_outside_its_module():
    # a bound whose check is deleted must not linger in `tolerances`
    package = Path(tolerances.__file__).parent
    text = "\n".join(p.read_text() for p in package.glob("*.py") if p.name != "tolerances.py")
    names = [name for name in vars(tolerances) if not name.startswith("_")]
    assert names
    assert [name for name in names if not re.search(rf"\b{name}\b", text)] == []


class TestSampleCommand:
    def test_structure_and_weight_sums(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = build_config("sample", None, {
            "n": 2, "beta": 2.0, "samples": 10, "seed": 5, "out": str(out),
        })
        manifest = cmd_sample(cfg)
        _, header, rows = read_csv(out)
        assert header == ["sample_id", "j", "theta", "weight"]
        assert len(rows) == 20
        weights = np.array([float(r[3]) for r in rows]).reshape(10, 2)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-10
        assert manifest.passed
        data = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert data["passed"] and data["config"]["n"] == 2

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "d.csv"
        cfg = {"n": 3, "beta": 2.0, "samples": 7, "seed": 9, "out": str(out)}
        main_args = ["sample", "--n", "3", "--beta", "2.0", "--samples", "7",
                     "--seed", "9", "--out", str(out)]
        assert main(main_args) == 0
        first = out.read_bytes()
        assert main(main_args) == 0
        assert out.read_bytes() == first

    def test_log_level_prints_debug_records_on_stderr(self, tmp_path, capsys):
        # the flag comes before the subcommand and leaves the output and its
        # config hash as they are
        args = ["sample", "--n", "64", "--samples", "4", "--seed", "1"]
        assert main([*args, "--out", str(tmp_path / "quiet.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert main(["--log-level", "debug", *args, "--out", str(tmp_path / "loud.csv")]) == 0
        err = capsys.readouterr().err
        assert "DEBUG circjacobi.models: cayley pole moved in 4 of 4 rows" in err
        assert (tmp_path / "loud.csv").read_bytes() == (tmp_path / "quiet.csv").read_bytes()

    def test_support_window_fraction_reported(self, tmp_path):
        out = tmp_path / "w.csv"
        args = ["sample", "--n", "50", "--beta", "2.0", "--delta-re", "50",
                "--samples", "20", "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        data = json.loads((tmp_path / "w.csv.manifest.json").read_text())
        assert data["summary"]["fraction_outside_support"] <= 0.05

    def test_weights_below_the_cyclicity_floor_are_written(self, tmp_path):
        # at (60, 0.5, 2.5) about 4% of rows carry a true weight below the
        # floor; the coefficient check certifies them, so the command keeps them
        out = tmp_path / "f.csv"
        args = ["sample", "--n", "60", "--beta", "0.5", "--delta-re", "2.5",
                "--samples", "20", "--seed", "4", "--out", str(out)]
        assert main(args) == 0
        summary = json.loads((tmp_path / "f.csv.manifest.json").read_text())["summary"]
        assert 0.0 < summary["min_weight"] < tolerances.WEIGHT_FLOOR

    def test_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        args = ["sample", "--n", "2", "--samples", "3", "--seed", "1",
                "--format", "json", "--out", str(out)]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["sample_id", "j", "theta", "weight"]
        assert len(payload["rows"]) == 6


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["verify", "--seed", "7", "--scale", "0.1", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["passed"] and len(data["checks"]) >= 15
        for check in data["checks"]:
            assert check["check_id"] and check["kind"] in ("deterministic", "statistical")
        wall = data["summary"]["check_wall_s"]
        assert len(data["checks"]) == 19
        assert set(wall) == {check["check_id"] for check in data["checks"]}
        assert all(value >= 0.0 for value in wall.values())

    def test_injected_fault_is_caught(self, tmp_path):
        out = tmp_path / "vb.json"
        code = main(["verify", "--seed", "7", "--scale", "0.1", "--inject-bug",
                     "--out", str(out)])
        assert code == 1
        data = json.loads(out.read_text())
        failed = [c["check_id"] for c in data["checks"] if not c["passed"]]
        assert failed == ["factorization-three-models"]

    def test_check_times_exclude_the_scipy_load(self, tmp_path):
        # a fresh process pays the first use of each scipy submodule once,
        # before the first check's timer; warm, these two checks take ~2 ms
        out = tmp_path / "v.json"
        src = str(Path(__import__("circjacobi").__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from circjacobi.cli import main; "
            "sys.exit(main(sys.argv[1:]))"
        )
        subprocess.run([sys.executable, "-c", code, "verify", "--scale", "0.1", "--out", str(out)],
                       check=True, timeout=300, capture_output=True)
        summary = json.loads(out.read_text())["summary"]
        assert summary["scipy_load_s"] > 0.0
        wall = summary["check_wall_s"]
        assert wall["nu-s-radial-uniformity"] < 0.1
        assert wall["cmv-bandwidth-and-spectrum"] < 0.1

    def test_seed_sweep_stability(self):
        # statistical suites at per-test significance 1e-3 should essentially
        # always pass; demand at least 19 clean sweeps out of 20 seeds
        clean = 0
        for seed in range(20):
            checks = [check() for check in _stat_plan(seed, scale=0.05)]
            clean += all(c.passed for c in checks)
        assert clean >= 19

    def test_weights_check_catches_biased_first_weight(self):
        # Dirichlet(1, 1, 1, 1) weights with independent uniform angles pass;
        # raising the first concentration to 1.3 moves E w_1 from 1/4 to 0.30
        # while every row still sums to 1
        gen = SeededRng(17).generator
        reps = 2000
        thetas = gen.uniform(0.0, TWO_PI, (reps, 4))
        fair = gen.dirichlet([1.0, 1.0, 1.0, 1.0], size=reps)
        biased = gen.dirichlet([1.3, 1.0, 1.0, 1.0], size=reps)
        assert check_weights_law(fair, thetas, beta_half=1.0).passed
        assert not check_weights_law(biased, thetas, beta_half=1.0).passed

    def test_deterministic_checks_are_seed_independent_in_outcome(self):
        for seed in (1, 2):
            checks, _, _ = run_verify_checks(seed, scale=0.05)
            det = [c for c in checks if c.kind == "deterministic"]
            assert all(c.passed for c in det)


def verify_inputs(check):
    """The inputs `verify` passes to a deterministic check that takes one argument."""
    for call in _verify_plan(1234, 0.1, False):
        if getattr(call, "func", None) is check:
            return call.args[0]
    raise LookupError(check.__name__)


CRITERION_03_TRIPLES = [
    (ell, s, t) for ell in (0.5, 1.0, 2.5) for s in (0.5, 1 + 1j, 2.0) for t in (0.5, 1 - 1j, 1.0)
]
CRITERION_08_CASES = [(1, 2.0, 1.0, 1.0), (1, 2.0, 0.5, 0.7), (2, 2.0, 1.0, 1.0)]
# (ell, s, t) of the density normalization test: (a, conj(delta), delta)
NORMALIZATION_TRIPLES = [(1.0, 1.0, 1.0), (2.5, 1 - 1j, 1 + 1j)]


class TestQuadratureOracles:
    def test_disk_integral_matches_closed_form(self):
        triples = (CRITERION_03_TRIPLES + verify_inputs(check_disk_integral)
                   + NORMALIZATION_TRIPLES)
        for ell, s, t in triples:
            quad = gof.disk_integral_quad(ell, s, t)
            closed = gof.disk_integral_closed(ell, s, t)
            assert abs(quad - closed) <= tolerances.QUAD_REL_TOL * abs(closed), (ell, s, t)

    @pytest.mark.parametrize("ell", [0.05, 0.1, 5.0, 20.0])
    def test_disk_integral_matches_closed_form_over_a_wide_range(self, ell):
        for s, t in [(0.5, 0.5), (1 + 1j, 1 - 1j), (2.0, 1.0), (0.1 + 3j, 0.1 - 3j),
                     (-0.4, 0.3), (5.0, 5.0)]:
            quad = gof.disk_integral_quad(ell, s, t)
            closed = gof.disk_integral_closed(ell, s, t)
            assert abs(quad - closed) <= tolerances.QUAD_REL_TOL * abs(closed), (ell, s, t)

    def test_disk_integral_rejects_nonpositive_ell(self):
        for integral in (gof.disk_integral_quad, gof.disk_integral_closed):
            for ell in (0.0, -0.5):
                with pytest.raises(ParameterError):
                    integral(ell, 1.0, 1.0)
        for ell, s, t in ((np.inf, 1.0, 1.0), (np.nan, 1.0, 1.0), (1.0, np.inf, 1.0),
                          (1.0, 1.0, complex(0.0, np.nan))):
            with pytest.raises(ParameterError):
                gof.disk_integral_closed(ell, s, t)

    @pytest.mark.parametrize("call", [
        lambda: gof.disk_integral_quad(0.5, -0.9, -0.9),
        lambda: gof.disk_integral_quad(np.inf, 1.0, 1.0),
        lambda: gof.disk_integral_quad(np.nan, 1.0, 1.0),
        lambda: gof.disk_integral_quad(1.0, np.inf, 1.0),
        lambda: gof.partition_quad(1, 2.0, -0.6, -0.6),
        lambda: gof.partition_quad(2, 2.0, -0.6, -0.6),
        lambda: gof.partition_quad(1, 2.0, np.inf, 1.0),
        lambda: gof.partition_quad(0, 2.0, 1.0, 1.0),
        lambda: gof.partition_quad(3, 2.0, 1.0, 1.0),
        lambda: gof.partition_quad(2, np.nan, 1.0, 1.0),
        lambda: gof.partition_quad(2, -2.0, 1.0, 1.0),
    ])
    def test_oracles_reject_divergent_and_non_finite_inputs(self, call):
        # the first, fifth and sixth integrals diverge at z = 1 (Re(ell+1+s+t) < 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                call()

    def test_vanishing_partition_function_is_zero(self):
        # the circle mean of (1 - z)^-1 (1 - conj z)^2 = -conj(z) (1 - conj z) is 0
        assert abs(gof.partition_quad(1, 2.0, -1.0, 2.0)) <= tolerances.QUAD_REL_TOL

    def test_partition_matches_closed_form(self):
        for n, beta, s, t in CRITERION_08_CASES + verify_inputs(check_partition_quadrature):
            quad = gof.partition_quad(n, beta, s, t)
            closed = analysis.partition_zst(n, beta, s, t)
            assert abs(quad - closed) <= tolerances.QUAD_REL_TOL * abs(closed), (n, beta, s, t)

    @pytest.mark.parametrize("beta,s,t", [(1.0, 0.5, 0.7), (3.0, 1.0, 1.0), (0.5, 0.3 + 0.2j, 0.3)])
    def test_partition_graded_at_coincident_angles(self, beta, s, t):
        # beta not even: |e^{i theta_1} - e^{i theta_2}|^beta is not smooth at theta_2 = theta_1
        quad = gof.partition_quad(2, beta, s, t)
        closed = analysis.partition_zst(2, beta, s, t)
        assert abs(quad - closed) <= tolerances.QUAD_REL_TOL * abs(closed)


class TestDeterministicCheckFaults:
    """Each identity check must fail when one of its two routes is off."""

    def test_quadrature_checks_pass_unperturbed(self):
        assert check_disk_integral(verify_inputs(check_disk_integral)).passed
        assert check_partition_quadrature(verify_inputs(check_partition_quadrature)).passed

    def test_perturbed_disk_closed_form_fails(self, monkeypatch):
        # 1e-5 is 1e4 times the check's bound QUAD_REL_TOL
        closed = gof.disk_integral_closed
        monkeypatch.setattr(gof, "disk_integral_closed",
                            lambda ell, s, t: closed(ell, s, t) * (1.0 + 1e-5))
        assert not check_disk_integral(verify_inputs(check_disk_integral)).passed

    def test_perturbed_partition_closed_form_fails(self, monkeypatch):
        # 1e-4 is 1e5 times the check's bound QUAD_REL_TOL
        closed = analysis.partition_zst
        monkeypatch.setattr(analysis, "partition_zst",
                            lambda n, beta, s, t: closed(n, beta, s, t) * (1.0 + 1e-4))
        assert not check_partition_quadrature(verify_inputs(check_partition_quadrature)).passed

    def test_shifted_b_const_fails_two_route(self, monkeypatch):
        # 1e-4 is twice the check's bound B_CONST_TWO_ROUTE_TOL
        b_const = analysis.b_const
        monkeypatch.setattr(analysis, "b_const", lambda d: b_const(d) + 1e-4)
        assert not check_b_const_two_route(verify_inputs(check_b_const_two_route)).passed

    @pytest.mark.parametrize("module,name,check", [
        (gof, "disk_integral_quad", check_disk_integral),
        (gof, "disk_integral_closed", check_disk_integral),
        (gof, "partition_quad", check_partition_quadrature),
        (analysis, "partition_zst", check_partition_quadrature),
    ])
    def test_nan_route_fails(self, monkeypatch, module, name, check):
        monkeypatch.setattr(module, name, lambda *args: complex(np.nan, 0.0))
        res = check(verify_inputs(check))
        assert not res.passed and np.isnan(res.stat)

    def test_nan_matrix_fails_factorization(self, monkeypatch, gen):
        agr = models.agr_rows
        monkeypatch.setattr(models, "agr_rows", lambda alphas: np.full_like(agr(alphas), np.nan))
        res = check_factorization([random_alphas(gen, n) for n in (2, 4, 8)])
        assert not res.passed and np.isnan(res.stat)

    @pytest.mark.parametrize("name", ["agr_rows", "reflection_rows"])
    def test_nan_in_last_size_group_fails_factorization(self, monkeypatch, name):
        corpus = verify_inputs(check_factorization)
        assert corpus[-1].n == 32
        build = getattr(models, name)

        def one_nan_matrix(rows):
            stack = build(rows)
            if stack.shape[-1] == 32:
                stack[3, 5, 7] = np.nan
            return stack

        monkeypatch.setattr(models, name, one_nan_matrix)
        res = check_factorization(corpus)
        assert not res.passed and np.isnan(res.stat)

    def test_perturbed_char_poly_of_one_set_fails(self, monkeypatch):
        # 1e-6 is a hundred times the check's bound CHAR_POLY_REL_TOL
        corpus = verify_inputs(check_char_poly)
        assert check_char_poly(corpus).passed
        target = opuc.gamma_from_alpha(corpus[9]).gammas
        exact = opuc.char_poly_at_one
        monkeypatch.setattr(opuc, "char_poly_at_one", lambda coeffs: exact(coeffs) * (
            1.0 + 1e-6 if np.array_equal(coeffs.gammas, target) else 1.0))
        res = check_char_poly(corpus)
        assert not res.passed and res.stat > tolerances.CHAR_POLY_REL_TOL

    @pytest.mark.parametrize("check", [check_factorization, check_char_poly,
                                       check_coefficient_roundtrip])
    def test_stat_does_not_depend_on_corpus_order(self, check):
        corpus = verify_inputs(check)
        shuffled = [corpus[i] for i in np.random.default_rng(3).permutation(len(corpus))]
        assert check(shuffled).stat == check(corpus).stat


class TestEsdConvergenceCommand:
    def test_rows_and_manifest(self, tmp_path):
        out = tmp_path / "esd.csv"
        args = ["esd-convergence", "--ladder", "16,32", "--reps", "4",
                "--seed", "2", "--out", str(out)]
        assert main(args) == 0
        _, header, rows = read_csv(out)
        assert header == ["n", "rep", "ks_esd", "ks_sp", "weight_gap"]
        assert len(rows) == 8
        data = json.loads((tmp_path / "esd.csv.manifest.json").read_text())
        assert set(data["summary"]["medians"]) == {"16", "32"}

    def test_imaginary_scaling_is_feasible(self, tmp_path):
        # Im delta = (beta/2) n d_im = 5 at n = 50; run in a child process so
        # that a slow sampler fails on the time bound instead of hanging
        out = tmp_path / "tilted.csv"
        src = str(Path(__import__("circjacobi").__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from circjacobi.cli import main; "
            "sys.exit(main(sys.argv[1:]))"
        )
        args = ["esd-convergence", "--d-re", "1", "--d-im", "0.1", "--ladder", "50",
                "--reps", "4", "--out", str(out)]
        subprocess.run([sys.executable, "-c", code, *args], check=True, timeout=60,
                       capture_output=True)
        _, _, rows = read_csv(out)
        assert len(rows) == 4
        data = json.loads((tmp_path / "tilted.csv.manifest.json").read_text())
        assert data["passed"] and all(check["passed"] for check in data["checks"])

    def test_bad_ladder_rejected(self, tmp_path):
        args = ["esd-convergence", "--ladder", "16,x", "--out",
                str(tmp_path / "e.csv")]
        assert main(args) == 2

    def test_repeated_ladder_dimension_rejected(self, tmp_path):
        # the manifest keys its medians by dimension, so a repeat would
        # silently drop a block and spoil both monotonicity flags
        out = tmp_path / "e.csv"
        args = ["esd-convergence", "--ladder", "25,25", "--reps", "3", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()

    def test_flat_case_distance_decreases(self, tmp_path):
        # d = 0: distance of the empirical law to the flat cdf shrinks with n
        out = tmp_path / "flat.csv"
        args = ["esd-convergence", "--d-re", "0", "--ladder", "16,64",
                "--reps", "8", "--seed", "11", "--out", str(out)]
        assert main(args) == 0
        data = json.loads((tmp_path / "flat.csv.manifest.json").read_text())
        med = data["summary"]["medians"]
        assert med["64"]["ks_esd"] < med["16"]["ks_esd"]


class TestPlotDataCommand:
    def test_flat_case_all_ones(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["plot-data", "--d-re", "0", "--grid", "64",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["theta", "w_d", "q_d", "cdf"]
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_support_window_and_normalization(self, tmp_path):
        out = tmp_path / "p1.csv"
        assert main(["plot-data", "--d-re", "1", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        thetas = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        outside = (thetas < np.pi / 3) | (thetas > 2 * np.pi - np.pi / 3)
        assert np.all(dens[outside] == 0.0)
        integral = dens.mean()  # midpoint rule over the full circle
        assert abs(integral - 1.0) <= 1e-4

    def test_optional_transform_table(self, tmp_path):
        out = tmp_path / "p2.csv"
        assert main(["plot-data", "--d-re", "1", "--grid", "64", "--mft-n", "5",
                     "--out", str(out)]) == 0
        lines = (tmp_path / "p2.csv.mft.csv").read_text().splitlines()
        assert lines[1].split(",") == ["t", "mft_re", "mft_im"]

    def test_transform_table_takes_the_format_suffix(self, tmp_path):
        out = tmp_path / "p3"
        assert main(["plot-data", "--d-re", "1", "--grid", "64", "--mft-n", "3",
                     "--format", "json", "--out", str(out)]) == 0
        assert not (tmp_path / "p3.mft.csv").exists()
        data = json.loads((tmp_path / "p3.mft.json").read_text())
        assert data["columns"] == ["t", "mft_re", "mft_im"] and len(data["rows"]) == 25


class TestDumpMatrixCommand:
    def test_dump_and_reload(self, tmp_path):
        out = tmp_path / "m.json"
        args = ["dump-matrix", "--n", "4", "--beta", "2.0", "--delta-re", "1",
                "--seed", "6", "--out", str(out)]
        assert main(args) == 0
        data = json.loads(out.read_text())
        u = matrix_from_json_dict(data)
        assert u.n == 4 and u.unitarity_residual <= 1e-10
        assert data["seed"] == 6 and data["delta"] == [1.0, 0.0]
        # the generating coefficients rebuild the same matrix
        from circjacobi import DeformedCoeffs, reflection_product
        from circjacobi.opuc import coeffs_from_pairs

        rebuilt = reflection_product(DeformedCoeffs(coeffs_from_pairs(data["gammas"])))
        assert np.max(np.abs(rebuilt.entries - u.entries)) < 1e-12


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path):
        assert main(["sample", "--beta", "-1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_negative_tilt_is_config_error(self, tmp_path):
        for command in ("sample", "dump-matrix"):
            assert main([command, "--delta-re", "-0.3",
                         "--out", str(tmp_path / "x.out")]) == 2, command

    def test_nan_tilt_is_config_error(self, tmp_path):
        for command in ("sample", "dump-matrix"):
            assert main([command, "--delta-im", "nan",
                         "--out", str(tmp_path / "x.out")]) == 2, command

    @pytest.mark.parametrize("flag", ["--d-re", "--d-im"])
    def test_nan_limit_parameter_is_config_error(self, flag, tmp_path):
        assert main(["plot-data", flag, "nan", "--grid", "64",
                     "--out", str(tmp_path / "p.csv")]) == 2

    def test_unknown_config_key_is_two(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("nonsense=1\n")
        assert main(["sample", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_config_file_is_two(self, tmp_path):
        assert main(["sample", "--config", str(tmp_path / "absent.cfg")]) == 2

    @pytest.mark.parametrize("args", [["plot-data", "--seed", "3"],
                                      ["dump-matrix", "--format", "csv"]])
    def test_removed_flag_is_two(self, args, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--out", str(tmp_path / "x.out")])
        assert exc.value.code == 2

    def test_removed_config_key_is_two(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=3\n")
        assert main(["plot-data", "--config", str(cfg), "--grid", "64",
                     "--out", str(tmp_path / "p.csv")]) == 2

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_verify_scale_is_two(self, scale, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--scale", scale, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["0.0", "-1.0"])
    def test_nonpositive_verify_scale_is_two(self, scale, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--scale", scale, "--out", str(out)]) == 2
        assert not out.exists()
