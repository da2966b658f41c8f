"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import spans  # noqa: E402
from circjacobi import harness, models, opuc, sampling  # noqa: E402
from circjacobi.errors import ParameterError  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# self time


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parent, start, end) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 7] cover [1, 7]; a child past its parent is clipped
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    assert spans.self_times(parent, start, end)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_recorder_self_times_sum_to_root_duration():
    rec = spans.Recorder()
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("b"):
                sum(range(1000))
        with rec.span("a"):
            pass
    totals = rec.totals()
    assert totals["a"][1] == 2 and totals["b"][1] == 1
    root = rec.end[0] - rec.start[0]
    assert sum(s for s, _ in totals.values()) == pytest.approx(root, rel=1e-9)
    assert all(s >= 0.0 for s, _ in totals.values())


def test_instrument_nests_spans_and_restores_attributes():
    import scipy.linalg

    before = {
        "spectral_measure": models.spectral_measure,
        "sample_eta": models.sample_eta,
        "scipy": models.scipy,
        "from_entries": models.DenseUnitary.__dict__["from_entries"],
        "validate": opuc.SpectralMeasure.__dict__["__post_init__"],
    }
    rec = spans.Recorder()
    with spans.instrument(rec, "circjacobi", bench.TARGETS):
        assert sampling.sample_eta is models.sample_eta is not before["sample_eta"]
        assert scipy.linalg.schur is not models.scipy.linalg.schur
        models.sample_cj_spectrum(sampling.SeededRng(3), opuc.EnsembleParams(5, 2.0, 1.0))
    names = [rec.names[i] for i in rec.name_ix]
    parent_of = {names[i]: names[p] if p >= 0 else None for i, p in enumerate(rec.parent)}
    assert parent_of["models.sample_cj_spectrum"] is None
    assert parent_of["models.schur"] == "models.eigen_unitary"
    assert parent_of["models.eigen_unitary"] == "models.spectral_measure"
    assert parent_of["sampling.sample_eta_batch"] == "sampling.sample_eta"
    assert names.count("sampling.sample_gamma_k") == 4
    assert "opuc.DeformedCoeffs.validate" in names and "opuc.SpectralMeasure.validate" in names
    assert models.spectral_measure is before["spectral_measure"]
    assert models.sample_eta is before["sample_eta"]
    assert models.scipy is before["scipy"]
    assert models.DenseUnitary.__dict__["from_entries"] is before["from_entries"]
    assert opuc.SpectralMeasure.__dict__["__post_init__"] is before["validate"]


# ---------------------------------------------------------------------------
# metric names and BENCHMARK.json


def test_metric_names_and_units_are_well_formed(spec):
    entries = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in entries] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in entries:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# ---------------------------------------------------------------------------
# failure accounting


def test_closed_loop_counts_raising_steps():
    def step(i):
        if i % 2:
            raise bench.CheckFailed("odd")
        return i

    samples, attempted, failed = bench.closed_loop(step, 0.0)
    assert (samples, attempted, failed) == ([0], 1, 0)
    samples, attempted, failed = bench.closed_loop(step, 0.0, first_index=1)
    assert (samples, attempted, failed) == ([], 1, 1)


def test_failing_command_counts_in_failed_frac(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", bench.Workload(
        "sample", {"n": 3, "beta": 2.0, "delta_re": 1.0, "delta_im": 0.0, "samples": 4}, 4))
    monkeypatch.setattr(bench, "time_setup", lambda root, workload: 1.0)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    (tmp_path / "src").symlink_to(ROOT / "src")
    real = harness.COMMANDS["sample"]
    calls = []

    def flaky(config):
        calls.append(config["stream"])
        if len(calls) == 2:
            raise ParameterError("injected")
        manifest = real(config)
        if len(calls) == 3:  # drop the last row: the row-count check must fail
            path = Path(config["out"])
            path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        return manifest

    monkeypatch.setitem(harness.COMMANDS, "sample", flaky)
    assert bench.main("tiny", 5, 0.3, False, tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2].removeprefix("info "))
    assert result["correct"] is False
    assert result["failed"] == 2
    assert result["attempted"] == len(calls) >= 3
    assert info["failed_frac"] == result["failed"] / result["attempted"]
    assert set(result["metrics"]) == set(bench.END_TO_END)
