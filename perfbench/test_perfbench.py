"""Tests of the benchmark itself, on a shrunken grid (n = 2048, 512 realizations).

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = {
    name: replace(wl, grid_n=2048, grid_dx="8um", realizations=min(wl.realizations, 512))
    for name, wl in run.WORKLOADS.items()
}


@pytest.fixture(scope="module")
def small_reference():
    return reference.compute(SMALL["mc_bucket"])


def _run(name, small_reference, trace, wl=None):
    return run.run(name, 3, 0.1, trace, wl=wl or SMALL[name], reference=small_reference)


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_end_to_end_metrics_printed_with_units(name, small_reference):
    result, record = _run(name, small_reference, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(record["operations"]) > run.SETUP_PROBES
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END_UNITS
    for m in result["metrics"].values():
        assert math.isfinite(m["value"]) and m["value"] > 0
    assert record["sizes"]["grid_n"] == 2048


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_counts_repeat_and_spans_nest(name, small_reference):
    result, record = _run(name, small_reference, trace=True)
    # correct also means the counts of the traced operations were identical
    assert result["correct"] and result["failed"] == 0, record["errors"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER_UNITS

    spans = {s["id"]: s for s in record["first_traced_operation"]["spans"]}
    assert len(spans) == len(record["first_traced_operation"]["spans"])
    for s in spans.values():
        assert s["start"] <= s["end"]
        assert -1e-9 <= s["self_s"] <= s["end"] - s["start"] + 1e-9
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]

    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if name == "mc_source":
        assert metrics["optics.fft_rows"] == 0
    else:
        assert metrics["optics.fft_rows"] > 0
    if name == "mc_bucket":
        workers = {s["thread"] for s in spans.values() if s["name"] == "source.sample_source_block"}
        assert len(workers) == 2
        for s in spans.values():
            if s["name"] == "source.sample_source_block":
                assert spans[s["parent"]]["name"] == "correlation.accumulate_mc"


def test_counts_repeat_between_traced_runs(small_reference):
    first, _ = _run("mc_fullmap", small_reference, trace=True)
    second, _ = _run("mc_fullmap", small_reference, trace=True)
    for name in ("optics.fft_rows", "source.draw_calls", "correlation.blocks",
                 "correlation.partials_bytes"):
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["correlation.blocks"]["value"] == 2


def test_failed_operation_is_counted_with_stderr(small_reference):
    # a pitch too coarse for the Fresnel chirp: the child's sampling check refuses
    bad = replace(SMALL["mc_source"], grid_dx="40um")
    result, record = _run("mc_source", small_reference, trace=False, wl=bad)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"] == {}
    assert all("sampling validation failed" in f["stderr_tail"] for f in record["failures"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_bucket",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
