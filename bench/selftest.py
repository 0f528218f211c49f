"""Tiny-scale self-test of the benchmark.

    python3 -m pytest bench/selftest.py

The file name keeps it out of the program's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

import check
import run
import workloads
from run import ROOT, SELF_CHECK_MARGIN_MIB, Launcher

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 12


def _bench(workload: str, trace: int, monkeypatch, capsys) -> dict:
    tiny = dataclasses.replace(workloads.WORKLOADS[workload], requests=TINY)
    monkeypatch.setitem(workloads.WORKLOADS, workload, tiny)
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    result = _bench(workload, trace, monkeypatch, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= TINY and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in expected}
    if trace:
        metrics = result["metrics"]
        peak = metrics["bench.empty_peak_mib"]["value"]
        assert peak <= metrics["bench.bare_peak_mib"]["value"] + SELF_CHECK_MARGIN_MIB


@pytest.fixture
def reconstructed(request, tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS[request.param], requests=TINY)
    inputs, truth = workloads.generate(workload, 3, tmp_path / "capture")
    out_dir = tmp_path / "out"
    result = Launcher(tmp_path).reconstruct(workload, inputs, out_dir)
    assert result["exit"] == 0
    return out_dir, truth


@pytest.mark.parametrize("reconstructed", list(workloads.WORKLOADS), indirect=True)
def test_deleting_one_trace_document_is_a_trace_error(reconstructed):
    out_dir, truth = reconstructed
    assert check.check_output(out_dir, truth).trace_error_ratio == 0
    (out_dir / "trace_2.json").unlink()
    result = check.check_output(out_dir, truth)
    assert result.failed == 1
    assert result.trace_error_ratio > 0


def test_launcher_peak_is_the_commands_own(tmp_path):
    # Hold far more memory than an interpreter needs; a command spawned
    # straight from this process could report it as its own peak.
    ballast = b"x" * (256 * 2**20)
    workload = workloads.WORKLOADS["chain-reuse"]
    empty = workloads.write_empty(workload, tmp_path / "empty")
    launcher = Launcher(tmp_path)
    bare = launcher.run([sys.executable, "-c", "pass"])["maxrss_kib"] / 1024
    result = launcher.reconstruct(workload, empty, tmp_path / "out")
    assert result["exit"] == 0
    assert result["maxrss_kib"] / 1024 <= bare + SELF_CHECK_MARGIN_MIB
    assert bare < len(ballast) / 2**20 / 4
