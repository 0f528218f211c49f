"""The benchmark's traced pass (bench/traced.py) is the only program that
reconstructs through handle() per record, then finalize() and
build_all_dags(). It must keep writing what `reqflow reconstruct` writes,
and keep reading the pool sizes of the engine finalize() returns."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import traced  # noqa: E402
import workloads  # noqa: E402

from reqflow.cli import main  # noqa: E402


def test_traced_pass_writes_the_files_reconstruct_writes(tmp_path, capsys):
    # 12 requests, as bench/selftest.py shrinks the workloads
    workload = dataclasses.replace(workloads.WORKLOADS["chain-reuse"], requests=12)
    inputs, _truth = workloads.generate(workload, 1, tmp_path / "capture")
    cli_out, traced_out = tmp_path / "cli", tmp_path / "traced"
    assert main(["reconstruct", *map(str, inputs), *workload.flags(cli_out)]) == 0
    capsys.readouterr()
    metrics = traced.traced_pass(workload, inputs, traced_out, traced.Tracer(), 0)

    names = sorted(path.name for path in cli_out.iterdir())
    assert len([name for name in names if name.startswith("trace_")]) == 12
    assert names == sorted(path.name for path in traced_out.iterdir())
    for name in names:
        assert (traced_out / name).read_bytes() == (cli_out / name).read_bytes(), name
    for pool in ("engine.states", "engine.threads", "engine.sockets"):
        assert metrics[pool] > 0, pool
