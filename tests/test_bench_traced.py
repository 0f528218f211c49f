"""The benchmark's traced pass (bench/traced.py) is the only program that
reconstructs through handle() per record, then finalize() and
build_all_dags(). It must keep writing what `reqflow reconstruct` writes,
and keep reading the pool sizes of the engine finalize() returns. The
benchmark's output check (bench/check.py) must accept what the CLI writes:
a reader that rejected it would read as trace_accuracy 0."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import pytest  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

from reqflow.cli import main  # noqa: E402


# What the engine holds after finalize() on each 12-request capture: one
# state per truth span, one thread per service (fork-fanout's 36 forked
# children have exited) and no socket.
HELD = {
    "chain-reuse": {"engine.states": 72, "engine.threads": 6, "engine.sockets": 0},
    "fork-fanout": {"engine.states": 120, "engine.threads": 6, "engine.sockets": 0},
    "tally-heavy": {"engine.states": 24, "engine.threads": 2, "engine.sockets": 0},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_writes_the_files_reconstruct_writes(tmp_path, capsys, name):
    # 12 requests, as bench/selftest.py shrinks the workloads
    workload = dataclasses.replace(workloads.WORKLOADS[name], requests=12)
    inputs, truth = workloads.generate(workload, 1, tmp_path / "capture")
    cli_out, traced_out = tmp_path / "cli", tmp_path / "traced"
    assert main(["reconstruct", *map(str, inputs), *workload.flags(cli_out)]) == 0
    capsys.readouterr()
    result = check.check_output(cli_out, truth)
    assert (result.traces, result.failed, result.tally_error) == (12, 0, 0)
    metrics = traced.traced_pass(workload, inputs, traced_out, traced.Tracer(), 0)

    names = sorted(path.name for path in cli_out.iterdir())
    assert len(list(cli_out.glob("trace_*.json"))) == 12
    assert names == sorted(path.name for path in traced_out.iterdir())
    for name in names:
        assert (traced_out / name).read_bytes() == (cli_out / name).read_bytes(), name
    pools = {pool: metrics[pool] for pool in ("engine.states", "engine.threads", "engine.sockets")}
    assert pools == HELD[workload.name]
