"""End-to-end acceptance gate.

One test per advertised guarantee, in order. Each prints a single
"criterion NN <name>: PASS" line on success (visible with -s or in captured
output); the pytest -v status line carries the same verdict.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from reqflow.cli import main
from reqflow.ingest import merge_streams
from reqflow.records import STRUCTURAL_EVENTS, TraceRecord
from reqflow.synth import (
    ServiceSpec,
    TopologySpec,
    demo_simulation,
    inject_faults,
    random_topology,
    simulate,
    write_streams,
)
from reqflow.truth import compare

from conftest import reconstruct

GOLDEN = Path(__file__).parent / "golden" / "demo_trace_1.json"


def _line(number: int, name: str) -> None:
    print(f"criterion {number:02d} {name}: PASS")


@pytest.fixture(scope="session")
def random_runs():
    """Seeds 1..100: simulate, reconstruct, diff. Shared by three criteria."""
    results = []
    started = time.monotonic()
    for seed in range(1, 101):
        rng = random.Random(seed * 7919)
        topology = random_topology(seed)
        requests = rng.randint(1, 50)
        cpus = rng.randint(1, 4)
        streams, truth = simulate(topology, requests, cpus, seed=seed)
        engine, dags = reconstruct(streams, topology)
        report = compare([dag.to_doc() for dag in dags], truth)
        reconstructed_tallies: Counter[str] = Counter()
        for dag in dags:
            for node in dag.nodes + dag.orphans:
                reconstructed_tallies.update(node["event_tallies"])
        event_totals: Counter[str] = Counter()
        for trace in truth.traces:
            for span in trace.spans:
                event_totals.update(span.tallies)
        results.append(
            {
                "seed": seed,
                "requests": requests,
                "empty": report.empty,
                "minted": engine.minted_traces,
                "trace_ids": [dag.trace_id for dag in dags],
                "external_arrivals": len(truth.traces),
                "event_totals": dict(event_totals),
                "reconstructed_tallies": dict(reconstructed_tallies),
                "unattributed": dict(engine.unattributed),
            }
        )
    elapsed = time.monotonic() - started
    return results, elapsed


def test_criterion_01_random_topologies_reconstruct_exactly(random_runs):
    results, elapsed = random_runs
    not_clean = [r["seed"] for r in results if not r["empty"]]
    assert not_clean == [], f"seeds with non-empty diffs: {not_clean}"
    assert elapsed < 60.0, f"100-seed sweep took {elapsed:.1f}s"
    _line(1, f"100 random topologies, empty diffs in {elapsed:.1f}s")


def test_criterion_02_demo_fixture_shape_and_golden_bytes():
    streams, truth = demo_simulation()
    from reqflow.synth import demo_topology

    _engine, dags = reconstruct(streams, demo_topology())
    assert len(dags) == 1
    dag = dags[0]
    by_id = {node["state_id"]: node for node in dag.nodes}

    fork_edges = [
        (by_id[edge["parent"]]["owner_pid"], by_id[edge["child"]]["owner_pid"])
        for edge in dag.edges if edge["cause"] == "fork"
    ]
    assert fork_edges == [(2066822, 2066823)]
    tcp_edges = [
        (by_id[edge["parent"]]["owner_pid"], by_id[edge["child"]]["owner_pid"])
        for edge in dag.edges if edge["cause"] == "tcp"
    ]
    assert tcp_edges == [(2066823, 1966384)]
    for node in dag.nodes:
        assert node["event_tallies"], f"node {node['state_id']} has no tallies"
    report = compare([dag.to_doc() for dag in dags], truth)
    assert report.empty

    from reqflow.dag import export_json

    assert export_json(dag) == GOLDEN.read_text(), "export drifted from golden file"
    _line(2, "pinned two-tier fixture edges, tallies, golden bytes")


def test_criterion_03_merge_equals_stable_sort_over_1000_interleavings():
    rng = random.Random(424242)
    for round_number in range(1000):
        cpus = rng.randint(1, 5)
        count = rng.randint(0, 120)
        ts = 0
        streams = [[] for _ in range(cpus)]
        for _ in range(count):
            ts += rng.choice((0, 0, 1, 3, 50))
            cpu = rng.randrange(cpus)
            streams[cpu].append(
                TraceRecord(
                    timestamp_ns=ts, cpu=cpu, pid=rng.randint(1, 500),
                    comm="p", event="e",
                )
            )
        merged = list(merge_streams([iter(s) for s in streams]))
        oracle = sorted(
            (r for s in streams for r in s),
            key=lambda r: (r.timestamp_ns, r.cpu),
        )
        assert merged == oracle, f"interleaving {round_number} diverged"
    _line(3, "merge equals stable-sort oracle across 1000 interleavings")


def test_criterion_04_every_external_arrival_mints_exactly_one_trace(random_runs):
    results, _elapsed = random_runs
    for result in results:
        assert result["minted"] == result["requests"] == result["external_arrivals"], (
            f"seed {result['seed']}: minted {result['minted']}"
        )
        assert result["trace_ids"] == list(range(1, result["requests"] + 1))
    _line(4, "trace ids minted 1:1 with external arrivals, sequential from 1")


def test_criterion_05_user_events_conserved_across_spans(random_runs):
    results, _elapsed = random_runs
    for result in results:
        total = Counter(result["reconstructed_tallies"])
        total.update(result["unattributed"])
        assert dict(total) == result["event_totals"], (
            f"seed {result['seed']}: tallies {dict(total)}"
            f" != emitted {result['event_totals']}"
        )
        assert result["unattributed"] == {}, (
            f"seed {result['seed']}: fault-free run left events unattributed"
        )
    _line(5, "every emitted user event lands in exactly one span tally")


def test_criterion_06_damaged_captures_degrade_gracefully():
    # dropped user events must not disturb structure
    for seed in (3, 17, 42):
        topology = random_topology(seed)
        streams, truth = simulate(topology, 30, 3, seed=seed)
        faulted, manifest = inject_faults(streams, 99, drop_user=0.05)
        _engine, dags = reconstruct(faulted, topology)
        report = compare([dag.to_doc() for dag in dags], truth)
        assert report.structure_empty, (
            f"seed {seed}: structure changed after dropping user events"
        )
        if manifest:
            assert not report.empty  # the dropped events are really missing

    # dropped structural records and truncation must not crash or emit
    # invalid documents; dags still build and validate
    for seed in (5, 23):
        topology = random_topology(seed)
        streams, _truth = simulate(topology, 30, 3, seed=seed)
        faulted, _m1 = inject_faults(streams, 7, drop_structural=0.02)
        last = max(r.timestamp_ns for s in streams for r in s)
        cut = (5_000_000_000 + last) // 2
        faulted, _m2 = inject_faults(faulted, 8, truncate=cut)
        engine, dags = reconstruct(faulted, topology)  # validates every dag
        assert len(dags) == engine.minted_traces
    _line(6, "fault injection degrades tallies or diagnostics, never validity")


def test_criterion_07_reconstruction_is_byte_deterministic(tmp_path):
    capture = tmp_path / "capture"
    assert main(["synth", "--demo", "--requests", "5", "--seed", "31",
                 "--cpus", "3", "--out", str(capture)]) == 0
    logs = sorted(str(p) for p in capture.glob("cpu*.log"))
    trees = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main([
            "reconstruct", *logs, "--gateway", "10.1.0.2:80",
            "--user-event", "page_fault_user",
            "--user-event", "sched_migrate_task",
            "--gantt", "--out", str(out),
        ])
        assert code == 0
        trees.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        })
    assert trees[0].keys() == trees[1].keys()
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], f"{name} differs between runs"
    _line(7, "two reconstruction runs produce byte-identical trees")


def test_criterion_08_million_record_capture_within_budget(tmp_path):
    services = tuple(
        ServiceSpec(
            name=f"svc{i}", ip=f"10.9.0.{i + 1}", port=7100 + i,
            worker_model="reuse",
            calls=(f"svc{i + 1}",) if i < 5 else (),
            service_time_ns=(200, 400),
        )
        for i in range(6)
    )
    topology = TopologySpec(
        services=services, gateway="svc0",
        user_event_rates={}, reuse_connections=True,
    )
    streams, _truth = simulate(topology, 16_000, 4, seed=77)
    total = sum(len(s) for s in streams)
    assert total >= 1_000_000, f"workload only produced {total} records"
    paths = write_streams(streams, tmp_path / "capture", "bpftrace")
    del streams

    command = [
        sys.executable, "-m", "reqflow", "reconstruct",
        *(str(p) for p in paths),
        "--backend", "bpftrace", "--gateway", "10.9.0.1:7100",
        "--out", str(tmp_path / "dags"),
    ]
    started = time.monotonic()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    stdout = process.stdout.read()  # EOF means the child is done, not reaped
    _pid, status, rusage = os.wait4(process.pid, 0)
    elapsed = time.monotonic() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    process.stdout.close()

    assert process.returncode == 0
    assert f"from {total} records" in stdout
    assert "reconstructed 16000 traces" in stdout
    peak_bytes = rusage.ru_maxrss * 1024  # ru_maxrss is KiB on linux
    assert elapsed < 30.0, f"reconstruction took {elapsed:.1f}s"
    assert peak_bytes < 1_000_000_000, f"peak rss {peak_bytes / 2**20:.0f} MiB"
    _line(
        8,
        f"{total} records reconstructed in {elapsed:.1f}s"
        f" at {peak_bytes / 2**20:.0f} MiB peak",
    )
