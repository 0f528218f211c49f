from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from reqflow.ingest import parse_bpftrace_line, parse_ftrace_line
from reqflow.records import ARG_EVENTS, STRUCTURAL_EVENTS
from reqflow.synth import (
    InvalidTopologyError,
    ServiceSpec,
    TopologySpec,
    demo_topology,
    emit_bpftrace_line,
    emit_ftrace_line,
    inject_faults,
    load_topology,
    random_topology,
    simulate,
    write_streams,
)
from reqflow.truth import GroundTruth, compare

from conftest import reconstruct


def _svc(name, port, calls=(), **kwargs) -> ServiceSpec:
    return ServiceSpec(name=name, ip=f"10.5.0.{port % 250}", port=port,
                       calls=tuple(calls), **kwargs)


def _topology(*services, gateway="a", **kwargs) -> TopologySpec:
    return TopologySpec(services=tuple(services), gateway=gateway, **kwargs)


# ----------------------------------------------------------------------
# topology validation

def test_valid_topology_passes():
    _topology(_svc("a", 80, calls=("b",)), _svc("b", 81)).validate()


@pytest.mark.parametrize(
    "topology, message",
    [
        (_topology(gateway="a"), "no services"),
        (_topology(_svc("a", 80), _svc("a", 81)), "duplicate service names"),
        (_topology(_svc("a", 80), gateway="zz"), "not a service"),
        (_topology(_svc("a", 80, calls=("ghost",))), "unknown"),
        (_topology(_svc("a", 80, worker_model="threads")), "worker_model"),
        (_topology(_svc("a", 99999)), "bad port"),
        (_topology(_svc("a", 80, service_time_ns=(50, 10))), "service time"),
        (_topology(_svc("a b", 80), gateway="a b"), "plain token"),
        (
            _topology(_svc("a", 80, pid=7), _svc("b", 81, pid=7)),
            "duplicate pinned pids",
        ),
        (
            _topology(_svc("a", 80), user_event_rates={"sched_process_exit": 1.0}),
            "structural",
        ),
        (
            _topology(_svc("a", 80), user_event_rates={"page_fault_user": -1.0}),
            "negative rate",
        ),
        (
            _topology(_svc("a", 80), user_event_rates={"page_fault_user": float("nan")}),
            "not a number",
        ),
    ],
)
def test_invalid_topologies_are_rejected(topology, message):
    with pytest.raises(InvalidTopologyError, match=message):
        topology.validate()


def test_call_cycle_is_reported_with_the_loop():
    topology = _topology(
        _svc("a", 80, calls=("b",)),
        _svc("b", 81, calls=("c",)),
        _svc("c", 82, calls=("b",)),
    )
    with pytest.raises(InvalidTopologyError, match="b -> c -> b"):
        topology.validate()


def test_topology_doc_round_trip(tmp_path):
    topology = _topology(
        _svc("a", 80, calls=("b", "b"), worker_model="fork_per_request",
             pid=500, child_pids=(501, 502)),
        _svc("b", 81),
        user_event_rates={"page_fault_user": 2.5},
        reuse_connections=True,
    )
    clone = TopologySpec.from_doc(topology.to_doc())
    assert clone == topology
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(topology.to_doc()))
    assert load_topology(path) == topology


def test_load_topology_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidTopologyError):
        load_topology(path)
    path.write_text(json.dumps({"services": "nope"}))
    with pytest.raises(InvalidTopologyError):
        load_topology(path)


def test_demo_topology_pins_the_advertised_pids():
    topology = demo_topology()
    by_name = {svc.name: svc for svc in topology.services}
    assert by_name["nginx"].pid == 2066822
    assert by_name["nginx"].child_pids == (2066823,)
    assert by_name["nginx"].worker_model == "fork_per_request"
    assert by_name["home-timeline-redis"].pid == 1966384


# ----------------------------------------------------------------------
# simulation properties

def test_simulation_is_deterministic_per_seed():
    topology = random_topology(4)
    first, _ = simulate(topology, 5, 3, seed=9)
    second, _ = simulate(topology, 5, 3, seed=9)
    third, _ = simulate(topology, 5, 3, seed=10)
    as_lines = lambda streams: [
        [emit_ftrace_line(r) for r in stream] for stream in streams
    ]
    assert as_lines(first) == as_lines(second)
    assert as_lines(first) != as_lines(third)


def test_simulation_clock_is_strictly_increasing_and_one_cpu_per_stream():
    streams, _ = simulate(random_topology(6), 20, 4, seed=3)
    all_ts = []
    for stream in streams:
        for record in stream:
            assert record.cpu == streams.index(stream)
        all_ts.extend(r.timestamp_ns for r in stream)
    assert len(all_ts) == len(set(all_ts))  # no two records share a timestamp


def test_truth_tallies_add_up_to_emitted_totals():
    for seed in (1, 2, 3):
        streams, truth = simulate(random_topology(seed), 15, 2, seed=seed)
        from_spans: Counter[str] = Counter()
        for trace in truth.traces:
            for span in trace.spans:
                from_spans.update(span.tallies)
        emitted = Counter()
        for stream in streams:
            for record in stream:
                if record.event not in STRUCTURAL_EVENTS:
                    emitted[record.event] += 1
        assert emitted == from_spans


def test_truth_records_fork_edges_and_arrivals():
    streams, truth = simulate(demo_topology(), 3, 2, seed=1)
    assert [trace.trace_id for trace in truth.traces] == [1, 2, 3]
    assert [trace.spans[0].source_thread for trace in truth.traces] == [0] * 3
    fork_edges = [
        (span.source_thread, span.owner_pid)
        for trace in truth.traces for span in trace.spans if span.kind == "fork"
    ]
    # one pinned child pid, later requests fall back to the allocator
    assert fork_edges[0] == (2066822, 2066823)
    assert [parent for parent, _ in fork_edges] == [2066822] * 3
    children = [child for _, child in fork_edges]
    assert len(set(children)) == 3
    fork_records = [
        r for stream in streams for r in stream if r.event == "sched_process_fork"
    ]
    assert len(fork_records) == 3
    assert fork_records[0].args["child_pid"] == "2066823"


def test_fresh_connections_differ_per_request_and_reused_ones_do_not():
    fresh = _topology(_svc("a", 80), reuse_connections=False)
    streams, truth = simulate(fresh, 3, 1, seed=2)
    roots = [trace.spans[0].conn for trace in truth.traces]
    assert len(set(roots)) == 3

    reused = _topology(_svc("a", 80), reuse_connections=True)
    streams, truth = simulate(reused, 3, 1, seed=2)
    roots = [trace.spans[0].conn for trace in truth.traces]
    assert len(set(roots)) == 1


def test_ground_truth_doc_round_trip():
    _streams, truth = simulate(random_topology(8), 4, 2, seed=8)
    clone = GroundTruth.from_doc(json.loads(json.dumps(truth.to_doc())))
    assert clone == truth


def test_truth_file_with_the_derived_totals_of_earlier_versions_still_loads(demo_run):
    _streams, truth, _engine, _dags = demo_run
    doc = truth.to_doc()
    # written before truth.json dropped what its traces already give
    doc.update(external_arrivals=1, fork_edges=[[2066822, 2066823]],
               event_totals={"page_fault_user": 54, "sched_migrate_task": 6})
    assert GroundTruth.from_doc(json.loads(json.dumps(doc))) == truth


def test_demo_truth_doc_matches_golden_bytes(demo_run):
    _streams, truth, _engine, _dags = demo_run
    text = json.dumps(truth.to_doc(), sort_keys=True, indent=2) + "\n"
    assert text == (Path(__file__).parent / "golden" / "demo_truth.json").read_text()


def _chain(length: int, closing_call: tuple[str, ...] = ()) -> TopologySpec:
    services = [
        ServiceSpec(name=f"s{i}", ip=f"10.9.{i // 250}.{i % 250 + 1}", port=7000 + i,
                    calls=(f"s{i + 1}",) if i + 1 < length else closing_call)
        for i in range(length)
    ]
    return _topology(*services, gateway="s0", user_event_rates={"page_fault_user": 0.5})


def test_deep_call_chain_simulates_reconstructs_and_diffs_clean():
    topology = _chain(1500)
    streams, truth = simulate(topology, 2, 2, seed=4)
    assert [len(trace.spans) for trace in truth.traces] == [1500, 1500]
    _engine, dags = reconstruct(streams, topology)
    assert compare([dag.to_doc() for dag in dags], truth).empty


def test_cycle_at_the_end_of_a_deep_chain_is_reported():
    with pytest.raises(InvalidTopologyError, match=r"cycle: s1 -> s2 -> .* -> s1499 -> s1$"):
        _chain(1500, closing_call=("s1",)).validate()


def test_simulate_rejects_bad_arguments():
    topology = _topology(_svc("a", 80))
    with pytest.raises(ValueError, match="cpus"):
        simulate(topology, 1, 0, seed=1)
    with pytest.raises(ValueError, match="request_count"):
        simulate(topology, -1, 1, seed=1)


def test_duplicate_receives_still_reconstruct_cleanly():
    topology = random_topology(9)
    streams, truth = simulate(topology, 8, 2, seed=9, duplicate_receives=True)
    engine, dags = reconstruct(streams, topology)
    report = compare([dag.to_doc() for dag in dags], truth)
    assert report.empty
    assert engine.counters["duplicate_receive"] > 0


# ----------------------------------------------------------------------
# emitters

def test_demo_streams_round_trip_through_both_parsers(demo_run):
    streams, _truth, _engine, _dags = demo_run
    for stream in streams:
        for record in stream:
            for emit, parse in (
                (emit_ftrace_line, parse_ftrace_line),
                (emit_bpftrace_line, parse_bpftrace_line),
            ):
                parsed = parse(emit(record))
                assert parsed.timestamp_ns == record.timestamp_ns
                assert parsed.cpu == record.cpu
                assert parsed.pid == record.pid
                assert parsed.comm == record.comm
                assert parsed.event == record.event
                # sched_process_exit's comm and pid are printed but not read
                assert parsed.args == (record.args if record.event in ARG_EVENTS else {})


def test_write_streams_one_file_per_cpu(tmp_path):
    streams, _ = simulate(random_topology(3), 2, 3, seed=3)
    paths = write_streams(streams, tmp_path, "bpftrace")
    assert [p.name for p in paths] == [
        "cpu0.bpftrace.log", "cpu1.bpftrace.log", "cpu2.bpftrace.log",
    ]
    for path, stream in zip(paths, streams):
        assert len(path.read_text().splitlines()) == len(stream)


# ----------------------------------------------------------------------
# fault injection

def test_drop_user_events_never_touches_structure():
    streams, _ = simulate(random_topology(5), 10, 2, seed=5)
    faulted, manifest = inject_faults(streams, 1, drop_user=0.3)
    assert manifest, "fault rate 0.3 on this workload must drop something"
    assert all(entry["event"] not in STRUCTURAL_EVENTS for entry in manifest)
    assert all(entry["reason"] == "drop_user_events" for entry in manifest)
    for before, after in zip(streams, faulted):
        structural = lambda s: [r for r in s if r.event in STRUCTURAL_EVENTS]
        assert structural(before) == structural(after)
        assert len(before) == len(after) + sum(
            1 for e in manifest if e["stream"] == streams.index(before)
        )


def test_drop_structural_only_drops_structural():
    streams, _ = simulate(random_topology(5), 10, 2, seed=5)
    _faulted, manifest = inject_faults(streams, 2, drop_structural=0.2)
    assert manifest
    assert all(entry["event"] in STRUCTURAL_EVENTS for entry in manifest)


def test_truncate_cuts_exactly_at_the_boundary():
    streams, _ = simulate(random_topology(5), 10, 2, seed=5)
    cut = sorted(r.timestamp_ns for s in streams for r in s)[len(streams[0])]
    faulted, manifest = inject_faults(streams, 0, truncate=cut)
    kept_max = max(r.timestamp_ns for s in faulted for r in s)
    dropped_min = min(entry["timestamp_ns"] for entry in manifest)
    assert kept_max <= cut < dropped_min


def test_fault_injection_is_deterministic():
    streams, _ = simulate(random_topology(5), 10, 2, seed=5)
    first = inject_faults(streams, 4, drop_user=0.5)
    second = inject_faults(streams, 4, drop_user=0.5)
    assert first[1] == second[1]
    assert [len(s) for s in first[0]] == [len(s) for s in second[0]]


def test_combined_faults_list_user_drops_then_truncation():
    streams, _ = simulate(random_topology(5), 10, 2, seed=5)
    cut = sorted(r.timestamp_ns for s in streams for r in s)[len(streams[0])]
    faulted, manifest = inject_faults(streams, 3, drop_user=1.0, truncate=cut)
    user = [(i, seq) for i, s in enumerate(streams) for seq, r in enumerate(s)
            if r.event not in STRUCTURAL_EVENTS]
    late = [(i, seq) for i, s in enumerate(streams) for seq, r in enumerate(s)
            if r.event in STRUCTURAL_EVENTS and r.timestamp_ns > cut]
    assert any(r.timestamp_ns > cut for s in streams for r in s
               if r.event not in STRUCTURAL_EVENTS)
    assert [(e["stream"], e["seq"]) for e in manifest] == user + late
    assert [e["reason"] for e in manifest] == (
        ["drop_user_events"] * len(user) + ["truncate"] * len(late)
    )
    assert faulted == [
        [r for r in s if r.event in STRUCTURAL_EVENTS and r.timestamp_ns <= cut]
        for s in streams
    ]


# ----------------------------------------------------------------------
# diffing against ground truth

def _clean_run():
    topology = demo_topology()
    streams, truth = simulate(topology, 2, 2, seed=21)
    _engine, dags = reconstruct(streams, topology)
    return [dag.to_doc() for dag in dags], truth


def _copy(docs):
    return json.loads(json.dumps(docs))


def test_compare_clean_run_is_empty():
    docs, truth = _clean_run()
    report = compare(docs, truth)
    assert report.empty and report.structure_empty
    assert report.render().strip().endswith("clean")


def test_compare_reports_missing_trace():
    docs, truth = _clean_run()
    report = compare(docs[1:], truth)
    assert report.missing_traces == [1]
    assert not report.structure_empty


def test_compare_reports_extra_trace():
    docs, truth = _clean_run()
    extra = _copy(docs[0])
    extra["trace_id"] = 99
    report = compare(docs + [extra], truth)
    assert report.extra_traces == [99]
    assert not report.structure_empty


def test_compare_reports_missing_and_extra_node_on_identity_change():
    docs, truth = _clean_run()
    docs = _copy(docs)
    victim = docs[0]["nodes"][-1]
    victim["identity"]["source_thread"] = 424242
    report = compare(docs, truth)
    diff = report.trace_diffs[0]
    assert diff.missing_nodes and diff.extra_nodes
    assert "424242" in diff.extra_nodes[0]
    assert not report.structure_empty


def test_compare_reports_end_mismatch():
    docs, truth = _clean_run()
    docs = _copy(docs)
    docs[0]["nodes"][0]["end_ns"] += 1
    report = compare(docs, truth)
    diff = report.trace_diffs[0]
    assert len(diff.end_mismatches) == 1
    assert diff.missing_nodes == [] and diff.extra_nodes == []
    assert not report.structure_empty


def test_compare_reports_tally_mismatch_as_non_structural():
    docs, truth = _clean_run()
    docs = _copy(docs)
    node = docs[0]["nodes"][0]
    node["event_tallies"]["page_fault_user"] = (
        node["event_tallies"].get("page_fault_user", 0) + 3
    )
    report = compare(docs, truth)
    assert report.structure_empty
    assert not report.empty
    assert len(report.trace_diffs[0].tally_mismatches) == 1
    label, event, expected, actual = report.trace_diffs[0].tally_mismatches[0]
    assert event == "page_fault_user"
    assert actual == expected + 3
    assert "structure clean" in report.render()


def test_compare_reports_missing_edge_when_doc_edge_is_removed():
    docs, truth = _clean_run()
    docs = _copy(docs)
    removed = docs[0]["edges"].pop()
    report = compare(docs, truth)
    diff = report.trace_diffs[0]
    assert len(diff.missing_edges) == 1
    assert not report.structure_empty


# ----------------------------------------------------------------------
# random topologies

def test_random_topologies_are_always_valid():
    for seed in range(1, 101):
        topology = random_topology(seed)
        topology.validate()
        assert topology.gateway == "svc0"
        assert 1 <= len(topology.services) <= 10
