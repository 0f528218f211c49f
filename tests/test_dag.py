from __future__ import annotations

import gc
import json
import random
import statistics

import pytest

from reqflow.dag import (
    CAUSE_FORK,
    CAUSE_TCP,
    DagValidationError,
    RequestDag,
    build_all_dags,
    build_trace,
    export_json,
    render_gantt,
    render_summary,
    summarize,
    validate_dag,
)
from reqflow.engine import EXTERNAL_THREAD, ReplayEngine, State, Tcp4Tuple
from reqflow.records import Endpoint


def _conn(sport: int, dport: int) -> Tcp4Tuple:
    return Tcp4Tuple(Endpoint("10.0.0.1", sport), Endpoint("10.0.0.2", dport))


def _net(owner, source_thread, trace, start, end, sport=50_000, dport=80, parents=()):
    return State(
        kind="network", source_thread=source_thread, trace_id=trace, owner_pid=owner,
        start_ns=start, conn=_conn(sport, dport), end_ns=end, parents=parents,
    )


def _fork(owner, parent, trace, start, end, parents=()):
    return State(
        kind="fork", source_thread=parent, trace_id=trace, owner_pid=owner,
        start_ns=start, end_ns=end, parents=parents,
    )


def _thread(pid, comm, *states) -> list:
    """The ended states of one thread, named as the engine names them."""
    for state in states:
        assert state.owner_pid == pid
        state.comm = comm
    return list(states)


def _by_trace(minted, threads) -> dict[int, list[State]]:
    """The threads' ended states grouped per trace, as the engine keeps them."""
    grouped = {trace_id: [] for trace_id in minted}
    for states in threads:
        for state in states:
            grouped[state.trace_id].append(state)
    return grouped


def test_two_hop_chain_builds_expected_edges():
    root = _net(1, EXTERNAL_THREAD, 1, 100, 400)
    child = _net(2, 1, 1, 150, 300, sport=41_000, dport=9_000, parents=(root,))
    ended = _by_trace([1], [_thread(1, "gw", root), _thread(2, "svc", child)])
    dag = build_trace(1, ended[1])
    validate_dag(dag)
    assert len(dag.nodes) == 2
    assert dag.nodes[0]["state_id"] == dag.root_id
    assert [edge["cause"] for edge in dag.edges] == [CAUSE_TCP]
    assert dag.counters == {"orphan_states": 0, "multi_parent_nodes": 0}


def test_state_without_recorded_parent_fails():
    root = _net(1, EXTERNAL_THREAD, 1, 100, 200)
    late = _net(2, 1, 1, 250, 300, sport=41_000, dport=9_000)  # no parents
    late_child = _fork(3, 2, 1, 260, 290, parents=(late,))
    ended = _by_trace(
        [1],
        [_thread(1, "gw", root), _thread(2, "svc", late), _thread(3, "w", late_child)],
    )
    with pytest.raises(DagValidationError, match="two states without a parent"):
        build_trace(1, ended[1])


def test_parent_outside_the_trace_fails():
    root = _net(1, EXTERNAL_THREAD, 1, 100, 400)
    elsewhere = _net(9, EXTERNAL_THREAD, 2, 100, 400, sport=50_009)
    child = _net(2, 1, 1, 150, 300, sport=41_000, dport=9_000, parents=(root, elsewhere))
    ended = _by_trace([1], [_thread(1, "gw", root), _thread(2, "svc", child)])
    with pytest.raises(DagValidationError, match="lacks a parent"):
        build_trace(1, ended[1])


def test_arrival_from_pid_0_is_the_root_and_its_descendants_are_nodes():
    # pid 0 is the idle task: a span it sends carries source_thread 0 too,
    # yet has a parent, so only the parentless arrival is the root
    root = _net(5, EXTERNAL_THREAD, 1, 100, 400)
    idle = _net(0, 5, 1, 100, 400, sport=41_000, dport=9_000, parents=(root,))
    leaf = _net(1, 0, 1, 100, 400, sport=42_000, dport=7_000, parents=(idle,))
    ended = _by_trace(
        [1], [_thread(5, "gw", root), _thread(0, "swapper", idle), _thread(1, "db", leaf)]
    )
    dag = build_trace(1, ended[1])
    validate_dag(dag)
    assert dag.node_by_id()[dag.root_id]["owner_pid"] == 5
    assert sorted(node["owner_pid"] for node in dag.nodes) == [0, 1, 5]
    assert len(dag.edges) == 2 and not dag.orphans


def test_fork_edge_carries_fork_cause():
    root = _net(1, EXTERNAL_THREAD, 1, 100, 400)
    worker = _fork(42, 1, 1, 150, 350, parents=(root,))
    ended = _by_trace([1], [_thread(1, "gw", root), _thread(42, "worker", worker)])
    dag = build_trace(1, ended[1])
    validate_dag(dag)
    assert [edge["cause"] for edge in dag.edges] == [CAUSE_FORK]
    fork_node = next(node for node in dag.nodes if node["kind"] == "fork")
    assert fork_node["identity"] == {"parent_thread": 1, "trace_id": 1}


def test_node_with_two_recorded_parents_gets_both_edges():
    # thread 2 holds a fork span and a network span of the same trace; a
    # downstream request it caused records both as parents
    root = _net(1, EXTERNAL_THREAD, 1, 100, 500)
    forked = _fork(2, 1, 1, 150, 450, parents=(root,))
    received = _net(2, 1, 1, 160, 440, sport=41_000, dport=9_000, parents=(root,))
    downstream = _net(
        3, 2, 1, 200, 300, sport=42_000, dport=9_100, parents=(forked, received)
    )
    ended = _by_trace(
        [1],
        [
            _thread(1, "gw", root),
            _thread(2, "mid", forked, received),
            _thread(3, "leaf", downstream),
        ],
    )
    dag = build_trace(1, ended[1])
    validate_dag(dag)
    leaf_id = next(n["state_id"] for n in dag.nodes if n["owner_pid"] == 3)
    incoming = [edge for edge in dag.edges if edge["child"] == leaf_id]
    assert len(incoming) == 2
    assert dag.counters["multi_parent_nodes"] == 1


def test_trace_without_arrival_state_fails():
    lonely = _net(2, 1, 5, 100, 200)
    ended = _by_trace([5], [_thread(2, "svc", lonely)])
    with pytest.raises(DagValidationError, match="no arrival state"):
        build_trace(5, ended[5])


def test_build_all_dags_yields_in_mint_order(demo_run):
    _streams, truth, engine, _dags = demo_run
    arrivals = [[_net(1, EXTERNAL_THREAD, trace, 100, 400)] for trace in (3, 1, 2)]
    ended = _by_trace([1, 2, 3], arrivals)
    holder = ReplayEngine([Endpoint("10.0.0.9", 80)])
    holder.states_by_trace = ended
    assert [dag.trace_id for dag in build_all_dags(holder)] == [1, 2, 3]
    assert [trace.trace_id for trace in truth.traces] == list(range(1, engine.minted_traces + 1))


def test_export_is_canonical_and_input_order_free():
    root = _net(1, EXTERNAL_THREAD, 1, 100, 400)
    states = [
        root,
        _net(2, 1, 1, 150, 300, sport=41_000, dport=9_000, parents=(root,)),
        _fork(42, 1, 1, 160, 380, parents=(root,)),
    ]
    threads = [_thread(1, "gw", states[0]), _thread(2, "svc", states[1]),
               _thread(42, "worker", states[2])]
    exports = set()
    rng = random.Random(5)
    for _ in range(6):
        shuffled = threads[:]
        rng.shuffle(shuffled)
        ended = _by_trace([1], shuffled)
        exports.add(export_json(build_trace(1, ended[1])))
    assert len(exports) == 1
    text = exports.pop()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema_version"] == "1"
    assert list(doc) == sorted(doc)


def test_export_leaves_no_garbage_for_the_collector(demo_run):
    # json.dumps with an indent leaves its encoder's closures in reference
    # cycles on every call, dozens of objects per trace.
    dag = demo_run[3][0]
    gc.collect()
    gc.disable()
    try:
        export_json(dag)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_doc_round_trip_preserves_everything():
    root = _net(1, EXTERNAL_THREAD, 1, 100, 400)
    root.tallies.update({"page_fault_user": 3})
    worker = _fork(42, 1, 1, 150, 350, parents=(root,))
    worker.flags.add("open_at_end")
    ended = _by_trace([1], [_thread(1, "gw", root), _thread(42, "w", worker)])
    dag = build_trace(1, ended[1])
    clone = RequestDag.from_doc(json.loads(export_json(dag)))
    assert export_json(clone) == export_json(dag)
    assert clone.node_by_id().keys() == dag.node_by_id().keys()


def test_identical_states_still_get_distinct_ids():
    root = _net(1, EXTERNAL_THREAD, 1, 100, 400, sport=50_001)
    twin_a = _net(2, 1, 1, 150, 300, parents=(root,))
    twin_b = _net(2, 1, 1, 150, 300, parents=(root,))
    ended = _by_trace([1], [_thread(1, "gw", root), _thread(2, "svc", twin_a, twin_b)])
    dag = build_trace(1, ended[1])
    ids = [node["state_id"] for node in dag.nodes]
    assert len(ids) == len(set(ids)) == 3


def _node(state_id, owner_pid, comm, start_ns, end_ns, trace_id=1, event_tallies=()):
    """A network node document as build_trace writes one."""
    return {
        "state_id": state_id, "kind": "network", "owner_pid": owner_pid, "comm": comm,
        "start_ns": start_ns, "end_ns": end_ns, "flags": [],
        "identity": {"trace_id": trace_id}, "event_tallies": dict(event_tallies),
    }


def _edge(parent, child) -> dict:
    return {"parent": parent, "child": child, "cause": CAUSE_TCP}


def _tiny_dag() -> RequestDag:
    nodes = [_node("n:1:aaa", 1, "gw", 100, 400), _node("n:2:bbb", 2, "svc", 150, 300)]
    return RequestDag(
        trace_id=1, root_id="n:1:aaa", nodes=nodes,
        edges=[_edge("n:1:aaa", "n:2:bbb")],
    )


def test_validate_rejects_edge_to_unknown_node():
    dag = _tiny_dag()
    dag.edges.append(_edge("n:1:aaa", "ghost"))
    with pytest.raises(DagValidationError, match="unknown node"):
        validate_dag(dag)


def test_validate_rejects_child_starting_before_parent():
    dag = _tiny_dag()
    dag.nodes[1]["start_ns"] = 50
    with pytest.raises(DagValidationError, match="starts before"):
        validate_dag(dag)


def test_validate_rejects_unreachable_and_cycles():
    dag = _tiny_dag()
    dag.edges.clear()
    with pytest.raises(DagValidationError, match="no incoming edge"):
        validate_dag(dag)
    cyclic = _tiny_dag()
    # equal start times so the cycle is the only defect
    cyclic.nodes.append(_node("n:3:ccc", 3, "x", 150, 250))
    cyclic.edges.append(_edge("n:2:bbb", "n:3:ccc"))
    cyclic.edges.append(_edge("n:3:ccc", "n:2:bbb"))
    with pytest.raises(DagValidationError, match="cycle"):
        validate_dag(cyclic)


def test_gantt_rows_have_fixed_width_bars():
    # a document from elsewhere may list orphans; render_gantt draws them
    dag = RequestDag(
        trace_id=1, root_id="n:1:aaa",
        nodes=[_node("n:1:aaa", 1, "gw", 1_000, 2_000), _node("n:2:bbb", 2, "svc", 1_250, 1_500)],
        edges=[_edge("n:1:aaa", "n:2:bbb")],
        orphans=[_node("n:3:ccc", 3, "x", 2_500, 3_000)],
    )
    text = render_gantt(dag, width=60)
    lines = text.splitlines()
    assert lines[0].startswith("trace 1  window 1000..3000 ns")
    bar_lines = [line for line in lines if "|" in line]
    for line in bar_lines:
        inner = line.split("|")[1]
        assert len(inner) == 60
        assert set(inner) <= {"#", "."}
        assert "#" in inner
    assert "orphans:" in lines
    # the root bar must start at the left edge; the orphan must not
    root_bar = bar_lines[0].split("|")[1]
    assert root_bar[0] == "#"
    orphan_bar = bar_lines[-1].split("|")[1]
    assert orphan_bar[0] == "."


def test_gantt_rejects_narrow_width():
    dag = _tiny_dag()
    with pytest.raises(ValueError, match="width"):
        render_gantt(dag, width=39)


def test_gantt_indents_children_and_renders_multi_parent_once():
    root = _net(1, EXTERNAL_THREAD, 1, 100, 500)
    forked = _fork(2, 1, 1, 150, 450, parents=(root,))
    received = _net(2, 1, 1, 160, 440, sport=41_000, dport=9_000, parents=(root,))
    downstream = _net(
        3, 2, 1, 200, 300, sport=42_000, dport=9_100, parents=(forked, received)
    )
    ended = _by_trace(
        [1],
        [
            _thread(1, "gw", root),
            _thread(2, "mid", forked, received),
            _thread(3, "leaf", downstream),
        ],
    )
    dag = build_trace(1, ended[1])
    text = render_gantt(dag, width=40)
    assert text.count("pid=3") == 1  # two parents, drawn once
    rows = [line for line in text.splitlines() if "pid=" in line]
    assert rows[0].startswith("|")
    assert all(row.startswith("  ") for row in rows[1:])


def test_summary_math_matches_hand_computation():
    def dag_with_span(trace_id, start, end, tally):
        node = _node(f"n:{trace_id}:x", 1, "gw", start, end, trace_id, tally)
        return RequestDag(trace_id=trace_id, root_id=node["state_id"], nodes=[node], edges=[])

    dags = [
        dag_with_span(1, 0, 100, {"page_fault_user": 2}),
        dag_with_span(2, 0, 250, {"page_fault_user": 5}),
        dag_with_span(3, 10, 40, {}),
    ]
    rows = summarize(dags)
    spans = [row["span_ns"] for row in rows]
    assert spans == [100, 250, 30]
    assert statistics.median(spans) == 100
    lines = render_summary(rows).splitlines()
    assert lines == [
        "trace  span_ns  nodes  page_fault_user",
        "1      100      1      2",
        "2      250      1      5",
        "3      30       1      0",
        "",
        "traces=3 span_ns min=30 median=100 max=250",
        "event totals: page_fault_user=7",
    ]


def test_summary_median_of_an_even_count_is_the_mean_of_the_middle_two():
    dags = [
        RequestDag(trace_id=t, root_id=f"n:{t}:x", edges=[],
                   nodes=[_node(f"n:{t}:x", 1, "gw", 0, span, t, {})])
        for t, span in enumerate((100, 180, 30, 45), 1)
    ]
    rows = summarize(dags)
    assert statistics.median(row["span_ns"] for row in rows) == 72.5
    assert "traces=4 span_ns min=30 median=72.5 max=180" in render_summary(rows)
    # a whole mean still prints as the float statistics.median gives
    assert "traces=2 span_ns min=100 median=140.0 max=180" in render_summary(rows[:2])


def test_summary_of_no_dags_reads_traces_0():
    assert summarize([]) == []
    assert render_summary([]) == "traces 0\n"
