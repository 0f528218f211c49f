from __future__ import annotations

import pytest

from reqflow.dag import (
    GANTT_MAX_INDENT,
    RequestDag,
    build_trace,
    export_json,
    render_gantt,
    validate_dag,
)
from reqflow.engine import (
    EXTERNAL_THREAD,
    FLAG_ENDED_BY_EXIT,
    FLAG_OPEN_AT_END,
    ReplayEngine,
    State,
    Tcp4Tuple,
    Thread,
)
from reqflow.ingest import merge_streams
from reqflow.records import TCP_SEND_PROBES, Endpoint, TraceRecord
from reqflow.synth import ServiceSpec, TopologySpec, simulate

from conftest import reconstruct

GW = Endpoint("10.0.0.1", 80)
SVC_B = Endpoint("10.0.0.2", 9000)
CLIENT_1 = Endpoint("198.51.100.5", 50001)
CLIENT_2 = Endpoint("198.51.100.5", 50002)
A_TO_B = Endpoint("10.0.0.1", 41000)
A2_TO_B = Endpoint("10.0.0.1", 41001)


class Script:
    """Hand-built record sequence with an auto-advancing clock."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self.ts = 1_000

    def at(self, pid: int, comm: str, event: str, **args) -> int:
        self.ts += 10
        self.records.append(
            TraceRecord(
                timestamp_ns=self.ts, cpu=0, pid=pid, comm=comm, event=event,
                args={key: str(value) for key, value in args.items()},
            )
        )
        return self.ts

    def recv(self, pid, comm, local, peer, syscall="read"):
        self.at(pid, comm, f"sys_enter_{syscall}")
        ts = self.at(
            pid, comm, "tcp_rcv_space_adjust",
            saddr=local.ip, sport=local.port, daddr=peer.ip, dport=peer.port,
        )
        self.at(pid, comm, f"sys_exit_{syscall}")
        return ts

    def send(self, pid, comm, src, dst, syscall="write", probe="tcp_send_sock_sendmsg"):
        self.at(pid, comm, f"sys_enter_{syscall}")
        ts = self.at(
            pid, comm, probe,
            saddr=src.ip, sport=src.port, daddr=dst.ip, dport=dst.port,
        )
        self.at(pid, comm, f"sys_exit_{syscall}")
        return ts


def run(script: Script, user_events=(), gateways=(GW,)) -> ReplayEngine:
    """The engine after handling every record, not yet finalized."""
    engine = ReplayEngine(gateway_endpoints=gateways, user_events=user_events)
    for record in script.records:
        engine.handle(record)
    return engine


def replayed(script: Script, user_events=()) -> dict[int, RequestDag]:
    """The validated DAG of every trace replay() yields, by trace id; each
    minted trace must be yielded exactly once."""
    engine = ReplayEngine(gateway_endpoints=(GW,), user_events=user_events)
    dags: dict[int, RequestDag] = {}
    for trace_id, states in engine.replay(script.records):
        assert trace_id not in dags
        dags[trace_id] = build_trace(trace_id, states)
        validate_dag(dags[trace_id])
    assert sorted(dags) == list(range(1, engine.minted_traces + 1))
    return dags


def _ended(store, pid: int) -> list:
    """The ended states owned by pid in an engine's per-trace store."""
    return [
        state
        for states in store.states_by_trace.values()
        for state in states
        if state.owner_pid == pid
    ]


def test_engine_requires_a_gateway():
    with pytest.raises(ValueError, match="gateway"):
        ReplayEngine(gateway_endpoints=())


def test_engine_rejects_user_events_shadowing_structural():
    with pytest.raises(ValueError, match="shadow"):
        ReplayEngine((GW,), user_events=("page_fault_user", "tcp_rcv_space_adjust"))
    engine = ReplayEngine((GW,), user_events=("page_fault_user",))
    assert "page_fault_user" in engine.user_events


def test_gateway_arrival_mints_sequential_ids():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.recv(1, "gw", GW, CLIENT_2)
    engine = run(script)
    assert engine.minted_traces == 2
    states = engine.threads[1].active_states
    assert len(states) == 2
    for state in states.values():
        assert state.kind == "network"
        assert state.source_thread == EXTERNAL_THREAD
        assert state.owner_pid == 1


def test_non_gateway_arrival_does_not_mint():
    script = Script()
    script.recv(2, "svc", SVC_B, CLIENT_1)
    engine = run(script)
    assert engine.minted_traces == 0
    assert engine.counters["receive_on_unknown_socket"] == 1
    assert not engine.threads[2].active_states


def test_send_propagates_active_trace_to_receiver():
    script = Script()
    arrive = script.recv(1, "gw", GW, CLIENT_1)
    sent = script.send(1, "gw", A_TO_B, SVC_B)
    got = script.recv(2, "svc", SVC_B, A_TO_B)
    engine = run(script)
    assert engine.minted_traces == 1
    downstream = list(engine.threads[2].active_states.values())
    assert len(downstream) == 1
    state = downstream[0]
    assert state.trace_id == 1
    assert state.source_thread == 1
    assert state.start_ns == got
    assert state.conn.src == A_TO_B
    assert arrive < sent < got


def test_response_send_ends_the_span():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    done = script.send(1, "gw", GW, CLIENT_1)  # back to the requester
    engine = run(script)
    thread = engine.threads[1]
    assert not thread.active_states
    assert len(_ended(engine, 1)) == 1
    state = _ended(engine, 1)[0]
    assert state.end_ns == done
    assert not state.flags
    # nothing is in flight: the socket is forgotten but for its 4-tuple, one
    # int of each side's IP id and port
    assert engine.sockets == {}
    assert engine._ip_ids == {GW.ip: 0, CLIENT_1.ip: 1}
    assert engine.finished_sockets == {(0 << 16 | GW.port) << 48 | 1 << 16 | CLIENT_1.port}


def test_keep_alive_connection_mints_again_after_response():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.send(1, "gw", GW, CLIENT_1)
    script.recv(1, "gw", GW, CLIENT_1)  # same 4-tuple, next request
    engine = run(script)
    assert engine.minted_traces == 2
    assert engine.counters.get("duplicate_receive", 0) == 0


def test_second_receive_of_inflight_external_request_is_duplicate():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.recv(1, "gw", GW, CLIENT_1)  # no response in between
    engine = run(script)
    assert engine.minted_traces == 1
    assert engine.counters["duplicate_receive"] == 1


def test_send_with_two_active_traces_propagates_both():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.recv(1, "gw", GW, CLIENT_2)
    script.send(1, "gw", A_TO_B, SVC_B)
    got = script.recv(2, "svc", SVC_B, A_TO_B)
    engine = run(script)
    states = list(engine.threads[2].active_states.values())
    assert sorted(state.trace_id for state in states) == [1, 2]
    assert all(state.start_ns == got for state in states)


def test_repeated_inflight_receive_downstream_is_duplicate():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.send(1, "gw", A_TO_B, SVC_B)
    script.recv(2, "svc", SVC_B, A_TO_B)
    script.recv(2, "svc", SVC_B, A_TO_B)  # same in-flight request again
    engine = run(script)
    assert len(engine.threads[2].active_states) == 1
    assert engine.counters["duplicate_receive"] == 1


def test_response_matching_two_spans_ends_first_created():
    # one send while two traces are active puts two states with the same
    # requester endpoint on the receiver; its response can only end one
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.recv(1, "gw", GW, CLIENT_2)
    script.send(1, "gw", A_TO_B, SVC_B)
    script.recv(2, "svc", SVC_B, A_TO_B)
    done = script.send(2, "svc", SVC_B, A_TO_B)
    engine = run(script)
    thread = engine.threads[2]
    assert engine.counters["multi_match_response"] == 1
    assert len(_ended(engine, 2)) == 1
    assert _ended(engine, 2)[0].trace_id == 1  # propagation order is sorted
    assert _ended(engine, 2)[0].end_ns == done
    assert [s.trace_id for s in thread.active_states.values()] == [2]


def test_probe_outside_tracked_syscall_is_orphaned():
    script = Script()
    script.at(1, "gw", "tcp_send_sock_sendmsg",
              saddr=GW.ip, sport=GW.port, daddr=CLIENT_1.ip, dport=CLIENT_1.port)
    script.at(1, "gw", "tcp_rcv_space_adjust",
              saddr=GW.ip, sport=GW.port, daddr=CLIENT_1.ip, dport=CLIENT_1.port)
    # enter the wrong syscall class: a receive probe inside a send syscall
    script.at(1, "gw", "sys_enter_write")
    script.at(1, "gw", "tcp_rcv_space_adjust",
              saddr=GW.ip, sport=GW.port, daddr=CLIENT_1.ip, dport=CLIENT_1.port)
    engine = run(script)
    assert engine.counters["orphan_probe"] == 3
    assert engine.minted_traces == 0
    assert not engine.sockets


def test_probe_with_unusable_tuple_args_is_counted():
    script = Script()
    script.at(1, "gw", "sys_enter_read")
    script.at(1, "gw", "tcp_rcv_space_adjust", saddr=GW.ip, sport="http")
    engine = run(script)
    assert engine.counters["bad_tuple_args"] == 1


def test_nested_syscall_enter_is_counted_and_latest_wins():
    script = Script()
    script.at(1, "gw", "sys_enter_write")
    script.at(1, "gw", "sys_enter_read")
    ts = script.at(1, "gw", "tcp_rcv_space_adjust",
                   saddr=GW.ip, sport=GW.port, daddr=CLIENT_1.ip, dport=CLIENT_1.port)
    engine = run(script)
    assert engine.counters["nested_syscall_enter"] == 1
    assert engine.minted_traces == 1  # the receive inside sys_enter_read counted
    assert engine.threads[1].active_states


def test_fork_copies_each_active_trace_onto_child():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.recv(1, "gw", GW, CLIENT_2)
    forked = script.at(1, "gw", "sched_process_fork",
                       child_comm="worker", child_pid=42)
    engine = run(script)
    child = engine.threads[42]
    assert child.comm == "worker"
    states = list(child.active_states.values())
    assert sorted(state.trace_id for state in states) == [1, 2]
    assert all(state.kind == "fork" for state in states)
    assert all(state.start_ns == forked for state in states)
    assert all(state.source_thread == 1 for state in states)


def _ids(states) -> list[int]:
    return [id(state) for state in states]


def test_states_record_the_senders_active_states_of_their_trace():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.recv(1, "gw", GW, CLIENT_2)
    script.send(1, "gw", A_TO_B, SVC_B)
    script.recv(2, "svc", SVC_B, A_TO_B)
    script.send(1, "gw", A2_TO_B, SVC_B)
    script.recv(2, "svc", SVC_B, A2_TO_B)
    script.at(2, "svc", "sched_process_fork", child_comm="w", child_pid=42)
    engine = run(script)
    gw = engine.threads[1].active_by_trace()
    svc = engine.threads[2].active_by_trace()
    child = engine.threads[42].active_by_trace()
    assert list(gw) == list(svc) == list(child) == [1, 2]
    for trace_id in (1, 2):
        (arrival,) = gw[trace_id]
        assert arrival.parents == ()
        assert len(svc[trace_id]) == 2  # one per connection from gw
        for state in svc[trace_id]:
            assert _ids(state.parents) == _ids([arrival])
        (forked,) = child[trace_id]
        assert _ids(forked.parents) == _ids(svc[trace_id])


def test_fork_tied_with_a_later_receive_records_only_earlier_states():
    # The receive carries the fork's timestamp but follows it in the stream,
    # so the second trace-1 state it opens did not exist at the fork.
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.send(1, "gw", A_TO_B, SVC_B)
    script.recv(2, "svc", SVC_B, A_TO_B)
    script.send(1, "gw", A2_TO_B, SVC_B)
    forked = script.at(2, "svc", "sched_process_fork", child_comm="w", child_pid=42)
    script.ts = forked - 20  # recv() puts its probe two ticks on
    tied = script.recv(2, "svc", SVC_B, A2_TO_B)
    assert tied == forked
    engine = run(script)
    assert len(engine.threads[2].active_states) == 2
    (dag,) = replayed(script).values()
    child_id = next(node["state_id"] for node in dag.nodes if node["owner_pid"] == 42)
    assert len([edge for edge in dag.edges if edge["child"] == child_id]) == 1
    assert dag.counters["multi_parent_nodes"] == 0


def test_deep_fork_chain_builds_validates_and_renders():
    depth = 2000
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    for pid in range(1, depth + 1):
        script.at(pid, f"p{pid}", "sched_process_fork",
                  child_comm=f"p{pid + 1}", child_pid=pid + 1)
    (dag,) = replayed(script).values()
    assert len(dag.nodes) == depth + 1
    assert dag.counters == {"orphan_states": 0, "multi_parent_nodes": 0}
    text = render_gantt(dag, width=40)
    rows = text.splitlines()[1:]
    assert len(rows) == depth + 1
    indent = "  " * GANTT_MAX_INDENT
    assert rows[GANTT_MAX_INDENT].startswith(indent + "|")
    assert rows[GANTT_MAX_INDENT + 1].startswith(indent + "|")
    assert f"| depth={GANTT_MAX_INDENT + 1} pid=" in rows[GANTT_MAX_INDENT + 1]
    assert rows[-1].startswith(indent + "|")
    assert f"| depth={depth} pid={depth + 1} comm=p{depth + 1}" in rows[-1]
    # linear in depth: no row is longer than the capped indent, the bar and
    # a label of this chain's size
    assert len(text) < (depth + 2) * (2 * GANTT_MAX_INDENT + 42 + 60)


def test_fork_chain_reaches_grandchild():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.at(1, "gw", "sched_process_fork", child_comm="c", child_pid=42)
    script.at(42, "c", "sched_process_fork", child_comm="gc", child_pid=43)
    engine = run(script)
    grandchild = list(engine.threads[43].active_states.values())
    assert len(grandchild) == 1
    assert grandchild[0].trace_id == 1
    assert grandchild[0].source_thread == 42


def test_fork_without_usable_child_pid_is_counted():
    script = Script()
    script.at(1, "gw", "sched_process_fork", child_comm="x")
    script.at(1, "gw", "sched_process_fork", child_comm="x", child_pid="oops")
    script.at(1, "gw", "sched_process_fork", child_comm="x", child_pid="²")  # isdigit(), not int()
    # more digits than int() converts
    script.at(1, "gw", "sched_process_fork", child_comm="x", child_pid="9" * 5000)
    engine = run(script)
    assert engine.counters["bad_fork_args"] == 4


def test_fork_naming_live_pid_and_repeated_fork_are_counted():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.at(1, "gw", "sched_process_fork", child_comm="c", child_pid=42)
    script.at(1, "gw", "sched_process_fork", child_comm="c", child_pid=42)
    engine = run(script)
    assert engine.counters["fork_existing_pid"] == 1
    assert engine.counters["duplicate_fork"] == 1
    assert len(engine.threads[42].active_states) == 1


def test_exit_ends_states_and_flags_only_network_spans():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.at(1, "gw", "sched_process_fork", child_comm="c", child_pid=42)
    script.send(1, "gw", A_TO_B, SVC_B)
    script.recv(42, "c", SVC_B, A_TO_B)  # network span on the child
    gone = script.at(42, "c", "sched_process_exit")
    engine = run(script)
    # the child owns nothing and sends nothing in flight: only its comm stays
    assert 42 not in engine.threads
    assert engine.exited_comms == {42: "c"}
    by_kind = {state.kind: state for state in _ended(engine, 42)}
    assert by_kind["fork"].end_ns == gone
    assert by_kind["fork"].flags == set()
    assert by_kind["network"].end_ns == gone
    assert by_kind["network"].flags == {FLAG_ENDED_BY_EXIT}


def test_exit_of_unknown_pid_is_counted():
    script = Script()
    script.at(7, "x", "sched_process_exit")
    engine = run(script)
    assert engine.counters["exit_unknown_pid"] == 1
    assert 7 not in engine.threads


def test_exited_thread_takes_late_records_but_no_second_exit():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.at(1, "gw", "sched_process_fork", child_comm="c", child_pid=42)
    script.at(42, "c", "sched_process_exit")
    script.at(42, "c", "sched_process_exit")
    script.at(42, "c", "page_fault_user")
    engine = run(script, user_events=("page_fault_user",))
    assert engine.counters["exit_unknown_pid"] == 1
    assert engine.unattributed == {"page_fault_user": 1}
    # the late record rebuilt the thread, which holds nothing after it
    assert 42 not in engine.threads
    assert engine.exited_comms == {42: "c"}
    (fork,) = _ended(engine, 42)
    assert not fork.tallies


def test_pid_reuse_after_exit_spawns_fresh_thread():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.at(1, "gw", "sched_process_fork", child_comm="c", child_pid=42)
    script.at(42, "c", "sched_process_exit")
    script.at(1, "gw", "sched_process_fork", child_comm="c2", child_pid=42)
    engine = run(script)
    assert engine.threads[42].comm == "c2"
    assert not engine.threads[42].exited
    # the first generation's state survives reuse next to the second's
    (dag,) = replayed(script).values()
    first, second = [node for node in dag.nodes if node["owner_pid"] == 42]
    assert [first["comm"], second["comm"]] == ["c", "c2"]
    assert first["end_ns"] < second["start_ns"]


def test_late_record_rebuilds_a_forgotten_thread_as_it_was():
    script = Script()
    script.at(1, "gw", "sched_process_fork", child_comm="c", child_pid=42)
    script.at(42, "c", "sched_process_exit")
    engine = run(script)
    assert 42 not in engine.threads
    assert engine.exited_comms == {42: "c"}
    # a late record that carries no comm
    engine.handle(TraceRecord(timestamp_ns=script.ts + 10, cpu=0, pid=42, comm="",
                              event="sys_enter_read"))
    late = engine.threads[42]
    assert (late.exited, late.comm, late.in_syscall) == (True, "c", "read")
    assert engine.exited_comms == {}


def test_states_and_threads_share_no_mutable_default():
    first, second = (State("network", 1, 7, 2, 100, Tcp4Tuple(A_TO_B, SVC_B)) for _ in range(2))
    first.flags.add(FLAG_OPEN_AT_END)
    first.tallies["page_fault_user"] += 1
    assert (second.flags, second.tallies) == (set(), {})
    one, two = Thread(1), Thread(2)
    one.active_states[first.key] = first
    assert two.active_states == {}
    assert (two.comm, two.in_syscall, two.exited, two.in_flight) == ("", None, False, 0)


def test_state_key_is_the_same_for_equal_constructor_arguments():
    def network(conn):
        return State(kind="network", source_thread=1, trace_id=7, owner_pid=2,
                     start_ns=100, conn=conn)

    key = ("network", 1, (A_TO_B, SVC_B), 7)
    assert network(Tcp4Tuple(A_TO_B, SVC_B)).key == network(Tcp4Tuple(A_TO_B, SVC_B)).key == key
    # the socket is direction-free
    assert network(Tcp4Tuple(SVC_B, A_TO_B)).key == key
    fork = State(kind="fork", source_thread=1, trace_id=7, owner_pid=2, start_ns=100)
    assert fork.key == State("fork", 1, 7, 2, 100).key == ("fork", 1, None, 7)


def test_fork_reusing_a_forgotten_pid_clears_its_record():
    script = Script()
    script.at(1, "gw", "sched_process_fork", child_comm="c", child_pid=42)
    script.at(42, "c", "sched_process_exit")
    script.at(1, "gw", "sched_process_fork", child_comm="c2", child_pid=42)
    engine = run(script)
    assert not engine.threads[42].exited
    assert engine.exited_comms == {}


def test_exited_sender_stays_while_its_request_is_in_flight():
    script = Script()
    script.at(1, "gw", "sched_process_fork", child_comm="w", child_pid=7)
    script.send(7, "w", A_TO_B, SVC_B)
    script.at(7, "w", "sched_process_exit")
    engine = run(script)
    sender = engine.threads[7]
    assert sender.exited
    assert engine.sockets[(A_TO_B, SVC_B)][0] is sender
    # the service answers: the request is no longer in flight, nor the sender kept
    script.recv(2, "svc", SVC_B, A_TO_B)
    script.send(2, "svc", SVC_B, A_TO_B)
    for record in script.records[-6:]:
        engine.handle(record)
    assert 7 not in engine.threads
    assert engine.exited_comms == {7: "w"}


def test_engine_holds_the_live_threads_and_a_compact_record_of_what_ended():
    # A forking gateway and a fresh connection per call: every request ends
    # a child and two exchanges, and the engine keeps none of them.
    topology = TopologySpec(
        services=(
            ServiceSpec(name="gw", ip="10.5.0.1", port=80, worker_model="fork_per_request",
                        calls=("auth", "db")),
            ServiceSpec(name="auth", ip="10.5.0.2", port=7001, worker_model="fork_per_request"),
            ServiceSpec(name="db", ip="10.5.0.3", port=5432),
        ),
        gateway="gw", reuse_connections=False,
    )
    for requests in (25, 100):
        streams, _truth = simulate(topology, requests, 2, seed=3)
        engine, dags = reconstruct(streams, topology)
        assert len(dags) == requests
        records = [record for stream in streams for record in stream]
        exited = {record.pid for record in records if record.event == "sched_process_exit"}
        finished = set()
        for record in records:
            if record.event in TCP_SEND_PROBES:
                src = Endpoint(record.args["saddr"], int(record.args["sport"]))
                dst = Endpoint(record.args["daddr"], int(record.args["dport"]))
                finished.add(engine._compact(tuple(sorted((src, dst)))))
        assert len(exited) == 2 * requests
        assert sorted(engine.threads) == sorted({record.pid for record in records} - exited)
        assert len(engine.threads) == 3
        assert engine.sockets == {}
        assert set(engine.exited_comms) == exited
        assert engine.finished_sockets == finished
        assert len(engine._ip_ids) == 4  # three services and the client


def test_trace_minted_on_a_retired_pid_is_handed_out_when_a_fork_reuses_it():
    # Late records let retired pid 7 receive, and so mint trace 2, after its
    # exit; the fork that reuses pid 7 must end that state so the trace
    # completes and replay() hands it out.
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.at(1, "gw", "sched_process_fork", child_comm="w", child_pid=7)
    script.at(7, "w", "sched_process_exit")
    script.recv(7, "w", GW, CLIENT_2)
    reused = script.at(1, "gw", "sched_process_fork", child_comm="w2", child_pid=7)
    script.send(1, "gw", GW, CLIENT_1)
    dags = replayed(script)
    assert sorted(dags) == [1, 2]
    (late,) = dags[2].nodes
    assert (late["owner_pid"], late["comm"]) == (7, "w")
    assert late["end_ns"] == reused
    assert late["flags"] == [FLAG_ENDED_BY_EXIT]


def test_user_events_tally_into_every_active_span():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.recv(1, "gw", GW, CLIENT_2)
    script.at(1, "gw", "page_fault_user")
    script.at(1, "gw", "page_fault_user")
    script.at(2, "idle", "page_fault_user")  # no active span anywhere
    engine = run(script, user_events=("page_fault_user",))
    for state in engine.threads[1].active_states.values():
        assert state.tallies["page_fault_user"] == 2
    assert engine.unattributed == {"page_fault_user": 1}


def test_unconfigured_events_are_ignored_not_tallied():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.at(1, "gw", "page_fault_user")
    engine = run(script)  # no user events configured
    assert engine.counters["ignored_events"] == 1
    state = next(iter(engine.threads[1].active_states.values()))
    assert not state.tallies


def test_finalize_flags_open_states_and_clamps_end():
    script = Script()
    start = script.recv(1, "gw", GW, CLIENT_1)
    script.ts = start - 500  # the response carries an older timestamp
    script.send(1, "gw", GW, CLIENT_1)
    script.recv(1, "gw", GW, CLIENT_2)
    engine = run(script).finalize()
    answered, still_open = _ended(engine, 1)
    assert answered.end_ns == start  # never before its own start
    assert not answered.flags
    assert still_open.flags == {FLAG_OPEN_AT_END}
    assert still_open.end_ns == engine.last_ns


def test_finalize_defaults_to_last_seen_timestamp():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    last = script.at(9, "other", "sys_enter_read")
    (dag,) = replayed(script).values()
    (node,) = dag.nodes
    assert node["end_ns"] == last
    assert node["flags"] == [FLAG_OPEN_AT_END]


def test_engine_rejects_use_after_finalize():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    engine = run(script)
    engine.finalize()
    with pytest.raises(RuntimeError):
        engine.handle(script.records[0])
    with pytest.raises(RuntimeError):
        engine.finalize()


def test_replay_is_deterministic():
    def build() -> str:
        script = Script()
        script.recv(1, "gw", GW, CLIENT_1)
        script.at(1, "gw", "sched_process_fork", child_comm="c", child_pid=42)
        script.send(42, "c", A_TO_B, SVC_B)
        script.recv(2, "svc", SVC_B, A_TO_B)
        script.at(2, "svc", "page_fault_user")
        script.send(2, "svc", SVC_B, A_TO_B)
        script.recv(42, "c", A_TO_B, SVC_B)
        script.at(42, "c", "sched_process_exit")
        script.send(1, "gw", GW, CLIENT_1)
        dags = replayed(script, user_events=("page_fault_user",))
        return "".join(export_json(dags[trace_id]) for trace_id in sorted(dags))

    assert build() == build()


def test_snapshot_groups_states_by_trace(demo_run):
    streams, truth, replayed_engine, _dags = demo_run
    engine = ReplayEngine(replayed_engine.gateway_endpoints, replayed_engine.user_events)
    for record in merge_streams([iter(stream) for stream in streams]):
        engine.handle(record)
    grouped = engine.finalize().states_by_trace
    assert sorted(grouped) == [t.trace_id for t in truth.traces]
    for trace in truth.traces:
        assert len(grouped[trace.trace_id]) == len(trace.spans)


def test_receive_after_sender_pid_reuse_takes_nothing_from_the_new_thread():
    # pid 7 sends for trace 1 and exits; a fork for trace 2 reuses pid 7
    # before the service's receive fires, which must not see trace 2
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.at(1, "gw", "sched_process_fork", child_comm="w", child_pid=7)
    script.send(7, "w", A_TO_B, SVC_B)
    script.at(7, "w", "sched_process_exit")
    script.recv(1, "gw", GW, CLIENT_2)
    script.at(1, "gw", "sched_process_fork", child_comm="w", child_pid=7)
    script.recv(2, "svc", SVC_B, A_TO_B)
    engine = run(script)
    assert engine.minted_traces == 2
    assert sorted(s.trace_id for s in engine.threads[7].active_states.values()) == [1, 2]
    assert not engine.threads[2].active_states
    assert engine.counters.get("duplicate_receive", 0) == 0


def test_node_keeps_the_comm_its_thread_had_when_the_span_began():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.at(1, "gw", "sched_process_fork", child_comm="worker", child_pid=42)
    script.at(42, "renamed", "sys_enter_read")  # e.g. after an exec
    engine = run(script)
    assert engine.threads[42].comm == "renamed"
    (dag,) = replayed(script).values()
    fork_node = next(node for node in dag.nodes if node["kind"] == "fork")
    assert fork_node["comm"] == "worker"


def test_completed_trace_is_taken_once_and_forgotten():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    script.send(1, "gw", A_TO_B, SVC_B)
    script.recv(2, "svc", SVC_B, A_TO_B)
    script.send(2, "svc", SVC_B, A_TO_B)  # the service responds
    script.recv(1, "gw", GW, CLIENT_2)  # trace 2 arrives, still open
    script.send(1, "gw", GW, CLIENT_1)  # trace 1 responds: complete
    engine = ReplayEngine((GW,))
    handed = []
    for trace_id, states in engine.replay(script.records):
        assert trace_id not in engine.states_by_trace  # forgotten once yielded
        owners = sorted(state.owner_pid for state in states)
        handed.append((trace_id, engine.finalized, owners))
    # trace 1 during replay, trace 2 only once finalize() closes it
    assert handed == [(1, False, [1, 2]), (2, True, [1])]
    assert engine.minted_traces == 2
    assert engine.states_by_trace == {}


class _FourTupleEngine(ReplayEngine):
    """The engine as it kept a finished socket before packing: its 4-tuple."""

    def _compact(self, key):
        (src_ip, src_port), (dst_ip, dst_port) = key
        return src_ip, src_port, dst_ip, dst_port


def _as_with_four_tuples(script: Script) -> ReplayEngine:
    """The engine after replaying script, which must hand out the same traces
    and count the same as one that keeps each finished socket's 4-tuple."""
    outputs, engines = [], []
    for cls in (ReplayEngine, _FourTupleEngine):
        engine = cls(gateway_endpoints=[GW])
        exports = [
            export_json(build_trace(trace_id, states))
            for trace_id, states in engine.replay(script.records)
        ]
        outputs.append((exports, engine.counters, engine.unattributed,
                        engine.minted_traces, len(engine.finished_sockets)))
        engines.append(engine)
    assert outputs[0] == outputs[1]
    return engines[0]


def _call(script: Script, caller: Endpoint, callee: Endpoint) -> None:
    """pid 1 calls pid 2 at callee from caller, and the answer lands twice."""
    script.send(1, "gw", caller, callee)
    script.recv(2, "svc", callee, caller)
    script.send(2, "svc", callee, caller)  # ends the call: the socket is finished
    script.recv(1, "gw", caller, callee)
    script.recv(1, "gw", caller, callee)


def test_a_port_outside_16_bits_keeps_its_4_tuple_and_counts_as_before():
    client, caller = Endpoint(CLIENT_1.ip, 70000), Endpoint(A_TO_B.ip, -1)
    script = Script()
    script.recv(1, "gw", GW, client)
    _call(script, caller, SVC_B)
    # 70000 packed into 16 bits would spill into the IP id: 4464 is 70000 - 2**16
    _call(script, A_TO_B, Endpoint(SVC_B.ip, 4464))
    script.recv(1, "gw", A_TO_B, Endpoint(SVC_B.ip, 70000))  # never seen
    script.send(1, "gw", GW, client)
    engine = _as_with_four_tuples(script)
    assert engine.counters["receive_on_unknown_socket"] == 1
    packed = {key for key in engine.finished_sockets if type(key) is int}
    assert engine.finished_sockets - packed == {(caller, SVC_B), (GW, client)}
    assert packed == {engine._compact((A_TO_B, Endpoint(SVC_B.ip, 4464)))}


def test_exchanges_across_many_ips_count_as_with_4_tuples():
    script = Script()
    callees = [Endpoint(f"10.1.{i // 200}.{i % 200}", 9000) for i in range(300)]
    for i, callee in enumerate(callees):
        client = Endpoint(f"198.51.{i // 200}.{i % 200}", 40000 + i)
        script.recv(1, "gw", GW, client)
        _call(script, Endpoint(GW.ip, 41000 + i), callee)
        script.send(1, "gw", GW, client)
    # each caller port once more, to a callee it never called
    for i in range(300):
        script.recv(1, "gw", Endpoint(GW.ip, 41000 + i), callees[(i + 1) % 300])
    engine = _as_with_four_tuples(script)
    assert engine.minted_traces == 300
    assert engine.counters["receive_on_unknown_socket"] == 300
    assert len(engine.finished_sockets) == 600
    assert all(type(key) is int for key in engine.finished_sockets)
    assert len(engine._ip_ids) == 601  # the gateway's, the clients' and the callees'


def test_a_receive_on_a_4_tuple_never_seen_is_an_unknown_socket():
    script = Script()
    script.recv(1, "gw", GW, CLIENT_1)
    _call(script, A_TO_B, SVC_B)
    script.recv(1, "gw", A2_TO_B, SVC_B)  # the caller's other port
    script.recv(1, "gw", A_TO_B, Endpoint(SVC_B.ip, 9001))  # the callee's other port
    script.recv(2, "svc", SVC_B, A_TO_B)  # the finished call, from the callee's side
    script.send(1, "gw", GW, CLIENT_1)
    engine = _as_with_four_tuples(script)
    assert engine.counters["receive_on_unknown_socket"] == 2
    assert engine.counters["orphan_probe"] == 0


def test_keys_with_swapped_ips_or_ports_pack_to_different_ints():
    engine = ReplayEngine(gateway_endpoints=[GW])
    a, b = "10.0.0.1", "10.0.0.2"
    keys = [
        (Endpoint(a, 1), Endpoint(b, 2)), (Endpoint(b, 1), Endpoint(a, 2)),
        (Endpoint(a, 2), Endpoint(b, 1)), (Endpoint(b, 2), Endpoint(a, 1)),
        (Endpoint(a, 1), Endpoint(a, 2)), (Endpoint(a, 2), Endpoint(a, 1)),
        (Endpoint(a, 0), Endpoint(b, 0xFFFF)), (Endpoint(a, 0xFFFF), Endpoint(b, 0)),
    ]
    packed = [engine._compact(key) for key in keys]
    assert all(type(value) is int for value in packed)
    assert len(set(packed)) == len(keys)
    assert [engine._compact(key) for key in keys] == packed  # the same ids again
    for port in (-1, 0x10000):
        key = (Endpoint(a, port), Endpoint(b, 1))
        assert engine._compact(key) == key
        assert engine._compact(key[::-1]) == key[::-1]
