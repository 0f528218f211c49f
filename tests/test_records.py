from __future__ import annotations

import re
from pathlib import Path

import pytest

from reqflow.dag import RequestDag
from reqflow.engine import State, Thread
from reqflow.ingest import ParseStats
from reqflow.records import (
    EXIT_EVENT,
    FORK_EVENT,
    NAME_RE,
    RECEIVE_SYSCALLS,
    SEND_SYSCALLS,
    STRUCTURAL_EVENTS,
    SYSCALL_EVENTS,
    TCP_RCV_EVENT,
    TCP_SEND_PROBES,
    Endpoint,
    TraceRecord,
)


def test_structural_event_enumeration():
    # 8 syscalls x enter/exit, 2 send probes, 1 receive probe, fork, exit
    expected = set()
    for syscall in ("sendto", "sendmsg", "write", "writev",
                    "recvfrom", "recvmsg", "read", "readv"):
        expected.add(f"sys_enter_{syscall}")
        expected.add(f"sys_exit_{syscall}")
    expected |= {"tcp_send_sock_sendmsg", "tcp_send_sys_sendmsg"}
    expected |= {"tcp_rcv_space_adjust", "sched_process_fork", "sched_process_exit"}
    assert STRUCTURAL_EVENTS == expected
    assert len(STRUCTURAL_EVENTS) == 21
    assert len(SYSCALL_EVENTS) == 16
    assert SEND_SYSCALLS.isdisjoint(RECEIVE_SYSCALLS)
    assert TCP_RCV_EVENT in STRUCTURAL_EVENTS
    assert TCP_SEND_PROBES < STRUCTURAL_EVENTS
    assert FORK_EVENT in STRUCTURAL_EVENTS
    assert EXIT_EVENT in STRUCTURAL_EVENTS


def test_trace_record_defaults():
    record = TraceRecord(timestamp_ns=5, cpu=0, pid=42, comm="svc", event="x")
    assert record.args == {}
    # each record gets its own dict
    record.args["k"] = "v"
    assert TraceRecord(5, 0, 42, "svc", "x").args == {}


def test_trace_records_compare_by_value_and_stay_mutable():
    first, second = TraceRecord(5, 0, 42, "svc", "x", {"k": "v"}), TraceRecord(5, 0, 42, "svc", "x")
    assert first != second
    # keyword and positional construction agree, and every field is mutable
    second.args = {"k": "v"}
    assert first == second == TraceRecord(timestamp_ns=5, cpu=0, pid=42, comm="svc",
                                          event="x", args={"k": "v"})
    second.comm = "other"
    assert first != second
    assert first != (5, 0, 42, "svc", "x", {"k": "v"})


def test_parse_stats_and_dags_share_no_mutable_default():
    first, second = ParseStats(), ParseStats()
    first.errors.append("bad line")
    assert (second.parsed, second.skipped, second.malformed, second.errors) == (0, 0, 0, [])
    one, two = (RequestDag(trace_id=1, root_id="n", nodes=[], edges=[]) for _ in range(2))
    one.orphans.append({})
    one.counters["orphan_states"] = 1
    assert (two.orphans, two.counters) == ([], {})


# reconstruct makes one TraceRecord per line and one State per span: a
# __dict__ on each would cost memory and time
@pytest.mark.parametrize("instance", [
    TraceRecord(5, 0, 42, "svc", "x"), ParseStats(), State("fork", 1, 1, 2, 5), Thread(2),
    RequestDag(trace_id=1, root_id="n", nodes=[], edges=[]),
], ids=lambda instance: type(instance).__name__)
def test_the_classes_reconstruct_uses_hold_no_instance_dict(instance):
    assert not hasattr(instance, "__dict__")


def test_endpoint_is_ordered_and_prints():
    assert Endpoint("10.0.0.1", 80) < Endpoint("10.0.0.2", 1)
    assert str(Endpoint("10.0.0.1", 80)) == "10.0.0.1:80"


CAPTURE = Path(__file__).resolve().parent.parent / "capture"


def test_capture_templates_record_exactly_the_structural_events():
    # capture.bt: the event column of every line it prints is a literal
    # name, never bpftrace's probe builtin, and each tracepoint prints its
    # own name. Comments (its user-event example) print nothing.
    script = re.sub(r"/\*.*?\*/", "", (CAPTURE / "capture.bt").read_text(), flags=re.S)
    printed = {}
    for probe, fmt in re.findall(r'(\S+)\s*\{[^{}]*?printf\("([^"]*)"', script):
        columns = fmt.split("\\t")
        if len(columns) >= 5:
            printed[probe] = columns[4].removesuffix("\\n")
    assert all(NAME_RE.fullmatch(event) for event in printed.values()), printed
    assert set(printed.values()) == STRUCTURAL_EVENTS
    for probe, event in printed.items():
        if probe.startswith("tracepoint:"):
            assert probe.rsplit(":", 1)[1] == event
    # ftrace_capture.sh: the syscalls it brackets and the kprobes it adds.
    shell = (CAPTURE / "ftrace_capture.sh").read_text()
    (syscalls,) = re.findall(r"^for sc in ([^;]*); do", shell, re.M)
    assert set(syscalls.split()) == SEND_SYSCALLS | RECEIVE_SYSCALLS
    assert set(re.findall(r"'p:reqflow/(\w+) ", shell)) == TCP_SEND_PROBES
