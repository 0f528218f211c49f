from __future__ import annotations

import random
from collections.abc import Mapping

import pytest

from reqflow.engine import ReplayEngine
from reqflow.ingest import (
    BACKENDS,
    MalformedLineError,
    ParseStats,
    UnsortedStreamError,
    filter_records,
    merge_streams,
    parse_bpftrace_line,
    parse_ftrace_line,
    read_stream,
)
from reqflow.records import ARG_EVENTS, STRUCTURAL_EVENTS, Endpoint, TraceRecord
from reqflow.synth import (
    emit_bpftrace_line,
    emit_ftrace_line,
    random_topology,
    simulate,
    write_streams,
)


def _random_record(rng: random.Random, ts: int) -> TraceRecord:
    args = {}
    for index in range(rng.randint(0, 3)):
        args[f"k{index}"] = rng.choice(["10.0.0.1", "80", "hello", "v-1"])
    return TraceRecord(
        timestamp_ns=ts,
        cpu=rng.randrange(4),
        pid=rng.randint(1, 99999),
        comm=rng.choice(["nginx", "redis-server", "svc-2", "a b"]),
        event=rng.choice(
            ["tcp_rcv_space_adjust", "sched_process_fork", "sys_enter_read", "page_fault_user"]
        ),
        args=args,
    )


# ----------------------------------------------------------------------
# line grammar, checked against the emitters as the inverse oracle

def _read_args(record: TraceRecord) -> dict[str, str]:
    """The args a parser gives back for a record: only ARG_EVENTS' are read."""
    return record.args if record.event in ARG_EVENTS else {}


def test_ftrace_round_trip_random_records():
    rng = random.Random(101)
    ts = 1_000_000
    for _ in range(300):
        ts += rng.randint(1, 10_000_000_000)
        record = _random_record(rng, ts)
        if " " in record.comm:
            record.comm = record.comm.replace(" ", "_")
        parsed = parse_ftrace_line(emit_ftrace_line(record))
        assert parsed == record or (
            parsed.timestamp_ns == record.timestamp_ns
            and parsed.cpu == record.cpu
            and parsed.pid == record.pid
            and parsed.comm == record.comm
            and parsed.event == record.event
            and parsed.args == _read_args(record)
        )


def test_bpftrace_round_trip_random_records():
    rng = random.Random(202)
    ts = 77
    for _ in range(300):
        ts += rng.randint(1, 10_000_000_000)
        record = _random_record(rng, ts)
        parsed = parse_bpftrace_line(emit_bpftrace_line(record))
        assert parsed.timestamp_ns == record.timestamp_ns
        assert parsed.cpu == record.cpu
        assert parsed.pid == record.pid
        assert parsed.comm == record.comm
        assert parsed.event == record.event
        assert parsed.args == _read_args(record)


def test_ftrace_comm_with_dashes_resolves_last_dash_number():
    line = (
        "web-server-7-1234 [002] .... 12.000000456: sched_process_fork:"
        " comm=web pid=1234 child_comm=web child_pid=1235"
    )
    record = parse_ftrace_line(line)
    assert record.comm == "web-server-7"
    assert record.pid == 1234
    assert record.cpu == 2
    assert record.timestamp_ns == 12_000_000_456
    assert record.args == {
        "comm": "web", "pid": "1234", "child_comm": "web", "child_pid": "1235",
    }


def test_ftrace_six_digit_fraction_scales_to_nanoseconds():
    record = parse_ftrace_line("x-1 [000] .... 3.000123: sys_enter_read:")
    assert record.timestamp_ns == 3_000_000_000 + 123 * 1000
    nine = parse_ftrace_line("x-1 [000] .... 3.000000123: sys_enter_read:")
    assert nine.timestamp_ns == 3_000_000_123


def test_ftrace_flags_column_is_optional():
    with_flags = parse_ftrace_line("x-1 [000] d.h1 3.000000123: sys_enter_read:")
    without = parse_ftrace_line("x-1 [000] 3.000000123: sys_enter_read:")
    assert with_flags.timestamp_ns == without.timestamp_ns == 3_000_000_123


def test_ftrace_comments_and_blank_lines_skip():
    assert parse_ftrace_line("# tracer: nop") is None
    assert parse_ftrace_line("   ") is None
    assert parse_ftrace_line("\n") is None


def test_ftrace_bare_token_continues_previous_value():
    record = parse_ftrace_line(
        "x-1 [000] .... 3.000000123: sched_process_fork: comm=java thread pid=9"
    )
    assert record.args == {"comm": "java thread", "pid": "9"}


def test_ftrace_sched_switch_arrow_continues_prev_state():
    # sched_switch's arguments are not read, so the arrow rule is checked on
    # the same tail under an event whose arguments are.
    line = (
        "  redis-server-1966384 [003] d..2. 5000012.345678901: sched_switch:"
        " prev_comm=redis-server prev_pid=1966384 prev_prio=120 prev_state=S"
        " ==> next_comm=swapper/3 next_pid=0 next_prio=120"
    )
    switch = parse_ftrace_line(line)
    assert (switch.event, switch.pid, switch.args) == ("sched_switch", 1966384, {})
    record = parse_ftrace_line(line.replace("sched_switch:", "sched_process_fork:"))
    assert record.event == "sched_process_fork"
    assert record.pid == 1966384
    assert record.args == {
        "prev_comm": "redis-server", "prev_pid": "1966384", "prev_prio": "120",
        "prev_state": "S ==>", "next_comm": "swapper/3", "next_pid": "0",
        "next_prio": "120",
    }


def test_ftrace_kprobe_address_token_is_skipped():
    # Documentation/trace/kprobetrace.rst: a kprobe event prints the probed
    # address as (sym+off/size) before its fetch arguments.
    record = parse_ftrace_line(
        "  nginx-2066823 [001] d..1. 5000012.345678901: tcp_send_sock_sendmsg:"
        " (tcp_sendmsg+0x0/0x50) saddr=10.1.0.2 sport=41000 daddr=10.1.0.7 dport=6379"
    )
    assert (record.pid, record.cpu, record.event) == (2066823, 1, "tcp_send_sock_sendmsg")
    assert record.args == {
        "saddr": "10.1.0.2", "sport": "41000", "daddr": "10.1.0.7", "dport": "6379",
    }
    bare = parse_ftrace_line("x-1 [000] 3.000000123: probe: (tcp_sendpage+0x4/0x90)")
    assert bare.args == {}


@pytest.mark.parametrize(
    "line",
    [
        "garbage",
        "x-1 [000] .... 3.00001: sys_enter_read:",  # bad fraction width
        # A tail is read, and can be malformed, only on an event of ARG_EVENTS.
        pytest.param(
            "x-1 [000] .... 3.000000123: tcp_rcv_space_adjust: a=1 a=2", id="duplicate_key"
        ),
        pytest.param(
            "x-1 [000] .... 3.000000123: tcp_rcv_space_adjust: bare", id="token_without_key"
        ),
        pytest.param("x-1 [000] .... 3.000000123: tcp_rcv_space_adjust: =v", id="empty_key"),
        pytest.param(
            "x-1 [000] .... 3.000000123: tcp_send_sock_sendmsg: (tcp_sendmsg+0x0/0x50",
            id="unclosed_address",
        ),
        # more digits than int() converts
        pytest.param("x-1 [000] .... " + "9" * 5000 + ".000000: sys_enter_read:", id="secs"),
        pytest.param("x-" + "9" * 5000 + " [000] 3.000000: sys_enter_read:", id="pid"),
        pytest.param("x-1 [" + "9" * 5000 + "] 3.000000: sys_enter_read:", id="cpu"),
    ],
)
def test_ftrace_malformed_lines_raise(line):
    with pytest.raises(MalformedLineError):
        parse_ftrace_line(line, line_number=7)


def test_bpftrace_banner_and_blank_skip():
    assert parse_bpftrace_line("Attaching 21 probes...") is None
    assert parse_bpftrace_line("") is None


@pytest.mark.parametrize(
    "line",
    [
        "1\t2\t3\tcomm",  # too few fields
        "x\t2\t3\tcomm\tevent",  # non-integer timestamp
        "1\t2\t3\tcomm\t",  # empty event
        "1\t2\t3\tcomm\tsched_process_fork\tnokey",
    ],
)
def test_bpftrace_malformed_lines_raise(line):
    with pytest.raises(MalformedLineError):
        parse_bpftrace_line(line)


# Tails that make a line malformed on an event of ARG_EVENTS.
BAD_TAILS = ["a=1 a=2", "bare", "=v", "(tcp_sendmsg+0x0/0x50", "==> x=1"]


@pytest.mark.parametrize("event", ["sys_enter_read", "page_fault_user"])
@pytest.mark.parametrize("tail", BAD_TAILS)
def test_a_tail_outside_arg_events_is_not_read(event, tail):
    lines = {
        "ftrace": f"x-1 [000] .... 3.000000123: {event}: {tail}",
        "bpftrace": "\t".join(["3000000123", "0", "1", "x", event, *tail.split()]),
    }
    for backend, line in lines.items():
        stats = ParseStats()
        (record,) = read_stream([line], backend, strict=True, stats=stats)
        assert (record.timestamp_ns, record.pid, record.event) == (3_000_000_123, 1, event)
        assert record.args == {}
        assert (stats.parsed, stats.malformed) == (1, 0)
        with pytest.raises(MalformedLineError):
            list(read_stream([line.replace(event, "tcp_rcv_space_adjust")], backend, strict=True))


class _WatchedArgs(Mapping):
    """A record's args that note the record's event when anything reads them."""

    def __init__(self, event: str, args: dict, reads: set):
        self.event, self.args, self.reads = event, args, reads

    def _read(self) -> dict:
        self.reads.add(self.event)
        return self.args

    def __getitem__(self, key):
        return self._read()[key]

    def __iter__(self):
        return iter(self._read())

    def __len__(self):
        return len(self._read())


@pytest.mark.parametrize("backend", BACKENDS)
def test_replay_and_filter_read_the_args_of_arg_events_alone(tmp_path, backend):
    reads, parsed_events = set(), set()
    for seed in range(1, 6):
        topology = random_topology(seed)
        streams, _truth = simulate(topology, 3, 2, seed)
        for stream in streams:
            for record in stream:
                if record.event not in STRUCTURAL_EVENTS:
                    record.args = {"address": "0x7f0012", "error_code": "0x6"}
        parsed = []
        for path in write_streams(streams, tmp_path / str(seed), backend):
            with open(path) as handle:
                parsed.append(list(read_stream(handle, backend, strict=True)))
        for stream in parsed:
            for record in stream:
                parsed_events.add(record.event)
                record.args = _WatchedArgs(record.event, record.args, reads)
        gateway = next(s for s in topology.services if s.name == topology.gateway)
        engine = ReplayEngine(
            [Endpoint(gateway.ip, gateway.port)], user_events=sorted(topology.user_event_rates)
        )
        pids = {record.pid for stream in parsed for record in stream}
        for _trace in engine.replay(filter_records(merge_streams(parsed), pids)):
            pass
    assert parsed_events - STRUCTURAL_EVENTS, "no user events in the captures"
    assert reads == parsed_events & ARG_EVENTS


def test_malformed_error_carries_position():
    with pytest.raises(MalformedLineError) as info:
        parse_ftrace_line("nope", line_number=12)
    assert info.value.line_number == 12
    assert "line 12" in str(info.value)


# ----------------------------------------------------------------------
# stream reading

def test_read_stream_yields_records_in_order_and_counts():
    lines = [
        "# comment",
        "a-1 [000] .... 1.000000001: sys_enter_read:",
        "broken line",
        "",
        "a-1 [000] .... 1.000000002: sys_exit_read:",
    ]
    stats = ParseStats()
    records = list(read_stream(lines, backend="ftrace", stats=stats))
    assert [r.event for r in records] == ["sys_enter_read", "sys_exit_read"]
    assert stats.parsed == 2
    assert stats.skipped == 2
    assert stats.malformed == 1
    assert len(stats.errors) == 1 and "line 3" in stats.errors[0]


def test_read_stream_strict_raises_on_first_bad_line():
    lines = ["a-1 [000] .... 1.000000001: sys_enter_read:", "broken"]
    with pytest.raises(MalformedLineError):
        list(read_stream(lines, backend="ftrace", strict=True))


def test_read_stream_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        list(read_stream([], backend="perfetto"))


def test_error_list_is_capped():
    stats = ParseStats()
    list(read_stream(["bad"] * 50, backend="ftrace", stats=stats))
    assert stats.malformed == 50
    assert len(stats.errors) == 10


# ----------------------------------------------------------------------
# k-way merge, checked against a stable sort of the concatenation

def _stable_sort_oracle(streams):
    flat = [record for stream in streams for record in stream]
    return sorted(flat, key=lambda r: (r.timestamp_ns, r.cpu))


def _partition(records, cpus, rng):
    streams = [[] for _ in range(cpus)]
    for record in records:
        streams[record.cpu].append(record)
    return streams


def test_merge_matches_stable_sort_oracle_many_interleavings():
    rng = random.Random(303)
    for _ in range(50):
        cpus = rng.randint(1, 6)
        ts = 0
        records = []
        for _ in range(rng.randint(0, 200)):
            # coincident timestamps on purpose: ties must break by cpu, then position
            ts += rng.choice((0, 0, 1, 5, 1000))
            records.append(_random_record(rng, ts))
            records[-1].cpu = rng.randrange(cpus)
        streams = _partition(records, cpus, rng)
        merged = list(merge_streams([iter(s) for s in streams]))
        assert merged == _stable_sort_oracle(streams)


def test_merge_rejects_time_regression_with_position():
    good = [
        TraceRecord(timestamp_ns=1, cpu=0, pid=1, comm="a", event="e"),
        TraceRecord(timestamp_ns=2, cpu=0, pid=1, comm="a", event="e"),
    ]
    bad = [
        TraceRecord(timestamp_ns=9, cpu=1, pid=1, comm="a", event="e"),
        TraceRecord(timestamp_ns=3, cpu=1, pid=1, comm="a", event="e"),
    ]
    with pytest.raises(UnsortedStreamError) as info:
        list(merge_streams([iter(good), iter(bad)]))
    assert info.value.stream_index == 1
    assert info.value.position == 1


def test_merge_accepts_equal_timestamps_within_stream():
    stream = [
        TraceRecord(timestamp_ns=5, cpu=0, pid=1, comm="a", event="e"),
        TraceRecord(timestamp_ns=5, cpu=0, pid=1, comm="a", event="e"),
    ]
    assert list(merge_streams([iter(stream)])) == stream


def test_merge_keeps_stream_order_for_a_shared_cpu_and_timestamp():
    # two captures of one cpu: a tie goes to the earlier stream, then to
    # the earlier position within it, as a stable sort leaves it
    first = [TraceRecord(timestamp_ns=5, cpu=1, pid=p, comm="a", event="e") for p in (3, 1)]
    second = [TraceRecord(timestamp_ns=5, cpu=1, pid=p, comm="b", event="e") for p in (2, 0)]
    merged = list(merge_streams([iter(first), iter(second)]))
    assert [(r.comm, r.pid) for r in merged] == [("a", 3), ("a", 1), ("b", 2), ("b", 0)]
    assert merged == _stable_sort_oracle([first, second])


def test_merge_of_nothing_is_empty():
    assert list(merge_streams([])) == []


# ----------------------------------------------------------------------
# pid filtering

def _rec(ts, pid, event="sys_enter_read", **args):
    return TraceRecord(
        timestamp_ns=ts, cpu=0, pid=pid, comm=f"p{pid}", event=event,
        args={k: str(v) for k, v in args.items()},
    )


def test_filter_empty_allowlist_passes_everything():
    records = [_rec(1, 10), _rec(2, 20)]
    assert list(filter_records(iter(records), ())) == records


def test_filter_keeps_only_allowlisted_pids():
    records = [_rec(1, 10), _rec(2, 20), _rec(3, 10)]
    assert [r.pid for r in filter_records(iter(records), {10})] == [10, 10]


def test_filter_follow_forks_extends_across_generations():
    records = [
        _rec(1, 10, event="sched_process_fork", child_pid=11),
        _rec(2, 11),
        _rec(3, 11, event="sched_process_fork", child_pid=12),
        _rec(4, 12),
        _rec(5, 99),
        _rec(6, 99, event="sched_process_fork", child_pid=100),
        _rec(7, 100),
    ]
    kept = [r.pid for r in filter_records(iter(records), {10})]
    assert kept == [10, 11, 11, 12]


def test_filter_does_not_follow_a_fork_without_a_decimal_child_pid():
    records = [
        _rec(1, 10, event="sched_process_fork", child_pid="²"),  # isdigit(), not int()
        _rec(1, 10, event="sched_process_fork", child_pid="2" * 5000),  # too long for int()
        _rec(2, 10, event="sched_process_fork"),
        _rec(3, 2),
    ]
    assert [r.pid for r in filter_records(iter(records), {10})] == [10, 10, 10]
