"""Property tests: arbitrary record streams replay and build without a crash,
and neither handing complete traces out during replay nor forgetting exited
threads and finished sockets changes any output; the summary table renders
what the row dicts it replaced rendered; any text
lines read into records or malformed-line counts; the ftrace and bpftrace
parsers give what the code they replaced gave, but for the tails of events
outside ARG_EVENTS, which they leave unread; a truth or topology document
with any value in any key loads or says why it cannot.

Streams run over a few pids and endpoints so that receives, sends, forks,
exits and pid reuse collide often, and timestamps repeat. Examples are
derandomized so that the suite is deterministic.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reqflow.dag import (
    RequestDag,
    build_all_dags,
    build_trace,
    export_json,
    render_summary,
    summarize,
    validate_dag,
)
from reqflow.engine import ReplayEngine
from reqflow.ingest import (
    BACKENDS,
    MalformedLineError,
    ParseStats,
    _parse_kv,
    parse_bpftrace_line,
    parse_ftrace_line,
    read_stream,
)
from reqflow.records import ARG_EVENTS, Endpoint, TraceRecord
from reqflow.synth import demo_topology, load_topology, simulate
from reqflow.truth import GroundTruth, compare

# pid 0, the idle task, is a real pid as well as the arrival's source thread
PIDS = st.integers(min_value=0, max_value=5)
ENDPOINTS = (
    Endpoint("10.0.0.1", 80),  # the gateway
    Endpoint("10.0.0.2", 9000),
    Endpoint("10.0.0.3", 7000),
    Endpoint("198.51.100.5", 50001),
)
ENDPOINT = st.sampled_from(ENDPOINTS)


def _tuple(local: Endpoint, peer: Endpoint) -> dict[str, str]:
    return {"saddr": local.ip, "sport": str(local.port),
            "daddr": peer.ip, "dport": str(peer.port)}


def _in_syscall(syscall: str, probe: str, local=ENDPOINT):
    """A probe inside its syscall, as a capture shows a send or a receive."""
    return st.builds(
        lambda local, peer: [
            (f"sys_enter_{syscall}", {}), (probe, _tuple(local, peer)),
            (f"sys_exit_{syscall}", {}),
        ],
        local, ENDPOINT,
    )


def _alone(event: str, args=st.just({})):
    return args.map(lambda a: [(event, a)])


# Each step is one or three records of one pid at one timestamp.
EVENTS = st.one_of(
    _in_syscall("read", "tcp_rcv_space_adjust", local=st.just(ENDPOINTS[0])),
    _in_syscall("read", "tcp_rcv_space_adjust"),
    _in_syscall("write", "tcp_send_sock_sendmsg"),
    _alone("sched_process_fork",
           PIDS.map(lambda pid: {"child_pid": str(pid), "child_comm": f"c{pid}"})),
    _alone("sched_process_exit"),
    _alone("page_fault_user"),
    _alone("tcp_rcv_space_adjust", st.builds(_tuple, ENDPOINT, ENDPOINT)),
    _alone("sys_enter_read"),
)
STEPS = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 5]), PIDS, EVENTS), min_size=10, max_size=60
)


def _records(steps):
    ts = 1_000
    for dt, pid, records in steps:
        ts += dt
        for event, args in records:
            yield TraceRecord(
                timestamp_ns=ts, cpu=0, pid=pid, comm=f"p{pid}", event=event,
                args=dict(args),
            )


def _engine() -> ReplayEngine:
    return ReplayEngine([ENDPOINTS[0]], user_events=("page_fault_user",))


def _step(pid, syscall, probe, local, peer):
    return (0, pid, [(f"sys_enter_{syscall}", {}), (probe, _tuple(local, peer)),
                     (f"sys_exit_{syscall}", {})])


gateway, service, store, client = ENDPOINTS


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
# pid 5 takes an arrival and calls pid 0, which calls pid 1: the span pid 0
# sends carries source_thread 0 as the arrival does, and is not the root
@example([
    _step(5, "read", "tcp_rcv_space_adjust", gateway, client),
    _step(5, "write", "tcp_send_sock_sendmsg", gateway, service),
    _step(0, "read", "tcp_rcv_space_adjust", service, gateway),
    _step(0, "write", "tcp_send_sock_sendmsg", service, store),
    _step(1, "read", "tcp_rcv_space_adjust", store, service),
])
@given(STEPS)
def test_any_stream_replays_into_valid_dags_without_orphans(steps):
    engine = _engine()
    handed = []
    for trace_id, states in engine.replay(_records(steps)):
        handed.append(trace_id)
        dag = build_trace(trace_id, states)
        validate_dag(dag)
        assert not dag.orphans
        root = dag.node_by_id()[dag.root_id]
        assert all(node["start_ns"] >= root["start_ns"] for node in dag.nodes)
    assert sorted(handed) == list(range(1, engine.minted_traces + 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(STEPS)
def test_taking_complete_traces_hands_each_out_once_with_the_same_exports(steps):
    # The reference builds every trace at once from the finalized engine.
    batch = _engine()
    for record in _records(steps):
        batch.handle(record)
    expected = [export_json(dag) for dag in build_all_dags(batch.finalize())]

    engine = _engine()
    streamed: dict[int, str] = {}
    for trace_id, states in engine.replay(_records(steps)):
        assert trace_id not in streamed
        streamed[trace_id] = export_json(build_trace(trace_id, states))
        # a yielded trace has no state left in the engine, active or ended
        assert not streamed.keys() & engine.states_by_trace.keys()
        for thread in engine.threads.values():
            assert not streamed.keys() & thread.active_by_trace().keys()
    assert batch.minted_traces == engine.minted_traces
    assert sorted(streamed) == list(range(1, engine.minted_traces + 1))
    assert [streamed[trace_id] for trace_id in sorted(streamed)] == expected


class _Remembering(ReplayEngine):
    """The engine as it was before it forgot: an exited thread stays in
    threads, and a socket whose exchange ended stays, holding None."""

    def _forget_thread(self, thread):
        pass

    def _forget_socket(self, key):
        self.sockets[key] = None


def _fork(parent, child):
    return (0, parent, [("sched_process_fork", {"child_pid": str(child), "child_comm": "c"})])


def _alone_step(pid, event):
    return (0, pid, [(event, {})])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
# a late record after an exit lands on a thread that is already exited, so
# the second exit is counted
@example([_fork(1, 2), _alone_step(2, "sched_process_exit"), _alone_step(2, "page_fault_user"),
          _alone_step(2, "sched_process_exit")])
# a fork reuses the pid of an exited child, whose request in flight is
# replaced only then: the new child keeps the pid
@example([
    _step(1, "read", "tcp_rcv_space_adjust", gateway, client), _fork(1, 2),
    _step(2, "write", "tcp_send_sock_sendmsg", store, service),
    _alone_step(2, "sched_process_exit"), _fork(1, 2),
    _step(3, "write", "tcp_send_sock_sendmsg", service, store),
    _alone_step(2, "page_fault_user"), _alone_step(2, "sched_process_exit"),
    _alone_step(2, "sched_process_exit"),
])
# pid 1 sends a request and exits; a late arrival on it mints trace 2, which
# the receiver of the request in flight must take from that same thread
@example([
    _step(1, "read", "tcp_rcv_space_adjust", gateway, client),
    _step(1, "write", "tcp_send_sock_sendmsg", gateway, service),
    _alone_step(1, "sched_process_exit"),
    _step(1, "read", "tcp_rcv_space_adjust", gateway, store),
    _step(3, "read", "tcp_rcv_space_adjust", service, gateway),
])
# pid 1 sends a request, exits and enters a read late; once the request is
# replaced, the receive probe pid 1 then fires is still inside that read
@example([
    _step(1, "write", "tcp_send_sock_sendmsg", store, service),
    _alone_step(1, "sched_process_exit"), _alone_step(1, "sys_enter_read"),
    _step(2, "write", "tcp_send_sock_sendmsg", service, store),
    (0, 1, [("tcp_rcv_space_adjust", _tuple(store, service))]),
])
# a task's last sched_switch follows its exit: a late user event rebuilds the
# forgotten child, which is forgotten again, and a late read rebuilds it once
# more, mints on it, and a fork reusing the pid ends that
@example([
    _step(1, "read", "tcp_rcv_space_adjust", gateway, client), _fork(1, 2),
    _alone_step(2, "sched_process_exit"), _alone_step(2, "page_fault_user"),
    _alone_step(2, "page_fault_user"), _step(2, "read", "tcp_rcv_space_adjust", gateway, store),
    _fork(1, 2), _alone_step(2, "sched_process_exit"),
])
# the response lands on the requester twice: neither is an unknown socket
@example([
    _step(1, "read", "tcp_rcv_space_adjust", gateway, client),
    _step(1, "write", "tcp_send_sock_sendmsg", store, service),
    _step(2, "read", "tcp_rcv_space_adjust", service, store),
    _step(2, "write", "tcp_send_sock_sendmsg", service, store),
    _step(1, "read", "tcp_rcv_space_adjust", store, service),
    _step(1, "read", "tcp_rcv_space_adjust", store, service),
])
@given(STEPS)
def test_forgetting_exited_threads_and_finished_sockets_changes_no_output(steps):
    outputs = []
    for engine in (_engine(), _Remembering([gateway], user_events=("page_fault_user",))):
        handed = [
            (engine.finalized, trace_id, export_json(build_trace(trace_id, states)))
            for trace_id, states in engine.replay(_records(steps))
        ]
        # Traces come out in the same order during replay. finalize() closes
        # the rest thread by thread, and a rebuilt thread comes last.
        during = [trace for trace in handed if not trace[0]]
        outputs.append((during, sorted(handed), engine.counters, engine.unattributed,
                        engine.minted_traces))
    assert outputs[0] == outputs[1]


def _reference_summary_row(dag):
    """summary_row as it read before the summary became a table of ints."""
    everything = dag.nodes + dag.orphans
    span = max(n["end_ns"] for n in everything) - min(n["start_ns"] for n in everything)
    totals = Counter()
    for node in everything:
        totals.update(node["event_tallies"])
    return {
        "trace_id": dag.trace_id,
        "span_ns": span,
        "nodes": len(dag.nodes),
        "event_totals": dict(sorted(totals.items())),
    }


def _reference_render_summary(rows):
    """render_summary as it read before the summary became a table of ints."""
    if not rows:
        return "traces 0\n"
    totals = Counter()
    for row in rows:
        totals.update(row["event_totals"])
    events = sorted(totals)
    header = ["trace", "span_ns", "nodes", *events]
    table = [header]
    for row in rows:
        table.append(
            [
                str(row["trace_id"]),
                str(row["span_ns"]),
                str(row["nodes"]),
                *(str(row["event_totals"].get(event, 0)) for event in events),
            ]
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(line)).rstrip()
        for line in table
    ]
    spans = sorted(row["span_ns"] for row in rows)
    middle = len(spans) // 2
    median = spans[middle] if len(spans) % 2 else (spans[middle - 1] + spans[middle]) / 2
    lines.append("")
    lines.append(
        f"traces={len(rows)} span_ns min={spans[0]} median={median} max={spans[-1]}"
    )
    if totals:
        lines.append("event totals: " + " ".join(f"{k}={totals[k]}" for k in events))
    return "\n".join(lines) + "\n"


def _summary_node(start_ns, span_ns, tallies):
    return {
        "state_id": "fork:2:0", "kind": "fork", "owner_pid": 2, "comm": "w",
        "start_ns": start_ns, "end_ns": start_ns + span_ns, "flags": [],
        "identity": {"parent_thread": 1, "trace_id": 1}, "event_tallies": tallies,
    }


def _summary_doc(trace_id, nodes, orphans=()):
    """A dag document with these nodes and orphans, which the summary alone reads."""
    return {
        "schema_version": "1", "trace_id": trace_id, "root": "fork:2:0",
        "nodes": list(nodes), "edges": [],
        "diagnostics": {"orphans": list(orphans), "counters": {}},
    }


def _spans_doc(trace_id, span_ns, tallies=None):
    return _summary_doc(trace_id, [_summary_node(0, span_ns, tallies or {})])


SUMMARY_NODE = st.builds(
    _summary_node, st.integers(0, 10**6), st.integers(0, 10**12),
    st.dictionaries(st.sampled_from(["page_fault_user", "sched_switch", "x"]),
                    st.integers(0, 10**9), max_size=3),
)
SUMMARY_DOC = st.builds(
    _summary_doc, st.integers(1, 6), st.lists(SUMMARY_NODE, min_size=1, max_size=3),
    st.lists(SUMMARY_NODE, max_size=2),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example([])
# odd and even counts: the median of an even count is the mean of the middle two
@example([_spans_doc(t, span) for t, span in enumerate((100, 180, 30), 1)])
@example([_spans_doc(t, span) for t, span in enumerate((100, 180, 30, 45), 1)])
@example([_spans_doc(1, 100), _spans_doc(2, 180)])
# an event only some traces tally, and one counted 0
@example([_spans_doc(1, 5, {"page_fault_user": 3}), _spans_doc(2, 7),
          _spans_doc(3, 9, {"sched_switch": 0, "page_fault_user": 12345})])
# duplicate trace ids keep the order they came in, added out of id order
@example([_spans_doc(2, 50), _spans_doc(1, 10), _spans_doc(2, 30), _spans_doc(2, 70)])
# orphans widen the span and add their tallies, but are not nodes
@example([_summary_doc(1, [_summary_node(10, 5, {"x": 1})],
                       [_summary_node(0, 40, {"x": 2, "sched_switch": 1})])])
@given(st.lists(SUMMARY_DOC, max_size=8))
def test_the_summary_table_renders_what_the_row_dicts_rendered(docs):
    dags = [RequestDag.from_doc(doc) for doc in docs]
    # reconstruct and render --summary sorted the rows by trace id, stably
    rows = sorted(map(_reference_summary_row, dags), key=lambda row: row["trace_id"])
    expected = _reference_render_summary(rows)
    table = summarize(dags)
    assert render_summary(table) == expected
    assert "".join(table.lines()) == expected  # lines() can be read again
    assert table.trace_ids == [row["trace_id"] for row in rows]


# Digit runs the header fields may hold: a non-ASCII digit the regex's \d
# takes, and more digits than int() converts.
DIGITS = st.one_of(
    st.sampled_from(["0", "7", "000123", "123456789", "\u0663", "9" * 4301]),
    st.text("0123456789", min_size=1, max_size=10),
)
WORD = st.one_of(
    st.sampled_from(["", "x", "web-1", "a b", ":", "=", "(", "\t", "\n", "##"]),
    st.text(max_size=5),
)
TOKEN = st.one_of(
    st.sampled_from(["k=v", "k=w", "=v", "bare", "==>", "(tcp_sendmsg+0x0/0x50)",
                     "(f+0x1/0x2", "child_pid=9"]),
    WORD,
)
FTRACE_SHAPED = st.builds(
    lambda comm, pid, cpu, flags, secs, frac, event, args:
        f"{comm}-{pid} [{cpu}]{flags} {secs}.{frac}: {event}: {' '.join(args)}",
    WORD, DIGITS, DIGITS, st.sampled_from(["", " ....", " d..1."]), DIGITS, DIGITS,
    st.sampled_from(["sys_enter_read", "tcp_send_sock_sendmsg"]) | WORD,
    st.lists(TOKEN, max_size=4),
)
BPFTRACE_SHAPED = st.builds(
    lambda header, comm, event, args: "\t".join([*header, comm, event, *args]),
    st.lists(DIGITS | WORD, min_size=3, max_size=3), WORD,
    st.sampled_from(["sys_enter_read", "sched_process_fork"]) | WORD, st.lists(TOKEN, max_size=4),
)
TEXT_LINES = st.lists(
    st.one_of(FTRACE_SHAPED, BPFTRACE_SHAPED, st.text(max_size=40)).flatmap(
        lambda line: st.sampled_from([line, line + "\n", line + "\r\n"])
    ),
    max_size=6,
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@example(["web-1 [000] .... " + "9" * 5000 + ".000000: sys_enter_read:"], "ftrace")
@example(["9" * 5000 + "\t0\t1\tweb\tsys_enter_read"], "bpftrace")
@given(TEXT_LINES, st.sampled_from(BACKENDS))
def test_any_text_lines_read_into_records_or_malformed_counts(lines, backend):
    stats = ParseStats()
    records = list(read_stream(lines, backend, stats=stats))
    assert len(records) == stats.parsed
    assert stats.parsed + stats.skipped + stats.malformed == len(lines)
    try:
        strict = list(read_stream(lines, backend, strict=True))
    except MalformedLineError:
        assert stats.malformed
    else:
        assert stats.malformed == 0
        assert strict == records


def _reference_parse_bpftrace_line(line, line_number=None, parse_kv=_parse_kv):
    """parse_bpftrace_line as it read before it split first, verbatim but for
    parse_kv, which stands in for _parse_kv."""
    stripped = line.rstrip("\n")
    if not stripped.strip():
        return None
    if stripped.startswith("Attaching "):
        return None
    parts = stripped.split("\t")
    if len(parts) < 5:
        raise MalformedLineError("expected at least 5 tab fields", line_number, line)
    try:
        timestamp_ns = int(parts[0])
        cpu = int(parts[1])
        pid = int(parts[2])
    except ValueError:
        raise MalformedLineError("non-integer header field", line_number, line) from None
    event = parts[4]
    if not event:
        raise MalformedLineError("empty event name", line_number, line)
    args = parse_kv(parts[5:], line_number, line)
    return TraceRecord(
        timestamp_ns=timestamp_ns,
        cpu=cpu,
        pid=pid,
        comm=parts[3],
        event=event,
        args=args,
    )


# Header fields int() takes, padded or not, and ones it rejects.
HEADER_FIELD = st.sampled_from(["7", "42", " 7", "7 ", "-3", "+5", "1_000", "0x1", "x", "", "²"])
FIELD = st.one_of(
    HEADER_FIELD,
    st.sampled_from(["", " ", "\x0c", "Attaching 4 probes...", "Attaching", "nginx"]),
    st.text(max_size=6),
)
ARG = st.sampled_from(["k=v", "k=w", "j=1", "a=b=c", "=v", "k=", "bare", "==>"]) | FIELD
ENDING = st.sampled_from(["", "\n", "\r\n"])
LINES = st.one_of(
    # shaped like a record: three header fields, comm, event, arguments
    st.builds(
        lambda header, comm, event, args, end: "\t".join([*header, comm, event, *args]) + end,
        st.lists(HEADER_FIELD, min_size=3, max_size=3), FIELD,
        st.sampled_from(["tcp_rcv_space_adjust", "sys_enter_read", ""]) | FIELD,
        st.lists(ARG, max_size=5),
        ENDING,
    ),
    # blanks and banners
    st.sampled_from(["", "\n", " \t \n", "\x0c\n", "Attaching 12 probes...\n",
                     "Attaching\t1\t2\t3\tev\n", "Attaching 1\t2\t3\t4\tev\n"]),
    # anything tab-joined
    st.builds(lambda fields, end: "\t".join(fields) + end, st.lists(FIELD, max_size=9), ENDING),
)


def _outcome(parse, line):
    try:
        return parse(line, 9)
    except MalformedLineError as exc:
        return ("malformed", str(exc), exc.line_number)


def _unread(tokens, line_number, line) -> dict:
    return {}


def _expected(reference, line):
    """The reference's verdict on a line, but with the tail of an event
    outside ARG_EVENTS left unread: empty args, and never malformed."""
    unread = _outcome(partial(reference, parse_kv=_unread), line)
    if isinstance(unread, TraceRecord) and unread.event in ARG_EVENTS:
        return _outcome(reference, line)
    return unread


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(LINES)
def test_bpftrace_parser_agrees_with_the_reference(line):
    assert _outcome(parse_bpftrace_line, line) == _expected(_reference_parse_bpftrace_line, line)


_REFERENCE_FTRACE_RE = re.compile(
    r"^\s*(?P<comm>.+)-(?P<pid>\d+)\s+\[(?P<cpu>\d+)\]"
    r"(?:\s+(?P<flags>\S+))?\s+(?P<secs>\d+)\.(?P<frac>\d{6}|\d{9}):\s+"
    r"(?P<event>[^\s:]+):\s*(?:\([^\s()]+\+0x[0-9a-f]+/0x[0-9a-f]+\)\s*)?"
    r"(?P<args>.*)$"
)


def _reference_parse_ftrace_line(line, line_number=None, parse_kv=_parse_kv):
    """parse_ftrace_line as it read before it split the header first, with
    its regex, verbatim but for parse_kv, which stands in for _parse_kv."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    match = _REFERENCE_FTRACE_RE.match(line.rstrip("\n"))
    if match is None:
        raise MalformedLineError("unrecognized ftrace line", line_number, line)
    frac = match["frac"]
    scale = 1000 if len(frac) == 6 else 1
    try:
        timestamp_ns = int(match["secs"]) * 1_000_000_000 + int(frac) * scale
        cpu, pid = int(match["cpu"]), int(match["pid"])
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise MalformedLineError("integer field too long", line_number, line) from None
    args = parse_kv(match["args"].split(), line_number, line)
    return TraceRecord(timestamp_ns, cpu, pid, match["comm"], match["event"], args)


# Each column of an ftrace line as the kernel prints it, comms holding
# dashes, spaces, ': ' and brackets among them, comm, pid and secs padded
# (%16s-%-7d, %5lu) or not, and then, for up to two columns, a shape the
# regex reads another way or not at all: other padding, no flags, a
# fraction of neither width, digits that int() and the regex read apart, a
# newline, another header in the tail, a CRLF ending.
_DIGITS = st.text("0123456789", min_size=1, max_size=4)
# Fields that int() and the regex may read differently
_ODD_DIGITS = st.sampled_from(["\u0663", "\u00b2", "9" * 5000, "", "1 ", " 1", "-1", "+5", "1_0"])
_GAPS = st.sampled_from(["  ", "\t", "", " \r"])


def _padded(column, spec: str):
    """A column as synth writes it, or padded by the kernel's format spec."""
    return column.flatmap(lambda text: st.sampled_from([text, format(text, spec)]))


_TOKENS = st.sampled_from(
    ["saddr=10.0.0.1", "sport=80", "child_pid=9", "child_comm=a b", "k=v", "k=v", "=v", "bare",
     "==>", "(tcp_sendmsg+0x0/0x50)", "(f+0x1/0x2", "[", ": ", "x-2 [001] .... 4.000000: e:",
     "x-2 [001] 4.000000123: e: k=v"]
) | st.text(max_size=4)
_COLUMNS = {  # name: (as the kernel prints it, other shapes)
    "lead": (st.just(""), st.sampled_from([" ", "  ", "\t", "#"])),
    "comm": (
        _padded(st.sampled_from(
            ["web", "redis-server", "web-7", "a b", "a: b", "a [1] b", "x-1 [0] 3.0: e:"]
        ), ">16"),
        st.sampled_from(["", "-", "#x", " x", "x\n"]) | st.text(max_size=5),
    ),
    "pid": (_padded(_DIGITS, "<7"), _ODD_DIGITS),
    "gap1": (st.just(" "), _GAPS),
    "cpu": (_DIGITS, _ODD_DIGITS),
    "flags": (
        st.sampled_from([" ....", " d..1.", " dNh2."]),
        st.sampled_from(["", "  ....", " a:", " x[", " ]", " 3.000000:", " .\t."]),
    ),
    "gap2": (st.just(" "), _GAPS),
    "secs": (_padded(_DIGITS, ">5"), _ODD_DIGITS),
    "frac": (
        st.sampled_from([6, 9]).flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n)),
        st.sampled_from(
            ["00012", "0000001", "0000001234", "\u0663" * 6, "000000 ", "+00001", "00_001"]
        ),
    ),
    "gap3": (st.just(" "), _GAPS),
    "event": (
        st.sampled_from([*sorted(ARG_EVENTS), "sys_enter_read", "page_fault_user", "sched_switch"]),
        st.sampled_from(["", "4.000000", "a b", "x:y", "e\t", "(f+0x1/0x2)"]),
    ),
    "gap4": (st.sampled_from([" ", ""]), _GAPS),
    "tail": (st.lists(_TOKENS, max_size=4).map(" ".join), st.text(max_size=8)),
    "end": (st.sampled_from(["\n", ""]), st.sampled_from(["\r\n", "\n\n", "\r"])),
}


@st.composite
def _ftrace_lines(draw) -> str:
    column = {name: draw(usual) for name, (usual, _odd) in _COLUMNS.items()}
    for name in draw(st.lists(st.sampled_from(sorted(_COLUMNS)), max_size=2)):
        column[name] = draw(_COLUMNS[name][1])
    return (
        "{lead}{comm}-{pid}{gap1}[{cpu}]{flags}{gap2}{secs}.{frac}:"
        "{gap3}{event}:{gap4}{tail}{end}"
    ).format(**column)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@example("nginx-2066823 [001] d..1. 5000012.345678901: tcp_send_sock_sendmsg:"
         " saddr=10.1.0.2 sport=41000 daddr=10.1.0.7 dport=6379\n")
@example("x-1 [000] 3.000000: 4.000000: sched_process_fork: child_pid=9")  # no flags
@example("x-1 [000] .... 3.000000: sched_process_fork: child_pid=9 x-2 [001] .... 4.000000: e:")
@example("x-" + "9" * 5000 + " [000] .... 3.000000: sys_enter_read:")
@example("x-1 [000] .... 3.000000123: tcp_send_sock_sendmsg: (tcp_sendmsg+0x0/0x50)sport=1")
@example("x-1 [000] .... 3.000000123: tcp_rcv_space_adjust: sport=1\r\n")
@example("x-+5 [000] .... 3.000000: sys_enter_read:")  # int() takes '+5'
@example("x\n-1 [000] .... 3.000000: sys_enter_read:")  # the regex's '.' takes no newline
@example("x-1 [000] .... 3.000000: sys_enter_read: a\nb")
@example("           nginx-2066823 [001] d..1.    12.345678: sys_enter_read:")  # kernel padding
@example("      web-1001    [000] ....     5.000000662: tcp_rcv_space_adjust: sport=1")
@example("web- 1 [000] .... 3.000000: sys_enter_read:")  # the kernel pads no pid on the left
@example("web-1 [000] .... 3 .000000: sys_enter_read:")  # nor secs on the right
@given(_ftrace_lines() | FTRACE_SHAPED)
def test_ftrace_parser_agrees_with_the_reference(line):
    assert _outcome(parse_ftrace_line, line) == _expected(_reference_parse_ftrace_line, line)


# Strings that json escapes: quotes, backslashes, control and non-ASCII
# characters, surrogates and astral ones, besides arbitrary text.
TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f a\u00e9\u2028\ud800\U0001f600'))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**200), 2**200),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    TEXT, st.text(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=10,
)


def _objects(value):
    """Every non-empty JSON object in value, value itself included."""
    if isinstance(value, dict):
        if value:
            yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _objects(item)


def _replace_a_key(data, doc: dict) -> dict:
    """A copy of doc with one key of one of its objects set to any JSON value
    or to the value of any key of doc, which is often of the right type."""
    doc = json.loads(json.dumps(doc))
    objects = list(_objects(doc))
    present = [value for holder in objects for value in holder.values()]
    holder = data.draw(st.sampled_from(objects))
    value = data.draw(JSON_VALUES | st.sampled_from(present))
    holder[data.draw(st.sampled_from(sorted(holder)))] = json.loads(json.dumps(value))
    return doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_truth_file_with_any_value_loads_or_says_why(demo_run, data):
    _streams, truth, _engine, dags = demo_run
    try:
        damaged = GroundTruth.from_doc(_replace_a_key(data, truth.to_doc()))
    except ValueError:
        return
    # what reqflow diff does with a truth file it loaded
    compare([dag.to_doc() for dag in dags], damaged).render()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_topology_with_any_value_loads_or_says_why(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "topology.json"
    path.write_text(json.dumps(_replace_a_key(data, demo_topology().to_doc())))
    try:
        topology = load_topology(path)
    except ValueError:  # an InvalidTopologyError is one
        return
    # what reqflow synth does with a topology it loaded
    simulate(topology, 1, 1, 0)
