"""Trace-log parsing, per-CPU stream merge, and pid filtering.

Two input formats are handled.

ftrace text reports, one event per line::

    <comm>-<pid> [<cpu>] <flags> <secs>.<frac>: <event>: <key=value ...>

The fractional part carries six or nine digits depending on the configured
trace clock; both normalize to integer nanoseconds. Lines starting with '#'
are comments. The flags column is optional and ignored. A kprobe event's
arguments follow its probed address, ``(sym+off/size)`` as
Documentation/trace/kprobetrace.rst gives it, which is skipped.

bpftrace output following this tool's capture convention, tab separated::

    ts_ns<TAB>cpu<TAB>pid<TAB>comm<TAB>event<TAB>k=v<TAB>k=v...

Blank lines and "Attaching N probes..." banners are skipped. Anything else
that does not parse raises MalformedLineError carrying the line number; the
stream reader either aborts (strict) or counts the line and continues.

Both parsers read the ``key=value`` tail only for records.ARG_EVENTS, the
events whose arguments the engine or filter_records reads. Any other record
carries empty args, and its tail, whatever it holds, never makes the line
malformed.
"""

from __future__ import annotations

import heapq
import re
from collections.abc import Iterable, Iterator, Sequence
from operator import attrgetter

from .records import ARG_EVENTS, FORK_EVENT, TraceRecord, ascii_decimal

BACKENDS = ("ftrace", "bpftrace")


class MalformedLineError(ValueError):
    def __init__(self, message: str, line_number: int | None = None, line: str = ""):
        self.line_number = line_number
        self.line = line
        where = f" at line {line_number}" if line_number is not None else ""
        super().__init__(f"{message}{where}: {line.rstrip()!r}")


class UnsortedStreamError(ValueError):
    def __init__(self, stream_index: int, position: int):
        self.stream_index = stream_index
        self.position = position
        super().__init__(
            f"stream {stream_index} regresses in time at record {position}"
        )


# comm is greedy so pids embedded in the name ("web-7" pid 42) resolve to the
# last dash-number group before the cpu bracket. A kprobe's (sym+off/size)
# token is matched outside the arguments.
_FTRACE_RE = re.compile(
    r"^\s*(?P<comm>.+)-(?P<pid>\d+)\s+\[(?P<cpu>\d+)\]"
    r"(?:\s+(?P<flags>\S+))?\s+(?P<secs>\d+)\.(?P<frac>\d{6}|\d{9}):\s+"
    r"(?P<event>[^\s:]+):\s*(?:\([^\s()]+\+0x[0-9a-f]+/0x[0-9a-f]+\)\s*)?"
    r"(?P<args>.*)$"
)


def _parse_kv(tokens: Iterable[str], line_number: int | None, line: str) -> dict[str, str]:
    args: dict[str, str] = {}
    last = None
    for token in tokens:
        key, eq, value = token.partition("=")
        if key and eq:
            if key in args:
                raise MalformedLineError(f"duplicate arg key {key!r}", line_number, line)
            args[key] = value
            last = key
        elif last is not None:
            # A token without a key continues the previous value: values may
            # contain spaces in the ftrace format, as a comm may.
            args[last] += " " + token
        elif eq:
            raise MalformedLineError("empty arg key", line_number, line)
        else:
            raise MalformedLineError(f"arg token without '=': {token!r}", line_number, line)
    return args


def parse_ftrace_line(line: str, line_number: int | None = None) -> TraceRecord | None:
    """Parse one ftrace report line; return None for comments and blanks.

    The header is split on its fixed columns, unpadded as synth writes it
    or padded with spaces as the kernel prints it: comm and pid as
    %16s-%-7d, secs as %5lu. Only a line that fails the unpadded test pays
    for stripping the padding. A line the split cannot vouch for goes to
    _FTRACE_RE, whose verdict stands. Its greedy comm takes the last
    header-shaped run, so the split takes the last '['. It takes any
    whitespace between columns and no newline, so the split gives up on
    other padding, whitespace other than spaces, a newline, a missing flags
    column, non-ASCII text, a field too long for int() and a kprobe address
    token.
    """
    text = line.rstrip("\n")
    bracket = text.rfind("[")
    comm, _, pid = text[:bracket - 1].rpartition("-")
    cpu, _, rest = text[bracket + 1:].partition("] ")
    flags, _, rest = rest.partition(" ")
    secs, _, rest = rest.partition(".")
    frac, _, rest = rest.partition(": ")
    event, colon, tail = rest.partition(":")
    if not (comm and comm[0] != "#" and not comm[0].isspace() and pid.isdigit()
            and secs.isdigit()):
        comm, pid, secs = comm.lstrip(" "), pid.rstrip(" "), secs.lstrip(" ")
        if not (comm and comm[0] != "#" and not comm[0].isspace() and pid.isdigit()
                and secs.isdigit()):
            return _parse_ftrace_regex(line, line_number)
    if not (
        bracket > 0 and text[bracket - 1] == " " and text.isascii() and "\n" not in text
        and cpu.isdigit() and flags and flags.isprintable()
        and frac.isdigit() and len(frac) in (6, 9)
        and colon and event and event.isprintable() and " " not in event
    ):
        return _parse_ftrace_regex(line, line_number)
    try:
        stamp = int(secs + frac)
        timestamp_ns = stamp if len(frac) == 9 else stamp * 1000
        record = TraceRecord(timestamp_ns, int(cpu), int(pid), comm, event)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return _parse_ftrace_regex(line, line_number)
    if event in ARG_EVENTS:
        tokens = tail.split()
        if tokens and tokens[0][0] == "(":  # perhaps a kprobe's address
            return _parse_ftrace_regex(line, line_number)
        record.args = _parse_kv(tokens, line_number, line)
    return record


def _parse_ftrace_regex(line: str, line_number: int | None) -> TraceRecord | None:
    """parse_ftrace_line by _FTRACE_RE, for every line its split gives up on."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    match = _FTRACE_RE.match(line.rstrip("\n"))
    if match is None:
        raise MalformedLineError("unrecognized ftrace line", line_number, line)
    frac = match["frac"]
    scale = 1000 if len(frac) == 6 else 1
    try:
        timestamp_ns = int(match["secs"]) * 1_000_000_000 + int(frac) * scale
        cpu, pid = int(match["cpu"]), int(match["pid"])
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise MalformedLineError("integer field too long", line_number, line) from None
    event = match["event"]
    args = _parse_kv(match["args"].split(), line_number, line) if event in ARG_EVENTS else {}
    return TraceRecord(timestamp_ns, cpu, pid, match["comm"], event, args)


def parse_bpftrace_line(line: str, line_number: int | None = None) -> TraceRecord | None:
    """Parse one line of the tab-separated bpftrace convention."""
    parts = line.rstrip("\n").split("\t")
    try:
        timestamp_ns = int(parts[0])
        cpu = int(parts[1])
        pid = int(parts[2])
        event = parts[4]
    except (ValueError, IndexError):
        # Blanks and banners are rare, so they are looked for only here.
        if not line.strip() or line.startswith("Attaching "):
            return None
        if len(parts) < 5:
            raise MalformedLineError(
                "expected at least 5 tab fields", line_number, line
            ) from None
        raise MalformedLineError("non-integer header field", line_number, line) from None
    if not event:
        raise MalformedLineError("empty event name", line_number, line)
    args = _parse_kv(parts[5:], line_number, line) if event in ARG_EVENTS else {}
    return TraceRecord(timestamp_ns, cpu, pid, parts[3], event, args)


_PARSERS = {"ftrace": parse_ftrace_line, "bpftrace": parse_bpftrace_line}


class ParseStats:
    __slots__ = ("parsed", "skipped", "malformed", "errors")

    def __init__(self) -> None:
        self.parsed = self.skipped = self.malformed = 0
        self.errors: list[str] = []

    def record_error(self, exc: MalformedLineError) -> None:
        self.malformed += 1
        if len(self.errors) < 10:
            self.errors.append(str(exc))


def read_stream(
    lines: Iterable[str],
    backend: str,
    strict: bool = False,
    stats: ParseStats | None = None,
) -> Iterator[TraceRecord]:
    """Yield the records of raw lines, counting the rest in stats."""
    if backend not in _PARSERS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    parse = _PARSERS[backend]
    stats = stats if stats is not None else ParseStats()
    for line_number, line in enumerate(lines, 1):
        try:
            record = parse(line, line_number)
        except MalformedLineError as exc:
            if strict:
                raise
            stats.record_error(exc)
            continue
        if record is None:
            stats.skipped += 1
            continue
        stats.parsed += 1
        yield record


_MERGE_KEY = attrgetter("timestamp_ns", "cpu")


def _checked(stream: Iterable[TraceRecord], index: int) -> Iterator[TraceRecord]:
    last = None
    for position, record in enumerate(stream):
        if last is not None and record.timestamp_ns < last:
            raise UnsortedStreamError(index, position)
        last = record.timestamp_ns
        yield record


def merge_streams(streams: Sequence[Iterable[TraceRecord]]) -> Iterator[TraceRecord]:
    """Merge per-CPU streams into one sequence ordered by (ts, cpu).

    Each input stream must be internally non-decreasing in timestamp;
    a violation raises UnsortedStreamError naming the stream and position.
    heapq.merge yields equal keys in input order: a tie resolves by cpu,
    then by stream, then by position within the stream, so the output
    equals a stable sort of the concatenated input.
    """
    checked = [_checked(stream, index) for index, stream in enumerate(streams)]
    return heapq.merge(*checked, key=_MERGE_KEY)


def filter_records(records: Iterable[TraceRecord], pids: Iterable[int]) -> Iterator[TraceRecord]:
    """Keep records of the given pids and of the pids they fork.

    No pids passes everything through. A sched_process_fork from a retained
    pid extends the kept pids with the child pid from that point in the
    stream on: the engine gives the child its parent's spans from that fork
    record, so a child's records are never noise to the pids that forked it.
    Output order and multiplicity are a subsequence of the input.
    """
    allowed = set(pids)
    if not allowed:
        yield from records
        return
    for record in records:
        if record.event == FORK_EVENT and record.pid in allowed:
            child = ascii_decimal(record.args.get("child_pid"))
            if child is not None:
                allowed.add(child)
        if record.pid in allowed:
            yield record
