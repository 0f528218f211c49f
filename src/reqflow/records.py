"""Record types and event names shared across the pipeline."""

from __future__ import annotations

import json
import re
import reprlib
from pathlib import Path
from typing import NamedTuple


class Endpoint(NamedTuple):
    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


class TraceRecord:
    """One normalized kernel event.

    timestamp_ns is monotonic integer nanoseconds.
    """

    __slots__ = ("timestamp_ns", "cpu", "pid", "comm", "event", "args")

    def __init__(self, timestamp_ns: int, cpu: int, pid: int, comm: str, event: str,
                 args: dict[str, str] | None = None) -> None:
        self.timestamp_ns, self.cpu, self.pid = timestamp_ns, cpu, pid
        self.comm, self.event = comm, event
        self.args = {} if args is None else args

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


def ascii_decimal(text: object) -> int | None:
    """The value of a string of ASCII digits, None for anything else.
    str.isdigit() alone also accepts digits such as '²' that int() rejects."""
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None


# A value quoted in an error message is cut short: a document may nest a
# list hundreds deep.
_brief = reprlib.repr


def check_types(
    doc: object, types: dict, required: bool = True, exact: bool = False
) -> dict:
    """doc, which must be a JSON object whose keys in types hold values of
    their (kind, item) type; item, if set, types each item of a list or each
    value of an object. A missing key raises ValueError if required, and
    with exact any key not in types does too."""
    if type(doc) is not dict:
        raise ValueError(f"expected a json object, got {_brief(doc)}")
    for key, (kind, item) in types.items():
        if key not in doc:
            if not required:
                continue
            raise ValueError(f"{key} is missing")
        value = doc[key]
        # type(), not isinstance(): a bool is not an int
        if type(value) is not kind or item and any(
            type(v) is not item for v in (value.values() if kind is dict else value)
        ):
            of = f" of {item.__name__}" if item else ""
            raise ValueError(f"{key} must be {kind.__name__}{of}, got {_brief(value)}")
    extra = doc.keys() - types.keys() if exact else ()
    if extra:
        raise ValueError(f"unexpected keys {_brief(sorted(extra))}")
    return doc


def read_json(path) -> object:
    """The JSON document in a file, named by a str or given as a Path or a
    package resource. JSON nested too deep to decode raises ValueError."""
    text = (Path(path) if isinstance(path, str) else path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("json nesting too deep to decode") from None


# A service or event name: one token of these characters, matched with
# fullmatch, so a line break or a quote cannot ride along into a capture line.
NAME_RE = re.compile(r"[A-Za-z0-9_.:/-]+")

# Syscalls whose enter/exit tracepoints bracket TCP activity.
SEND_SYSCALLS = frozenset(("sendto", "sendmsg", "write", "writev"))
RECEIVE_SYSCALLS = frozenset(("recvfrom", "recvmsg", "read", "readv"))

SYSCALL_ENTER_PREFIX = "sys_enter_"
SYSCALL_EXIT_PREFIX = "sys_exit_"

# Two kprobes cover outgoing TCP data; names match the capture scripts.
TCP_SEND_PROBES = frozenset(("tcp_send_sock_sendmsg", "tcp_send_sys_sendmsg"))
TCP_RCV_EVENT = "tcp_rcv_space_adjust"
FORK_EVENT = "sched_process_fork"
EXIT_EVENT = "sched_process_exit"

# The only events whose arguments the engine or filter_records reads. The
# parsers read the arguments of these alone; any other record's are empty.
ARG_EVENTS = frozenset(TCP_SEND_PROBES | {TCP_RCV_EVENT, FORK_EVENT})


def _syscall_events() -> frozenset[str]:
    names = []
    for syscall in SEND_SYSCALLS | RECEIVE_SYSCALLS:
        names.append(SYSCALL_ENTER_PREFIX + syscall)
        names.append(SYSCALL_EXIT_PREFIX + syscall)
    return frozenset(names)


SYSCALL_EVENTS = _syscall_events()

STRUCTURAL_EVENTS = frozenset(
    SYSCALL_EVENTS | TCP_SEND_PROBES | {TCP_RCV_EVENT, FORK_EVENT, EXIT_EVENT}
)

