"""Record types and event names shared across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class Endpoint(NamedTuple):
    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass(slots=True)
class TraceRecord:
    """One normalized kernel event.

    timestamp_ns is monotonic integer nanoseconds. seq is the record's
    position within its source stream and breaks timestamp ties
    deterministically during merge.
    """

    timestamp_ns: int
    cpu: int
    pid: int
    comm: str
    event: str
    args: dict[str, str] = field(default_factory=dict)
    seq: int = 0


def ascii_decimal(text: object) -> int | None:
    """The value of a string of ASCII digits, None for anything else.
    str.isdigit() alone also accepts digits such as '²' that int() rejects."""
    if isinstance(text, str) and text.isascii() and text.isdigit():
        return int(text)
    return None


def strict_int(value: object, name: str) -> int:
    """value, which must be an int read from a document; a bool is not one."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


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

