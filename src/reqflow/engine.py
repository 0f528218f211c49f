"""Replay of an ordered kernel-event stream into request-scoped thread states.

Each application thread is a small state machine driven by five groups of
events:

* syscall enter/exit tracepoints establish whether the thread is currently
  inside one of the tracked send or receive syscalls;
* a send probe observed inside a send syscall marks outgoing TCP data. When
  the destination is the requester endpoint of one of the thread's active
  network states, the send is that request's response: it ends the state
  and leaves nothing in flight on the socket. Any other send puts a request
  in flight there, remembered as its sending thread and direction;
* tcp_rcv_space_adjust observed inside a receive syscall marks incoming TCP
  data and either propagates every trace id active on the sending thread of
  the request in flight onto the receiver as new network states, or mints a
  fresh trace id when the data arrives on a configured gateway endpoint with
  no request in flight (traffic entering from the untraced outside world);
* sched_process_fork copies the parent's active trace ids onto the child as
  fork states;
* sched_process_exit ends everything the thread still owns and marks it
  exited. Late records for its pid still land on it, until a fork reuses
  the pid.

The engine holds what a later record can still read: the live threads,
each request in flight with its sender, and the traces not yet handed out.
An exited thread that owns no state and sends no request in flight is
forgotten but for its comm. A late record for its pid rebuilds it as it
was, and it is forgotten again if the record leaves it holding nothing. A
socket whose exchange ended is forgotten but for its 4-tuple, packed
into one int, so a later receive on it is still a response.

A State is one trace living on one thread. A network state spans request
arrival to response sent; a fork state spans the child's lifetime. Both
accumulate per-event tallies of user-enabled events that fire on the owning
thread while they are active.

Causality is recorded, not inferred: a propagated or forked state's parents
are the states of its trace that were active on the sending thread or the
forking parent at the moment the state was created. Receive and fork copy
traces by one rule, ReplayEngine._propagate. A minted arrival state has no
parents. The DAG builder turns these into edges as they are. Replay is
single pass and deterministic: identical input streams produce identical
pools.

Ended states are kept per trace. A trace whose last active state ends is
complete: every new state copies a trace active on some thread, so no later
record can add to it. replay() is how traces leave the engine: it handles
each record, yields every complete trace with its ended states and forgets
it, then finalizes and yields the rest. A caller that writes each trace as
it is yielded holds only the traces still in flight. finalize() on its own
ends the open states and returns the engine, whose states_by_trace then
holds every trace for a caller that builds them all at once.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .records import (
    EXIT_EVENT,
    FORK_EVENT,
    NAME_RE,
    RECEIVE_SYSCALLS,
    SEND_SYSCALLS,
    STRUCTURAL_EVENTS,
    SYSCALL_ENTER_PREFIX,
    SYSCALL_EVENTS,
    SYSCALL_EXIT_PREFIX,
    TCP_RCV_EVENT,
    TCP_SEND_PROBES,
    Endpoint,
    TraceRecord,
    ascii_decimal,
)

# The source thread of a minted arrival, whose sender is outside the trace.
# pid 0 is a real pid too, the idle task, so a state is an arrival by having
# no parent, not by this value alone.
EXTERNAL_THREAD = 0

FLAG_OPEN_AT_END = "open_at_end"
FLAG_ENDED_BY_EXIT = "ended_by_exit"


class Tcp4Tuple(NamedTuple):
    src: Endpoint
    dst: Endpoint

    def normalized(self) -> tuple[Endpoint, Endpoint]:
        """Direction-free form; keys the socket pool."""
        return (self.src, self.dst) if self.src <= self.dst else (self.dst, self.src)


class State:
    """One trace living on one thread: for a network state from request
    arrival to response sent, for a fork state the forked child's lifetime."""

    __slots__ = ("kind", "source_thread", "trace_id", "owner_pid", "start_ns", "conn",
                 "end_ns", "comm", "flags", "tallies", "parents", "key")

    def __init__(
        self, kind: str, source_thread: int, trace_id: int, owner_pid: int, start_ns: int,
        conn: Tcp4Tuple | None = None, end_ns: int | None = None, comm: str = "",
        parents: tuple[State, ...] = (),
    ) -> None:
        self.kind = kind  # "network" or "fork"
        # The pid the trace came from: the sender (EXTERNAL_THREAD for an
        # arrival from outside), or the forking parent.
        self.source_thread = source_thread
        self.trace_id, self.owner_pid, self.start_ns = trace_id, owner_pid, start_ns
        self.conn = conn  # oriented requester -> receiver; no fork has one
        self.end_ns = end_ns
        self.comm = comm  # the owning thread's name when the state was created
        self.flags: set[str] = set()
        self.tallies: Counter[str] = Counter()
        # The source thread's active states of this trace when this one began.
        self.parents = parents
        # Unique among one thread's active states.
        socket = conn.normalized() if conn is not None else None
        self.key = (kind, source_thread, socket, trace_id)


class Thread:
    __slots__ = ("pid", "comm", "in_syscall", "exited", "in_flight", "active_states")

    def __init__(self, pid: int, comm: str = "", exited: bool = False) -> None:
        self.pid, self.comm, self.exited = pid, comm, exited
        self.in_syscall: str | None = None
        self.in_flight = 0  # socket entries naming this thread as the sender
        # Keyed store holds active states only; key uniqueness is enforced here.
        # Ended states move to the engine's per-trace store, so a key can recur
        # on a kept-alive connection carrying a later request.
        self.active_states: dict[tuple, State] = {}

    def active_by_trace(self) -> dict[int, tuple[State, ...]]:
        """Active states grouped by trace id, in trace id order."""
        grouped: dict[int, list[State]] = {}
        for state in self.active_states.values():
            grouped.setdefault(state.trace_id, []).append(state)
        return {trace_id: tuple(grouped[trace_id]) for trace_id in sorted(grouped)}


class _LateRecord(Exception):
    """What ReplayEngine._thread raises, with the thread it rebuilt for a forgotten pid."""


# A socket's request in flight: its sending Thread (EXTERNAL_THREAD for an
# arrival from outside) and its direction.
InFlight = tuple[Thread | int, Tcp4Tuple]


def _conn_from_args(args: dict[str, str]) -> Tcp4Tuple | None:
    try:
        src = Endpoint(args["saddr"], int(args["sport"]))
        dst = Endpoint(args["daddr"], int(args["dport"]))
    except (KeyError, ValueError):
        return None
    return Tcp4Tuple(src, dst)


class ReplayEngine:
    """Single-pass consumer of one merged, time-ordered record stream."""

    def __init__(
        self,
        gateway_endpoints: Iterable[Endpoint],
        user_events: Iterable[str] = (),
    ):
        self.user_events = frozenset(user_events)
        overlap = self.user_events & STRUCTURAL_EVENTS
        if overlap:
            raise ValueError(
                f"user events shadow structural events: {sorted(overlap)}"
            )
        for event in sorted(self.user_events):
            if not NAME_RE.fullmatch(event):
                raise ValueError(f"user event {event!r} not a plain token")
        self.gateway_endpoints = frozenset(
            Endpoint(ip, port) for ip, port in gateway_endpoints
        )
        if not self.gateway_endpoints:
            raise ValueError("at least one gateway endpoint is required")
        # The latest thread of each pid, unless it exited and was forgotten:
        # then exited_comms holds its comm.
        self.threads: dict[int, Thread] = {}
        self.exited_comms: dict[int, str] = {}
        # The request in flight on each socket; finished_sockets holds the
        # 4-tuples whose exchange ended since, as _compact packs them.
        self.sockets: dict[tuple[Endpoint, Endpoint], InFlight] = {}
        self.finished_sockets: set[int | tuple[Endpoint, Endpoint]] = set()
        self._ip_ids: dict[str, int] = {}
        self.minted_traces = 0  # trace ids minted so far, consecutive from 1
        # Ended states per trace, keyed at mint so the order is mint order;
        # a trace replay() hands out is removed.
        self.states_by_trace: dict[int, list[State]] = {}
        self._active_count: Counter[int] = Counter()
        self._completed: list[int] = []
        self.counters: Counter[str] = Counter()
        self.unattributed: Counter[str] = Counter()
        self.last_ns = 0
        self.finalized = False
        # The handler of each event name. A user event cannot shadow a
        # structural one (checked above), so one lookup decides.
        self._handlers = {
            **dict.fromkeys(SYSCALL_EVENTS, ReplayEngine._syscall_boundary),
            **dict.fromkeys(TCP_SEND_PROBES, ReplayEngine._tcp_send),
            TCP_RCV_EVENT: ReplayEngine._tcp_receive,
            FORK_EVENT: ReplayEngine._fork,
            EXIT_EVENT: ReplayEngine._exit,
            **dict.fromkeys(self.user_events, ReplayEngine._user_event),
        }

    # ------------------------------------------------------------------
    # thread pool

    def _thread(self, record: TraceRecord) -> Thread:
        # Late events for an exited pid land on its thread, rebuilt as it
        # was if it was forgotten, rather than on a live ghost. Every handler
        # calls this first, so handle() can handle the record again.
        thread = self.threads.get(record.pid)
        if thread is None:
            comm = self.exited_comms.pop(record.pid, None)
            thread = Thread(pid=record.pid, comm=record.comm or comm or "",
                            exited=comm is not None)
            self.threads[record.pid] = thread
            if thread.exited:
                raise _LateRecord(thread)
        elif record.comm:
            thread.comm = record.comm
        return thread

    def _spawn_child(self, pid: int, comm: str, timestamp_ns: int) -> Thread:
        existing = self.threads.get(pid)
        if existing is not None and not existing.exited:
            # Fork naming a pid that is still live: anomalous stream. Reuse
            # the live thread as the child rather than inventing a twin.
            self.counters["fork_existing_pid"] += 1
            return existing
        if existing is not None:  # pid reuse after exit
            # Late records can open states on an exited thread. Nothing
            # reaches it once superseded, so they end here as at its exit.
            self._end_owned(existing, timestamp_ns)
        self.exited_comms.pop(pid, None)
        child = Thread(pid=pid, comm=comm)
        self.threads[pid] = child
        return child

    def _forget_thread(self, thread: Thread) -> None:
        """Keep only the comm of an exited thread that a rebuilt one equals."""
        if (thread.exited and not thread.active_states and thread.in_syscall is None
                and not thread.in_flight and self.threads.get(thread.pid) is thread):
            del self.threads[thread.pid]
            self.exited_comms[thread.pid] = sys.intern(thread.comm)

    def _compact(self, key: tuple[Endpoint, Endpoint]) -> int | tuple[Endpoint, Endpoint]:
        """A socket key as one int, each side's IP id and port in 48 bits,
        or as itself if a port does not fit 16 bits."""
        (ip_a, port_a), (ip_b, port_b) = key
        if not (0 <= port_a <= 0xFFFF and 0 <= port_b <= 0xFFFF):
            return key
        ids = self._ip_ids
        side_a = ids.setdefault(ip_a, len(ids)) << 16 | port_a
        return side_a << 48 | ids.setdefault(ip_b, len(ids)) << 16 | port_b

    def _forget_socket(self, key: tuple[Endpoint, Endpoint]) -> None:
        """The exchange on key is over: keep only that its 4-tuple was seen."""
        self.sockets.pop(key, None)
        self.finished_sockets.add(self._compact(key))

    # ------------------------------------------------------------------
    # state lifecycle

    def _add_state(self, thread: Thread, state: State) -> bool:
        if state.key in thread.active_states:
            return False
        state.comm = thread.comm
        thread.active_states[state.key] = state
        self._active_count[state.trace_id] += 1
        return True

    def _end_state(
        self, thread: Thread, state: State, end_ns: int, flag: str | None = None
    ) -> None:
        state.end_ns = max(end_ns, state.start_ns)
        if flag:
            state.flags.add(flag)
        del thread.active_states[state.key]
        self.states_by_trace[state.trace_id].append(state)
        self._active_count[state.trace_id] -= 1
        if not self._active_count[state.trace_id]:
            del self._active_count[state.trace_id]
            self._completed.append(state.trace_id)

    def _end_owned(self, thread: Thread, end_ns: int) -> None:
        """End every state a thread still owns as its exit ends them."""
        for state in list(thread.active_states.values()):
            # An un-responded network span cut short by exit is flagged; a
            # fork span ending at exit is its normal end.
            flag = FLAG_ENDED_BY_EXIT if state.kind == "network" else None
            self._end_state(thread, state, end_ns, flag)

    def _propagate(
        self, source: Thread, target: Thread, start_ns: int, conn: Tcp4Tuple | None = None
    ) -> None:
        """Copy every trace active on source onto target: as network states
        on conn, or without one as fork states. Each new state's parents are
        source's states of its trace; a copy target already holds is counted
        as a duplicate."""
        kind, duplicate = ("fork", "duplicate_fork") if conn is None else (
            "network", "duplicate_receive"
        )
        for trace_id, parents in source.active_by_trace().items():
            state = State(
                kind=kind, source_thread=source.pid, trace_id=trace_id,
                owner_pid=target.pid, start_ns=start_ns, conn=conn, parents=parents,
            )
            if not self._add_state(target, state):
                self.counters[duplicate] += 1

    def _take_completed(self) -> list[tuple[int, list[State]]]:
        taken = [
            (trace_id, self.states_by_trace.pop(trace_id))
            for trace_id in self._completed
        ]
        self._completed.clear()
        return taken

    # ------------------------------------------------------------------
    # event handlers

    def handle(self, record: TraceRecord) -> None:
        if self.finalized:
            raise RuntimeError("engine already finalized")
        if record.timestamp_ns > self.last_ns:
            self.last_ns = record.timestamp_ns
        handler = self._handlers.get(record.event)
        if handler is None:
            self.counters["ignored_events"] += 1
            return
        try:  # costs nothing unless raised (CPython 3.11+), so only a rebuild pays
            handler(self, record)
        except _LateRecord as late:
            # Handle the record on the rebuilt thread, then forget it again
            # if it holds nothing.
            handler(self, record)
            self._forget_thread(late.args[0])

    def replay(
        self, records: Iterable[TraceRecord]
    ) -> Iterator[tuple[int, list[State]]]:
        """Handle every record, then finalize, yielding each trace once as
        (trace_id, ended states) when it is complete.

        A trace that completes during replay comes out after the record that
        ended its last state, in completion order; the traces finalize()
        closes follow. The engine forgets each trace it yields.
        """
        for record in records:
            self.handle(record)
            if self._completed:
                yield from self._take_completed()
        self.finalize()
        yield from self._take_completed()

    def _syscall_boundary(self, record: TraceRecord) -> None:
        thread = self._thread(record)
        if record.event.startswith(SYSCALL_ENTER_PREFIX):
            name = record.event[len(SYSCALL_ENTER_PREFIX):]
            if thread.in_syscall is not None:
                self.counters["nested_syscall_enter"] += 1
            thread.in_syscall = name
        else:
            thread.in_syscall = None

    def _tcp_send(self, record: TraceRecord) -> None:
        """Outgoing TCP data: a request in flight, or a response that ends
        a span and leaves nothing in flight on the socket."""
        thread = self._thread(record)
        if thread.in_syscall not in SEND_SYSCALLS:
            self.counters["orphan_probe"] += 1
            return
        conn = _conn_from_args(record.args)
        if conn is None:
            self.counters["bad_tuple_args"] += 1
            return
        # Sending back to a requester ends that span; first match in state
        # creation order wins, extra simultaneous matches are only counted.
        first = None
        extra = 0
        for state in thread.active_states.values():
            if state.conn is not None and state.conn.src == conn.dst:
                if first is None:
                    first = state
                else:
                    extra += 1
        key = conn.normalized()
        replaced = self.sockets.get(key)
        if first is None:
            self.sockets[key] = (thread, conn)
            thread.in_flight += 1
        else:
            self._forget_socket(key)
            self._end_state(thread, first, record.timestamp_ns)
            if extra:
                self.counters["multi_match_response"] += 1
        if replaced is not None and isinstance(replaced[0], Thread):
            replaced[0].in_flight -= 1
            self._forget_thread(replaced[0])

    def _tcp_receive(self, record: TraceRecord) -> None:
        """Incoming TCP data: propagate the sender's traces or mint one."""
        thread = self._thread(record)
        if thread.in_syscall not in RECEIVE_SYSCALLS:
            self.counters["orphan_probe"] += 1
            return
        conn = _conn_from_args(record.args)
        if conn is None:
            self.counters["bad_tuple_args"] += 1
            return
        local, remote = conn.src, conn.dst  # receiver-local orientation
        key = conn.normalized()
        in_flight = self.sockets.get(key)
        if in_flight is not None:
            sender, direction = in_flight
            if sender == EXTERNAL_THREAD:
                # The in-flight request on this socket was already minted;
                # further copies to user space are duplicates.
                self.counters["duplicate_receive"] += 1
                return
            # The sender's states now, not at the send: a trace that has
            # completed since is never extended.
            self._propagate(sender, thread, record.timestamp_ns, direction)
        elif local in self.gateway_endpoints:
            # Arrival on a gateway endpoint with no observed in-flight
            # request: traffic from the untraced outside, new trace.
            trace_id = self._mint()
            direction = Tcp4Tuple(src=remote, dst=local)
            self._add_state(thread, State(
                kind="network", source_thread=EXTERNAL_THREAD, trace_id=trace_id,
                owner_pid=thread.pid, start_ns=record.timestamp_ns, conn=direction,
            ))
            self.sockets[key] = (EXTERNAL_THREAD, direction)
        elif key not in self.sockets and self._compact(key) not in self.finished_sockets:
            self.counters["receive_on_unknown_socket"] += 1
        # else: a response landing back on the requester; no state.

    def _mint(self) -> int:
        self.minted_traces += 1
        self.states_by_trace[self.minted_traces] = []
        return self.minted_traces

    def _fork(self, record: TraceRecord) -> None:
        parent = self._thread(record)
        child_pid = ascii_decimal(record.args.get("child_pid"))
        if child_pid is None:
            self.counters["bad_fork_args"] += 1
            return
        child_comm = record.args.get("child_comm", parent.comm)
        child = self._spawn_child(child_pid, child_comm, record.timestamp_ns)
        self._propagate(parent, child, record.timestamp_ns)

    def _exit(self, record: TraceRecord) -> None:
        thread = self.threads.get(record.pid)
        if thread is None or thread.exited:
            self.counters["exit_unknown_pid"] += 1
            return
        self._end_owned(thread, record.timestamp_ns)
        thread.in_syscall = None
        thread.exited = True
        self._forget_thread(thread)

    def _user_event(self, record: TraceRecord) -> None:
        thread = self._thread(record)
        if thread.active_states:
            for state in thread.active_states.values():
                state.tallies[record.event] += 1
        else:
            self.unattributed[record.event] += 1

    # ------------------------------------------------------------------

    def finalize(self) -> ReplayEngine:
        """End still-open states at the last timestamp seen; return self.

        Every trace this closes joins the completed ones, which replay()
        hands out next; states_by_trace holds every trace not yet handed out.
        """
        if self.finalized:
            raise RuntimeError("engine already finalized")
        for thread in self.threads.values():
            for state in list(thread.active_states.values()):
                self._end_state(thread, state, self.last_ns, FLAG_OPEN_AT_END)
        self.finalized = True
        return self

    def iter_thread_states(self) -> Iterator[State]:
        """Every ended state the engine still holds, trace by trace."""
        for states in self.states_by_trace.values():
            yield from states
