"""Synthetic workload generation with exact ground truth.

A TopologySpec describes services, their listen endpoints, worker models,
and downstream calls. simulate() walks requests through the topology on a
strictly increasing clock and emits the same kernel events a live capture
would produce, alongside the span tree it knows to be true. Requests are
serviced one at a time so every thread holds at most one active span and
reconstruction is exact; concurrency across CPUs only scatters records over
per-CPU streams.

The outside client is untraced: its side of the gateway exchange emits
nothing, exactly as a pid-filtered capture would look.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Generator
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from importlib import resources
from pathlib import Path

from .engine import EXTERNAL_THREAD, Tcp4Tuple
from .records import (
    EXIT_EVENT,
    FORK_EVENT,
    NAME_RE,
    RECEIVE_SYSCALLS,
    SEND_SYSCALLS,
    STRUCTURAL_EVENTS,
    SYSCALL_ENTER_PREFIX,
    SYSCALL_EXIT_PREFIX,
    TCP_RCV_EVENT,
    TCP_SEND_PROBES,
    Endpoint,
    TraceRecord,
    check_types,
    read_json,
)
from .truth import GroundTruth, SpanTruth, TraceTruth
from .truth import compare  # noqa: F401  (importable from synth, as the benchmark does)

WORKER_MODELS = ("reuse", "fork_per_request")

_EXTERNAL_IP = "203.0.113.9"
_EPHEMERAL_BASE = 40_000
_EPHEMERAL_SPAN = 20_000
_CLIENT_BASE = 60_000
_CLIENT_SPAN = 5_000

_SEND_CHOICES = tuple(sorted(SEND_SYSCALLS))
_RECV_CHOICES = tuple(sorted(RECEIVE_SYSCALLS))
_PROBE_CHOICES = tuple(sorted(TCP_SEND_PROBES))


class InvalidTopologyError(ValueError):
    pass


# The keys and types of a topology document, and of each of its services, as
# TopologySpec.to_doc writes them; a document may leave out the optional ones.
_TOPOLOGY_TYPES = {"services": (list, dict), "gateway": (str, None)}
_TOPOLOGY_OPTIONS = {"user_event_rates": (dict, None), "reuse_connections": (bool, None)}
_SERVICE_TYPES = {"name": (str, None), "ip": (str, None), "port": (int, None)}
_SERVICE_OPTIONS = {
    "worker_model": (str, None), "calls": (list, str), "service_time_ns": (list, int),
    "pid": (int, None), "child_pids": (list, int),
}


@dataclass(frozen=True)
class ServiceSpec:
    name: str
    ip: str
    port: int
    worker_model: str = "reuse"
    calls: tuple[str, ...] = ()
    service_time_ns: tuple[int, int] = (1_000, 5_000)
    pid: int | None = None
    child_pids: tuple[int, ...] = ()


@dataclass
class TopologySpec:
    services: tuple[ServiceSpec, ...]
    gateway: str
    user_event_rates: dict[str, float] = field(default_factory=dict)
    reuse_connections: bool = False

    def validate(self) -> None:
        if not self.services:
            raise InvalidTopologyError("topology has no services")
        names = [svc.name for svc in self.services]
        if len(set(names)) != len(names):
            raise InvalidTopologyError("duplicate service names")
        by_name = {svc.name: svc for svc in self.services}
        if self.gateway not in by_name:
            raise InvalidTopologyError(f"gateway {self.gateway!r} is not a service")
        pinned = [svc.pid for svc in self.services if svc.pid is not None]
        if len(set(pinned)) != len(pinned):
            raise InvalidTopologyError("duplicate pinned pids")
        for svc in self.services:
            if not NAME_RE.fullmatch(svc.name):
                raise InvalidTopologyError(f"service name {svc.name!r} not a plain token")
            if not NAME_RE.fullmatch(svc.ip):
                raise InvalidTopologyError(f"{svc.name}: ip {svc.ip!r} not a plain token")
            if svc.worker_model not in WORKER_MODELS:
                raise InvalidTopologyError(
                    f"{svc.name}: worker_model must be one of {WORKER_MODELS}"
                )
            if not (0 < svc.port <= 65535):
                raise InvalidTopologyError(f"{svc.name}: bad port {svc.port}")
            if len(svc.service_time_ns) != 2:
                raise InvalidTopologyError(f"{svc.name}: service_time_ns must hold 2 items")
            lo, hi = svc.service_time_ns
            if lo < 0 or hi < lo:
                raise InvalidTopologyError(f"{svc.name}: bad service time ({lo}, {hi})")
            for target in svc.calls:
                if target not in by_name:
                    raise InvalidTopologyError(f"{svc.name} calls unknown {target!r}")
        for event, rate in self.user_event_rates.items():
            if event in STRUCTURAL_EVENTS:
                raise InvalidTopologyError(f"user event {event!r} is structural")
            if not NAME_RE.fullmatch(event):
                raise InvalidTopologyError(f"user event {event!r} not a plain token")
            # a bool is not a rate, and NaN would never end a Poisson draw
            if type(rate) not in (int, float) or not math.isfinite(rate):
                raise InvalidTopologyError(f"user event {event!r} rate {rate!r} is not a number")
            if rate < 0:
                raise InvalidTopologyError(f"user event {event!r} has negative rate")
        try:
            TopologicalSorter({svc.name: svc.calls for svc in self.services}).prepare()
        except CycleError as exc:
            # graphlib lists a callee before its caller and repeats the first
            # one at the end; report the loop in call order, from the service
            # listed first.
            loop = exc.args[1][:0:-1]
            members = set(loop)
            start = loop.index(next(svc.name for svc in self.services if svc.name in members))
            cycle = " -> ".join(loop[start:] + loop[:start + 1])
            raise InvalidTopologyError(f"call graph has a cycle: {cycle}") from None

    def to_doc(self) -> dict:
        services = []
        for svc in self.services:
            doc: dict = {
                "name": svc.name,
                "ip": svc.ip,
                "port": svc.port,
                "worker_model": svc.worker_model,
                "calls": list(svc.calls),
                "service_time_ns": list(svc.service_time_ns),
            }
            if svc.pid is not None:
                doc["pid"] = svc.pid
            if svc.child_pids:
                doc["child_pids"] = list(svc.child_pids)
            services.append(doc)
        return {
            "gateway": self.gateway,
            "reuse_connections": self.reuse_connections,
            "user_event_rates": self.user_event_rates,
            "services": services,
        }

    @classmethod
    def from_doc(cls, doc: object) -> TopologySpec:
        """A topology as to_doc writes it; a key it leaves out takes its
        field's default."""
        try:
            check_types(doc, _TOPOLOGY_TYPES)
            check_types(doc, _TOPOLOGY_OPTIONS, required=False)
            return cls(
                services=tuple(_service(svc) for svc in doc["services"]),
                gateway=doc["gateway"],
                **{key: doc[key] for key in _TOPOLOGY_OPTIONS if key in doc},
            )
        except ValueError as exc:
            raise InvalidTopologyError(f"bad topology document: {exc}") from exc


def _service(doc: object) -> ServiceSpec:
    check_types(doc, _SERVICE_TYPES)
    check_types(doc, _SERVICE_OPTIONS, required=False)
    return ServiceSpec(**{
        key: tuple(doc[key]) if type(doc[key]) is list else doc[key]
        for key in (*_SERVICE_TYPES, *_SERVICE_OPTIONS)
        if key in doc
    })


def load_topology(path: str | Path) -> TopologySpec:
    try:
        doc = read_json(path)
    except (OSError, ValueError) as exc:
        raise InvalidTopologyError(f"cannot load topology from {path}: {exc}") from exc
    topology = TopologySpec.from_doc(doc)
    topology.validate()
    return topology


# ----------------------------------------------------------------------
# simulation

def _poisson(rng: random.Random, mean: float) -> int:
    if mean <= 0:
        return 0
    limit = math.exp(-mean)
    count = 0
    product = 1.0
    while True:
        product *= rng.random()
        if product <= limit:
            return count
        count += 1


def _tuple_args(conn: Tcp4Tuple) -> dict[str, str]:
    return {
        "saddr": conn.src.ip,
        "sport": str(conn.src.port),
        "daddr": conn.dst.ip,
        "dport": str(conn.dst.port),
    }


class _Simulation:
    def __init__(self, topology, cpus, rng, duplicate_receives):
        self.topology = topology
        self.cpus = cpus
        self.rng = rng
        self.duplicate_receives = duplicate_receives
        self.by_name = {svc.name: svc for svc in topology.services}
        self.records: list[TraceRecord] = []
        self.truth_traces: list[TraceTruth] = []
        self.now = 5_000_000_000
        self._eph_counter = 0
        self._conn_cache: dict[tuple[int, str], Tcp4Tuple] = {}
        # pid assignment: pinned first, then a counter that skips them
        self.pids: dict[str, int] = {}
        self._used_pids = {
            pid
            for svc in topology.services
            for pid in (svc.pid, *svc.child_pids)
            if pid is not None
        }
        self._next_pid = 1001
        for svc in topology.services:
            self.pids[svc.name] = svc.pid if svc.pid is not None else self._alloc_pid()
        self._child_iters = {svc.name: iter(svc.child_pids) for svc in topology.services}

    def _alloc_pid(self) -> int:
        while self._next_pid in self._used_pids:
            self._next_pid += 1
        pid = self._next_pid
        self._used_pids.add(pid)
        self._next_pid += 1
        return pid

    def _child_pid(self, svc: ServiceSpec) -> int:
        pinned = next(self._child_iters[svc.name], None)
        return pinned if pinned is not None else self._alloc_pid()

    # -- clock and emission ------------------------------------------

    def _emit(self, pid: int, comm: str, event: str, args: dict | None = None) -> int:
        self.now += self.rng.randint(80, 800)
        self.records.append(
            TraceRecord(
                timestamp_ns=self.now,
                cpu=self.rng.randrange(self.cpus),
                pid=pid,
                comm=comm,
                event=event,
                args=dict(args) if args else {},
            )
        )
        return self.now

    def _delay(self, svc: ServiceSpec) -> None:
        self.now += self.rng.randint(*svc.service_time_ns)

    def _user_plan(self, slots: int) -> tuple[list[Counter], dict[str, int]]:
        plan = [Counter() for _ in range(slots)]
        totals: Counter[str] = Counter()
        for event in sorted(self.topology.user_event_rates):
            count = _poisson(self.rng, self.topology.user_event_rates[event])
            if count:
                totals[event] = count
            for _ in range(count):
                plan[self.rng.randrange(slots)][event] += 1
        return plan, dict(sorted(totals.items()))

    def _emit_user(self, pid: int, comm: str, counts: Counter) -> None:
        for event in sorted(counts):
            for _ in range(counts[event]):
                self._emit(pid, comm, event)

    def _message(self, sender, conn: Tcp4Tuple, receiver) -> tuple[int | None, int | None]:
        """One data transmission. sender/receiver are (pid, comm) or None
        for the untraced outside world. Returns (send probe ts, receive ts)."""
        send_ts = rcv_ts = None
        if sender is not None:
            pid, comm = sender
            syscall = self.rng.choice(_SEND_CHOICES)
            self._emit(pid, comm, SYSCALL_ENTER_PREFIX + syscall)
            probe = self.rng.choice(_PROBE_CHOICES)
            send_ts = self._emit(pid, comm, probe, _tuple_args(conn))
            self._emit(pid, comm, SYSCALL_EXIT_PREFIX + syscall)
        if receiver is not None:
            pid, comm = receiver
            syscall = self.rng.choice(_RECV_CHOICES)
            self._emit(pid, comm, SYSCALL_ENTER_PREFIX + syscall)
            # receiver-local orientation: saddr is the receiver's endpoint
            rcv_args = _tuple_args(Tcp4Tuple(src=conn.dst, dst=conn.src))
            rcv_ts = self._emit(pid, comm, TCP_RCV_EVENT, rcv_args)
            if self.duplicate_receives:
                self._emit(pid, comm, TCP_RCV_EVENT, dict(rcv_args))
            self._emit(pid, comm, SYSCALL_EXIT_PREFIX + syscall)
        return send_ts, rcv_ts

    def _connection(self, caller_pid: int, caller_ip: str, svc: ServiceSpec) -> Tcp4Tuple:
        key = (caller_pid, svc.name)
        if self.topology.reuse_connections and key in self._conn_cache:
            return self._conn_cache[key]
        port = _EPHEMERAL_BASE + self._eph_counter % _EPHEMERAL_SPAN
        self._eph_counter += 1
        conn = Tcp4Tuple(
            src=Endpoint(caller_ip, port), dst=Endpoint(svc.ip, svc.port)
        )
        if self.topology.reuse_connections:
            self._conn_cache[key] = conn
        return conn

    # -- request walk ------------------------------------------------
    # _serve and _work are generators: each yields the walk of a sub-call
    # and is resumed with its result, so _drive follows a call graph of any
    # depth on an explicit stack instead of Python's.

    def run_request(self, trace_id: int) -> None:
        gateway = self.by_name[self.topology.gateway]
        if self.topology.reuse_connections:
            client = Endpoint(_EXTERNAL_IP, _CLIENT_BASE)
        else:
            client = Endpoint(_EXTERNAL_IP, _CLIENT_BASE + (trace_id - 1) % _CLIENT_SPAN)
        conn = Tcp4Tuple(src=client, dst=Endpoint(gateway.ip, gateway.port))
        listener = self.pids[gateway.name]
        _, rcv_ts = self._message(None, conn, (listener, gateway.name))
        spans: list[SpanTruth] = []
        _drive(self._serve(
            gateway, conn, rcv_ts, trace_id, spans,
            parent_index=None, source_thread=EXTERNAL_THREAD, requester=None,
        ))
        self.truth_traces.append(TraceTruth(trace_id, spans))

    def _serve(self, svc, conn, rcv_ts, trace_id, spans, parent_index,
               source_thread, requester) -> Generator:
        listener = self.pids[svc.name]
        span = SpanTruth(
            kind="network", owner_pid=listener, comm=svc.name, trace_id=trace_id,
            start_ns=rcv_ts, end_ns=0, parent_index=parent_index,
            source_thread=source_thread, conn=(*conn.src, *conn.dst),
        )
        spans.append(span)
        my_index = len(spans) - 1
        if svc.worker_model == "fork_per_request":
            plan, tally = self._user_plan(2)
            self._emit_user(listener, svc.name, plan[0])
            self._delay(svc)
            child = self._child_pid(svc)
            fork_ts = self._emit(
                listener, svc.name, FORK_EVENT,
                {"comm": svc.name, "pid": str(listener),
                 "child_comm": svc.name, "child_pid": str(child)},
            )
            fork_span = SpanTruth(
                kind="fork", owner_pid=child, comm=svc.name, trace_id=trace_id,
                start_ns=fork_ts, end_ns=0, parent_index=my_index, source_thread=listener,
            )
            spans.append(fork_span)
            fork_index = len(spans) - 1
            fork_span.tallies = yield self._work(
                child, svc.name, svc, trace_id, spans, fork_index
            )
            fork_span.end_ns = self._emit(
                child, svc.name, EXIT_EVENT, {"comm": svc.name, "pid": str(child)}
            )
            self._emit_user(listener, svc.name, plan[1])
            span.tallies = tally
        else:
            span.tallies = yield self._work(listener, svc.name, svc, trace_id, spans, my_index)
        self._delay(svc)
        response = Tcp4Tuple(src=conn.dst, dst=conn.src)
        send_ts, _ = self._message((listener, svc.name), response, requester)
        span.end_ns = send_ts

    def _work(self, worker, comm, svc, trace_id, spans, parent_index) -> Generator:
        """Downstream calls plus user activity on the worker thread; returns
        the worker's tallies."""
        plan, totals = self._user_plan(len(svc.calls) + 2)
        self._emit_user(worker, comm, plan[0])
        self._delay(svc)
        for position, name in enumerate(svc.calls):
            callee = self.by_name[name]
            conn = self._connection(worker, svc.ip, callee)
            listener = self.pids[callee.name]
            _, rcv_ts = self._message((worker, comm), conn, (listener, callee.name))
            yield self._serve(
                callee, conn, rcv_ts, trace_id, spans,
                parent_index=parent_index, source_thread=worker, requester=(worker, comm),
            )
            self._emit_user(worker, comm, plan[position + 1])
        self._emit_user(worker, comm, plan[-1])
        return totals

    def finish(self) -> tuple[list[list[TraceRecord]], GroundTruth]:
        streams: list[list[TraceRecord]] = [[] for _ in range(self.cpus)]
        for record in self.records:
            streams[record.cpu].append(record)
        return streams, GroundTruth(self.truth_traces)


def _drive(walk: Generator) -> None:
    stack = [walk]
    result = None
    while stack:
        try:
            call = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(call)
            result = None


def simulate(
    topology: TopologySpec,
    request_count: int,
    cpus: int,
    seed: int,
    duplicate_receives: bool = False,
) -> tuple[list[list[TraceRecord]], GroundTruth]:
    """Deterministically generate per-CPU record streams plus ground truth."""
    topology.validate()
    if cpus < 1:
        raise ValueError("cpus must be at least 1")
    if request_count < 0:
        raise ValueError("request_count must not be negative")
    sim = _Simulation(topology, cpus, random.Random(seed), duplicate_receives)
    for number in range(request_count):
        sim.run_request(number + 1)
    return sim.finish()


# ----------------------------------------------------------------------
# emitters

def emit_ftrace_line(record: TraceRecord) -> str:
    secs, frac = divmod(record.timestamp_ns, 1_000_000_000)
    head = (
        f"{record.comm}-{record.pid} [{record.cpu:03d}] ...."
        f" {secs}.{frac:09d}: {record.event}:"
    )
    if not record.args:
        return head
    args = " ".join(f"{k}={v}" for k, v in record.args.items())
    return f"{head} {args}"


def emit_bpftrace_line(record: TraceRecord) -> str:
    fields = [
        str(record.timestamp_ns),
        str(record.cpu),
        str(record.pid),
        record.comm,
        record.event,
    ]
    fields.extend(f"{k}={v}" for k, v in record.args.items())
    return "\t".join(fields)


_EMITTERS = {"ftrace": emit_ftrace_line, "bpftrace": emit_bpftrace_line}


def write_streams(streams, out_dir: str | Path, backend: str) -> list[Path]:
    emit = _EMITTERS[backend]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, stream in enumerate(streams):
        path = out / f"cpu{index}.{backend}.log"
        with path.open("w") as handle:
            for record in stream:
                handle.write(emit(record))
                handle.write("\n")
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
# fault injection

def inject_faults(
    streams,
    seed: int,
    drop_user: float | None = None,
    drop_structural: float | None = None,
    truncate: int | None = None,
):
    """Drop records the way a capture loses them; returns (streams, removal
    manifest). Each user event is dropped with probability drop_user, each
    structural record with probability drop_structural, and every record
    after the truncate timestamp; a fault left None drops nothing.

    User and structural records draw from two generators seeded alike, so
    one fault drops the same records whichever others are given. A record
    goes under the first fault that drops it, and the manifest lists the
    drop_user_events entries, then drop_structural, then truncate."""
    rngs = {"drop_user_events": random.Random(seed), "drop_structural": random.Random(seed)}
    manifests: dict[str, list[dict]] = {reason: [] for reason in (*rngs, "truncate")}
    kept_streams = []
    for index, stream in enumerate(streams):
        kept = []
        for seq, record in enumerate(stream):
            if record.event in STRUCTURAL_EVENTS:
                reason, probability = "drop_structural", drop_structural
            else:
                reason, probability = "drop_user_events", drop_user
            lost = probability is not None and rngs[reason].random() < probability
            if not lost:
                if truncate is None or record.timestamp_ns <= truncate:
                    kept.append(record)
                    continue
                reason = "truncate"
            manifests[reason].append(
                {
                    "stream": index,
                    "seq": seq,
                    "timestamp_ns": record.timestamp_ns,
                    "cpu": record.cpu,
                    "pid": record.pid,
                    "event": record.event,
                    "reason": reason,
                }
            )
        kept_streams.append(kept)
    return kept_streams, [entry for entries in manifests.values() for entry in entries]


# ----------------------------------------------------------------------
# canned topologies

def random_topology(seed: int) -> TopologySpec:
    """A small random acyclic topology; services only call higher indexes."""
    rng = random.Random(seed)
    count = rng.randint(1, 10)
    services = []
    for index in range(count):
        remaining = count - index - 1
        fanout = rng.randint(0, min(4, remaining)) if remaining else 0
        calls = [f"svc{j}" for j in rng.sample(range(index + 1, count), fanout)]
        if calls and rng.random() < 0.2:
            calls.append(rng.choice(calls))  # repeated call to one target
        lo = rng.randint(400, 2000)
        services.append(
            ServiceSpec(
                name=f"svc{index}",
                ip=f"10.20.{index // 250}.{index % 250 + 1}",
                port=7000 + index,
                worker_model=rng.choice(WORKER_MODELS),
                calls=tuple(calls),
                service_time_ns=(lo, lo + rng.randint(200, 5000)),
            )
        )
    rates = {}
    if rng.random() < 0.85:
        rates["page_fault_user"] = round(rng.uniform(0.0, 5.0), 2)
    if rng.random() < 0.6:
        rates["sched_migrate_task"] = round(rng.uniform(0.0, 1.5), 2)
    return TopologySpec(
        services=tuple(services),
        gateway="svc0",
        user_event_rates=rates,
        reuse_connections=rng.random() < 0.5,
    )


DEMO_SEED = 11
DEMO_CPUS = 2
DEMO_REQUESTS = 1


def demo_topology() -> TopologySpec:
    """Bundled two-tier fixture: fork-per-request frontend, one RPC hop."""
    return load_topology(resources.files("reqflow").joinpath("fixtures/two_tier_fork.json"))


def demo_simulation() -> tuple[list[list[TraceRecord]], GroundTruth]:
    return simulate(demo_topology(), DEMO_REQUESTS, DEMO_CPUS, DEMO_SEED)
