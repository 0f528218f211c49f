"""Seeded synthetic captures for the benchmark workloads.

Each workload is a synth topology plus the command-line flags a user would
pass to ``reqflow reconstruct`` for it. ``generate`` simulates the
deployment, gives user events the arguments real tracepoints print, writes
the per-CPU streams, and returns the ground truth to check against.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reqflow.records import STRUCTURAL_EVENTS, Endpoint  # noqa: E402
from reqflow.synth import (  # noqa: E402
    GroundTruth,
    ServiceSpec,
    TopologySpec,
    simulate,
    write_streams,
)


@dataclass(frozen=True)
class Workload:
    name: str
    topology: TopologySpec
    requests: int
    cpus: int
    backend: str
    gantt: bool = False

    @property
    def gateway(self) -> Endpoint:
        svc = next(s for s in self.topology.services if s.name == self.topology.gateway)
        return Endpoint(svc.ip, svc.port)

    @property
    def user_events(self) -> list[str]:
        return sorted(self.topology.user_event_rates)

    def flags(self, out_dir: Path) -> list[str]:
        """Everything after the input files on the reconstruct command line."""
        flags = ["--backend", self.backend, "--gateway", str(self.gateway)]
        for event in self.user_events:
            flags += ["--user-event", event]
        if self.gantt:
            flags.append("--gantt")
        return flags + ["--out", str(out_dir)]


def _chain_reuse() -> Workload:
    # The criterion-08 topology: six reuse services in a chain on kept-alive
    # connections, no user events.
    services = tuple(
        ServiceSpec(
            name=f"svc{i}", ip=f"10.9.0.{i + 1}", port=7100 + i,
            worker_model="reuse",
            calls=(f"svc{i + 1}",) if i < 5 else (),
            service_time_ns=(200, 400),
        )
        for i in range(6)
    )
    topology = TopologySpec(services=services, gateway="svc0", reuse_connections=True)
    return Workload("chain-reuse", topology, 1500, 4, "bpftrace")


def _tally_heavy() -> Workload:
    # About 200 user events per span; sched_switch is 30% of them.
    services = (
        ServiceSpec(name="web", ip="10.7.0.1", port=8080, worker_model="reuse",
                    calls=("db",), service_time_ns=(2000, 6000)),
        ServiceSpec(name="db", ip="10.7.0.2", port=5432, worker_model="reuse",
                    service_time_ns=(2000, 6000)),
    )
    topology = TopologySpec(
        services=services, gateway="web", reuse_connections=True,
        user_event_rates={
            "page_fault_user": 100.0,
            "sched_migrate_task": 40.0,
            "sched_switch": 60.0,
        },
    )
    return Workload("tally-heavy", topology, 300, 2, "ftrace")


def _fork_fanout() -> Workload:
    # A forking gateway fans out to four services; two of them call a shared
    # cache. A fresh connection per call, so pools grow with the capture.
    services = (
        ServiceSpec(name="gw", ip="10.5.0.1", port=80, worker_model="fork_per_request",
                    calls=("auth", "catalog", "pricing", "search"),
                    service_time_ns=(1000, 3000)),
        ServiceSpec(name="auth", ip="10.5.0.2", port=7001, worker_model="fork_per_request",
                    calls=("cache",), service_time_ns=(1000, 3000)),
        ServiceSpec(name="catalog", ip="10.5.0.3", port=7002,
                    worker_model="fork_per_request", service_time_ns=(1000, 3000)),
        ServiceSpec(name="pricing", ip="10.5.0.4", port=7003, worker_model="reuse",
                    calls=("cache",), service_time_ns=(1000, 3000)),
        ServiceSpec(name="search", ip="10.5.0.5", port=7004, worker_model="reuse",
                    service_time_ns=(1000, 3000)),
        ServiceSpec(name="cache", ip="10.5.0.6", port=6379, worker_model="reuse",
                    service_time_ns=(500, 1500)),
    )
    topology = TopologySpec(
        services=services, gateway="gw", reuse_connections=False,
        user_event_rates={"page_fault_user": 2.0},
    )
    return Workload("fork-fanout", topology, 600, 3, "bpftrace", gantt=True)


WORKLOADS = {w.name: w for w in (_chain_reuse(), _tally_heavy(), _fork_fanout())}


def _tracepoint_args(record, rng: random.Random) -> dict[str, str]:
    """Arguments in the formats the kernel tracepoints print."""
    if record.event == "page_fault_user":
        return {
            "address": f"0x{rng.getrandbits(47):x}",
            "ip": f"0x{0x550000000000 + rng.getrandbits(32):x}",
            "error_code": "0x6",
        }
    if record.event == "sched_migrate_task":
        return {
            "comm": record.comm, "pid": str(record.pid), "prio": "120",
            "orig_cpu": str(record.cpu), "dest_cpu": str(rng.randrange(8)),
        }
    if record.event == "sched_switch":
        # The kernel prints a bare "==>" between the prev and next fields;
        # it rides on prev_state's value so the emitter reproduces it.
        return {
            "prev_comm": record.comm, "prev_pid": str(record.pid), "prev_prio": "120",
            "prev_state": "S ==>",
            "next_comm": f"kworker/{record.cpu}:1", "next_pid": str(rng.randrange(30, 300)),
            "next_prio": "120",
        }
    return {}


def generate(workload: Workload, seed: int, out_dir: Path) -> tuple[list[Path], GroundTruth]:
    """Write the workload's capture for this seed; return its paths and truth."""
    streams, truth = simulate(workload.topology, workload.requests, workload.cpus, seed)
    rng = random.Random(seed)
    for stream in streams:
        for record in stream:
            if record.event not in STRUCTURAL_EVENTS:
                record.args = _tracepoint_args(record, rng)
    return write_streams(streams, out_dir, workload.backend), truth


def write_empty(workload: Workload, out_dir: Path) -> list[Path]:
    """The workload's capture with no records: same files, all empty."""
    return write_streams([[] for _ in range(workload.cpus)], out_dir, workload.backend)
