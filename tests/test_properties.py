"""Property test: arbitrary record streams replay and build without a crash.

Streams run over a few pids and endpoints so that receives, sends, forks,
exits and pid reuse collide often, and timestamps repeat. Examples are
derandomized so that the suite is deterministic.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from reqflow.dag import build_all_dags, validate_dag
from reqflow.engine import ReplayEngine
from reqflow.records import Endpoint, TraceRecord

PIDS = st.integers(min_value=1, max_value=5)
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(STEPS)
def test_any_stream_replays_into_valid_dags_without_orphans(steps):
    engine = ReplayEngine([ENDPOINTS[0]], user_events=("page_fault_user",))
    ts = 1_000
    for dt, pid, records in steps:
        ts += dt
        for event, args in records:
            engine.handle(TraceRecord(
                timestamp_ns=ts, cpu=0, pid=pid, comm=f"p{pid}", event=event,
                args=dict(args),
            ))
    snapshot = engine.finalize()
    dags = list(build_all_dags(snapshot))
    assert [dag.trace_id for dag in dags] == snapshot.minted_traces
    for dag in dags:
        validate_dag(dag)
        assert not dag.orphans
