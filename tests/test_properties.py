"""Property tests: arbitrary record streams replay and build without a crash,
and handing complete traces out during replay changes no output.

Streams run over a few pids and endpoints so that receives, sends, forks,
exits and pid reuse collide often, and timestamps repeat. Examples are
derandomized so that the suite is deterministic.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqflow import engine as engine_module
from reqflow.dag import build_all_dags, build_trace, export_json, validate_dag
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(STEPS)
def test_any_stream_replays_into_valid_dags_without_orphans(steps):
    engine = _engine()
    handed = []
    for trace_id, states in engine.replay(_records(steps)):
        handed.append(trace_id)
        dag = build_trace(trace_id, states)
        validate_dag(dag)
        assert not dag.orphans
    assert sorted(handed) == engine.minted_traces


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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "WRITE_BATCH", 1)
        for trace_id, states in engine.replay(_records(steps)):
            assert trace_id not in streamed
            streamed[trace_id] = export_json(build_trace(trace_id, states))
            # a yielded trace has no state left in the engine, active or ended
            assert not streamed.keys() & engine.states_by_trace.keys()
            for thread in engine.threads.values():
                assert not streamed.keys() & thread.active_by_trace().keys()
    assert sorted(streamed) == batch.minted_traces == engine.minted_traces
    assert [streamed[trace_id] for trace_id in sorted(streamed)] == expected
