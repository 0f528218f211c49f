from __future__ import annotations

import pytest

from reqflow.dag import build_trace, validate_dag
from reqflow.engine import ReplayEngine
from reqflow.ingest import merge_streams
from reqflow.records import Endpoint
from reqflow.synth import TopologySpec


def reconstruct(streams, topology: TopologySpec, validate: bool = True):
    """Replay synthetic streams with the engine configured from the topology.

    Returns (engine, dags), the dags in mint order. This is the path the
    command line front end takes: ReplayEngine.replay() and build_trace.
    """
    gateway = next(s for s in topology.services if s.name == topology.gateway)
    engine = ReplayEngine(
        gateway_endpoints=[Endpoint(gateway.ip, gateway.port)],
        user_events=sorted(topology.user_event_rates),
    )
    records = merge_streams([iter(stream) for stream in streams])
    built = {
        trace_id: build_trace(trace_id, states)
        for trace_id, states in engine.replay(records)
    }
    dags = [built[trace_id] for trace_id in sorted(built)]
    if validate:
        for dag in dags:
            validate_dag(dag)
    return engine, dags


@pytest.fixture(scope="session")
def demo_run():
    """One shared demo simulation plus its reconstruction."""
    from reqflow.synth import demo_simulation, demo_topology

    streams, truth = demo_simulation()
    engine, dags = reconstruct(streams, demo_topology())
    return streams, truth, engine, dags
