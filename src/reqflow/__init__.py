"""Request-flow reconstruction from kernel trace captures.

Parses ftrace or bpftrace output, replays it through a per-thread state
model that follows TCP sends, receives, forks, and exits, and emits one
directed acyclic graph per externally arriving request. A synthetic
harness generates captures with exact ground truth for end-to-end checks.
"""

from .dag import (
    DagValidationError,
    RequestDag,
    build_all_dags,
    export_json,
    render_gantt,
    render_summary,
    summarize,
    validate_dag,
)
from .engine import EXTERNAL_THREAD, EngineSnapshot, ReplayEngine, Tcp4Tuple
from .ingest import (
    BACKENDS,
    IngestConfig,
    MalformedLineError,
    ParseStats,
    UnsortedStreamError,
    filter_records,
    merge_streams,
    parse_bpftrace_line,
    parse_ftrace_line,
    read_stream,
)
from .records import STRUCTURAL_EVENTS, Endpoint, TraceRecord
from .synth import (
    FaultMode,
    InvalidTopologyError,
    ServiceSpec,
    TopologySpec,
    demo_topology,
    inject_faults,
    load_topology,
    random_topology,
    simulate,
    write_streams,
)
from .truth import DiffReport, GroundTruth, SpanTruth, TraceTruth, compare

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "DagValidationError",
    "DiffReport",
    "EXTERNAL_THREAD",
    "Endpoint",
    "EngineSnapshot",
    "FaultMode",
    "GroundTruth",
    "IngestConfig",
    "InvalidTopologyError",
    "MalformedLineError",
    "ParseStats",
    "ReplayEngine",
    "RequestDag",
    "STRUCTURAL_EVENTS",
    "ServiceSpec",
    "SpanTruth",
    "Tcp4Tuple",
    "TopologySpec",
    "TraceRecord",
    "TraceTruth",
    "UnsortedStreamError",
    "build_all_dags",
    "compare",
    "demo_topology",
    "export_json",
    "filter_records",
    "inject_faults",
    "load_topology",
    "merge_streams",
    "parse_bpftrace_line",
    "parse_ftrace_line",
    "random_topology",
    "read_stream",
    "render_gantt",
    "render_summary",
    "simulate",
    "summarize",
    "validate_dag",
    "write_streams",
]
