"""The traced run: each layer's public functions timed from outside.

One pass calls the layers in the order ``reqflow reconstruct`` calls them,
but materialises each layer's output so that the layer can be timed on its
own. Spans are kept in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import workloads
from reqflow.dag import build_all_dags, export_json, render_gantt, render_summary, summarize
from reqflow.engine import ReplayEngine
from reqflow.ingest import ParseStats, merge_streams, read_stream

# Spans of work the CLI itself does on every workload. dag.gantt is traced
# on every workload too, but the CLI renders gantt charts only with --gantt.
CLI_SPANS = (
    "ingest.parse", "ingest.merge", "engine.replay", "engine.finalize",
    "dag.build", "dag.export", "dag.summary", "cli.write",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, trace: int, parent: str | None = None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append({
                "trace": trace, "name": name, "parent": parent,
                "start_s": start, "end_s": time.perf_counter(),
            })


def _engine(workload: workloads.Workload) -> ReplayEngine:
    return ReplayEngine([workload.gateway], user_events=workload.user_events)


def _parse(paths: list[Path], backend: str, stats: ParseStats) -> list[list]:
    streams = []
    for path in paths:
        with open(path) as handle:
            streams.append(list(read_stream(handle, backend=backend, stats=stats)))
    return streams


def traced_pass(
    workload: workloads.Workload, paths: list[Path], out_dir: Path,
    tracer: Tracer, trace: int,
) -> dict:
    """One traced reconstruction; writes the CLI's output tree into out_dir."""
    span = tracer.span
    stats = ParseStats()
    engine = _engine(workload)
    with span("reconstruct", trace):
        with span("ingest.parse", trace, "reconstruct"):
            streams = _parse(paths, workload.backend, stats)
        with span("ingest.merge", trace, "reconstruct"):
            records = list(merge_streams(streams))
        with span("engine.replay", trace, "reconstruct"):
            handle = engine.handle
            for record in records:
                handle(record)
        with span("engine.finalize", trace, "reconstruct"):
            snapshot = engine.finalize()
        with span("dag.build", trace, "reconstruct"):
            dags = list(build_all_dags(snapshot))
        with span("dag.export", trace, "reconstruct"):
            exported = [export_json(dag) for dag in dags]
        with span("dag.gantt", trace, "reconstruct"):
            gantts = [render_gantt(dag) for dag in dags]
        with span("dag.summary", trace, "reconstruct"):
            summary = render_summary(summarize(dags)) if dags else "traces 0\n"
        with span("cli.write", trace, "reconstruct"):
            out_dir.mkdir(parents=True)
            for dag, text, gantt in zip(dags, exported, gantts):
                (out_dir / f"trace_{dag.trace_id}.json").write_text(text)
                if workload.gantt:
                    (out_dir / f"trace_{dag.trace_id}.gantt.txt").write_text(gantt)
            (out_dir / "summary.txt").write_text(summary)
            diagnostics = {
                "minted_traces": snapshot.minted_traces,
                "counters": dict(sorted(snapshot.counters.items())),
                "unattributed": dict(sorted(snapshot.unattributed.items())),
                "parse": {"parsed": stats.parsed, "skipped": stats.skipped,
                          "malformed": stats.malformed, "errors": stats.errors},
            }
            (out_dir / "diagnostics.json").write_text(
                json.dumps(diagnostics, sort_keys=True, indent=2) + "\n"
            )

    return {
        "records": len(records),
        "ingest.malformed": stats.malformed,
        "engine.states": sum(1 for _ in snapshot.iter_thread_states()),
        "engine.threads": len(snapshot.threads),
        "engine.sockets": len(snapshot.sockets),
        "engine.ignored_events": snapshot.counters.get("ignored_events", 0),
        "engine.unattributed": sum(snapshot.unattributed.values()),
        "dag.nodes": sum(len(dag.nodes) for dag in dags),
        "dag.edges": sum(len(dag.edges) for dag in dags),
        "dag.orphans": sum(len(dag.orphans) for dag in dags),
        "dag.export_mib": sum(len(text.encode()) for text in exported) / 2**20,
        "cli.files": sum(1 for _ in out_dir.iterdir()),
    }


class _WatchedArgs(dict):
    """An args dict that remembers whether a handler looked into it."""

    read = False

    def __getitem__(self, key):
        self.read = True
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read = True
        return super().get(key, default)

    def __contains__(self, key):
        self.read = True
        return super().__contains__(key)


def args_read_ratio(workload: workloads.Workload, paths: list[Path]) -> float:
    """Share of parsed argument dicts that a replay handler reads (untimed)."""
    streams = _parse(paths, workload.backend, ParseStats())
    carrying = []
    for stream in streams:
        for record in stream:
            if record.args:
                record.args = _WatchedArgs(record.args)
                carrying.append(record.args)
    engine = _engine(workload)
    for record in merge_streams(streams):
        engine.handle(record)
    return sum(args.read for args in carrying) / len(carrying) if carrying else 0.0
