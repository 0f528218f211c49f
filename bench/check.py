"""Output checks: reconstructed trace documents against the simulator's truth."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads  # noqa: F401  (puts the program's src on sys.path)
from reqflow.dag import DagValidationError, RequestDag, validate_dag
from reqflow.synth import GroundTruth, compare


@dataclass
class OutputCheck:
    traces: int  # truth traces
    failed: int  # missing, extra, invalid, or differing in a node, edge or span end
    tally_error: int  # sum over spans and events of |truth - reconstructed|
    tally_total: int  # truth user events

    @property
    def trace_error_ratio(self) -> float:
        return self.failed / self.traces

    @property
    def tally_error_ratio(self) -> float:
        return self.tally_error / self.tally_total if self.tally_total else 0.0


def tree_digest(out_dir: Path, pattern: str = "*") -> str:
    """sha256 over the names and bytes of the files in out_dir."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob(pattern)):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _span_key(trace_id: int, kind: str, owner_pid: int, start_ns: int) -> tuple:
    return (trace_id, kind, owner_pid, start_ns)


def _truth_tallies(truth: GroundTruth) -> Counter:
    tallies: Counter = Counter()
    for trace in truth.traces:
        for span in trace.spans:
            key = _span_key(trace.trace_id, span.kind, span.owner_pid, span.start_ns)
            for event, count in span.tallies.items():
                tallies[key, event] += count
    return tallies


def failed_run(truth: GroundTruth) -> OutputCheck:
    """A failed launch or an invalid document: every trace and every event is lost."""
    total = sum(_truth_tallies(truth).values())
    return OutputCheck(len(truth.traces), len(truth.traces), total, total)


def check_output(out_dir: Path, truth: GroundTruth) -> OutputCheck:
    """Compare every trace_*.json in out_dir with the truth.

    A document that does not load or fails validate_dag makes the whole
    output a failed run: every trace failed, every event lost.
    """
    docs = []
    for path in sorted(out_dir.glob("trace_*.json")):
        try:
            doc = json.loads(path.read_text())
            validate_dag(RequestDag.from_doc(doc))
        except (OSError, ValueError, KeyError, TypeError, DagValidationError):
            return failed_run(truth)
        docs.append(doc)

    report = compare(docs, truth)
    failed = set(report.missing_traces) | set(report.extra_traces)
    failed |= {diff.trace_id for diff in report.trace_diffs if not diff.structure_empty}

    expected = _truth_tallies(truth)
    actual: Counter = Counter()
    for doc in docs:
        for node in doc["nodes"] + doc["diagnostics"]["orphans"]:
            key = _span_key(doc["trace_id"], node["kind"], node["owner_pid"], node["start_ns"])
            for event, count in node["event_tallies"].items():
                actual[key, event] += count
    error = sum(abs(expected[k] - actual[k]) for k in expected.keys() | actual.keys())
    return OutputCheck(len(truth.traces), len(failed), error, sum(expected.values()))
