"""Ground truth of a synthetic capture, and the diff of reconstructed DAG
documents against it.

The simulator records every span it knows to be true. compare() matches
truth spans and document nodes on dag.node_key, the same canonical text a
node's state id hashes, so the export and the diff cannot disagree on what
makes two nodes the same node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .dag import CAUSE_OF, TUPLE_TYPES, node_identity, node_key
from .records import check_types

# The keys and types of a truth document as GroundTruth.to_doc writes it: of
# the document, of each trace, of each span, and of a span of each kind. A
# root span has neither parent_index nor cause, any other span both, and
# from_doc holds its cause to the one SpanTruth.cause derives.
_TRUTH_TYPES = {"traces": (list, dict)}
_TRACE_TYPES = {"trace_id": (int, None), "spans": (list, dict)}
_SPAN_TYPES = {
    "kind": (str, None), "owner_pid": (int, None), "comm": (str, None),
    "trace_id": (int, None), "start_ns": (int, None), "end_ns": (int, None),
    "tallies": (dict, int),
}
_KIND_TYPES = {
    "network": {"source_thread": (int, None), "conn": (list, None)},
    "fork": {"parent_thread": (int, None)},
}
_ROOT_TYPES = {"parent_index": (type(None), None), "cause": (type(None), None)}
_CHILD_TYPES = {"parent_index": (int, None), "cause": (str, None)}


@dataclass
class SpanTruth:
    kind: str
    owner_pid: int
    comm: str
    trace_id: int
    start_ns: int
    end_ns: int
    parent_index: int | None
    # The pid the trace came from: the sender, or the forking thread.
    source_thread: int
    conn: tuple | None = None  # (src_ip, src_port, dst_ip, dst_port); no fork has one
    tallies: dict[str, int] = field(default_factory=dict)

    @property
    def cause(self) -> str | None:
        """What caused the span: nothing for a root, else its kind's cause."""
        return None if self.parent_index is None else CAUSE_OF[self.kind]

    def key(self) -> str:
        """The span's dag.node_key, equal to its reconstructed node's."""
        identity = node_identity(self.trace_id, self.source_thread, self.conn)
        return node_key(self.kind, self.owner_pid, identity, self.start_ns)

    def to_doc(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "owner_pid": self.owner_pid,
            "comm": self.comm,
            "trace_id": self.trace_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent_index": self.parent_index,
            "cause": self.cause,
            "tallies": self.tallies,
        }
        if self.kind == "network":
            doc["source_thread"] = self.source_thread
            doc["conn"] = list(self.conn)
        else:
            doc["parent_thread"] = self.source_thread
        return doc

    @classmethod
    def from_doc(cls, doc: object) -> SpanTruth:
        """A span as to_doc writes it; a key missing or of the wrong type
        raises ValueError."""
        check_types(doc, _SPAN_TYPES)
        kind = doc["kind"]
        if kind not in _KIND_TYPES:
            raise ValueError(f"kind must be network or fork, got {kind!r}")
        check_types(doc, _KIND_TYPES[kind])
        check_types(doc, _ROOT_TYPES if doc.get("parent_index") is None else _CHILD_TYPES)
        conn, thread = None, "parent_thread"
        if kind == "network":
            conn, thread = tuple(doc["conn"]), "source_thread"
            if len(conn) != len(TUPLE_TYPES):
                raise ValueError(f"conn must hold {len(TUPLE_TYPES)} items, got {len(conn)}")
            # The addresses go into the span's node key as they are.
            check_types(dict(zip(TUPLE_TYPES, conn)), TUPLE_TYPES)
        # The keys of _SPAN_TYPES and parent_index are the names of fields.
        fields = {key: doc[key] for key in (*_SPAN_TYPES, "parent_index")}
        span = cls(**fields, source_thread=doc[thread], conn=conn)
        if doc["cause"] != span.cause:
            raise ValueError(f"cause must be {span.cause!r} for this span, got {doc['cause']!r}")
        return span


@dataclass
class TraceTruth:
    trace_id: int
    spans: list[SpanTruth]


@dataclass
class GroundTruth:
    traces: list[TraceTruth]

    def to_doc(self) -> dict:
        return {
            "schema_version": "1",
            "traces": [
                {"trace_id": t.trace_id, "spans": [s.to_doc() for s in t.spans]}
                for t in self.traces
            ],
        }

    @classmethod
    def from_doc(cls, doc: object) -> GroundTruth:
        """Truth as to_doc writes it. Each trace id appears once, and each
        span's parent_index is None or the index of an earlier span of its
        trace."""
        traces: dict[int, TraceTruth] = {}
        for trace in check_types(doc, _TRUTH_TYPES)["traces"]:
            check_types(trace, _TRACE_TYPES)
            if trace["trace_id"] in traces:
                raise ValueError(f"trace_id {trace['trace_id']} appears twice")
            spans = [SpanTruth.from_doc(span) for span in trace["spans"]]
            for index, span in enumerate(spans):
                if span.parent_index is not None and not 0 <= span.parent_index < index:
                    raise ValueError(
                        f"span {index}: parent_index {span.parent_index} is not an earlier span"
                    )
            traces[trace["trace_id"]] = TraceTruth(trace["trace_id"], spans)
        return cls(traces=list(traces.values()))


@dataclass
class TraceDiff:
    trace_id: int
    missing_nodes: list[str] = field(default_factory=list)
    extra_nodes: list[str] = field(default_factory=list)
    missing_edges: list[str] = field(default_factory=list)
    extra_edges: list[str] = field(default_factory=list)
    end_mismatches: list[tuple[str, tuple, tuple]] = field(default_factory=list)
    tally_mismatches: list[tuple[str, str, int, int]] = field(default_factory=list)

    @property
    def structure_empty(self) -> bool:
        return not (
            self.missing_nodes or self.extra_nodes
            or self.missing_edges or self.extra_edges or self.end_mismatches
        )

    @property
    def empty(self) -> bool:
        return self.structure_empty and not self.tally_mismatches


@dataclass
class DiffReport:
    expected_traces: int
    actual_traces: int
    missing_traces: list[int]
    extra_traces: list[int]
    trace_diffs: list[TraceDiff]

    @property
    def structure_empty(self) -> bool:
        return (
            not self.missing_traces
            and not self.extra_traces
            and all(diff.structure_empty for diff in self.trace_diffs)
        )

    @property
    def empty(self) -> bool:
        return self.structure_empty and all(diff.empty for diff in self.trace_diffs)

    def render(self, limit: int = 20) -> str:
        lines = [
            f"traces: expected {self.expected_traces} actual {self.actual_traces}"
        ]
        if self.missing_traces:
            lines.append(f"missing traces: {self.missing_traces[:limit]}")
        if self.extra_traces:
            lines.append(f"extra traces: {self.extra_traces[:limit]}")

        def extend(label: str, entries: list[str]) -> None:
            for entry in entries[:limit]:
                lines.append(f"  {label}: {entry}")
            if len(entries) > limit:
                lines.append(f"  ... and {len(entries) - limit} more {label} entries")

        for diff in self.trace_diffs:
            if diff.empty:
                continue
            lines.append(f"trace {diff.trace_id}:")
            extend("missing node", diff.missing_nodes)
            extend("extra node", diff.extra_nodes)
            extend("missing edge", diff.missing_edges)
            extend("extra edge", diff.extra_edges)
            extend(
                "end mismatch",
                [f"{k} expected={e} actual={a}" for k, e, a in diff.end_mismatches],
            )
            extend(
                "tally mismatch",
                [
                    f"{k} event={event} expected={e} actual={a}"
                    for k, event, e, a in diff.tally_mismatches
                ],
            )
        if self.empty:
            lines.append("clean")
        elif self.structure_empty:
            lines.append("structure clean; tallies differ")
        return "\n".join(lines) + "\n"


def _doc_key(node: dict) -> str:
    return node_key(node["kind"], node["owner_pid"], node["identity"], node["start_ns"])


def _ends_and_tallies(keys, items) -> tuple[dict[str, list[int]], dict[str, Counter]]:
    """Span ends and summed tallies per node key, from (end_ns, tallies) items."""
    ends: dict[str, list[int]] = {}
    tallies: dict[str, Counter] = {}
    for key, (end_ns, counts) in zip(keys, items):
        ends.setdefault(key, []).append(end_ns)
        tallies.setdefault(key, Counter()).update(counts)
    return ends, tallies


def _compare_trace(trace_id: int, doc: dict, truth_trace: TraceTruth) -> TraceDiff:
    diff = TraceDiff(trace_id=trace_id)
    spans = truth_trace.spans
    nodes = doc["nodes"]
    everything = nodes + doc["diagnostics"]["orphans"]
    # Each span and each document node is keyed once; every check reads these.
    truth_keys = [span.key() for span in spans]
    doc_keys = [_doc_key(node) for node in everything]
    node_keys = doc_keys[: len(nodes)]
    key_of = {node["state_id"]: key for node, key in zip(everything, doc_keys)}

    expected_nodes, actual_nodes = Counter(truth_keys), Counter(node_keys)
    diff.missing_nodes = sorted(expected_nodes - actual_nodes)
    diff.extra_nodes = sorted(actual_nodes - expected_nodes)

    expected_edges = Counter(
        (truth_keys[span.parent_index], key, span.cause)
        for key, span in zip(truth_keys, spans)
        if span.parent_index is not None
    )
    actual_edges = Counter(
        (key_of[edge["parent"]], key_of[edge["child"]], edge["cause"])
        for edge in doc["edges"]
    )
    diff.missing_edges = [
        f"{p} => {c} cause={cause}" for p, c, cause in sorted(expected_edges - actual_edges)
    ]
    diff.extra_edges = [
        f"{p} => {c} cause={cause}" for p, c, cause in sorted(actual_edges - expected_edges)
    ]

    expected_ends, expected_tallies = _ends_and_tallies(
        truth_keys, ((span.end_ns, span.tallies) for span in spans)
    )
    actual_ends, actual_tallies = _ends_and_tallies(
        node_keys, ((node["end_ns"], node["event_tallies"]) for node in nodes)
    )
    for key in sorted(expected_ends.keys() & actual_ends.keys()):
        expected, actual = sorted(expected_ends[key]), sorted(actual_ends[key])
        if expected != actual:
            diff.end_mismatches.append((key, tuple(expected), tuple(actual)))
        expected, actual = expected_tallies[key], actual_tallies[key]
        for event in sorted(expected.keys() | actual.keys()):
            if expected[event] != actual[event]:
                diff.tally_mismatches.append((key, event, expected[event], actual[event]))
    return diff


def compare(dag_docs: list[dict], truth: GroundTruth) -> DiffReport:
    """Diff reconstructed dag documents against the harness ground truth.

    Nodes match on their node key: kind, owner, identity and exact span
    start. Missing and extra traces are reported rather than raised; a
    trace id that more than one document carries is an extra trace.
    """
    truth_by_id = {trace.trace_id: trace for trace in truth.traces}
    docs_by_id = {doc["trace_id"]: doc for doc in dag_docs}
    repeated = {t for t, n in Counter(doc["trace_id"] for doc in dag_docs).items() if n > 1}
    missing = sorted(set(truth_by_id) - set(docs_by_id))
    extra = sorted(set(docs_by_id) - set(truth_by_id) | repeated)
    diffs = [
        _compare_trace(trace_id, docs_by_id[trace_id], truth_by_id[trace_id])
        for trace_id in sorted(set(truth_by_id) & set(docs_by_id))
    ]
    return DiffReport(
        expected_traces=len(truth_by_id),
        actual_traces=len(dag_docs),
        missing_traces=missing,
        extra_traces=extra,
        trace_diffs=diffs,
    )
