"""Per-request DAG assembly, canonical JSON export, and text rendering.

Every minted trace id becomes one RequestDag, copied from what the engine
recorded. Each state of the trace is a node. Each state's parents are the
states of its trace that were active on the sending thread or the forking
parent when the state was created, and each becomes one edge, whose cause
CAUSE_OF reads from the child's kind. The root is the one state without a
parent, the minted arrival. Parents exist before their children, so every
chain of parents ends at the root: nothing is unreachable, and
diagnostics.orphans is always empty. A trace with no such root, or with a
parent outside it, raises DagValidationError.

build_trace builds one trace from its states alone, so each trace
ReplayEngine.replay() yields can be built, written and freed at once.

A node and an edge are plain dicts, the very documents the export writes.
RequestDag.from_doc checks each node it reads against _NODE_TYPES and its
identity against _IDENTITY_TYPES, and validate_dag each edge's cause
against its child's kind.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from graphlib import CycleError, TopologicalSorter

from .engine import EXTERNAL_THREAD, ReplayEngine, State
from .records import check_types

try:
    # hashlib loads OpenSSL, several MiB; the builtin module gives the same digests
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

SCHEMA_VERSION = "1"

CAUSE_TCP = "tcp"
CAUSE_FORK = "fork"
# What causes a state of each kind: every edge into it carries this cause.
CAUSE_OF = {"network": CAUSE_TCP, "fork": CAUSE_FORK}

# Gantt rows indent two columns per level up to this depth. Deeper rows keep
# this indent and print their depth, so a chart grows linearly with depth.
GANTT_MAX_INDENT = 32


class DagValidationError(ValueError):
    pass


# The keys and types of a node document: build_trace writes each node as
# such a dict, and from_doc checks each node it reads against this table.
_NODE_TYPES = {
    "state_id": (str, None), "kind": (str, None), "owner_pid": (int, None),
    "comm": (str, None), "start_ns": (int, None), "end_ns": (int, None),
    "flags": (list, str), "identity": (dict, None), "event_tallies": (dict, int),
}
# The identity node_identity writes for each kind. from_doc allows no other
# key, so nothing nested, however deep, reaches node_key.
_IDENTITY_TYPES = {
    "network": {"source_thread": (int, None), "trace_id": (int, None), "tuple": (dict, None)},
    "fork": {"parent_thread": (int, None), "trace_id": (int, None)},
}
# In the order of a connection tuple, which node_identity names by them and
# a truth span's conn lists.
TUPLE_TYPES = {
    "src_ip": (str, None), "src_port": (int, None),
    "dst_ip": (str, None), "dst_port": (int, None),
}
_EDGE_TYPES = {"parent": (str, None), "child": (str, None), "cause": (str, None)}
_DAG_TYPES = {
    "trace_id": (int, None), "root": (str, None), "nodes": (list, dict),
    "edges": (list, dict), "diagnostics": (dict, None),
}
_DIAGNOSTICS_TYPES = {"orphans": (list, dict), "counters": (dict, int)}


class RequestDag:
    __slots__ = ("trace_id", "root_id", "nodes", "edges", "orphans", "counters")

    def __init__(
        self, trace_id: int, root_id: str, nodes: list[dict], edges: list[dict],
        orphans: list[dict] | None = None, counters: dict[str, int] | None = None,
    ) -> None:
        self.trace_id, self.root_id, self.nodes, self.edges = trace_id, root_id, nodes, edges
        self.orphans = [] if orphans is None else orphans
        self.counters = {} if counters is None else counters

    def node_by_id(self) -> dict[str, dict]:
        return {node["state_id"]: node for node in self.nodes}

    def to_doc(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "root": self.root_id,
            "nodes": self.nodes,
            "edges": self.edges,
            "diagnostics": {"orphans": self.orphans, "counters": self.counters},
        }

    @classmethod
    def from_doc(cls, doc: object) -> RequestDag:
        """A dag document as to_doc writes it; its nodes and edges are kept,
        not copied. A key missing or of the wrong type raises ValueError."""
        check_types(doc, _DAG_TYPES)
        diagnostics = check_types(doc["diagnostics"], _DIAGNOSTICS_TYPES)
        for node in doc["nodes"] + diagnostics["orphans"]:
            check_types(node, _NODE_TYPES)
            if node["kind"] not in _IDENTITY_TYPES:
                raise ValueError(f"kind must be network or fork, got {node['kind']!r}")
            identity = check_types(
                node["identity"], _IDENTITY_TYPES[node["kind"]], exact=True
            )
            if node["kind"] == "network":
                check_types(identity["tuple"], TUPLE_TYPES, exact=True)
        for edge in doc["edges"]:
            check_types(edge, _EDGE_TYPES)
        return cls(
            trace_id=doc["trace_id"],
            root_id=doc["root"],
            nodes=doc["nodes"],
            edges=doc["edges"],
            orphans=diagnostics["orphans"],
            counters=diagnostics["counters"],
        )


def node_identity(trace_id: int, thread: int, conn: tuple | None = None) -> dict:
    """What tells a node apart besides its kind, owner and start: its trace,
    and for a network node the sending thread and the requester -> receiver
    connection (src_ip, src_port, dst_ip, dst_port), for a fork node the
    forking thread."""
    if conn is None:
        return {"parent_thread": thread, "trace_id": trace_id}
    return {
        "source_thread": thread,
        "tuple": dict(zip(TUPLE_TYPES, conn)),
        "trace_id": trace_id,
    }


# json.dumps(..., sort_keys=True) builds an encoder per call; one is enough.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True)


def node_key(kind: str, owner_pid: int, identity: dict, start_ns: int) -> str:
    """A node's canonical text: the state id hashes it, and the truth diff
    matches nodes on it. start_ns participates so a key recurring on a
    kept-alive connection still names distinct nodes."""
    return _KEY_ENCODER.encode([kind, owner_pid, identity, start_ns])


def _make_node(state: State) -> dict:
    """The node document of a state, with the keys of _NODE_TYPES."""
    conn = None if state.conn is None else (*state.conn.src, *state.conn.dst)
    identity = node_identity(state.trace_id, state.source_thread, conn)
    key = node_key(state.kind, state.owner_pid, identity, state.start_ns)
    digest = sha1(key.encode()).hexdigest()[:12]
    return {
        "state_id": f"{state.kind}:{state.owner_pid}:{digest}",
        "kind": state.kind,
        "owner_pid": state.owner_pid,
        "comm": state.comm,
        "start_ns": state.start_ns,
        "end_ns": state.end_ns,
        "flags": sorted(state.flags),
        "identity": identity,
        "event_tallies": dict(state.tallies),
    }


def build_trace(trace_id: int, states: Iterable[State]) -> RequestDag:
    """The DAG of one trace as the engine recorded it: each of its ended
    states is a node, each of a state's parents an edge into it, and the one
    state without a parent, which must be an arrival, the root."""
    entries: list[tuple[State, dict]] = []
    node_of: dict[int, dict] = {}
    seen_ids: set[str] = set()
    root = None
    for state in states:
        node = _make_node(state)
        while node["state_id"] in seen_ids:  # pathological duplicate guard
            node["state_id"] += "+"
        seen_ids.add(node["state_id"])
        entries.append((state, node))
        node_of[id(state)] = node
        if not state.parents:
            if root is not None:
                raise DagValidationError(f"trace {trace_id} has two states without a parent")
            root = state
    if root is None or root.kind != "network" or root.source_thread != EXTERNAL_THREAD:
        raise DagValidationError(f"trace {trace_id} has no arrival state")

    edges: list[dict] = []
    for state, node in entries:
        for parent in state.parents:
            if id(parent) not in node_of:
                raise DagValidationError(f"trace {trace_id} lacks a parent of {node['state_id']}")
            edges.append({
                "parent": node_of[id(parent)]["state_id"],
                "child": node["state_id"],
                "cause": CAUSE_OF[state.kind],
            })
    nodes = sorted(node_of.values(), key=lambda n: (n["start_ns"], n["state_id"]))
    edges.sort(key=lambda e: (e["parent"], e["child"], e["cause"]))
    counters = {
        "orphan_states": 0,
        "multi_parent_nodes": sum(1 for state, _node in entries if len(state.parents) > 1),
    }
    return RequestDag(
        trace_id=trace_id, root_id=node_of[id(root)]["state_id"], nodes=nodes, edges=edges,
        counters=counters,
    )


def build_all_dags(engine: ReplayEngine) -> Iterator[RequestDag]:
    """Assemble one DAG per trace a finalized engine holds, in mint order;
    traces replay() already yielded are not in it."""
    for trace_id, states in engine.states_by_trace.items():
        yield build_trace(trace_id, states)


def validate_dag(dag: RequestDag) -> None:
    """Independent structural check: rooted, connected, acyclic, ordered,
    and each edge's cause the one its child's kind gives."""
    by_id = dag.node_by_id()
    if dag.root_id not in by_id:
        raise DagValidationError("root node missing from node list")
    parents: dict[str, list[str]] = {node_id: [] for node_id in by_id}
    for edge in dag.edges:
        parent, child = edge["parent"], edge["child"]
        if parent not in by_id or child not in by_id:
            raise DagValidationError(f"edge references unknown node: {parent}->{child}")
        if edge["cause"] != CAUSE_OF[by_id[child]["kind"]]:
            raise DagValidationError(f"edge cause {edge['cause']!r} contradicts {child}'s kind")
        if by_id[child]["start_ns"] < by_id[parent]["start_ns"]:
            raise DagValidationError(f"child starts before parent: {parent}->{child}")
        parents[child].append(parent)
    for node_id, node_parents in parents.items():
        if node_id != dag.root_id and not node_parents:
            raise DagValidationError(f"non-root node {node_id} has no incoming edge")
    # Every other node has a parent, so without a cycle every chain of
    # parents ends at the root: each node is reachable from it.
    try:
        TopologicalSorter(parents).prepare()
    except CycleError as exc:
        raise DagValidationError(f"cycle through {exc.args[1][0]}") from None


def export_json(dag: RequestDag) -> str:
    """Canonical export, one line of compact JSON: sorted keys, nodes by
    (start_ns, state_id), edges lexicographic. Byte-identical across runs on
    identical input."""
    return json.dumps(dag.to_doc(), sort_keys=True, separators=(",", ":")) + "\n"


def _dfs_rows(dag: RequestDag) -> list[tuple[dict, int]]:
    by_id = dag.node_by_id()
    children: dict[str, list[str]] = {node_id: [] for node_id in by_id}
    for edge in dag.edges:
        children[edge["parent"]].append(edge["child"])
    for node_id in children:
        children[node_id].sort(key=lambda c: (by_id[c]["start_ns"], c))
    rows: list[tuple[dict, int]] = []
    rendered: set[str] = set()
    stack = [(dag.root_id, 0)]
    while stack:
        node_id, depth = stack.pop()
        if node_id in rendered:  # multi-parent nodes render once
            continue
        rendered.add(node_id)
        rows.append((by_id[node_id], depth))
        stack.extend((child, depth + 1) for child in reversed(children[node_id]))
    return rows


def _bar(start: int, end: int, window: tuple[int, int], width: int) -> str:
    w0, w1 = window
    span = max(1, w1 - w0)
    c0 = (start - w0) * width // span
    c0 = min(max(c0, 0), width - 1)
    c1 = -((end - w0) * width // -span)  # ceiling division
    c1 = min(max(c1, c0 + 1), width)
    return "." * c0 + "#" * (c1 - c0) + "." * (width - c1)


def _node_label(node: dict) -> str:
    label = f"pid={node['owner_pid']} comm={node['comm']}"
    if node["flags"]:
        label += f" [{','.join(node['flags'])}]"
    for event, count in sorted(node["event_tallies"].items()):
        label += f" {event}={count}"
    return label


def render_gantt(dag: RequestDag, width: int = 100) -> str:
    """One row per node in DFS order, indented by depth (a row deeper than
    GANTT_MAX_INDENT prints its depth instead); bar position and length are
    proportional to the span within the trace window."""
    if width < 40:
        raise ValueError("width must be at least 40 columns")
    everything = dag.nodes + dag.orphans
    window = (
        min(node["start_ns"] for node in everything),
        max(node["end_ns"] for node in everything),
    )
    lines = [
        f"trace {dag.trace_id}  window {window[0]}..{window[1]} ns"
        f"  nodes {len(dag.nodes)}"
    ]
    for node, depth in _dfs_rows(dag):
        bar = _bar(node["start_ns"], node["end_ns"], window, width)
        if depth <= GANTT_MAX_INDENT:
            lines.append("  " * depth + f"|{bar}| {_node_label(node)}")
        else:
            lines.append(
                "  " * GANTT_MAX_INDENT + f"|{bar}| depth={depth} {_node_label(node)}"
            )
    if dag.orphans:
        lines.append("orphans:")
        for node in dag.orphans:
            bar = _bar(node["start_ns"], node["end_ns"], window, width)
            lines.append("  " + f"|{bar}| {_node_label(node)}")
    return "\n".join(lines) + "\n"


class SummaryTable:
    """Each trace's id, span and node count, and its total of each event,
    as int columns in trace id order: an event's column holds 0 for a trace
    without it."""

    __slots__ = ("trace_ids", "spans", "node_counts", "events")

    def __init__(self) -> None:
        self.trace_ids, self.spans, self.node_counts = [], [], []
        self.events: dict[str, list[int]] = {}

    def add(self, dag: RequestDag) -> None:
        """A row for dag, its nodes and orphans, after every row of a lower
        or equal trace id."""
        everything = dag.nodes + dag.orphans
        span = max(n["end_ns"] for n in everything) - min(n["start_ns"] for n in everything)
        ids, row, end = self.trace_ids, 0, len(self.trace_ids)
        while row < end:  # bisect_right; a trace mostly ends after those before it
            middle = (row + end) // 2
            row, end = (row, middle) if dag.trace_id < ids[middle] else (middle + 1, end)
        ids.insert(row, dag.trace_id)
        self.spans.insert(row, span)
        self.node_counts.insert(row, len(dag.nodes))
        for column in self.events.values():
            column.insert(row, 0)
        for node in everything:
            for event, count in node["event_tallies"].items():
                column = self.events.get(event)
                if column is None:
                    column = self.events[event] = [0] * len(ids)
                column[row] += count

    def lines(self) -> Iterator[str]:
        """The rows, then their count, span range and event totals:
        summary.txt line by line."""
        if not self.trace_ids:
            yield "traces 0\n"
            return
        events = sorted(self.events)
        columns = [self.trace_ids, self.spans, self.node_counts, *map(self.events.get, events)]
        header = ["trace", "span_ns", "nodes", *events]
        widths = [max(len(name), max(map(len, map(str, column))))
                  for name, column in zip(header, columns)]

        def line(cells: Iterable[str]) -> str:
            return "  ".join(map(str.ljust, cells, widths)).rstrip() + "\n"

        yield line(header)
        for cells in zip(*columns):
            yield line(map(str, cells))
        spans = sorted(self.spans)
        middle = len(spans) // 2
        median = spans[middle] if len(spans) % 2 else (spans[middle - 1] + spans[middle]) / 2
        yield "\n"
        yield f"traces={len(spans)} span_ns min={spans[0]} median={median} max={spans[-1]}\n"
        if events:
            yield "event totals: " + " ".join(
                f"{event}={sum(self.events[event])}" for event in events) + "\n"


def summarize(dags: Iterable[RequestDag]) -> SummaryTable:
    """The summary table of dags."""
    table = SummaryTable()
    for dag in dags:
        table.add(dag)
    return table


def render_summary(table: SummaryTable) -> str:
    """The table's text, as summary.txt holds it."""
    return "".join(table.lines())
