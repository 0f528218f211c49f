"""Command line front end.

Subcommands:
  reconstruct   parse capture streams and write one dag document per request
  synth         generate a synthetic capture plus its ground truth
  diff          compare reconstructed dag documents against ground truth
  render        print gantt charts or a summary table for dag documents

Exit codes: 0 success, 1 data errors (parse failures in strict mode,
unsorted or undecodable streams, non-empty diffs, failed writes), 2 usage
errors and unusable truth or topology files.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
from contextlib import ExitStack
from pathlib import Path

from .dag import (
    DagValidationError,
    RequestDag,
    SummaryTable,
    build_trace,
    export_json,
    render_gantt,
    validate_dag,
)
from .engine import ReplayEngine
from .ingest import (
    BACKENDS,
    MalformedLineError,
    ParseStats,
    UnsortedStreamError,
    filter_records,
    merge_streams,
    read_stream,
)
from .records import Endpoint, ascii_decimal, read_json

# synth and truth are imported by the subcommands that run them, so that
# reconstruct and render do not load them.


def _endpoint(text: str) -> Endpoint:
    """An ip:port string from the command line."""
    host, _, port = text.rpartition(":")
    number = ascii_decimal(port)
    if not host or number is None:
        raise argparse.ArgumentTypeError(f"expected ip:port, got {text!r}")
    return Endpoint(host, number)


def _fail(message: str, code: int) -> int:
    print(f"reqflow: {message}", file=sys.stderr)
    return code


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


# A file's header on the writer's pipe: the lengths of its name and content.
_FRAME = struct.Struct("<IQ")


def _create_files(pipe: int, errors: int, out: str) -> int:
    """The writer's loop: create each file read from pipe under out, in the
    order sent. Returns 0 at the end of the pipe, or 1 after sending the
    first OSError's text down errors."""
    import signal  # here, so that no run without traces loads it

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    with open(pipe, "rb") as frames:
        while header := frames.read(_FRAME.size):
            name_size, size = _FRAME.unpack(header)
            path = os.path.join(out, frames.read(name_size).decode())
            data = frames.read(size)
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC, 0o666)
                try:
                    _write_all(fd, data)
                finally:
                    os.close(fd)
            except OSError as exc:
                _write_all(errors, str(exc).encode())
                return 1
    return 0


class _TraceWriter:
    """Creates trace files in a child process, so that the kernel's work of
    creating each file runs beside replay rather than inside it.

    The child is forked at the first file, so a run that writes none forks
    nothing; reconstruct starts no thread, so the fork copies no lock held
    by another. close() waits until the child has created every file sent
    and raises the child's OSError, as an OSError with the same text.
    """

    def __init__(self, out: Path):
        self.out = str(out)
        self.pid = 0
        self.pipe = self.errors = -1

    def write(self, name: str, text: str) -> None:
        if not self.pid:
            self._fork()
        encoded, data = name.encode(), text.encode()
        try:
            _write_all(self.pipe, _FRAME.pack(len(encoded), len(data)) + encoded + data)
        except BrokenPipeError:  # the child stopped at an error
            self.close()
            raise

    def _fork(self) -> None:
        pipe, self.pipe = os.pipe()
        self.errors, errors = os.pipe()
        self.pid = os.fork()
        if not self.pid:
            code = 1
            try:
                os.close(self.pipe)
                os.close(self.errors)
                code = _create_files(pipe, errors, self.out)
            finally:
                os._exit(code)  # never back into the parent's code
        os.close(pipe)
        os.close(errors)

    def close(self) -> None:
        if not self.pid:
            return
        os.close(self.pipe)
        _pid, status = os.waitpid(self.pid, 0)
        self.pid = 0
        with open(self.errors, "rb") as errors:
            message = errors.read().decode()
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise OSError(message or f"trace writer exited with code {code}")


# ----------------------------------------------------------------------
# reconstruct

def cmd_reconstruct(args: argparse.Namespace) -> int:
    try:
        engine = ReplayEngine(gateway_endpoints=args.gateway, user_events=args.user_event or ())
    except ValueError as exc:
        return _fail(str(exc), 2)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        # Trace files of an earlier run would pass for this run's.
        for stale in (*out.glob("trace_*.json"), *out.glob("trace_*.gantt.txt")):
            if not stale.is_dir():
                stale.unlink()
        # Written last, so only a run that succeeded leaves them.
        (out / "summary.txt").unlink(missing_ok=True)
        (out / "diagnostics.json").unlink(missing_ok=True)
    except OSError as exc:
        return _fail(f"cannot use output directory: {exc}", 2)
    stats = ParseStats()
    table = SummaryTable()
    writer = _TraceWriter(out)
    try:
        with ExitStack() as stack:
            # Every exit reaps the writer, so summary.txt and diagnostics.json
            # follow the last trace file.
            stack.callback(writer.close)
            handles = []
            for name in args.inputs:
                try:
                    handles.append(stack.enter_context(open(name)))
                except OSError as exc:
                    return _fail(f"cannot open input: {exc}", 2)
            streams = [
                read_stream(handle, backend=args.backend, strict=args.strict, stats=stats)
                for handle in handles
            ]
            records = merge_streams(streams)
            if args.pid:
                records = filter_records(records, args.pid)
            # Each trace is written once its last span ends, so memory holds
            # the requests in flight.
            for trace_id, states in engine.replay(records):
                dag = build_trace(trace_id, states)
                writer.write(f"trace_{trace_id}.json", export_json(dag))
                if args.gantt:
                    writer.write(f"trace_{trace_id}.gantt.txt", render_gantt(dag))
                table.add(dag)
        with open(out / "summary.txt", "w") as summary:
            summary.writelines(table.lines())
        diagnostics = {
            "minted_traces": engine.minted_traces,
            "counters": engine.counters,
            "unattributed": engine.unattributed,
            "parse": {"parsed": stats.parsed, "skipped": stats.skipped,
                      "malformed": stats.malformed, "errors": stats.errors},
        }
        _write_json(out / "diagnostics.json", diagnostics)
    except MalformedLineError as exc:
        return _fail(f"parse failure: {exc}", 1)
    except UnsortedStreamError as exc:
        return _fail(f"input not time ordered: {exc}", 1)
    except UnicodeDecodeError as exc:
        return _fail(f"cannot decode input: {exc}", 1)
    except DagValidationError as exc:
        return _fail(f"dag construction failed: {exc}", 1)
    except OSError as exc:
        return _fail(f"i/o error: {exc}", 1)
    print(f"reconstructed {len(table.trace_ids)} traces from {stats.parsed} records -> {out}")
    return 0


# ----------------------------------------------------------------------
# synth

def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import (
        demo_topology,
        inject_faults,
        load_topology,
        random_topology,
        simulate,
        write_streams,
    )

    for probability in (args.drop_user, args.drop_structural):
        if probability is not None and not 0.0 <= probability <= 1.0:
            return _fail("probability must be within [0, 1]", 2)
    try:
        if args.demo:
            topology = demo_topology()
        elif args.topology:
            topology = load_topology(args.topology)
        else:
            topology = random_topology(args.random_seed)
        streams, truth = simulate(
            topology, args.requests, args.cpus, args.seed,
            duplicate_receives=args.duplicate_receives,
        )
    except ValueError as exc:  # an InvalidTopologyError is one
        return _fail(str(exc), 2)

    faults = (args.drop_user, args.drop_structural, args.truncate)
    streams, manifest = inject_faults(streams, args.fault_seed, *faults)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = write_streams(streams, out, args.backend)
        _write_json(out / "truth.json", truth.to_doc())
        _write_json(out / "topology.json", topology.to_doc())
        if faults != (None, None, None):
            _write_json(out / "fault_manifest.json", manifest)
    except OSError as exc:
        return _fail(f"cannot use output directory: {exc}", 2)
    total = sum(len(stream) for stream in streams)
    print(f"wrote {total} records across {len(paths)} streams -> {out}")
    return 0


# ----------------------------------------------------------------------
# diff

def _collect_dag_paths(arguments: list[str]) -> list[Path]:
    paths: list[Path] = []
    for name in arguments:
        path = Path(name)
        if path.is_dir():
            paths.extend(sorted(path.glob("trace_*.json")))
        else:
            paths.append(path)
    return paths


# What reading, decoding and checking a dag or truth document can raise; a
# DagValidationError is a ValueError.
_BAD_DOC = (OSError, ValueError, KeyError, TypeError)


def _load_dag(path: Path) -> RequestDag:
    """A dag document, held to the shape reconstruct writes."""
    dag = RequestDag.from_doc(read_json(path))
    validate_dag(dag)
    return dag


def cmd_diff(args: argparse.Namespace) -> int:
    from .truth import GroundTruth, compare

    try:
        truth = GroundTruth.from_doc(read_json(args.truth))
    except _BAD_DOC as exc:
        return _fail(f"bad truth file {args.truth}: {exc}", 2)
    docs = []
    for path in _collect_dag_paths(args.dags):
        try:
            docs.append(_load_dag(path).to_doc())
        except _BAD_DOC as exc:
            return _fail(f"bad dag document {path}: {exc}", 1)
    report = compare(docs, truth)
    sys.stdout.write(report.render())
    clean = report.structure_empty if args.ignore_tallies else report.empty
    return 0 if clean else 1


# ----------------------------------------------------------------------
# render

def cmd_render(args: argparse.Namespace) -> int:
    if not args.summary and args.width < 40:
        return _fail("--width must be at least 40", 2)
    table, dags = SummaryTable(), []
    keep = table.add if args.summary else dags.append  # a summary keeps a row of ints
    for path in _collect_dag_paths(args.dags):
        try:
            keep(_load_dag(path))
        except _BAD_DOC as exc:
            return _fail(f"bad dag document {path}: {exc}", 1)
    if args.summary:
        sys.stdout.writelines(table.lines())
        return 0
    # trace_10.json sorts before trace_2.json by name; print in id order
    dags.sort(key=lambda dag: dag.trace_id)
    for dag in dags:
        sys.stdout.write(render_gantt(dag, width=args.width))
    return 0


# ----------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reqflow",
        description="reconstruct per-request flow dags from kernel trace captures",
        epilog="@FILE reads further arguments from FILE, one per line",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="replay capture streams into dag documents")
    p.add_argument("inputs", nargs="+", help="per-cpu capture files, each time ordered")
    p.add_argument("--backend", choices=BACKENDS, default="ftrace")
    p.add_argument("--gateway", type=_endpoint, action="append", required=True,
                   help="entry endpoint as ip:port; repeatable")
    p.add_argument("--user-event", action="append", dest="user_event",
                   help="event name to tally against active spans; repeatable")
    p.add_argument("--pid", type=int, action="append",
                   help="restrict replay to these pids and the pids they fork; repeatable")
    p.add_argument("--strict", action="store_true",
                   help="fail on the first malformed line instead of counting it")
    p.add_argument("--gantt", action="store_true", help="also write gantt text per trace")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("synth", help="generate a synthetic capture with ground truth")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--topology", help="topology json file")
    source.add_argument("--demo", action="store_true", help="bundled two-tier topology")
    source.add_argument("--random-seed", type=int, dest="random_seed",
                        help="generate a random topology from this seed")
    p.add_argument("--requests", type=int, default=10)
    p.add_argument("--cpus", type=int, default=2)
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument("--backend", choices=BACKENDS, default="ftrace")
    p.add_argument("--duplicate-receives", action="store_true",
                   help="emit a second receive probe per message")
    p.add_argument("--drop-user", type=float, default=None, metavar="P",
                   help="drop each user event record with probability P")
    p.add_argument("--drop-structural", type=float, default=None, metavar="P",
                   help="drop each structural record with probability P")
    p.add_argument("--truncate", type=int, default=None, metavar="NS",
                   help="drop every record after this timestamp")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("diff", help="compare dag documents against ground truth")
    p.add_argument("dags", nargs="+", help="dag json files or directories of trace_*.json")
    p.add_argument("--truth", required=True, help="ground truth json file")
    p.add_argument("--ignore-tallies", action="store_true",
                   help="succeed when only event tallies differ")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("render", help="print gantt charts or a summary table")
    p.add_argument("dags", nargs="+", help="dag json files or directories of trace_*.json")
    p.add_argument("--summary", action="store_true", help="one table over all inputs")
    p.add_argument("--width", type=int, default=100, help="gantt bar width in columns")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UnicodeDecodeError as exc:  # argparse reports only an @FILE's OSError
        return _fail(f"cannot decode arguments file: {exc}", 2)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
