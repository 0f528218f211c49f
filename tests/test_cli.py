from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from pathlib import Path

import pytest

from reqflow import synth as synth_module
from reqflow.cli import main
from reqflow.dag import build_all_dags, export_json, render_gantt, render_summary, summarize
from reqflow.engine import ReplayEngine
from reqflow.ingest import merge_streams, read_stream
from reqflow.records import Endpoint
from reqflow.synth import ServiceSpec, TopologySpec, demo_topology, simulate, write_streams

GOLDEN = Path(__file__).parent / "golden"
GATEWAY_FLAGS = ["--gateway", "10.1.0.2:80"]
USER_EVENT_FLAGS = [
    "--user-event", "page_fault_user", "--user-event", "sched_migrate_task",
]


def _synth(tmp_path, *extra: str) -> list[str]:
    out = tmp_path / "capture"
    code = main([
        "synth", "--demo", "--requests", "2", "--cpus", "2", "--seed", "6",
        "--out", str(out), *extra,
    ])
    assert code == 0
    return sorted(str(p) for p in out.glob("cpu*.log"))


def _args_file(tmp_path, *lines: str) -> str:
    """An @FILE argument naming a file that holds these arguments, one per line."""
    path = tmp_path / "args.txt"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return f"@{path}"


def _usage_error(capsys, argv: list[str]) -> str:
    """What argparse prints for argv, which it rejects with exit code 2."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    return capsys.readouterr().err


def _tree(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _reconstruct(tmp_path, logs, *extra: str) -> int:
    return main([
        "reconstruct", *logs, *GATEWAY_FLAGS, *USER_EVENT_FLAGS,
        "--out", str(tmp_path / "dags"), *extra,
    ])


def _assert_no_writer_left() -> None:
    """reconstruct reaped every process it forked."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_round_trip_synth_reconstruct_diff(tmp_path, capsys):
    logs = _synth(tmp_path)
    assert len(logs) == 2
    assert _reconstruct(tmp_path, logs) == 0
    dags = tmp_path / "dags"
    assert sorted(p.name for p in dags.glob("trace_*.json")) == [
        "trace_1.json", "trace_2.json",
    ]
    assert (dags / "summary.txt").exists()
    diagnostics = json.loads((dags / "diagnostics.json").read_text())
    assert diagnostics["minted_traces"] == 2
    assert diagnostics["parse"]["malformed"] == 0
    code = main(["diff", str(dags), "--truth", str(tmp_path / "capture/truth.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean" in out


def test_trace_files_are_compact_lines_and_every_other_json_file_is_indented(tmp_path, capsys):
    logs = _synth(tmp_path, "--drop-user", "0.1")
    assert _reconstruct(tmp_path, logs, "--gantt") == 0
    capsys.readouterr()
    paths = sorted((*(tmp_path / "capture").glob("*.json"), *(tmp_path / "dags").glob("*.json")))
    assert [path.name for path in paths] == [
        "fault_manifest.json", "topology.json", "truth.json",
        "diagnostics.json", "trace_1.json", "trace_2.json",
    ]
    for path in paths:
        text = path.read_text()
        doc = json.loads(text)
        if path.name.startswith("trace_"):
            assert text.count("\n") == 1, path.name
            assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        else:
            assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n", path.name


def test_kprobe_shaped_send_probes_reconstruct_exactly(tmp_path, capsys):
    # ftrace prints a kprobe's address, (sym+off/size), before its arguments.
    logs = _synth(tmp_path)
    rewritten = 0
    for log in map(Path, logs):
        text = log.read_text()
        for probe, symbol in (("tcp_send_sock_sendmsg", "tcp_sendmsg"),
                              ("tcp_send_sys_sendmsg", "tcp_sendpage")):
            rewritten += text.count(f" {probe}: ")
            text = text.replace(f" {probe}: ", f" {probe}: ({symbol}+0x0/0x50) ")
        log.write_text(text)
    assert rewritten > 0
    assert _reconstruct(tmp_path, logs, "--strict") == 0
    code = main(["diff", str(tmp_path / "dags"), "--truth", str(tmp_path / "capture/truth.json")])
    assert code == 0, capsys.readouterr().out


def test_engine_counters_match_the_golden_diagnostics(tmp_path):
    # A faulted capture that exercises seven engine counters.
    capture = tmp_path / "capture"
    assert main(["synth", "--random-seed", "3", "--requests", "20",
                 "--duplicate-receives", "--drop-structural", "0.1",
                 "--fault-seed", "1", "--out", str(capture)]) == 0
    topology = json.loads((capture / "topology.json").read_text())
    gateway = next(s for s in topology["services"] if s["name"] == topology["gateway"])
    logs = sorted(str(p) for p in capture.glob("cpu*.log"))
    out = tmp_path / "dags"
    assert main(["reconstruct", *logs, "--gateway", f"{gateway['ip']}:{gateway['port']}",
                 "--out", str(out)]) == 0
    for name in ("diagnostics.json", "summary.txt"):
        golden = GOLDEN / f"faulted_{name}"
        assert (out / name).read_bytes() == golden.read_bytes(), f"{name} drifted"


# One trace forks the writer and reaps it after a single file; 64 traces
# send many files down the pipe while replay runs.
@pytest.mark.parametrize("requests", [1, 64])
def test_traces_written_during_replay_match_a_batch_build(tmp_path, capsys, requests):
    out = tmp_path / "capture"
    assert main(["synth", "--demo", "--requests", str(requests), "--cpus", "2", "--seed", "6",
                 "--out", str(out)]) == 0
    logs = sorted(str(p) for p in out.glob("cpu*.log"))
    assert _reconstruct(tmp_path, logs, "--gantt") == 0
    _assert_no_writer_left()
    engine = ReplayEngine([Endpoint("10.1.0.2", 80)],
                          user_events=("page_fault_user", "sched_migrate_task"))
    with ExitStack() as stack:
        streams = [read_stream(stack.enter_context(open(log)), "ftrace") for log in logs]
        for record in merge_streams(streams):
            engine.handle(record)
    dags = list(build_all_dags(engine.finalize()))
    assert len(dags) == requests
    written = tmp_path / "dags"
    for dag in dags:
        assert (written / f"trace_{dag.trace_id}.json").read_text() == export_json(dag)
        assert (written / f"trace_{dag.trace_id}.gantt.txt").read_text() == render_gantt(dag)
    assert (written / "summary.txt").read_text() == render_summary(summarize(dags))
    capsys.readouterr()


def test_diff_fails_on_tampered_dag(tmp_path, capsys):
    logs = _synth(tmp_path)
    _reconstruct(tmp_path, logs)
    victim = tmp_path / "dags" / "trace_1.json"
    doc = json.loads(victim.read_text())
    doc["nodes"][0]["end_ns"] += 5
    victim.write_text(json.dumps(doc))
    code = main(["diff", str(tmp_path / "dags"),
                 "--truth", str(tmp_path / "capture/truth.json")])
    assert code == 1
    assert "end mismatch" in capsys.readouterr().out


def test_diff_ignore_tallies_masks_only_tally_noise(tmp_path, capsys):
    logs = _synth(tmp_path)
    _reconstruct(tmp_path, logs)
    victim = tmp_path / "dags" / "trace_1.json"
    doc = json.loads(victim.read_text())
    node = doc["nodes"][0]
    node["event_tallies"]["page_fault_user"] = (
        node["event_tallies"].get("page_fault_user", 0) + 1
    )
    victim.write_text(json.dumps(doc))
    truth = str(tmp_path / "capture/truth.json")
    assert main(["diff", str(tmp_path / "dags"), "--truth", truth]) == 1
    assert main(["diff", str(tmp_path / "dags"), "--truth", truth,
                 "--ignore-tallies"]) == 0
    capsys.readouterr()


def test_rerun_into_the_same_out_removes_the_earlier_runs_traces(tmp_path, capsys):
    for requests in ("5", "2"):
        capture = tmp_path / f"capture{requests}"
        assert main(["synth", "--demo", "--requests", requests, "--cpus", "2",
                     "--seed", "6", "--out", str(capture)]) == 0
        logs = sorted(str(p) for p in capture.glob("cpu*.log"))
        assert _reconstruct(tmp_path, logs, "--gantt") == 0
    dags = tmp_path / "dags"
    assert sorted(p.name for p in dags.glob("trace_*")) == [
        "trace_1.gantt.txt", "trace_1.json", "trace_2.gantt.txt", "trace_2.json",
    ]
    assert main(["diff", str(dags), "--truth", str(tmp_path / "capture2/truth.json")]) == 0
    capsys.readouterr()


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    # An @FILE is reconstruct's config file: its lines are read as arguments
    # where it stands, so a flag after it wins.
    logs = _synth(tmp_path)
    assert _reconstruct(tmp_path, logs) == 0
    config = _args_file(
        tmp_path, "--backend=bpftrace", "--gateway=10.1.0.2:80",
        "--user-event=page_fault_user", "--user-event=sched_migrate_task",
    )
    out = tmp_path / "from_file"
    # the file's backend does not match the capture: every line counts malformed
    assert main(["reconstruct", *logs, config, "--out", str(out)]) == 0
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["parse"]["parsed"] == 0
    assert diagnostics["parse"]["malformed"] > 0
    assert main(["reconstruct", *logs, config, "--backend", "ftrace", "--out", str(out)]) == 0
    assert _tree(out) == _tree(tmp_path / "dags")
    capsys.readouterr()


def test_unknown_flag_in_a_config_file_is_a_usage_error(tmp_path, capsys):
    config = _args_file(tmp_path, *GATEWAY_FLAGS, "--user-events=page_fault_user")
    out = tmp_path / "dags"
    err = _usage_error(capsys, ["reconstruct", "whatever.log", config, "--out", str(out)])
    assert "unrecognized arguments: --user-events=page_fault_user" in err
    assert not out.exists()


def test_undecodable_config_file_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "args.txt"
    config.write_bytes(b"\xff--strict\n")
    out = tmp_path / "dags"
    assert main(["reconstruct", "whatever.log", f"@{config}", *GATEWAY_FLAGS,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("reqflow: cannot decode arguments file: ")
    assert not out.exists()


def test_reconstruct_gantt_flag_writes_gantt_files(tmp_path, capsys):
    logs = _synth(tmp_path)
    assert _reconstruct(tmp_path, logs, "--gantt") == 0
    gantts = sorted(p.name for p in (tmp_path / "dags").glob("*.gantt.txt"))
    assert gantts == ["trace_1.gantt.txt", "trace_2.gantt.txt"]
    capsys.readouterr()


def test_pid_filter_keeps_the_pids_the_listed_ones_fork(tmp_path, capsys):
    # The demo's listener forks a worker per request; the workers' pids are
    # not listed, yet their records, redis calls included, are kept.
    capture = tmp_path / "capture"
    assert main(["synth", "--demo", "--requests", "3", "--out", str(capture)]) == 0
    logs = sorted(str(p) for p in capture.glob("cpu*.log"))
    assert _reconstruct(tmp_path, logs, "--pid", "2066822", "--pid", "1966384") == 0
    assert main(["diff", str(tmp_path / "dags"), "--truth", str(capture / "truth.json")]) == 0
    capsys.readouterr()


def test_missing_gateway_is_a_usage_error(tmp_path, capsys):
    err = _usage_error(capsys, ["reconstruct", "whatever.log", "--out", str(tmp_path / "dags")])
    assert "the following arguments are required: --gateway" in err


def test_structural_user_event_is_a_usage_error(tmp_path, capsys):
    logs = _synth(tmp_path)
    code = _reconstruct(tmp_path, logs, "--user-event", "tcp_rcv_space_adjust")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("reqflow: user events shadow structural events")
    assert "tcp_rcv_space_adjust" in err
    assert not (tmp_path / "dags").exists()


def test_user_event_that_is_not_a_plain_token_is_a_usage_error(tmp_path, capsys):
    # An @FILE line is taken as it is, so a JSON-style quoted value keeps
    # its quotes, and no capture would name such an event.
    config = _args_file(tmp_path, '--user-event="page_fault_user"')
    out = tmp_path / "dags"
    assert main(["reconstruct", "whatever.log", *GATEWAY_FLAGS, config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "reqflow: user event '\"page_fault_user\"' not a plain token\n"
    )
    assert not out.exists()


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    code = main(["reconstruct", str(tmp_path / "nope.log"), *GATEWAY_FLAGS,
                 "--out", str(tmp_path / "dags")])
    assert code == 2
    assert "cannot open" in capsys.readouterr().err


def test_bad_config_is_a_usage_error(tmp_path, capsys):
    config, out = tmp_path / "missing.txt", tmp_path / "dags"
    err = _usage_error(capsys, ["reconstruct", "whatever.log", f"@{config}", *GATEWAY_FLAGS,
                                "--out", str(out)])
    assert f"No such file or directory: {str(config)!r}" in err
    assert not out.exists()


# Values as a JSON config file wrote them, each on the line of its flag in an
# @FILE: a quoted string, a bool, null or a list. The flag rejects each, as
# it would on the command line.
BAD_CONFIGS = {
    "pids_strings": '--pid="2066822"',
    "pids_bools": "--pid=true",
    "gateways_a_string": '--gateway="10.1.0.2:80"',
    "strict_a_string": "--strict=no",
    "strict_null": "--strict=null",
    "backend_a_list": '--backend=["ftrace"]',
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys, name):
    line = BAD_CONFIGS[name]
    out = tmp_path / "dags"
    err = _usage_error(capsys, ["reconstruct", "whatever.log", *GATEWAY_FLAGS,
                                _args_file(tmp_path, line), "--out", str(out)])
    assert f"argument {line.split('=')[0]}: " in err
    assert not out.exists()


@pytest.mark.parametrize("gateway", ["10.1.0.2:²", 80])
def test_config_gateway_without_a_decimal_port_is_a_usage_error(tmp_path, capsys, gateway):
    config = _args_file(tmp_path, f"--gateway={gateway}")
    err = _usage_error(capsys, ["reconstruct", "whatever.log", config,
                                "--out", str(tmp_path / "dags")])
    assert f"argument --gateway: expected ip:port, got '{gateway}'" in err


def test_strict_mode_fails_on_malformed_line(tmp_path, capsys):
    log = tmp_path / "cpu0.log"
    log.write_text("garbage\n")
    code = main(["reconstruct", str(log), *GATEWAY_FLAGS, "--strict",
                 "--out", str(tmp_path / "dags")])
    assert code == 1
    assert "parse failure" in capsys.readouterr().err


def test_unsorted_stream_fails(tmp_path, capsys):
    log = tmp_path / "cpu0.log"
    log.write_text(
        "a-1 [000] .... 9.000000000: sys_enter_read:\n"
        "a-1 [000] .... 3.000000000: sys_exit_read:\n"
    )
    code = main(["reconstruct", str(log), *GATEWAY_FLAGS,
                 "--out", str(tmp_path / "dags")])
    assert code == 1
    assert "not time ordered" in capsys.readouterr().err


def test_non_utf8_input_fails_without_traceback(tmp_path, capsys):
    log = tmp_path / "cpu0.log"
    log.write_bytes(b"a-1 [000] .... 1.000000000: sys_enter_read: \xff\xfe\n")
    code = main(["reconstruct", str(log), *GATEWAY_FLAGS,
                 "--out", str(tmp_path / "dags")])
    assert code == 1
    assert capsys.readouterr().err.startswith("reqflow: cannot decode input")
    assert not (tmp_path / "dags" / "diagnostics.json").exists()


def test_uncreatable_out_is_a_usage_error_before_input_is_read(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    log = tmp_path / "cpu0.log"
    log.write_bytes(b"\xff\n")  # reading it would fail with code 1
    code = main(["reconstruct", str(log), *GATEWAY_FLAGS,
                 "--out", str(blocker / "dags")])
    assert code == 2
    assert capsys.readouterr().err.startswith("reqflow: cannot use output directory")


def test_failed_trace_write_exits_1_without_diagnostics(tmp_path, capsys):
    logs = _synth(tmp_path)
    dags = tmp_path / "dags"
    (dags / "trace_1.json").mkdir(parents=True)  # the write of trace 1 fails
    assert _reconstruct(tmp_path, logs) == 1
    assert capsys.readouterr().err == (
        f"reqflow: i/o error: [Errno 21] Is a directory: '{dags / 'trace_1.json'}'\n"
    )
    assert not (dags / "diagnostics.json").exists()
    assert not (dags / "summary.txt").exists()
    _assert_no_writer_left()


def _append_undecodable(log: Path) -> None:
    log.write_bytes(log.read_bytes() + b"\xff\n")


def _append_garbage(log: Path) -> None:
    log.write_text(log.read_text() + "garbage\n")


def _append_first_line(log: Path) -> None:
    text = log.read_text()
    log.write_text(text + text.splitlines(keepends=True)[0])  # back in time


@pytest.mark.parametrize("damage, message", [
    (_append_garbage, "reqflow: parse failure"),
    (_append_undecodable, "reqflow: cannot decode input"),
    (_append_first_line, "reqflow: input not time ordered"),
], ids=["strict_parse", "decode", "unsorted"])
def test_failure_after_traces_were_written_keeps_them(tmp_path, capsys, damage, message):
    capture = tmp_path / "capture"
    assert main(["synth", "--demo", "--requests", "100", "--cpus", "2", "--seed", "6",
                 "--out", str(capture)]) == 0
    logs = sorted(capture.glob("cpu*.log"))
    damage(logs[-1])  # read last: most traces complete before it fails
    assert _reconstruct(tmp_path, map(str, logs), "--strict") == 1
    assert capsys.readouterr().err.startswith(message)
    dags = tmp_path / "dags"
    written = list(dags.glob("trace_*.json"))
    assert len(written) > 1
    assert all(path.read_text().endswith("}\n") for path in written)  # none cut short
    assert not (dags / "diagnostics.json").exists()
    assert not (dags / "summary.txt").exists()
    _assert_no_writer_left()


def test_failed_run_leaves_no_summary_of_an_earlier_run(tmp_path, capsys):
    logs = _synth(tmp_path)
    assert _reconstruct(tmp_path, logs) == 0
    dags = tmp_path / "dags"
    assert (dags / "summary.txt").read_text().startswith("trace")
    bad = tmp_path / "cpu0.log"
    bad.write_bytes(b"\xff\n")
    assert _reconstruct(tmp_path, [str(bad)]) == 1
    assert capsys.readouterr().err.startswith("reqflow: cannot decode input")
    assert list(dags.iterdir()) == []


def test_empty_capture_still_writes_outputs(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise AssertionError("a run without traces forked a writer")

    monkeypatch.setattr(os, "fork", no_fork)
    log = tmp_path / "cpu0.log"
    log.write_text("# just a comment\n")
    code = main(["reconstruct", str(log), *GATEWAY_FLAGS,
                 "--out", str(tmp_path / "dags")])
    assert code == 0
    assert (tmp_path / "dags" / "summary.txt").read_text() == "traces 0\n"
    capsys.readouterr()
    _assert_no_writer_left()


def test_diagnostics_keep_their_bytes_on_malformed_and_skipped_lines(tmp_path, capsys):
    # Two comments and a blank line are skipped, two lines are malformed and
    # two parse. The parse object holds the four ParseStats counts, written
    # as they always were.
    log = tmp_path / "cpu0.log"
    log.write_text(
        "# tracer: nop\n#\n"
        "          <idle>-0     [000] d..1.   100.000000100: sched_switch: prev_comm=swapper\n"
        " garbage\n"
        "           gw-7    [000] .... 100.000000200: sys_enter_read: fd=3\n"
        "gw-7 [000] .... abc.def: sys_exit_read: ret=1\n\n"
    )
    assert main(["reconstruct", str(log), *GATEWAY_FLAGS, "--out", str(tmp_path / "dags")]) == 0
    capsys.readouterr()
    assert (tmp_path / "dags" / "diagnostics.json").read_text() == """{
  "counters": {
    "ignored_events": 1
  },
  "minted_traces": 0,
  "parse": {
    "errors": [
      "unrecognized ftrace line at line 4: ' garbage'",
      "unrecognized ftrace line at line 6: 'gw-7 [000] .... abc.def: sys_exit_read: ret=1'"
    ],
    "malformed": 2,
    "parsed": 2,
    "skipped": 3
  },
  "unattributed": {}
}
"""


def test_synth_fault_flags_write_manifest(tmp_path, capsys):
    out = tmp_path / "capture"
    code = main(["synth", "--demo", "--requests", "2", "--seed", "6",
                 "--drop-user", "0.5", "--fault-seed", "3", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "fault_manifest.json").read_text())
    assert manifest and all(e["reason"] == "drop_user_events" for e in manifest)
    capsys.readouterr()


def test_synth_validates_arguments(tmp_path, capsys):
    code = main(["synth", "--demo", "--cpus", "0", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "cpus" in capsys.readouterr().err


def test_synth_random_topology_writes_resolved_topology(tmp_path, capsys):
    out = tmp_path / "capture"
    assert main(["synth", "--random-seed", "5", "--requests", "1",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "topology.json").read_text())
    assert doc["gateway"] == "svc0"
    capsys.readouterr()


def test_render_prints_gantt_and_summary(tmp_path, capsys):
    logs = _synth(tmp_path)
    _reconstruct(tmp_path, logs)
    capsys.readouterr()
    dag = str(tmp_path / "dags" / "trace_1.json")
    assert main(["render", dag, "--width", "50"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trace 1  window")
    assert "|" in out
    assert main(["render", dag, "--summary"]) == 0
    assert "traces=1" in capsys.readouterr().out


def test_render_reads_a_directory_as_diff_does(tmp_path, capsys):
    _reconstruct(tmp_path, _synth(tmp_path))
    capsys.readouterr()
    dags = tmp_path / "dags"
    files = sorted(str(path) for path in dags.glob("trace_*.json"))
    assert len(files) == 2
    assert main(["render", *files]) == 0
    expected = capsys.readouterr().out
    assert main(["render", str(dags)]) == 0
    assert capsys.readouterr().out == expected


def test_render_summary_of_a_directory_prints_its_summary_file(tmp_path, capsys):
    # twelve traces: by name trace_10.json sorts before trace_2.json
    out = tmp_path / "capture"
    assert main(["synth", "--demo", "--requests", "12", "--out", str(out)]) == 0
    _reconstruct(tmp_path, sorted(str(p) for p in out.glob("cpu*.log")))
    capsys.readouterr()
    dags = tmp_path / "dags"
    assert len(list(dags.glob("trace_*.json"))) == 12
    assert main(["render", "--summary", str(dags)]) == 0
    assert capsys.readouterr().out == (dags / "summary.txt").read_text()


def test_render_rejects_narrow_width(tmp_path, capsys):
    logs = _synth(tmp_path)
    _reconstruct(tmp_path, logs)
    code = main(["render", str(tmp_path / "dags" / "trace_1.json"),
                 "--width", "10"])
    assert code == 2
    capsys.readouterr()


def test_render_rejects_broken_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["render", str(bad)]) == 1
    assert "bad dag document" in capsys.readouterr().err


@pytest.fixture(scope="module")
def demo_trace(tmp_path_factory) -> tuple[dict, str]:
    """A reconstructed demo trace document and the path of its truth."""
    tmp_path = tmp_path_factory.mktemp("demo_trace")
    assert _reconstruct(tmp_path, _synth(tmp_path)) == 0
    doc = json.loads((tmp_path / "dags" / "trace_1.json").read_text())
    assert doc["edges"]
    return doc, str(tmp_path / "capture" / "truth.json")


def _first_edge(key, value):
    def damage(doc):
        doc["edges"][0][key] = value
        return doc
    return damage


def _swap_causes(doc):
    for edge in doc["edges"]:
        edge["cause"] = {"tcp": "fork", "fork": "tcp"}[edge["cause"]]
    return doc


def _node_without_identity(doc):
    del doc["nodes"][0]["identity"]
    return doc


def _tally(value):
    def damage(doc):
        doc["nodes"][0]["event_tallies"]["x"] = value
        return doc
    return damage


# A list that decodes on the stack main() runs on from the command line but
# nests too deep for json to encode again there, as a node key. json.dumps
# cannot write it either, so the test puts it in place of this placeholder.
DEEP_PLACEHOLDER = "a list nested 982 deep"
DEEP_LIST_TEXT = "[" * 982 + "]" * 982


def _deep_dst_ip(doc):
    doc["nodes"][0]["identity"]["tuple"]["dst_ip"] = DEEP_PLACEHOLDER
    return doc


def _identity(change):
    def damage(doc):
        change(doc["nodes"][-1]["identity"])
        return doc
    return damage


def _last_node(key, retype):
    def damage(doc):
        doc["nodes"][-1][key] = retype(doc["nodes"][-1][key])
        return doc
    return damage


BAD_DAG_DOCS = {
    "unknown_edge_parent": _first_edge("parent", "deadbeef0000"),
    "edge_cause_a_list": _first_edge("cause", ["tcp"]),
    "edge_cause_contradicts_child_kind": _swap_causes,
    "edge_cause_unknown": _first_edge("cause", "bogus"),
    "node_without_identity": _node_without_identity,
    "trace_id_a_list": lambda doc: {**doc, "trace_id": [1]},
    "trace_id_a_bool": lambda doc: {**doc, "trace_id": True},
    "owner_pid_a_string": _last_node("owner_pid", str),
    "start_ns_a_float": _last_node("start_ns", float),
    "end_ns_null": _last_node("end_ns", lambda _: None),
    "tally_a_string": _tally("7"),
    "tally_a_bool": _tally(True),
    "tallies_a_list": _last_node("event_tallies", lambda _: [1]),
    "flag_an_int": _last_node("flags", lambda _: [1]),
    "nodes_not_a_list": lambda doc: {**doc, "nodes": "x"},
    "dst_ip_nested_982_deep": _deep_dst_ip,
    "identity_with_an_extra_key": _identity(lambda identity: identity.update(x=1)),
    "identity_without_trace_id": _identity(lambda identity: identity.pop("trace_id")),
    "kind_unknown": _last_node("kind", lambda _: "thread"),
    "top_level_list": lambda doc: [1, 2],
}


@pytest.mark.parametrize("command", ["diff", "render"])
@pytest.mark.parametrize("damage", sorted(BAD_DAG_DOCS))
def test_inconsistent_dag_document_fails_without_traceback(
    tmp_path, capsys, demo_trace, damage, command,
):
    doc, truth = demo_trace
    bad = tmp_path / "trace_1.json"
    text = json.dumps(BAD_DAG_DOCS[damage](json.loads(json.dumps(doc))))
    bad.write_text(text.replace(json.dumps(DEEP_PLACEHOLDER), DEEP_LIST_TEXT))
    extra = ["--truth", truth] if command == "diff" else []
    # On a fresh thread's stack, as deep as the command line's, so how deep a
    # document may nest does not depend on pytest's frames.
    with ThreadPoolExecutor(1) as thread:
        assert thread.submit(main, [command, str(bad), *extra]).result() == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"reqflow: bad dag document {bad}: ")
    assert captured.out == ""


# What each command reads as JSON, and the exit code a file of it that is
# nested too deep to decode gets: 1 for a dag document, 2 for the rest.
# diff reads its truth file before any dag document.
DEEP_JSON_RUNS = {
    "render": (1, lambda deep, out: ["render", deep]),
    "diff_truth": (2, lambda deep, out: ["diff", "trace_1.json", "--truth", deep]),
    "synth_topology": (2, lambda deep, out: ["synth", "--topology", deep, "--out", out]),
}


@pytest.mark.parametrize("run", sorted(DEEP_JSON_RUNS))
def test_deeply_nested_json_fails_without_traceback(tmp_path, capsys, run):
    deep, out = tmp_path / "deep.json", tmp_path / "out"
    deep.write_text("[" * 100_000)
    code, argv = DEEP_JSON_RUNS[run]
    assert main(argv(str(deep), str(out))) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("reqflow: ")
    assert "too deep" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_diff_reports_a_trace_id_that_two_documents_carry(tmp_path, capsys):
    _reconstruct(tmp_path, _synth(tmp_path))
    good, bad = tmp_path / "dags", tmp_path / "bad"
    bad.mkdir()
    for path in good.glob("trace_*.json"):
        (bad / path.name).write_text(path.read_text())
    doc = json.loads((bad / "trace_1.json").read_text())
    doc["nodes"][-1]["end_ns"] += 1
    (bad / "trace_1.json").write_text(json.dumps(doc))
    truth = str(tmp_path / "capture" / "truth.json")
    assert main(["diff", str(good), "--truth", truth]) == 0
    capsys.readouterr()
    for first, last in ((bad, good), (good, bad)):
        assert main(["diff", str(first), str(last), "--truth", truth]) == 1
        out = capsys.readouterr().out
        assert "extra traces: [1, 2]" in out
        assert "clean" not in out


def test_synth_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    blocked = tmp_path / "blocked"
    (blocked / "truth.json").mkdir(parents=True)
    for out in (a_file, blocked):
        assert main(["synth", "--demo", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("reqflow: cannot use output directory: ")
        assert captured.out == ""


def _span(key, value, index=0):
    def damage(doc):
        doc["traces"][0]["spans"][index][key] = value
        return doc
    return damage


# Each damage, and what the message about it names.
BAD_TRUTH_DOCS = {
    "trace_id_a_list": (
        lambda doc: {**doc, "traces": [{**doc["traces"][0], "trace_id": [1]}]},
        "trace_id must be int",
    ),
    "trace_id_twice": (
        lambda doc: {**doc, "traces": doc["traces"] + doc["traces"][:1]},
        "trace_id 1 appears twice",
    ),
    "traces_an_int": (lambda doc: {**doc, "traces": 5}, "traces must be list"),
    "conn_an_int": (_span("conn", 7), "conn must be list"),
    "conn_address_a_list": (
        _span("conn", [["10.1.0.2"], 80, "203.0.113.9", 60000]), "src_ip must be str",
    ),
    "conn_three_items": (
        _span("conn", ["10.1.0.2", 80, "203.0.113.9"]), "conn must hold 4 items, got 3",
    ),
    "kind_unknown": (_span("kind", "thread"), "kind must be network or fork"),
    "parent_index_out_of_range": (
        _span("parent_index", 99, index=1), "parent_index 99 is not an earlier span",
    ),
    "parent_index_not_earlier": (
        _span("parent_index", 1, index=1), "parent_index 1 is not an earlier span",
    ),
    "start_ns_a_string": (_span("start_ns", "5"), "start_ns must be int"),
    "cause_unknown": (
        _span("cause", "bogus", index=1), "cause must be 'fork' for this span, got 'bogus'",
    ),
}


@pytest.mark.parametrize("damage", sorted(BAD_TRUTH_DOCS))
def test_inconsistent_truth_file_is_a_usage_error(tmp_path, capsys, demo_trace, damage):
    doc, truth = demo_trace
    dag = tmp_path / "trace_1.json"
    dag.write_text(json.dumps(doc))
    bad = tmp_path / "truth.json"
    spoil, named = BAD_TRUTH_DOCS[damage]
    bad.write_text(json.dumps(spoil(json.loads(Path(truth).read_text()))))
    assert main(["diff", str(dag), "--truth", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"reqflow: bad truth file {bad}: ")
    assert named in captured.err
    assert captured.out == ""


def _service(key, value, index=0):
    def damage(doc):
        doc["services"][index][key] = value
        return doc
    return damage


BAD_TOPOLOGY_DOCS = {
    "port_a_string": _service("port", "80"),
    "pid_a_string": _service("pid", "7"),
    "child_pids_a_bool": _service("child_pids", [True]),
    "service_time_a_string": _service("service_time_ns", [1, "x"]),
    "name_a_list": _service("name", ["nginx"]),
    "calls_a_list": _service("calls", [["home-timeline-redis"]]),
    "gateway_a_list": lambda doc: {**doc, "gateway": []},
    "rate_a_string": lambda doc: {**doc, "user_event_rates": {"page_fault_user": "2"}},
    "rates_a_list": lambda doc: {**doc, "user_event_rates": [["page_fault_user", 2.0]]},
    "ip_an_int": _service("ip", 167837698),
    "ip_holds_a_tab": _service("ip", "10.1.0.7\tx", index=1),
    "ip_holds_a_newline": _service("ip", "10.1.0.7\nx", index=1),
    "reuse_connections_a_string": lambda doc: {**doc, "reuse_connections": "no"},
    "service_time_three_items": _service("service_time_ns", [1, 2, 3]),
    "service_time_one_item": _service("service_time_ns", [1]),
    "name_ends_in_a_newline": lambda doc: _service("name", "nginx\n")(
        {**doc, "gateway": "nginx\n"}
    ),
    "event_ends_in_a_newline": lambda doc: {
        **doc, "user_event_rates": {"page_fault_user\n": 2.0}
    },
}
# What the error names, where the type table alone does not reject the document.
TOPOLOGY_ERRORS = {
    "service_time_three_items": "nginx: service_time_ns must hold 2 items",
    "service_time_one_item": "nginx: service_time_ns must hold 2 items",
    "name_ends_in_a_newline": "service name 'nginx\\n' not a plain token",
    "event_ends_in_a_newline": "user event 'page_fault_user\\n' not a plain token",
    "ip_holds_a_tab": "home-timeline-redis: ip '10.1.0.7\\tx' not a plain token",
    "ip_holds_a_newline": "home-timeline-redis: ip '10.1.0.7\\nx' not a plain token",
}


@pytest.mark.parametrize("damage", sorted(BAD_TOPOLOGY_DOCS))
def test_inconsistent_topology_is_a_usage_error(tmp_path, capsys, damage):
    topology = tmp_path / "topology.json"
    doc = json.loads(json.dumps(demo_topology().to_doc()))
    topology.write_text(json.dumps(BAD_TOPOLOGY_DOCS[damage](doc)))
    out = tmp_path / "capture"
    assert main(["synth", "--topology", str(topology), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("reqflow: ")
    assert TOPOLOGY_ERRORS.get(damage, "") in err
    assert not out.exists()


def test_bad_fault_probability_fails_before_simulating(tmp_path, capsys, monkeypatch):
    def simulate(*args, **kwargs):
        raise AssertionError("simulated before the fault modes were checked")
    monkeypatch.setattr(synth_module, "simulate", simulate)
    out = tmp_path / "capture"
    assert main(["synth", "--demo", "--drop-user", "1.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "reqflow: probability must be within [0, 1]\n"
    assert not out.exists()


def test_argparse_usage_errors_exit_2(capsys):
    for argv, named in (
        (["reconstruct", "x.log", *GATEWAY_FLAGS, "--backend", "perf", "--out", "y"],
         "argument --backend: invalid choice: 'perf'"),
        (["reconstruct", "x.log", "--gateway", "10.1.0.2:²", "--out", "y"],
         "argument --gateway: expected ip:port"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ):
        assert named in _usage_error(capsys, argv)


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "reqflow", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "reconstruct" in result.stdout


def test_importing_the_cli_loads_no_dataclasses_openssl_synth_or_truth():
    # reconstruct and render need none of these; synth and diff import theirs.
    # dataclasses would bring inspect, ast, dis and tokenize with it.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "_hashlib", "statistics",
             "array", "reqflow.synth", "reqflow.truth")
    code = f"import sys, reqflow.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# A forking gateway fans out to a forking service and a kept-alive one over a
# fresh connection per call: each request leaves two exited pids and three
# finished 4-tuples behind, and one summary row.
FORKING_FANOUT = TopologySpec(
    services=(
        ServiceSpec(name="gw", ip="10.5.0.1", port=80, worker_model="fork_per_request",
                    calls=("auth", "catalog")),
        ServiceSpec(name="auth", ip="10.5.0.2", port=7001, worker_model="fork_per_request"),
        ServiceSpec(name="catalog", ip="10.5.0.3", port=7002),
    ),
    gateway="gw", reuse_connections=False, user_event_rates={"page_fault_user": 2.0},
)
# Twice the growth per extra trace measured on CPython 3.11 once the summary
# became int columns and a finished 4-tuple one int (439 bytes); with a row
# dict per trace and a tuple per 4-tuple it was 1,540 bytes.
MAX_PEAK_GROWTH_PER_TRACE = 880


def test_reconstruct_peak_memory_grows_by_less_than_a_bound_per_trace(tmp_path, capsys):
    def traced_peak(requests: int) -> int:
        streams, _truth = simulate(FORKING_FANOUT, requests, 2, seed=5)
        logs = write_streams(streams, tmp_path / f"capture_{requests}", "bpftrace")
        tracemalloc.start()
        try:
            assert main([
                "reconstruct", *map(str, logs), "--backend", "bpftrace",
                "--gateway", "10.5.0.1:80", "--user-event", "page_fault_user",
                "--out", str(tmp_path / f"dags_{requests}"),
            ]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(5)  # what a first run loads or caches, the others share
    requests = 100
    growth = traced_peak(4 * requests) - traced_peak(requests)
    assert f"reconstructed {4 * requests} traces" in capsys.readouterr().out
    assert growth < MAX_PEAK_GROWTH_PER_TRACE * 3 * requests
