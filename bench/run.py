"""reqflow benchmark: time, memory and accuracy of ``reqflow reconstruct``.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's capture from the seed with synth, then:

--trace 0  launches the real CLI as a subprocess, alternating a launch on an
           empty capture (set-up cost) with a launch on the workload's
           capture, one at a time, until S seconds have passed. Each launch
           goes through launch.py so ru_maxrss is the CLI's own. Reports the
           median of the launches and checks every output tree against the
           simulator's truth.
--trace 1  times each layer's public functions in-process (traced.py) for
           S seconds and reports per-layer medians, plus a few CLI launches
           to size the tracing overhead.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. attempted counts truth traces over every checked
launch, failed the traces that were missing, extra, invalid or differed
from truth in a node, edge or span end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

if not (ROOT / "src" / "reqflow" / "__init__.py").is_file():
    sys.exit(f"bench: no program source in {ROOT / 'src'}")

import check  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_work"

# The CLI on an empty capture must read near a bare interpreter's peak;
# anything above this margin means the launcher no longer isolates it.
SELF_CHECK_MARGIN_MIB = 40.0
MIN_LAUNCHES = 5
BARE_LAUNCHES = 3
TRACE_LAUNCHES = 3
LAUNCH_TIMEOUT_S = 150


class Launcher:
    """Runs commands one at a time through launch.py with the program on PYTHONPATH."""

    def __init__(self, work: Path):
        self.stdout = work / "launch.stdout"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, command: list[str]) -> dict:
        # A session of its own, so a timeout also stops the launched command.
        launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py"), str(self.stdout), "--", *command],
            env=self.env, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, _ = launcher.communicate(timeout=LAUNCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
            raise
        if launcher.returncode != 0:
            raise subprocess.CalledProcessError(launcher.returncode, launcher.args)
        result = json.loads(stdout)
        result["stdout"] = self.stdout.read_text()
        return result

    def reconstruct(self, workload, inputs: list[Path], out_dir: Path) -> dict:
        return self.run([
            sys.executable, "-m", "reqflow", "reconstruct",
            *map(str, inputs), *workload.flags(out_dir),
        ])


def _records_from(stdout: str) -> int:
    # "reconstructed N traces from M records -> DIR"
    words = stdout.split()
    return int(words[words.index("records") - 1])


class Run:
    def __init__(self, args, workload, work: Path):
        self.args = args
        self.workload = workload
        self.work = work
        self.launcher = Launcher(work)
        self.correct = True
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference_digest = None
        self.reference_check = None
        self.trace_digest = None
        self.outputs = 0

    def problem(self, text: str) -> None:
        self.correct = False
        self.problems.append(text)

    def prepare(self) -> None:
        started = time.perf_counter()
        self.inputs, self.truth = workloads.generate(
            self.workload, self.args.seed, self.work / "capture"
        )
        self.generate_s = time.perf_counter() - started
        self.empty_inputs = workloads.write_empty(self.workload, self.work / "empty")
        bare = [self.launcher.run([sys.executable, "-c", "pass"]) for _ in range(BARE_LAUNCHES)]
        self.bare_peak_mib = median(r["maxrss_kib"] for r in bare) / 1024
        # Warm-up launch: compiles bytecode and fills the page cache; its
        # output is the reference every later launch must reproduce.
        self.workload_launch()

    def workload_launch(self) -> dict:
        self.outputs += 1
        out_dir = self.work / f"out{self.outputs}"
        result = self.launcher.reconstruct(self.workload, self.inputs, out_dir)
        self.attempted += len(self.truth.traces)
        if result["exit"] != 0:
            self.problem(f"reconstruct exited {result['exit']}")
            result["check"] = check.failed_run(self.truth)
        else:
            digest = check.tree_digest(out_dir)
            if self.reference_digest is None:
                self.reference_digest = digest
                self.reference_check = check.check_output(out_dir, self.truth)
                self.trace_digest = check.tree_digest(out_dir, "trace_*")
            elif digest != self.reference_digest:
                self.problem("output trees differ between launches of one capture")
            result["check"] = (
                self.reference_check if digest == self.reference_digest
                else check.check_output(out_dir, self.truth)
            )
            result["records"] = _records_from(result["stdout"])
        self.failed += result["check"].failed
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def empty_launch(self) -> dict:
        out_dir = self.work / "empty_out"
        result = self.launcher.reconstruct(self.workload, self.empty_inputs, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        if result["exit"] != 0:
            self.problem(f"reconstruct on an empty capture exited {result['exit']}")
        return result

    def launch_pairs(self, deadline: float, minimum: int) -> tuple[list, list]:
        empty, full = [], []
        while len(full) < minimum or time.perf_counter() < deadline:
            empty.append(self.empty_launch())
            full.append(self.workload_launch())
        return empty, full

    def self_check(self, empty: list) -> float:
        empty_peak = median(r["maxrss_kib"] for r in empty) / 1024
        if empty_peak > self.bare_peak_mib + SELF_CHECK_MARGIN_MIB:
            self.problem(
                f"launcher self-check: empty-capture peak {empty_peak:.1f} MiB is not near"
                f" the bare interpreter's {self.bare_peak_mib:.1f} MiB"
            )
        return empty_peak

    def end_to_end(self) -> dict:
        deadline = time.perf_counter() + self.args.seconds
        empty, full = self.launch_pairs(deadline, MIN_LAUNCHES)
        self.self_check(empty)
        wall_s = median(r["wall_s"] for r in full)
        records = median(r.get("records", 0) for r in full)
        checked = full[0]["check"]
        self.note(f"{len(full)} launches, wall_s " + " ".join(f"{r['wall_s']:.4f}" for r in full))
        self.note("setup_s " + " ".join(f"{r['wall_s']:.4f}" for r in empty))
        self.note(f"trace_error_ratio {checked.trace_error_ratio:.6f}"
                  f" ({checked.failed}/{checked.traces} traces),"
                  f" tally_error_ratio {checked.tally_error_ratio:.6f}"
                  f" ({checked.tally_error}/{checked.tally_total} events)")
        return {
            "wall_s": (wall_s, "s"),
            "records_per_s": (records / wall_s, "records/s"),
            "peak_rss_mib": (median(r["maxrss_kib"] for r in full) / 1024, "MiB"),
            "setup_s": (median(r["wall_s"] for r in empty), "s"),
            "trace_accuracy": (1.0 - self.failed / self.attempted, "traces/traces"),
            "tally_accuracy": (1.0 - checked.tally_error_ratio, "events/events"),
        }

    def per_layer(self) -> dict:
        deadline = time.perf_counter() + self.args.seconds
        empty, full = self.launch_pairs(0.0, TRACE_LAUNCHES)
        empty_peak = self.self_check(empty)
        wall_s = median(r["wall_s"] for r in full)
        setup_s = median(r["wall_s"] for r in empty)
        import_probe = (
            "import time; t = time.perf_counter(); import reqflow.cli;"
            " print(time.perf_counter() - t)"
        )
        import_s = median(
            float(self.launcher.run([sys.executable, "-c", import_probe])["stdout"])
            for _ in range(TRACE_LAUNCHES)
        )
        read_ratio = traced.args_read_ratio(self.workload, self.inputs)

        tracer = traced.Tracer()
        passes = []
        while not passes or time.perf_counter() < deadline:
            out_dir = self.work / f"traced{len(passes)}"
            passes.append(traced.traced_pass(self.workload, self.inputs, out_dir, tracer, len(passes)))
            if check.tree_digest(out_dir, "trace_*") != self.trace_digest:
                self.problem("the traced pass wrote other trace bytes than the CLI")
            shutil.rmtree(out_dir, ignore_errors=True)
        self.write_spans(tracer)

        seconds = {}
        for name in {s["name"] for s in tracer.spans}:
            seconds[name] = median(s["end_s"] - s["start_s"] for s in tracer.spans if s["name"] == name)
        counts = passes[0]
        self.note(f"{len(passes)} traced passes, {len(full)} CLI launches")
        metrics = {
            "bench.generate_s": (self.generate_s, "s"),
            "ingest.parse_s": (seconds["ingest.parse"], "s"),
            "ingest.parse_records_per_s": (counts["records"] / seconds["ingest.parse"], "records/s"),
            "ingest.args_read_ratio": (read_ratio, "dicts/dicts"),
            "ingest.malformed": (counts["ingest.malformed"], "lines"),
            "ingest.merge_s": (seconds["ingest.merge"], "s"),
            "engine.replay_s": (seconds["engine.replay"], "s"),
            "engine.replay_records_per_s": (counts["records"] / seconds["engine.replay"], "records/s"),
            "engine.finalize_s": (seconds["engine.finalize"], "s"),
        }
        for name in ("engine.states", "engine.threads", "engine.sockets",
                     "engine.ignored_events", "engine.unattributed"):
            metrics[name] = (counts[name], "count")
        metrics.update({
            "dag.build_s": (seconds["dag.build"], "s"),
            "dag.nodes": (counts["dag.nodes"], "count"),
            "dag.edges": (counts["dag.edges"], "count"),
            "dag.orphans": (counts["dag.orphans"], "count"),
            "dag.export_s": (seconds["dag.export"], "s"),
            "dag.export_mib": (counts["dag.export_mib"], "MiB"),
            "dag.gantt_s": (seconds["dag.gantt"], "s"),
            "dag.summary_s": (seconds["dag.summary"], "s"),
            "cli.write_s": (seconds["cli.write"], "s"),
            "cli.files": (counts["cli.files"], "count"),
            "cli.import_s": (import_s, "s"),
            "bench.trace_overhead_s": (
                sum(seconds[name] for name in traced.CLI_SPANS)
                + (seconds["dag.gantt"] if self.workload.gantt else 0.0)
                - (wall_s - setup_s),
                "s",
            ),
            "bench.bare_peak_mib": (self.bare_peak_mib, "MiB"),
            "bench.empty_peak_mib": (empty_peak, "MiB"),
        })
        return metrics

    def write_spans(self, tracer) -> None:
        path = WORK / f"spans-{self.workload.name}-seed{self.args.seed}.json"
        path.write_text(json.dumps(tracer.spans, indent=1) + "\n")
        self.note(f"spans written to {path.relative_to(ROOT)}")

    def note(self, text: str) -> None:
        print(f"{self.workload.name} seed {self.args.seed}: {text}", flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, workload, work)
        run.prepare()
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for text in run.problems:
        print(f"bench: {text}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        run.note(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
