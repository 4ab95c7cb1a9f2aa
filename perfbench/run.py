"""End-to-end AutoPilot benchmark: time-to-design, design quality, layers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design-q1-b100 --seed 1 \\
        --seconds 50 --trace 0

Every run is a fresh ``python`` subprocess of the public CLI (see
``child.py``), so imports count, with the ``REPRO_*`` environment
scrubbed, one BLAS thread, and a fresh autotune store and checkpoint
directory under ``.perfbench/``.  Runs are pinned to the CPUs the
workload uses (``Workload.cores``, picked least busy at the start).
One invocation makes, in order:

1. a warm-up run that only imports, so that compiling the bytecode
   cache is timed by no metric;
2. one traced run, whose spans give the per-layer metrics and whose
   counters give the design-quality metrics (``missions``,
   ``hypervolume``);
3. untraced timed runs until ``--seconds`` is used up (at least
   three), each between two timings of the calibration kernel on the
   same CPUs (``calibrate.py``).  They give ``wall_s``, ``setup_s``,
   ``cpu_s`` and ``peak_rss_mb``; CPU time and peak RSS come from
   ``os.wait4`` on each run.

The times are scaled to the reference host speed by the calibrations
around each run, and each end-to-end value reported is the median over
the timed runs; the record keeps the quartiles, the unscaled times and
every run as well.

Every workload run's report must match the workload's golden sha256; a
run that exits non-zero, times out or mismatches is counted as failed
and the benchmark moves on.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  The
full record -- quartiles, sample counts, every run, host facts, absent
layers -- is written to ``.perfbench/results/``.

The workloads are fixed commands at program seed 7 (``workloads.py``);
``--seed`` is recorded with the result but changes no program input,
because one golden digest per workload and comparable medians need
fixed inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

import calibrate
import spans
from stats import digest_mismatch, quartiles
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".perfbench"
SCHEMA = 1

#: ``name -> unit`` of the end-to-end metrics, in report order.
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "missions": "missions/charge",
              "hypervolume": "hv"}
#: The times scaled to the reference host (see ``calibrate.py``).
SCALED = ("wall_s", "setup_s", "cpu_s")
#: A multi-threaded BLAS spin-waits for its threads; on a host with few
#: cores its runs time the scheduler, not the program.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_TIMED_RUNS = 3
RUN_TIMEOUT_S = 60.0
#: No run is started that could end later than this after launch.
HARD_LIMIT_S = 170.0
STDERR_TAIL_LINES = 12


@dataclass
class Run:
    """One subprocess run and what was measured of it."""

    kind: str  # "warmup", "traced" or "timed"
    ok: bool
    wall_s: float
    setup_s: Optional[float] = None
    cpu_s: Optional[float] = None
    peak_rss_mb: Optional[float] = None
    #: Time the traced child spent writing its trace after the CLI returned.
    trace_write_s: Optional[float] = None
    #: Mean ``calibrate.measure()`` times just before and after the run.
    calibration_wall_s: Optional[float] = None
    calibration_cpu_s: Optional[float] = None
    error: Optional[str] = None

    def scaled(self, metric: str) -> float:
        """A time of this run as it would read on the reference host."""
        if metric == "cpu_s":
            return (self.cpu_s * calibrate.REFERENCE_CPU_S
                    / self.calibration_cpu_s)
        return (getattr(self, metric) * calibrate.REFERENCE_WALL_S
                / self.calibration_wall_s)


def child_env(run_dir: Path) -> Dict[str, str]:
    """The parent environment without ``REPRO_*``, plus a private store
    and one BLAS thread."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(ONE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_TUNE_DIR"] = str(run_dir / "tune")
    return env


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _stop_group(pgid: int, grace_s: float = 5.0) -> None:
    """Kill what is left of a run's process group and wait for it to go."""
    deadline = time.monotonic() + grace_s
    while _group_alive(pgid) and time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def _tail(path: Path) -> str:
    try:
        lines = path.read_text(errors="replace").splitlines()
    except OSError:
        return ""
    return "\n".join(lines[-STDERR_TAIL_LINES:])


def spawn(kind: str, run_dir: Path, cli_args: List[str],
          trace_path: Optional[Path], timeout_s: float) -> Run:
    """Run ``child.py`` once in its own process group and measure it."""
    run_dir.mkdir(parents=True)
    stamps = run_dir / "stamps.json"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(stamps),
            str(trace_path) if trace_path is not None else "-", *cli_args]
    with open(run_dir / "stdout.txt", "wb") as out, \
            open(run_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        process = subprocess.Popen(argv, cwd=ROOT, env=child_env(run_dir),
                                   stdin=subprocess.DEVNULL, stdout=out,
                                   stderr=err, start_new_session=True)
    # The pidfd keeps the pid from being recycled until it is reaped, so
    # the kill below can only hit this run's process group.
    pidfd = os.pidfd_open(process.pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], timeout_s)
        ended = time.monotonic()
        if not exited:
            os.killpg(process.pid, signal.SIGKILL)
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        os.close(pidfd)
    process.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(process.pid)

    run = Run(kind=kind, ok=False, wall_s=ended - spawned,
              cpu_s=usage.ru_utime + usage.ru_stime,
              peak_rss_mb=usage.ru_maxrss / 1024.0)
    if not exited:
        run.error = f"timed out after {timeout_s:.0f} s"
    elif process.returncode != 0:
        run.error = f"exit code {process.returncode}"
    else:
        try:
            stamp = json.loads(stamps.read_text())
            run.setup_s = stamp["imported"] - spawned
            run.trace_write_s = stamp["written"] - stamp["finished"]
            run.ok = True
        except (OSError, ValueError, KeyError) as exc:
            run.error = f"unreadable stamps: {exc}"
    if run.error is not None:
        run.error += "\n" + _tail(run_dir / "stderr.txt")
    return run


class Session:
    """All runs of one benchmark invocation for one workload."""

    def __init__(self, workload: Workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.started = time.monotonic()
        self.runs: List[Run] = []
        #: The CPUs every run and every calibration is pinned to.
        self.cpus = calibrate.quietest(workload.cores)

    def remaining_s(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def run(self, kind: str, trace_path: Optional[Path] = None) -> Run:
        run_dir = self.scratch / f"{len(self.runs):03d}-{kind}"
        cli_args = [] if kind == "warmup" else self.workload.cli_args(run_dir)
        timeout = min(RUN_TIMEOUT_S, self.remaining_s())
        try:
            with calibrate.pinned(set(self.cpus)):
                run = spawn(kind, run_dir, cli_args, trace_path, timeout)
            if run.ok and kind != "warmup":
                mismatch = digest_mismatch(run_dir / "report.md",
                                           self.workload.digest)
                if mismatch is not None:
                    run.ok, run.error = False, mismatch
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        self.runs.append(run)
        return run

    def of(self, *kinds: str) -> List[Run]:
        return [run for run in self.runs if run.ok and run.kind in kinds]


def summarize(values: List[float], unit: str) -> dict:
    """Median, quartiles and sample count of one metric."""
    if not values:
        return {"unit": unit, "n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "n": len(values), "median": median, "q1": q1,
            "q3": q3}


def source_digest() -> str:
    """sha256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_facts(trace_host: dict) -> dict:
    facts = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "loadavg": list(os.getloadavg()),
             "machine": platform.machine(),
             "git_sha": git_sha(), "source_sha256": source_digest()}
    facts.update(trace_host)
    return facts


def benchmark(workload: Workload, seed: int, seconds: int) -> dict:
    """Make every run of one invocation and assemble the full record."""
    scratch = SCRATCH / "runs" / f"{workload.name}-{os.getpid()}"
    results = SCRATCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    trace_path = results / f"{workload.name}.trace.json"
    trace_path.unlink(missing_ok=True)
    load_before = list(os.getloadavg())
    session = Session(workload, scratch)
    try:
        session.run("warmup")
        traced = session.run("traced", trace_path)
        measured_from = time.monotonic()
        last_s = 0.0
        cpus = session.cpus
        before = calibrate.measure(cpus)
        while session.remaining_s() > 30.0:
            if (len(session.of("timed")) >= MIN_TIMED_RUNS and
                    time.monotonic() - measured_from + last_s > seconds):
                break
            run = session.run("timed")
            after = calibrate.measure(cpus)
            run.calibration_wall_s = (before[0] + after[0]) / 2.0
            run.calibration_cpu_s = (before[1] + after[1]) / 2.0
            before = after
            last_s = run.wall_s + after[0] * len(cpus)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    timed = session.of("timed")
    end_to_end = {name: summarize([r.scaled(name) for r in timed], "s")
                  for name in SCALED}
    end_to_end["peak_rss_mb"] = summarize([r.peak_rss_mb for r in timed],
                                          "MB")
    unscaled = {name: summarize([getattr(r, name) for r in timed], "s")
                for name in SCALED}
    layers: Dict[str, dict] = {}
    trace_host: dict = {}
    if traced.ok and trace_path.is_file():
        trace = json.loads(trace_path.read_text())
        trace_host = trace["otherData"].get("host", {})
        view = spans.TraceView.from_chrome(trace)
        for name, span_name in (("missions", spans.RUN),
                                ("hypervolume", spans.DSE)):
            # A counter that could not be read leaves the metric without
            # a sample, which makes the result incorrect, not a crash.
            values = [s.counters.get(name) for s in view.outermost(span_name)]
            values = [v for v in values if isinstance(v, (int, float))]
            end_to_end[name] = summarize(
                [statistics.fmean(values)] if values else [], END_TO_END[name])
        layers = spans.layer_metrics(
            view, trace["otherData"].get("absent", {}),
            {"traced_wall_s": traced.wall_s,
             "program_wall_s": traced.wall_s - traced.trace_write_s,
             "untraced_wall_s": unscaled["wall_s"]["median"]})
    else:
        for name in ("missions", "hypervolume"):
            end_to_end[name] = summarize([], END_TO_END[name])

    failed = [run for run in session.runs if not run.ok]
    complete = (bool(timed) and bool(layers)
                and all(end_to_end[name]["n"] for name in END_TO_END))
    return {
        "schema": SCHEMA, "workload": workload.name, "seed": seed,
        "seconds": seconds, "command": ["autopilot", *workload.args],
        "golden_digest": workload.digest,
        "host": dict(host_facts(trace_host), loadavg_before=load_before,
                     cpus=session.cpus),
        "correct": complete and not failed,
        "attempted": len(session.runs), "failed": len(failed),
        "end_to_end": end_to_end, "unscaled": unscaled, "per_layer": layers,
        "runs": [asdict(run) for run in session.runs],
    }


def render(record: dict) -> str:
    """Human-readable summary of a benchmark record."""
    lines = [f"workload {record['workload']}: {record['attempted']} runs, "
             f"{record['failed']} failed, correct={record['correct']}",
             f"{'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit"]
    for name, stats in record["end_to_end"].items():
        lines.append(f"{name:<22}{stats['median']:>12.4f}{stats['q1']:>12.4f}"
                     f"{stats['q3']:>12.4f}{stats['n']:>4}  {stats['unit']}")
    lines.append(f"{'layer metric':<22}{'value':>12}  unit / status")
    for name, metric in record["per_layer"].items():
        lines.append(f"{name:<22}{metric['value']:>12.4f}  {metric['unit']}"
                     + ("" if metric["status"] == "ok"
                        else f" ({metric['status']})"))
    for run in record["runs"]:
        if run["error"]:
            lines.append(f"FAILED {run['kind']} run: {run['error']}")
    return "\n".join(lines)


def contract_line(record: dict, trace: bool) -> dict:
    """The final stdout line: end-to-end or per-layer metric values."""
    if trace:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in record["per_layer"].items()}
        if not metrics:  # the traced run failed: report zeros, not nothing
            metrics = {m.name: {"value": 0.0, "unit": m.unit}
                       for m in spans.LAYER_METRICS}
    else:
        metrics = {name: {"value": record["end_to_end"][name]["median"],
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no AutoPilot sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    # For this process's own NumPy, which the calibration imports.
    os.environ.update(ONE_THREAD)
    record = benchmark(WORKLOADS[args.workload], args.seed, args.seconds)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (SCRATCH / "results" / name).write_text(json.dumps(record, indent=2))
    print(render(record))
    print(json.dumps(contract_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
