"""Command-line interface for the AutoPilot reproduction.

Subcommands:

* ``design``   -- run the full three-phase pipeline for a UAV/scenario
  and print the design report (optionally write it to a file);
* ``compare``  -- compare the AutoPilot design against the baseline
  onboard computers on the mission metric;
* ``f1``       -- print the F-1 roofline for a platform/payload;
* ``sweep``    -- sweep the accelerator template for one policy;
* ``bench``    -- sweep registered scenarios x platform classes through
  the full pipeline as one resumable run and report knee-point designs
  side by side.

Example::

    python -m repro.cli design --uav nano --scenario dense --budget 100
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.airlearning.scenarios import (
    resolve_scenario,
    scenario_ids,
)
from repro.airlearning.trainer import CemTrainer, ROLLOUT_ENGINES
from repro.baselines.computers import FIG5_BASELINES
from repro.bench import (
    BenchManifest,
    BenchRunner,
    build_suite,
    render_bench_report,
)
from repro.core.checkpoint import RunManifest
from repro.core.pipeline import AutoPilot
from repro.core.workers import POOL_MODES
from repro.core.report import render_report
from repro.core.spec import TaskSpec
from repro.errors import CheckpointError, ConfigError
from repro.experiments.fig3b import accelerator_frontier
from repro.experiments.runner import format_table
from repro.nn.template import (
    FILTER_CHOICES,
    LAYER_CHOICES,
    PolicyHyperparams,
    build_policy_network,
)
from repro.perf import Profiler, render_profile
from repro.uav.f1_model import F1Model
from repro.uav.mission import evaluate_mission
from repro.uav.platforms import UavClass, platform_by_class, platform_by_name

_CLASS_BY_NAME = {c.value: c for c in UavClass}


def _platform(name: str):
    return platform_by_class(_CLASS_BY_NAME[name])


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--uav", choices=sorted(_CLASS_BY_NAME),
                        default="nano", help="UAV size class")
    parser.add_argument("--scenario",
                        choices=scenario_ids(),
                        default="dense", help="deployment scenario "
                        "(any registered scenario id)")
    parser.add_argument("--sensor-fps", type=float, default=60.0,
                        help="camera frame rate")
    parser.add_argument("--seed", type=int, default=7)


def _task(args: argparse.Namespace) -> TaskSpec:
    return TaskSpec(platform=_platform(args.uav),
                    scenario=resolve_scenario(args.scenario),
                    sensor_fps=args.sensor_fps)


def _add_pool(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pool", choices=POOL_MODES, default=None,
                        help="worker-pool mode (default: REPRO_POOL or "
                             "cold). cold spawns a fresh process pool per "
                             "batch (the oracle); warm keeps one persistent "
                             "pool for the whole run and ships design "
                             "batches through shared memory (bit-identical, "
                             "much lower dispatch overhead)")


def _add_phase1(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--phase1-backend",
                        choices=("surrogate", "trainer"),
                        default="surrogate",
                        help="Phase 1 backend: calibrated surrogate or "
                             "the real CEM trainer on the simulator")
    parser.add_argument("--rollout-engine", choices=ROLLOUT_ENGINES,
                        default="vec",
                        help="trainer rollout engine: vectorised batch "
                             "engine or the scalar reference")
    parser.add_argument("--cem-population", type=int, default=24,
                        help="CEM population size per iteration")
    parser.add_argument("--cem-iterations", type=int, default=15,
                        help="CEM iterations per template point")
    parser.add_argument("--cem-episodes", type=int, default=3,
                        help="episodes per CEM candidate")


def _add_phase2(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gp-refit-every", type=int, default=1,
                        help="full GP lengthscale-grid refit cadence in "
                             "observations (1 = refit every proposal, the "
                             "exact reference behaviour; larger values "
                             "extend the cached Cholesky factors "
                             "incrementally between grid refits)")
    parser.add_argument("--proposal-batch", type=int, default=1,
                        help="SMS-EGO candidates proposed per GP fit (q); "
                             "each group is submitted as one evaluation "
                             "batch so the process pool and the batched "
                             "SoC kernel stay saturated mid-run (1 = the "
                             "exact serial reference behaviour)")
    parser.add_argument("--fidelity", choices=("off", "on"), default="off",
                        help="multi-fidelity Phase 2: screen each proposal "
                             "group with the closed-form tier-0 bound "
                             "estimator and promote only the most promising "
                             "points to the exact simulator (off = the "
                             "exact single-fidelity reference behaviour)")
    parser.add_argument("--promotion-eta", type=float, default=0.5,
                        help="fraction of each screened group promoted to "
                             "the exact simulator on tier-0 merit; points "
                             "whose optimistic bounds could still dominate "
                             "the current front are always promoted")


def _autopilot(args: argparse.Namespace) -> AutoPilot:
    trainer = None
    if args.phase1_backend == "trainer":
        trainer = CemTrainer(population_size=args.cem_population,
                             iterations=args.cem_iterations,
                             episodes_per_candidate=args.cem_episodes,
                             seed=args.seed, engine=args.rollout_engine,
                             cache=True)
    optimizer_kwargs = {}
    if getattr(args, "gp_refit_every", 1) != 1:
        optimizer_kwargs["gp_refit_every"] = args.gp_refit_every
    if getattr(args, "proposal_batch", 1) != 1:
        optimizer_kwargs["proposal_batch"] = args.proposal_batch
    return AutoPilot(seed=args.seed, workers=args.workers,
                     frontend_backend=args.phase1_backend, trainer=trainer,
                     optimizer_kwargs=optimizer_kwargs or None,
                     fidelity=getattr(args, "fidelity", "off"),
                     promotion_eta=getattr(args, "promotion_eta", 0.5),
                     pool=getattr(args, "pool", None))


def _restore_from_manifest(args: argparse.Namespace,
                           manifest: RunManifest) -> TaskSpec:
    """Rebuild the task and pipeline knobs a checkpointed run recorded."""
    args.seed = manifest.seed
    args.budget = manifest.budget
    args.phase1_backend = manifest.frontend_backend
    args.proposal_batch = manifest.proposal_batch
    args.gp_refit_every = manifest.gp_refit_every
    args.fidelity = manifest.fidelity
    args.promotion_eta = manifest.promotion_eta
    args.pool = manifest.pool
    if manifest.trainer:
        args.cem_population = manifest.trainer["population_size"]
        args.cem_iterations = manifest.trainer["iterations"]
        args.cem_episodes = manifest.trainer["episodes_per_candidate"]
        args.rollout_engine = manifest.trainer["engine"]
    return TaskSpec(platform=platform_by_name(manifest.uav),
                    scenario=resolve_scenario(manifest.scenario),
                    sensor_fps=manifest.sensor_fps)


def cmd_design(args: argparse.Namespace) -> int:
    checkpoint_dir = args.checkpoint_dir
    resume = args.resume is not None
    if resume:
        checkpoint_dir = args.resume
        try:
            manifest = RunManifest.load(checkpoint_dir)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        task = _restore_from_manifest(args, manifest)
    else:
        task = _task(args)
    autopilot = _autopilot(args)
    try:
        result = autopilot.run(task, budget=args.budget,
                               profile=args.profile,
                               checkpoint_dir=checkpoint_dir, resume=resume)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = render_report(result)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def _csv(value: Optional[str]) -> Optional[List[str]]:
    """Split a comma-separated CLI value into a list (None stays None)."""
    if value is None:
        return None
    items = [item.strip() for item in value.split(",") if item.strip()]
    return items or None


def _restore_bench_args(args: argparse.Namespace,
                        manifest: BenchManifest) -> None:
    """Rebuild the sweep and pipeline knobs a bench checkpoint recorded."""
    args.tags = None
    args.scenarios = ",".join(manifest.scenarios)
    args.platforms = ",".join(manifest.platforms)
    args.budget = manifest.budget
    args.seed = manifest.seed
    args.sensor_fps = manifest.sensor_fps
    args.phase1_backend = manifest.frontend_backend
    args.proposal_batch = manifest.proposal_batch
    args.gp_refit_every = manifest.gp_refit_every
    args.fidelity = manifest.fidelity
    args.promotion_eta = manifest.promotion_eta
    args.pool = manifest.pool
    if manifest.trainer:
        args.cem_population = manifest.trainer["population_size"]
        args.cem_iterations = manifest.trainer["iterations"]
        args.cem_episodes = manifest.trainer["episodes_per_candidate"]
        args.rollout_engine = manifest.trainer["engine"]


def cmd_bench(args: argparse.Namespace) -> int:
    checkpoint_dir = args.checkpoint_dir
    resume = args.resume is not None
    if resume:
        checkpoint_dir = args.resume
        try:
            manifest = BenchManifest.load(checkpoint_dir)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _restore_bench_args(args, manifest)
    try:
        suite = build_suite(tags=_csv(args.tags),
                            ids=_csv(args.scenarios),
                            platforms=_csv(args.platforms))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    autopilot = _autopilot(args)
    runner = BenchRunner(autopilot, budget=args.budget,
                         sensor_fps=args.sensor_fps,
                         checkpoint_dir=checkpoint_dir, resume=resume,
                         profile=args.profile)
    try:
        result = runner.run(suite)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    title = (f"Bench sweep: {len(result.metrics)} cells "
             f"({len(suite.scenarios)} scenarios x "
             f"{len(suite.platforms)} classes), budget {args.budget}, "
             f"seed {args.seed}")
    report = render_bench_report(result.metrics, title=title)
    if args.profile:
        profiles = [f"--- {cell_id} ---\n"
                    + render_profile(result.results[cell_id].profile)
                    for cell_id in sorted(result.results)
                    if result.results[cell_id].profile is not None]
        if profiles:
            report = report + "\n\n" + "\n\n".join(profiles)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    task = _task(args)
    autopilot = _autopilot(args)
    result = autopilot.run(task, budget=args.budget)

    best = autopilot.database.best(task.scenario)
    network = build_policy_network(best.hyperparams)
    rows = [["AutoPilot",
             f"{result.selected.candidate.frames_per_second:.0f}",
             f"{result.selected.candidate.soc_power_w:.2f}",
             f"{result.selected.candidate.compute_weight_g:.0f}",
             f"{result.num_missions:.1f}", "1.00x"]]
    for baseline in FIG5_BASELINES:
        mission = evaluate_mission(
            platform=task.platform,
            compute_weight_g=baseline.weight_g,
            compute_power_w=baseline.power_w,
            compute_fps=baseline.throughput_fps(network),
            sensor_fps=task.sensor_fps)
        ratio = (mission.num_missions / result.num_missions
                 if result.num_missions > 0 else 0.0)
        rows.append([baseline.name, f"{mission.compute_fps:.0f}",
                     f"{baseline.power_w:.2f}", f"{baseline.weight_g:.0f}",
                     f"{mission.num_missions:.1f}", f"{ratio:.2f}x"])
    print(format_table(
        ["computer", "FPS", "power W", "weight g", "missions", "vs AP"],
        rows, title=f"{task.platform.name} / {task.scenario.value}"))
    return 0


def cmd_f1(args: argparse.Namespace) -> int:
    platform = _platform(args.uav)
    f1 = F1Model(platform=platform, compute_weight_g=args.payload,
                 sensor_fps=args.sensor_fps)
    print(f"platform:          {platform.name}")
    print(f"compute payload:   {args.payload:.1f} g")
    print(f"max acceleration:  {f1.max_accel:.2f} m/s^2")
    print(f"velocity ceiling:  {f1.velocity_ceiling:.2f} m/s")
    print(f"knee-point:        {f1.knee_throughput_hz:.1f} Hz")
    throughputs = np.linspace(2.0, 2.0 * f1.knee_throughput_hz, 12)
    rows = [[f"{t:.1f}", f"{v:.2f}", f1.classify(t).value]
            for t, v in zip(throughputs, f1.curve(throughputs))]
    print(format_table(["action Hz", "Vsafe m/s", "verdict"], rows))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    policy = PolicyHyperparams(num_layers=args.layers,
                               num_filters=args.filters)
    profiler = Profiler()
    with profiler.phase("sweep") as record:
        results = accelerator_frontier(policy=policy)
        record.evaluations += len(results)
    rows = [[f"{r.pe_rows}x{r.pe_cols}", r.sram_kb,
             f"{r.frames_per_second:.1f}", f"{r.soc_power_w:.2f}",
             f"{r.pe_utilization:.0%}", "*" if r.is_pareto else ""]
            for r in results]
    print(format_table(["PEs", "SRAM KB", "FPS", "SoC W", "util", "Pareto"],
                       rows, title=f"accelerator sweep for "
                                   f"{policy.identifier}"))
    if args.profile:
        print()
        print(render_profile(profiler.report()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autopilot",
        description="Automatic domain-specific SoC design for UAVs "
                    "(MICRO 2022 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    design = subparsers.add_parser("design",
                                   help="run the full pipeline")
    _add_common(design)
    design.add_argument("--budget", type=int, default=100,
                        help="Phase 2 evaluation budget")
    design.add_argument("--output", help="write the report to a file")
    design.add_argument("--profile", action="store_true",
                        help="append per-phase timing, throughput and "
                             "cache statistics to the report")
    design.add_argument("--workers", type=int, default=None,
                        help="processes for batched design evaluation "
                             "and Phase 1 training "
                             "(default: REPRO_WORKERS or serial)")
    checkpointing = design.add_mutually_exclusive_group()
    checkpointing.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write a run manifest and per-phase progress journals "
             "into DIR so an interrupted run can be resumed")
    checkpointing.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume the checkpointed run in DIR (task, seed, budget "
             "and pipeline options are restored from its manifest); the "
             "result is bit-identical to an uninterrupted run")
    _add_pool(design)
    _add_phase1(design)
    _add_phase2(design)
    design.set_defaults(func=cmd_design)

    bench = subparsers.add_parser(
        "bench",
        help="sweep scenarios x platform classes as one resumable run")
    bench.add_argument("--tags", default=None,
                       help="comma-separated scenario tags to select "
                            "(e.g. 'smoke' or 'windy,noisy')")
    bench.add_argument("--scenarios", default=None,
                       help="comma-separated scenario id globs "
                            "(e.g. 'forest-*,urban-canyon')")
    bench.add_argument("--platforms", default=None,
                       help="comma-separated platform classes to sweep "
                            "(default: mini,micro,nano)")
    bench.add_argument("--budget", type=int, default=40,
                       help="Phase 2 evaluation budget per scenario")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--sensor-fps", type=float, default=60.0,
                       help="camera frame rate")
    bench.add_argument("--output", help="write the report to a file")
    bench.add_argument("--profile", action="store_true",
                       help="append per-cell timing, throughput and "
                            "cache statistics to the report")
    bench.add_argument("--workers", type=int, default=None,
                       help="processes for batched design evaluation "
                            "and Phase 1 training")
    bench_ckpt = bench.add_mutually_exclusive_group()
    bench_ckpt.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write a bench manifest plus one run checkpoint per cell "
             "into DIR so an interrupted sweep can be resumed")
    bench_ckpt.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume the checkpointed bench sweep in DIR (scenario set, "
             "platforms, seed, budget and pipeline options are restored "
             "from its manifest); the report is bit-identical to an "
             "uninterrupted sweep")
    _add_pool(bench)
    _add_phase1(bench)
    _add_phase2(bench)
    bench.set_defaults(func=cmd_bench)

    compare = subparsers.add_parser("compare",
                                    help="compare against baselines")
    _add_common(compare)
    compare.add_argument("--budget", type=int, default=100)
    compare.add_argument("--workers", type=int, default=None,
                         help="processes for batched design evaluation "
                              "and Phase 1 training")
    _add_pool(compare)
    _add_phase1(compare)
    _add_phase2(compare)
    compare.set_defaults(func=cmd_compare)

    f1 = subparsers.add_parser("f1", help="print the F-1 roofline")
    _add_common(f1)
    f1.add_argument("--payload", type=float, default=24.0,
                    help="compute payload weight (g)")
    f1.set_defaults(func=cmd_f1)

    sweep = subparsers.add_parser("sweep",
                                  help="sweep the accelerator template")
    sweep.add_argument("--layers", type=int, default=7,
                       choices=sorted(LAYER_CHOICES))
    sweep.add_argument("--filters", type=int, default=48,
                       choices=sorted(FILTER_CHOICES))
    sweep.add_argument("--profile", action="store_true",
                       help="print sweep timing, throughput and "
                            "simulator-cache statistics")
    _add_pool(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
