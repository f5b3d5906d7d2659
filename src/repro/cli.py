"""Command-line interface.

Eleven subcommands cover the platform's day-to-day workflows::

    python -m repro envs                       # list benchmark tasks
    python -m repro run --env cartpole ...     # evolve on a backend
    python -m repro resume --checkpoint ...    # continue a saved run
    python -m repro compare --env pendulum ... # 3-platform pricing
    python -m repro sweep --axis pe ...        # SV parallelism sweeps
    python -m repro resources --pus 50 --pes 4 # FPGA sizing
    python -m repro dot --checkpoint ...       # champion topology as DOT
    python -m repro trace-summary out.jsonl    # phase/PU table from a trace
    python -m repro doctor out.jsonl           # replay health detectors
    python -m repro bench-diff ...             # perf-trajectory gate
    python -m repro lint src/repro             # static contract linter

``run``, ``resume``, and ``compare`` accept ``--trace PATH`` /
``--metrics PATH`` to record the run's telemetry: ``--trace`` writes
schema-checked JSONL spans plus a ``chrome://tracing`` trace-event file
alongside it, ``--metrics`` writes the metrics-registry snapshot as
JSON.  ``run`` and ``resume`` also accept ``--health PATH`` to attach
the run-health watchtower (``docs/observability.md``) and write its
deterministic ``health.json`` verdict.  Every command prints plain-text
tables (the same formatters the benchmark harness uses) and exits
non-zero on invalid input.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.results import format_seconds, format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="E3 neuroevolution platform (ISPASS 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ------------------------------------------------------------- envs
    sub.add_parser("envs", help="list registered environments")

    # -------------------------------------------------------------- run
    run = sub.add_parser("run", help="run NEAT on one environment")
    run.add_argument("--env", required=True, help="environment name")
    run.add_argument(
        "--backend", default="inax",
        choices=("cpu", "cpu-fast", "cpu-compiled", "gpu", "inax", "fabric"),
        help="where the evaluate phase runs",
    )
    run.add_argument(
        "--workers", type=_non_negative_int, default=0,
        help="worker processes for the cpu-compiled/cpu-fast backends "
        "(0 = in-process)",
    )
    _add_fabric_args(run)
    run.add_argument("--population", type=int, default=100)
    run.add_argument("--generations", type=int, default=20)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--checkpoint", default=None,
        help="write a resumable checkpoint here after the run",
    )
    run.add_argument(
        "--csv", default=None, help="write the per-generation CSV log here"
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-generation lines"
    )
    _add_pipeline_args(run)
    _add_resilience_args(run)
    _add_telemetry_args(run)

    # ----------------------------------------------------------- resume
    resume = sub.add_parser(
        "resume", help="continue a checkpointed run for more generations"
    )
    resume.add_argument("--checkpoint", required=True)
    resume.add_argument("--env", required=True, help="environment name")
    resume.add_argument(
        "--backend", default="inax",
        choices=("cpu", "cpu-fast", "cpu-compiled", "gpu", "inax", "fabric"),
    )
    resume.add_argument(
        "--devices", type=int, default=1,
        help="fabric backend: number of simulated INAX farm devices "
        "(>1 auto-upgrades --backend inax to fabric, as in run)",
    )
    resume.add_argument(
        "--workers", type=_non_negative_int, default=0,
        help="worker processes for the cpu-compiled/cpu-fast backends "
        "(0 = in-process)",
    )
    resume.add_argument("--generations", type=int, default=20)
    resume.add_argument(
        "--seed", type=int, default=None,
        help="run seed for the per-episode draws (default: the seed the "
        "checkpoint recorded; 0, with a warning, if it recorded none)",
    )
    resume.add_argument(
        "--csv", default=None,
        help="append per-generation rows to this CSV log (the header is "
        "written only when the file is new or empty)",
    )
    resume.add_argument("--quiet", action="store_true")
    _add_pipeline_args(resume)
    _add_resilience_args(resume)
    _add_telemetry_args(resume)

    # ---------------------------------------------------------- compare
    compare = sub.add_parser(
        "compare", help="price one run on the CPU/GPU/INAX platforms"
    )
    compare.add_argument("--env", required=True)
    compare.add_argument("--population", type=int, default=100)
    compare.add_argument("--generations", type=int, default=10)
    compare.add_argument("--seed", type=int, default=0)
    _add_telemetry_args(compare)

    # ----------------------------------------------------- trace-summary
    trace_summary = sub.add_parser(
        "trace-summary",
        help="print the phase/PU-utilization tables from a trace JSONL",
    )
    trace_summary.add_argument(
        "path", help="JSONL trace file written by --trace"
    )
    trace_summary.add_argument(
        "--json", action="store_true",
        help="machine-readable output instead of the text tables",
    )

    # ----------------------------------------------------------- doctor
    doctor = sub.add_parser(
        "doctor",
        help="post-mortem health diagnosis of an exported trace JSONL",
    )
    doctor.add_argument(
        "path", help="JSONL trace file written by --trace"
    )
    doctor.add_argument(
        "--json", action="store_true",
        help="machine-readable diagnosis instead of the text tables",
    )
    doctor.add_argument(
        "--health-out", default=None, metavar="PATH",
        help="also write the replayed health.json here",
    )

    # ------------------------------------------------------- bench-diff
    bench_diff = sub.add_parser(
        "bench-diff",
        help="judge fresh BENCH_*.json outputs against the recorded "
        "perf trajectory (exit 3 on regression)",
    )
    bench_diff.add_argument(
        "--trajectory", default="benchmarks/BENCH_trajectory.json",
        help="trajectory store (BENCH_trajectory.json)",
    )
    bench_diff.add_argument(
        "--bench-dir", default="benchmarks/output",
        help="directory holding the fresh BENCH_*.json outputs",
    )
    bench_diff.add_argument(
        "--threshold", type=float, default=0.1,
        help="relative regression bar (default 0.10; doubled for "
        "wall-clock-derived metrics)",
    )
    bench_diff.add_argument(
        "--record", action="store_true",
        help="append the fresh results to the trajectory after diffing",
    )
    bench_diff.add_argument(
        "--json", action="store_true",
        help="machine-readable comparisons instead of the text table",
    )

    # ------------------------------------------------------------ sweep
    sweep = sub.add_parser(
        "sweep", help="PE or PU parallelism sweep on synthetic workloads"
    )
    sweep.add_argument("--axis", required=True, choices=("pe", "pu"))
    sweep.add_argument("--individuals", type=int, default=100)
    sweep.add_argument("--outputs", type=int, default=4)
    sweep.add_argument("--hidden", type=int, default=30)
    sweep.add_argument("--steps", type=int, default=20)
    sweep.add_argument("--max", type=int, default=None, dest="max_value",
                       help="largest PE/PU count to sweep")
    sweep.add_argument("--seed", type=int, default=0)

    # -------------------------------------------------------------- dot
    dot = sub.add_parser(
        "dot", help="render a checkpoint's champion network as Graphviz DOT"
    )
    dot.add_argument("--checkpoint", required=True)
    dot.add_argument(
        "--out", default=None, help="write here instead of stdout"
    )

    # ------------------------------------------------------------- lint
    lint = sub.add_parser(
        "lint",
        help="static contract linter (determinism / telemetry / parity)",
    )
    # everything after `lint` is forwarded verbatim to `python -m
    # repro.lint` (main() short-circuits before this parser runs, so
    # option-like tokens such as --list-rules survive)
    lint.add_argument("args", nargs=argparse.REMAINDER)

    # -------------------------------------------------------- resources
    resources = sub.add_parser(
        "resources", help="FPGA resource/power estimate for an INAX config"
    )
    resources.add_argument("--pus", type=int, required=True)
    resources.add_argument("--pes", type=int, required=True)

    # ------------------------------------------------------------ serve
    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant evolution service daemon "
        "(docs/serve.md)",
    )
    serve.add_argument(
        "--socket", required=True, metavar="PATH",
        help="Unix socket path to listen on (JSON-lines protocol)",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=4, metavar="N",
        help="run at most N jobs at once (default 4)",
    )
    serve.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="directory for per-job checkpoints and traces "
        "(omit to disable both)",
    )
    serve.add_argument(
        "--keep-checkpoints", type=int, default=2, metavar="K",
        help="rotated checkpoint copies per job (default 2)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=256,
        help="admission control: total queued-job ceiling",
    )
    serve.add_argument(
        "--max-queued-per-tenant", type=int, default=64,
        help="admission control: queued jobs one tenant may hold",
    )
    serve.add_argument(
        "--max-running-per-tenant", type=int, default=4,
        help="dispatch control: running jobs one tenant may hold",
    )
    serve.add_argument(
        "--max-population", type=int, default=512,
        help="admission control: largest population a spec may ask for",
    )

    return parser


def _non_negative_int(text: str) -> int:
    """argparse ``type`` for counts that cannot be negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_fabric_args(command) -> None:
    command.add_argument(
        "--devices", type=int, default=1,
        help="fabric backend: number of simulated INAX farm devices "
        "(>1 auto-upgrades --backend inax to fabric; see docs/fabric.md)",
    )
    command.add_argument(
        "--islands", type=int, default=1,
        help="evolve this many independent island sub-populations over "
        "the farm (island i is homed on device i %% devices; >1 "
        "auto-upgrades --backend inax to fabric)",
    )
    command.add_argument(
        "--migration-interval", type=int, default=0, metavar="G",
        help="islands: exchange champions around the ring every G "
        "generations (0 = never)",
    )
    command.add_argument(
        "--migration-size", type=int, default=0, metavar="N",
        help="islands: champions each island sends per migration barrier",
    )


def _add_pipeline_args(command) -> None:
    command.add_argument(
        "--schedule", default="arrival", choices=("arrival", "lpt"),
        help="wave-packing policy: 'arrival' (paper baseline, population "
        "order) or 'lpt' (pack by predicted cost from each genome key's "
        "episode lengths in the previous generation, longest first); "
        "reproduction gives every child, elites included, a fresh key, "
        "so in an evolving run lpt has no predictions and packs in "
        "arrival order; fitness is bit-identical either way",
    )
    command.add_argument(
        "--prefetch", default=False,
        action=argparse.BooleanOptionalAction,
        help="double-buffered DMA/decode: hide wave N+1's set-up behind "
        "wave N's compute (--no-prefetch restores the baseline)",
    )


def _pipeline_kwargs(args) -> dict:
    """Translate the pipeline CLI flags into an E3/backend kwarg."""
    from repro.inax.pipeline import PipelineConfig

    pipeline = PipelineConfig(
        schedule=getattr(args, "schedule", "arrival"),
        prefetch=bool(getattr(args, "prefetch", False)),
    )
    if pipeline == PipelineConfig():
        return {}
    return {"pipeline": pipeline}


def _add_resilience_args(command) -> None:
    command.add_argument(
        "--faults", default=None, metavar="SPEC|FILE",
        help="arm a seeded fault plan for chaos runs: inline spec "
        "('seed=7,worker.crash@0.25,env.reward_nan@0.05') or a JSON "
        "file written by FaultPlan.to_dict (see docs/resilience.md)",
    )
    command.add_argument(
        "--fallback", default=None, choices=("cpu-fast",),
        help="inax backend only: degrade faulted/oversized waves to "
        "this bit-identical software path instead of aborting",
    )
    command.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="cpu-compiled/cpu-fast with --workers: watchdog timeout per "
        "shard attempt before the supervisor retries it",
    )
    command.add_argument(
        "--checkpoint-keep", type=int, default=1, metavar="K",
        help="rotate the last K checkpoints (ckpt, ckpt.1, ...); "
        "resume falls back to the newest intact one",
    )


def _resilience_kwargs(args) -> dict:
    """Translate the resilience CLI flags into E3/backend kwargs."""
    kwargs: dict = {}
    if getattr(args, "faults", None):
        from repro.resilience.faults import FaultPlan

        kwargs["fault_plan"] = FaultPlan.load(args.faults)
    if getattr(args, "fallback", None):
        kwargs["fallback"] = args.fallback
    if getattr(args, "shard_timeout", None) is not None:
        from repro.resilience.supervisor import SupervisorConfig

        kwargs["supervisor"] = SupervisorConfig(
            shard_timeout=args.shard_timeout
        )
    return kwargs


def _add_telemetry_args(command) -> None:
    command.add_argument(
        "--trace", default=None,
        help="record spans to this JSONL file (a chrome://tracing "
        "trace-event file is written alongside as *.chrome.json)",
    )
    command.add_argument(
        "--metrics", default=None,
        help="write the metrics-registry snapshot to this JSON file",
    )
    command.add_argument(
        "--health", default=None, metavar="PATH",
        help="attach the run-health watchtower and write its "
        "deterministic health.json verdict here",
    )


def _run_manifest(args, command: str):
    """Collect a RunManifest from the parsed CLI flags."""
    from repro.telemetry import RunManifest

    return RunManifest.collect(
        command=command,
        env=getattr(args, "env", ""),
        backend=getattr(args, "backend", ""),
        workers=getattr(args, "workers", 0),
        population=getattr(args, "population", 0),
        generations=getattr(args, "generations", 0),
        seed=getattr(args, "seed", 0),
        schedule=getattr(args, "schedule", "arrival"),
        prefetch=bool(getattr(args, "prefetch", False)),
        devices=getattr(args, "devices", 1),
        islands=getattr(args, "islands", 1),
        migration_interval=getattr(args, "migration_interval", 0),
        migration_size=getattr(args, "migration_size", 0),
        supervisor=_supervisor_dict(args),
    )


def _supervisor_dict(args) -> dict:
    """The manifest's record of the shared recovery policy."""
    from dataclasses import asdict

    from repro.resilience.supervisor import SupervisorConfig

    if getattr(args, "shard_timeout", None) is not None:
        return asdict(SupervisorConfig(shard_timeout=args.shard_timeout))
    return asdict(SupervisorConfig())


def _telemetry_session(args, command: str):
    """Build a TelemetrySession when --trace/--metrics were given."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics", None)):
        return None
    from repro.telemetry import TelemetrySession

    return TelemetrySession(manifest=_run_manifest(args, command))


def _health_monitor(args):
    """Build a HealthMonitor when --health was given."""
    if not getattr(args, "health", None):
        return None
    from repro.obs.monitor import HealthMonitor

    return HealthMonitor()


def _write_health(monitor, args, command: str) -> None:
    """Write health.json (deterministic run attribution) and report."""
    if monitor is None:
        return
    from repro.obs.monitor import run_attribution

    report = monitor.write(
        args.health, run=run_attribution(_run_manifest(args, command).to_dict())
    )
    counts = report.severity_counts()
    print(
        f"health: {report.verdict} over {report.generations} "
        f"generation(s) ({counts['critical']} critical, "
        f"{counts['warning']} warning, {counts['info']} info) "
        f"written to {args.health}"
    )


def _export_telemetry(session, args) -> None:
    """Write the sinks the user asked for and say where they went."""
    if session is None:
        return
    from pathlib import Path

    chrome = (
        str(Path(args.trace).with_suffix(".chrome.json"))
        if args.trace
        else None
    )
    written = session.export(
        trace_path=args.trace or None,
        chrome_path=chrome,
        metrics_path=args.metrics or None,
    )
    for sink, path in sorted(written.items()):
        print(f"{sink} written to {path}")


def _print_resilience_summary(backend) -> None:
    """Surface quarantine/fallback/retry totals in the run summary."""
    parts = []
    if getattr(backend, "quarantine_count", 0):
        parts.append(f"{backend.quarantine_count} genomes quarantined")
    if getattr(backend, "fallback_waves", 0):
        parts.append(f"{backend.fallback_waves} waves fell back to software")
    supervisor = getattr(backend, "_supervisor", None)
    if supervisor is not None and (supervisor.retries or supervisor.respawns):
        parts.append(
            f"{supervisor.retries} shard retries / "
            f"{supervisor.respawns} pool respawns"
        )
    fabric = getattr(backend, "fabric", None)
    if fabric is not None and (
        fabric.device_evictions or fabric.device_readmissions
    ):
        parts.append(
            f"{fabric.device_evictions} device evictions / "
            f"{fabric.device_readmissions} re-admissions "
            f"({len(fabric.alive())}/{fabric.num_devices} devices up, "
            f"{fabric.repacked_waves} waves re-packed)"
        )
    if parts:
        print("resilience: " + ", ".join(parts))


def _print_cache_summary(backend) -> None:
    """Surface the compile-cache statistics in the run summary."""
    if not hasattr(backend, "compile_cache_info"):
        return
    info = backend.compile_cache_info()
    lookups = info["hits"] + info["misses"]
    if not lookups and not info["size"] and not info["warmed"]:
        return  # the cache was never used; don't print a dead row
    rate = 100.0 * info["hits"] / lookups if lookups else 0.0
    warmed = f", {info['warmed']} warmed" if info["warmed"] else ""
    print(
        f"compile cache: {info['hits']} hits / {info['misses']} misses "
        f"({rate:.1f}% hit rate), {info['size']} entries{warmed}"
    )


def _check_devices(args) -> bool:
    """Apply ``--devices`` and ``--islands`` to ``args.backend``; False
    (after printing why) when the backend cannot take them.

    More than one device or island upgrades ``inax`` to ``fabric`` — a
    farm of one kind of device is still the inax path, just the
    distributed flavour of it — and is an error for every other backend.
    """
    for flag, value in (
        ("--devices", args.devices),
        ("--islands", getattr(args, "islands", 1)),
    ):
        if value > 1 and args.backend == "inax":
            args.backend = "fabric"
        if value > 1 and args.backend != "fabric":
            print(
                f"error: {flag} needs the fabric backend, "
                f"not {args.backend!r}"
            )
            return False
    return True


def _topology(args):
    """The run's :class:`~repro.fabric.topology.FarmTopology` from the
    ``--devices``/``--islands``/``--migration-*`` flags."""
    from repro.fabric.topology import FarmTopology

    return FarmTopology(
        devices=max(args.devices, 1),
        islands=max(getattr(args, "islands", 1), 1),
        migration_interval=getattr(args, "migration_interval", 0),
        migration_size=getattr(args, "migration_size", 0),
    )


# ---------------------------------------------------------------- commands
def _cmd_envs(_args) -> int:
    from repro.envs.registry import ENV_SUITE, registered_names, spec

    suite_names = {s.name for s in ENV_SUITE}
    rows = []
    for name in registered_names():
        entry = spec(name)
        env = entry.make()
        rows.append(
            [
                entry.paper_id or "-",
                name,
                env.num_inputs,
                env.num_outputs,
                entry.required_fitness,
                "suite" if name in suite_names else "extra",
            ]
        )
    print(
        format_table(
            ["paper id", "name", "inputs", "outputs", "required fitness", ""],
            rows,
            title="registered environments",
        )
    )
    return 0


def _cmd_run(args) -> int:
    from repro.core.platform import E3
    from repro.neat.checkpoint import save_checkpoint
    from repro.neat.config import NEATConfig
    from repro.neat.reporters import ConsoleReporter, CSVReporter

    if not _check_devices(args):
        return 2
    topology = _topology(args)
    if args.checkpoint and topology.islands > 1:
        # island state is K populations + migration counters; the
        # single-population checkpoint format cannot represent it
        print("error: --checkpoint is not supported with --islands > 1")
        return 2
    session = _telemetry_session(args, "run")
    monitor = _health_monitor(args)
    platform = E3(
        args.env,
        backend=args.backend,
        neat_config=NEATConfig(population_size=args.population),
        seed=args.seed,
        workers=args.workers,
        telemetry=session,
        health=monitor,
        topology=topology,
        **_pipeline_kwargs(args),
        **_resilience_kwargs(args),
    )
    if not args.quiet:
        platform.reporters.add(ConsoleReporter())
    csv_reporter = None
    if args.csv:
        csv_reporter = CSVReporter(args.csv)
        platform.reporters.add(csv_reporter)

    result = platform.run(max_generations=args.generations)
    platform.backend.close()
    if csv_reporter is not None:
        csv_reporter.close()
    if args.checkpoint:
        save_checkpoint(
            platform.population,
            args.checkpoint,
            keep=args.checkpoint_keep,
            seed=args.seed,
        )
        print(f"checkpoint written to {args.checkpoint}")

    champion = result.best_network()
    where = (
        f" [island {result.best_island} of {topology.islands}, "
        f"{topology.devices} device(s)]"
        if topology.islands > 1
        else ""
    )
    print(
        f"\n{args.env}: solved={result.solved} "
        f"best={result.best_fitness:.1f} "
        f"(required {platform.required_fitness}) "
        f"in {result.generations} generations{where}"
    )
    print(
        f"champion: {champion.num_evaluated_nodes} nodes, "
        f"{champion.num_macs} connections"
    )
    if platform.migrations or platform.migrations_skipped:
        print(
            f"migration: {platform.migrations} edges exchanged, "
            f"{platform.migrations_skipped} skipped"
        )
    _print_cache_summary(platform.backend)
    _print_resilience_summary(platform.backend)
    _write_health(monitor, args, "run")
    _export_telemetry(session, args)
    return 0 if result.solved else 2


def _cmd_resume(args) -> int:
    from repro.core.platform import E3
    from repro.envs.registry import spec
    from repro.neat.checkpoint import load_checkpoint, save_checkpoint
    from repro.neat.reporters import ConsoleReporter, CSVReporter

    if not _check_devices(args):
        return 2
    population = load_checkpoint(args.checkpoint)
    env_spec = spec(args.env)
    env = env_spec.make()
    if (
        population.config.num_inputs != env.num_inputs
        or population.config.num_outputs != env.num_outputs
    ):
        print(
            f"error: checkpoint was trained on a "
            f"{population.config.num_inputs}-in/"
            f"{population.config.num_outputs}-out task; {args.env} needs "
            f"{env.num_inputs}-in/{env.num_outputs}-out",
            file=sys.stderr,
        )
        return 2
    if args.seed is None:
        args.seed = population.run_seed
    if args.seed is None:
        print(
            f"warning: checkpoint {args.checkpoint} records no run seed; "
            "resuming with --seed 0 (pass the original run's --seed to "
            "continue it exactly)",
            file=sys.stderr,
        )
        args.seed = 0
    session = _telemetry_session(args, "resume")
    if session is not None:
        session.manifest.extra["checkpoint"] = args.checkpoint
    monitor = _health_monitor(args)
    platform = E3(
        args.env,
        backend=args.backend,
        population=population,
        seed=args.seed,
        workers=args.workers,
        topology=_topology(args),
        telemetry=session,
        health=monitor,
        **_pipeline_kwargs(args),
        **_resilience_kwargs(args),
    )
    # the checkpoint restores genomes but no cache state; warming the
    # structural caches from the restored population keeps post-resume
    # hit rates (and benchmarks) honest instead of silently re-compiling
    # the whole first generation
    warmed = platform.backend.warm_caches(population.population)
    if warmed and not args.quiet:
        print(f"warmed structural caches from checkpoint: {warmed} entries")
    if not args.quiet:
        platform.reporters.add(ConsoleReporter())
    csv_reporter = None
    if args.csv:
        # append so a resumed run extends the original history instead
        # of truncating it
        csv_reporter = CSVReporter(args.csv, append=True)
        platform.reporters.add(csv_reporter)

    start_generation = population.generation
    result = platform.run(
        max_generations=args.generations,
        fitness_threshold=env_spec.required_fitness,
    )
    platform.backend.close()
    if csv_reporter is not None:
        csv_reporter.close()
    save_checkpoint(
        population, args.checkpoint, keep=args.checkpoint_keep, seed=args.seed
    )
    print(
        f"\nresumed {args.env} from generation {start_generation}: "
        f"now at {population.generation}, best "
        f"{result.best_fitness:.1f} "
        f"(required {env_spec.required_fitness}); checkpoint updated"
    )
    _print_cache_summary(platform.backend)
    _print_resilience_summary(platform.backend)
    _write_health(monitor, args, "resume")
    _export_telemetry(session, args)
    return 0 if result.solved else 2


def _cmd_compare(args) -> int:
    from repro.core.experiment import run_experiment
    from repro.neat.config import NEATConfig

    session = _telemetry_session(args, "compare")
    if session is not None:
        session.manifest.backend = "cpu"  # the functional run's backend
        session.install()
    try:
        result = run_experiment(
            args.env,
            seed=args.seed,
            neat_config=NEATConfig(population_size=args.population),
            max_generations=args.generations,
        )
    finally:
        if session is not None:
            session.uninstall()
    rows = []
    for name in ("cpu", "gpu", "inax"):
        platform = result.platforms[name]
        rows.append(
            [
                f"E3-{name.upper()}",
                format_seconds(platform.runtime_seconds),
                f"{platform.energy_joules:,.1f}",
            ]
        )
    print(
        format_table(
            ["platform", "runtime (s)", "energy (J)"],
            rows,
            title=f"{args.env}: {result.generations} generations, "
            f"best fitness {result.best_fitness:.1f}",
        )
    )
    print(f"speedup E3-CPU/E3-INAX: {result.speedup():.1f}x")
    print(
        f"energy  E3-INAX vs CPU: {result.energy_ratio('inax') * 100:.1f}%"
    )
    _export_telemetry(session, args)
    return 0


def _cmd_trace_summary(args) -> int:
    import json

    from repro.telemetry.export import (
        format_trace_summary,
        summarize_trace,
        validate_trace_jsonl,
    )

    try:
        errors = validate_trace_jsonl(args.path)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if errors:
        for problem in errors[:10]:
            print(f"error: {problem}", file=sys.stderr)
        if len(errors) > 10:
            print(f"error: ... and {len(errors) - 10} more", file=sys.stderr)
        return 2
    summary = summarize_trace(args.path)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_trace_summary(summary))
    return 0


#: doctor exit codes by verdict (0 = healthy; 2 is reserved for bad input)
_VERDICT_EXIT = {"healthy": 0, "degraded": 3, "critical": 4}


def _cmd_doctor(args) -> int:
    import json

    from repro.obs.doctor import diagnose, format_diagnosis

    try:
        diagnosis = diagnose(args.path)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diagnosis.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_diagnosis(diagnosis))
    if args.health_out:
        from pathlib import Path

        Path(args.health_out).write_text(diagnosis.report.to_json())
        if not args.json:
            print(f"\nhealth report written to {args.health_out}")
    return _VERDICT_EXIT.get(diagnosis.report.verdict, 2)


def _cmd_bench_diff(args) -> int:
    import json
    from pathlib import Path

    from repro.obs.trajectory import (
        bench_diff,
        format_comparisons,
        load_trajectory,
        record,
        save_trajectory,
    )
    from repro.telemetry.manifest import git_revision

    bench_dir = Path(args.bench_dir)
    results = {}
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        if name == "trajectory":
            continue
        results[name] = json.loads(path.read_text())
    if not results:
        print(f"error: no BENCH_*.json under {bench_dir}", file=sys.stderr)
        return 2
    try:
        trajectory = load_trajectory(args.trajectory)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    commit, dirty = git_revision()
    comparisons = bench_diff(
        trajectory, results, threshold=args.threshold,
        exclude_commit=commit or None,
    )
    if args.json:
        print(json.dumps(
            [c.to_dict() for c in comparisons], indent=2, sort_keys=True
        ))
    else:
        print(format_comparisons(comparisons))
    if args.record:
        written = 0
        for bench in sorted(results):
            written += len(record(
                trajectory, bench, results[bench], commit or "unknown", dirty
            ))
        save_trajectory(args.trajectory, trajectory)
        print(f"recorded {written} metric(s) into {args.trajectory}")
    return 3 if any(c.regressed for c in comparisons) else 0


def _cmd_sweep(args) -> int:
    from repro.inax.accelerator import INAXConfig, schedule_generation
    from repro.inax.heuristics import pe_candidates, pu_candidates
    from repro.inax.synthetic import synthetic_population

    population = synthetic_population(
        num_individuals=args.individuals,
        num_outputs=args.outputs,
        num_hidden=args.hidden,
        seed=args.seed,
    )
    lengths = [args.steps] * args.individuals

    if args.axis == "pe":
        limit = args.max_value or 2 * args.outputs
        points = list(range(1, limit + 1))
        ladder = pe_candidates(args.outputs, limit)
        configs = [(1, p) for p in points]
        util = "U(PE)"
    else:
        limit = args.max_value or args.individuals
        ladder = pu_candidates(args.individuals, limit)
        points = sorted(
            {q for p in ladder for q in (p - 1, p, p + 1)}
            & set(range(1, limit + 1))
        )
        configs = [(p, 1) for p in points]
        util = "U(PU)"

    rows = []
    for num_pus, num_pes in configs:
        cfg = INAXConfig(num_pus=num_pus, num_pes_per_pu=num_pes)
        report = schedule_generation(cfg, population, lengths)
        value = report.u_pe if args.axis == "pe" else report.u_pu
        point = num_pes if args.axis == "pe" else num_pus
        rows.append(
            [
                point,
                f"{report.total_cycles:,.0f}",
                f"{value:.3f}",
                "*" if point in ladder else "",
            ]
        )
    print(
        format_table(
            [f"#{args.axis.upper()}", "cycles", util, "heuristic"],
            rows,
            title=f"{args.axis.upper()} sweep "
            f"(individuals={args.individuals}, outputs={args.outputs}); "
            f"heuristic ladder {ladder}",
        )
    )
    return 0


def _cmd_dot(args) -> int:
    from repro.analysis.render import to_dot
    from repro.neat.checkpoint import load_checkpoint
    from repro.neat.network import FeedForwardNetwork

    population = load_checkpoint(args.checkpoint)
    champion = population.best_genome
    if champion is None:
        # a fresh checkpoint has no evaluated champion yet; fall back to
        # the first individual so there is always something to draw
        champion = population.population[0]
    net = FeedForwardNetwork.create(champion, population.config)
    dot = to_dot(net, name="champion")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(dot + "\n")
        print(f"wrote {args.out} ({net.num_evaluated_nodes} nodes, "
              f"{net.num_macs} connections)")
    else:
        print(dot)
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(args.args)


def _cmd_resources(args) -> int:
    from repro.hw.fpga_model import (
        ZCU104,
        estimate_fpga_power,
        estimate_inax_resources,
    )

    try:
        estimate = estimate_inax_resources(args.pus, args.pes)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = [
        [name, f"{frac * 100:.1f}%"]
        for name, frac in estimate.utilization(ZCU104).items()
    ]
    fits = estimate.fits(ZCU104)
    print(
        format_table(
            ["resource", f"% of {ZCU104.name}"],
            rows,
            title=f"INAX PU={args.pus} PE={args.pes}: "
            f"{'fits' if fits else 'DOES NOT FIT'}, "
            f"~{estimate_fpga_power(estimate):.2f} W",
        )
    )
    return 0 if fits else 3


def _cmd_serve(args) -> int:
    """Boot the evolution-service daemon and serve until shutdown.

    Runs until a client sends the ``shutdown`` op or the process gets
    SIGINT/SIGTERM (both trigger a draining shutdown: running jobs
    finish and checkpoint, queued jobs are cancelled).
    """
    import asyncio
    import signal

    from repro.serve import EvolutionService, QuotaConfig, SocketServer

    quotas = QuotaConfig(
        max_queue_depth=args.max_queue_depth,
        max_queued_per_tenant=args.max_queued_per_tenant,
        max_running_per_tenant=args.max_running_per_tenant,
        max_population=args.max_population,
    )
    service = EvolutionService(
        max_concurrent=args.max_concurrent,
        quotas=quotas,
        data_dir=args.data_dir,
        keep_checkpoints=args.keep_checkpoints,
    )
    server = SocketServer(service, args.socket)

    async def run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.request_shutdown)
        print(f"serving on {args.socket} "
              f"(max_concurrent={args.max_concurrent})")
        sys.stdout.flush()
        await server.serve_until_shutdown()

    asyncio.run(run())
    print("serve: clean shutdown")
    return 0


_COMMANDS = {
    "envs": _cmd_envs,
    "run": _cmd_run,
    "resume": _cmd_resume,
    "dot": _cmd_dot,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "resources": _cmd_resources,
    "trace-summary": _cmd_trace_summary,
    "doctor": _cmd_doctor,
    "bench-diff": _cmd_bench_diff,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # forward verbatim: argparse.REMAINDER would eat option-like
        # tokens (e.g. `lint --list-rules`) as unrecognized arguments
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
