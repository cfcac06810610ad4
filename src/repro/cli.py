"""Command-line interface: list, describe, run and profile the catalog.

Usage::

    python -m repro list
    python -m repro dynamics [--only broadcast,gossip]
    python -m repro describe E4
    python -m repro run E4 --full --seed 7
    python -m repro run-all --jobs 2 --checkpoint ckpt/
    python -m repro run E4 --trace-out e4.jsonl
    python -m repro run E4 --json > e4.json
    python -m repro run-all --quick --out results.md
    python -m repro run-all --fabric 127.0.0.1:0 --workers 4
    python -m repro worker --connect 127.0.0.1:7777
    python -m repro serve --port 8642 --cache cache/
    python -m repro submit --experiments E1,E2 --server http://127.0.0.1:8642
    python -m repro profile E7 --seed 3
    python -m repro backends
    python -m repro run E4 --backend numba

Flags shared across subcommands (``--seed``, ``--jobs``,
``--task-timeout``, ``--max-task-retries``, ``--checkpoint``,
``--trace-out``, ``--full``, ``--markdown``, ``--only``,
``--backend``) are
declared once on parent parsers, so their defaults and help text cannot
drift between ``run``, ``run-all`` and ``profile``.  ``--backend``
selects the kernel backend (``repro backends`` lists the registry) and
exports ``REPRO_BACKEND`` so spawned workers inherit the choice.  ``--jobs`` routes
through the supervised executor (``repro.experiments.supervisor``):
worker crashes are retried on the experiment's original child seed,
hung experiments expire against ``--task-timeout``, and ``run-all``
prints a per-task outcome summary instead of dying on a poisoned
experiment.  ``--checkpoint DIR`` roots the sweep's store there: every
completed experiment is stored, and a rerun (or another sweep with an
experiment at the same position under the same ``--seed``) serves it
from the store instead of executing it.

``--fabric HOST:PORT`` routes the same sweep through the multi-host
coordinator/worker fabric (``repro.experiments.fabric``) instead of the
local pool: ``--workers N`` spawns N loopback workers, ``--workers 0``
waits for externally started ``repro worker --connect HOST:PORT``
processes and degrades to the local pool when none arrive.  The tables
are byte-identical across ``--jobs`` and ``--fabric``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import nullcontext

from .errors import BackendError, InvalidParameterError, SweepTaskError
from .experiments import EXPERIMENTS, get_experiment, run_experiment
from .obs import JsonlTraceSink, MetricsRegistry, Observer, use_observer

__all__ = ["main", "build_parser"]


def _seed_parent() -> argparse.ArgumentParser:
    """Shared ``--seed`` declaration (run / run-all / profile)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0, help="root RNG seed")
    return parent


def _mode_parent() -> argparse.ArgumentParser:
    """Shared ``--full`` declaration (run / run-all / profile)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--full", action="store_true", help="full-size sweep (slow)"
    )
    return parent


def _render_parent() -> argparse.ArgumentParser:
    """Shared ``--markdown`` declaration (run / run-all)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--markdown", action="store_true", help="emit markdown instead of ASCII"
    )
    return parent


def _sweep_parent() -> argparse.ArgumentParser:
    """Shared sweep flags: ``--checkpoint``, ``--jobs`` and the executor knobs."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help=(
            "root of the sweep's result store: each completed experiment "
            "is stored there, and experiments already stored under the "
            "same --seed, mode and position are served from it instead of "
            "executed (rerun with the same DIR to continue an interrupted "
            "sweep; delete DIR after changing experiment code); needs "
            "--jobs, --fabric or (run-all) --json"
        ),
    )
    parent.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run experiments through the supervised parallel sweep executor "
            "with N worker processes; each experiment gets an independent "
            "child seed spawned from --seed, so the tables depend on --seed "
            "but not on N (--jobs 1 and --jobs 4 are byte-identical, even "
            "across worker-crash recovery).  Omitting --jobs keeps the "
            "legacy sequential path, which reuses --seed verbatim for "
            "every experiment"
        ),
    )
    parent.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-experiment wall-clock deadline on the supervised executor "
            "(--jobs) or the fabric coordinator (--fabric); an expired "
            "experiment is recorded as a timeout outcome without stalling "
            "or aborting its siblings"
        ),
    )
    parent.add_argument(
        "--fabric",
        default=None,
        metavar="HOST:PORT",
        help=(
            "run the sweep on the multi-host coordinator/worker fabric, "
            "listening on HOST:PORT (port 0 picks a free port) for "
            "`repro worker --connect` processes; mutually exclusive with "
            "--jobs, byte-identical to it"
        ),
    )
    parent.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "with --fabric: spawn N loopback worker subprocesses; 0 "
            "(default) waits for external workers and degrades to the "
            "local pool when none connect"
        ),
    )
    parent.add_argument(
        "--max-task-retries",
        type=int,
        default=2,
        metavar="K",
        help=(
            "re-submissions the supervised executor (--jobs) allows an "
            "experiment whose worker crashed or raised before recording a "
            "crashed/error outcome (default: 2); retries reuse the "
            "experiment's original child seed, so recovery never changes "
            "the tables"
        ),
    )
    return parent


def _trace_parent() -> argparse.ArgumentParser:
    """Shared ``--trace-out`` declaration (run / run-all / profile)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "stream schema-versioned per-round JSONL events to PATH "
            "(see docs/OBSERVABILITY.md for the event schema)"
        ),
    )
    return parent


def _backend_parent() -> argparse.ArgumentParser:
    """Shared ``--backend`` declaration (run / run-all / profile)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "kernel backend for the hot round kernels (`repro backends` "
            "lists the registry with availability); exported as "
            "REPRO_BACKEND so spawned --jobs/--fabric workers inherit it. "
            "Every backend returns identical results — this is a "
            "throughput knob only"
        ),
    )
    return parent


def _json_parent() -> argparse.ArgumentParser:
    """Shared ``--json`` declaration (run / run-all)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the result as a schema-versioned JSON document instead "
            "of a table — the exact wire schema the job server returns "
            "and the result cache stores (see docs/SERVICE.md)"
        ),
    )
    return parent


def _only_parent() -> argparse.ArgumentParser:
    """Shared ``--only`` declaration (run-all / dynamics)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--only",
        default=None,
        metavar="NAMES",
        help="comma-separated subset to include (default: all)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="radio-repro",
        description=(
            "Reproduce the bounds of Elsässer & Gąsieniec, 'Radio "
            "communication in random graphs' (SPAA 2005 / JCSS 2006)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seed, mode, render = _seed_parent(), _mode_parent(), _render_parent()
    sweep, trace, only = _sweep_parent(), _trace_parent(), _only_parent()
    backend, as_json = _backend_parent(), _json_parent()

    sub.add_parser("list", help="list catalogued experiments")

    sub.add_parser(
        "backends",
        help="list kernel backends with availability/version probes",
    )

    sub.add_parser(
        "dynamics",
        parents=[only],
        help="list registered dissemination dynamics",
    )

    p_desc = sub.add_parser("describe", help="show one experiment's claim and bench target")
    p_desc.add_argument("experiment", help="experiment id, e.g. E4")

    p_run = sub.add_parser(
        "run",
        parents=[seed, mode, render, sweep, trace, backend, as_json],
        help="run one experiment and print its table",
    )
    p_run.add_argument("experiment", help="experiment id, e.g. E4")
    p_run.add_argument("--out", default=None, help="also save the result as JSON to this path")

    p_all = sub.add_parser(
        "run-all",
        parents=[seed, mode, render, sweep, trace, only, backend, as_json],
        help="run every experiment in catalog order",
    )
    p_all.add_argument("--out", default=None, help="also write the report to this file")

    p_prof = sub.add_parser(
        "profile",
        parents=[seed, mode, sweep, trace, backend],
        help="run one experiment under a metrics registry and print the span/metric breakdown",
    )
    p_prof.add_argument("experiment", help="experiment id, e.g. E4")

    p_worker = sub.add_parser(
        "worker",
        help="serve sweep tasks for a fabric coordinator (see run-all --fabric)",
    )
    p_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to dial",
    )
    p_worker.add_argument(
        "--name",
        default=None,
        help="host identity reported to the coordinator (default: hostname/pid)",
    )
    p_worker.add_argument(
        "--heartbeat",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="liveness beacon interval (default: 1.0)",
    )
    p_worker.add_argument(
        "--chaos-net",
        default=None,
        metavar="SPEC",
        help=(
            "JSON fault-schedule spec (repro.chaos.FaultSchedule.save) "
            "whose wire rules act on this worker's sends; test-only"
        ),
    )

    p_serve = sub.add_parser(
        "serve",
        parents=[trace],
        help=(
            "run the simulation job server (POST /v1/simulate, "
            "POST /v1/sweeps; see docs/SERVICE.md)"
        ),
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="listen port; 0 picks a free port (default: 8642)",
    )
    p_serve.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help=(
            "content-addressed result cache directory; omit to serve "
            "without a cache (every request executes)"
        ),
    )
    p_serve.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent job executions (default: 2)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        metavar="N",
        help=(
            "admission bound on queued-or-running jobs; beyond it new "
            "submissions get HTTP 429 (default: 256)"
        ),
    )
    p_serve.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help=(
            "crash-safe job journal directory (defaults to --cache when "
            "given): incomplete jobs replay on restart; omit both to "
            "serve without crash recovery"
        ),
    )
    p_serve.add_argument(
        "--no-journal",
        action="store_true",
        help="serve without a journal even when --cache is set",
    )
    p_serve.add_argument(
        "--drain-s",
        type=float,
        default=30.0,
        metavar="S",
        help=(
            "graceful-drain budget on SIGTERM: in-flight jobs get this "
            "many seconds to finish; the rest stay journaled (default: 30)"
        ),
    )
    p_serve.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "JSON fault-schedule spec (repro.chaos.FaultSchedule.save) "
            "whose hold and reset rules delay executions and abort "
            "connections; test-only"
        ),
    )

    p_submit = sub.add_parser(
        "submit",
        help="submit a job to a running server and print its status JSON",
    )
    p_submit.add_argument(
        "--server",
        default="http://127.0.0.1:8642",
        metavar="URL",
        help="job-server address (default: http://127.0.0.1:8642)",
    )
    p_submit.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help=(
            "JSON spec file ('-' for stdin): a simulate spec or a sweep "
            "spec (one with an 'experiments' field)"
        ),
    )
    p_submit.add_argument(
        "--experiments",
        default=None,
        metavar="IDS",
        help="comma-separated experiment ids to submit as a sweep spec",
    )
    p_submit.add_argument(
        "--seed", type=int, default=0, help="sweep root seed (with --experiments)"
    )
    p_submit.add_argument(
        "--full",
        action="store_true",
        help="full-size sweep (with --experiments)",
    )
    p_submit.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="server-side sweep workers (latency hint; not part of the cache key)",
    )
    p_submit.add_argument(
        "--no-wait",
        action="store_true",
        help="return the queued status immediately instead of waiting",
    )
    p_submit.add_argument(
        "--events",
        action="store_true",
        help="after submitting, stream the job's NDJSON trace events to stdout",
    )
    return parser


def _render(result, markdown: bool) -> str:
    return result.to_markdown() if markdown else result.table()


def _sweep_flag_error(args) -> str | None:
    """First invalid sweep-flag combination, or ``None`` when consistent."""
    if args.checkpoint and args.jobs is None and args.fabric is None:
        # The sequential route has no store.  run-all --json goes
        # through the supervised executor; run --json does not.
        if args.command != "run-all":
            return "--checkpoint requires --jobs or --fabric"
        if not args.json:
            return "--checkpoint requires --jobs, --fabric or --json"
    if args.jobs is not None and args.jobs < 1:
        return "--jobs must be >= 1"
    if args.fabric is not None and args.jobs is not None:
        return "--fabric and --jobs are mutually exclusive"
    if args.workers < 0:
        return "--workers must be >= 0"
    if args.workers and args.fabric is None:
        return "--workers requires --fabric"
    return None


def _select_backend(args) -> str | None:
    """Install ``--backend`` process- and fleet-wide; error text on failure.

    The name is also exported as ``REPRO_BACKEND`` so worker processes
    spawned by ``--jobs`` / ``--fabric`` (which inherit the
    environment, not the parent's registry state) resolve the same
    backend.
    """
    name = getattr(args, "backend", None)
    if not name:
        return None
    from .backends import BACKEND_ENV_VAR, set_backend

    try:
        set_backend(name)
    except (BackendError, InvalidParameterError) as exc:
        return str(exc)
    os.environ[BACKEND_ENV_VAR] = name
    return None


def _make_observer(args, *, with_registry: bool = False) -> Observer | None:
    """Observer for a CLI invocation, or ``None`` when nothing to record."""
    trace_out = getattr(args, "trace_out", None)
    if not with_registry and not trace_out:
        return None
    return Observer(
        MetricsRegistry() if with_registry else None,
        JsonlTraceSink(trace_out) if trace_out else None,
    )


def _observed(obs: Observer | None):
    """Context installing ``obs`` as ambient; no-op context when ``None``."""
    return use_observer(obs) if obs is not None else nullcontext()


def _finish_observer(obs: Observer | None, trace_out: str | None) -> None:
    if obs is None:
        return
    obs.close()
    if trace_out and obs.sink is not None:
        print(
            f"{obs.sink.num_emitted} trace events written to {trace_out}",
            file=sys.stderr,
        )


def _run_one(spec, args):
    """Dispatch one experiment through the sequential or supervised path."""
    if args.fabric is None and args.jobs is None:
        return run_experiment(spec.experiment_id, quick=not args.full, seed=args.seed)
    common = dict(
        quick=not args.full,
        seed=args.seed,
        checkpoint=args.checkpoint,
        task_timeout=args.task_timeout,
        max_task_retries=args.max_task_retries,
    )
    if args.fabric is not None:
        from .experiments import run_catalog_fabric

        outcomes = run_catalog_fabric(
            [spec.experiment_id], listen=args.fabric, workers=args.workers, **common
        )
    else:
        from .experiments import run_catalog_supervised

        outcomes = run_catalog_supervised([spec.experiment_id], jobs=args.jobs, **common)
    return outcomes[0].unwrap()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for spec in EXPERIMENTS.values():
            print(f"{spec.experiment_id:>4}  {spec.title}")
        return 0

    if args.command == "backends":
        from .backends import current_backend_name, get_backend, probe_backends

        active = current_backend_name()
        for probe in probe_backends():
            marker = "*" if probe.name == active else " "
            status = "available" if probe.available else "unavailable"
            version = probe.version or "-"
            print(f"{marker} {probe.name:<8} {status:<12} {version:<10} {probe.detail}")
        cost = get_backend().calibrate()
        suffix = f" (scatter-cost {cost:.1f})" if cost is not None else ""
        print(f"active: {active}{suffix}")
        return 0

    if args.command == "dynamics":
        # Importing the packages populates the registry via subclassing.
        import repro.gossip  # noqa: F401
        import repro.singleport  # noqa: F401

        from .radio.dynamics import DYNAMICS_REGISTRY

        wanted = (
            {token for token in args.only.split(",") if token}
            if args.only
            else None
        )
        if wanted is not None:
            unknown = wanted - set(DYNAMICS_REGISTRY)
            if unknown:
                print(
                    f"unknown dynamics: {', '.join(sorted(unknown))}",
                    file=sys.stderr,
                )
                return 2
        for name, cls in sorted(DYNAMICS_REGISTRY.items()):
            if wanted is not None and name not in wanted:
                continue
            flags = []
            if cls.supports_faults:
                flags.append("fault-aware")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            print(f"{name:>12}  {cls.summary}{suffix}")
        return 0

    if args.command == "describe":
        spec = get_experiment(args.experiment)
        print(f"{spec.experiment_id} — {spec.title}")
        print(f"claim : {spec.claim}")
        print(f"bench : {spec.bench_target}")
        return 0

    if args.command == "worker":
        from .chaos import FaultSchedule
        from .experiments.fabric import run_worker

        chaos = FaultSchedule.load(args.chaos_net) if args.chaos_net else None
        try:
            return run_worker(
                args.connect,
                name=args.name,
                heartbeat_interval=args.heartbeat,
                chaos=chaos,
            )
        except OSError as exc:
            print(
                f"worker: cannot reach coordinator at {args.connect}: {exc}",
                file=sys.stderr,
            )
            return 1

    if args.command == "serve":
        from .serve import serve_forever

        obs = _make_observer(args)

        def _ready(server) -> None:
            print(f"serving on {server.address}", flush=True)

        journal = None if args.no_journal else (args.journal or args.cache)
        chaos = None
        if args.chaos is not None:
            from .chaos import FaultSchedule

            chaos = FaultSchedule.load(args.chaos)
        try:
            serve_forever(
                args.host,
                args.port,
                cache=args.cache,
                workers=args.serve_workers,
                max_pending=args.max_pending,
                journal=journal,
                drain_s=args.drain_s,
                chaos=chaos,
                obs=obs,
                ready=_ready,
            )
        except OSError as exc:
            print(
                f"serve: cannot bind {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 1
        finally:
            _finish_observer(obs, args.trace_out)
        return 0

    if args.command == "submit":
        import json

        from .errors import ReproError
        from .serve import Client, SweepSpec, spec_from_dict

        if (args.spec is None) == (args.experiments is None):
            print(
                "submit needs exactly one of --spec or --experiments",
                file=sys.stderr,
            )
            return 2
        try:
            if args.spec is not None:
                text = (
                    sys.stdin.read()
                    if args.spec == "-"
                    else open(args.spec).read()
                )
                spec = spec_from_dict(json.loads(text))
            else:
                spec = SweepSpec(
                    experiments=tuple(
                        token for token in args.experiments.split(",") if token
                    ),
                    quick=not args.full,
                    seed=args.seed,
                    jobs=args.jobs,
                )
            client = Client(args.server)
            status = client.submit(spec, wait=not args.no_wait)
            if args.events:
                for event in client.events(status.id):
                    print(json.dumps(event, separators=(",", ":")))
                status = client.job(status.id)
        except (ReproError, OSError, ValueError) as exc:
            print(f"submit: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(status.to_dict(), indent=2, sort_keys=True))
        return 1 if status.state == "failed" else 0

    if args.command == "run":
        error = _sweep_flag_error(args) or _select_backend(args)
        if error:
            print(error, file=sys.stderr)
            return 2
        spec = get_experiment(args.experiment)
        obs = _make_observer(args)
        start = time.perf_counter()
        try:
            with _observed(obs):
                result = _run_one(spec, args)
        except SweepTaskError as exc:
            # Crash/timeout outcomes have no original exception to
            # re-raise; report the structured outcome instead of a
            # supervisor traceback.
            _finish_observer(obs, args.trace_out)
            print(f"error: {exc}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - start
        _finish_observer(obs, args.trace_out)
        from .backends import current_backend_name

        if args.json:
            # The pinned wire document (docs/SERVICE.md): canonical bytes,
            # identical to what the job server returns and caches — so
            # stdout can be piped, diffed or hashed.
            from .io import result_wire
            from .schema import canonical_json

            print(canonical_json(result_wire(result)))
        else:
            print(_render(result, args.markdown))
            print(
                f"\n({'full' if args.full else 'quick'} mode, "
                f"{current_backend_name()} backend, {elapsed:.1f}s)"
            )
        if args.out:
            from .io import save_result

            path = save_result(result, args.out)
            print(f"result saved to {path}")
        return 0

    if args.command == "run-all":
        error = _sweep_flag_error(args) or _select_backend(args)
        if error:
            print(error, file=sys.stderr)
            return 2
        if args.only:
            specs = [get_experiment(token) for token in args.only.split(",") if token]
        else:
            specs = list(EXPERIMENTS.values())
        obs = _make_observer(args)
        chunks = []
        failed = 0
        # --json always routes through the supervised executor: its
        # outcome records are the sweep wire document, and its child-seed
        # derivation is what the job server uses — so the printed JSON
        # matches a POST /v1/sweeps byte for byte.
        if args.jobs is not None or args.fabric is not None or args.json:
            from .experiments import outcomes_table

            start = time.perf_counter()
            try:
                with _observed(obs):
                    if args.fabric is not None:
                        from .experiments import run_catalog_fabric

                        outcomes = run_catalog_fabric(
                            [spec.experiment_id for spec in specs],
                            quick=not args.full,
                            seed=args.seed,
                            listen=args.fabric,
                            workers=args.workers,
                            checkpoint=args.checkpoint,
                            task_timeout=args.task_timeout,
                            max_task_retries=args.max_task_retries,
                        )
                    else:
                        from .experiments import run_catalog_supervised

                        outcomes = run_catalog_supervised(
                            [spec.experiment_id for spec in specs],
                            quick=not args.full,
                            seed=args.seed,
                            jobs=args.jobs if args.jobs is not None else 1,
                            checkpoint=args.checkpoint,
                            task_timeout=args.task_timeout,
                            max_task_retries=args.max_task_retries,
                        )
            except KeyboardInterrupt:
                # The coordinator/supervisor has already released leases
                # (BYE to workers) and stored every completed result, so
                # with a store the same command continues the sweep.
                _finish_observer(obs, args.trace_out)
                print("interrupted", file=sys.stderr)
                if args.checkpoint:
                    print(
                        f"completed experiments are stored in {args.checkpoint}; "
                        f"rerun with --checkpoint {args.checkpoint} to continue",
                        file=sys.stderr,
                    )
                return 130
            elapsed = time.perf_counter() - start
            failed = sum(1 for outcome in outcomes if not outcome.ok)
            if args.json:
                from .experiments.parallel import outcomes_payload
                from .schema import canonical_json

                chunk = canonical_json(outcomes_payload(outcomes))
                print(chunk)
                chunks.append(chunk)
            else:
                # A poisoned experiment is reported and skipped, not
                # fatal: the healthy tables print, the summary names the
                # casualty.
                for outcome in outcomes:
                    if outcome.ok:
                        chunk = _render(outcome.result, args.markdown)
                        print(chunk)
                        print()
                        chunks.append(chunk)
                from .backends import current_backend_name

                print(outcomes_table(outcomes))
                executor = (
                    f"--fabric {args.fabric} --workers {args.workers}"
                    if args.fabric is not None
                    else f"--jobs {args.jobs if args.jobs is not None else 1}"
                )
                print(
                    f"({len(outcomes)} experiments, {executor}, "
                    f"{current_backend_name()} backend, {elapsed:.1f}s)"
                )
            if failed:
                print(
                    f"{failed} experiment(s) did not complete",
                    file=sys.stderr,
                )
        else:
            with _observed(obs):
                for spec in specs:
                    start = time.perf_counter()
                    result = spec(quick=not args.full, seed=args.seed)
                    elapsed = time.perf_counter() - start
                    chunk = _render(result, args.markdown)
                    print(chunk)
                    print(f"({elapsed:.1f}s)\n")
                    chunks.append(chunk)
        _finish_observer(obs, args.trace_out)
        if args.out:
            from ._atomic import atomic_write

            atomic_write(args.out, "\n\n".join(chunks) + "\n")
            print(f"report written to {args.out}")
        return 1 if failed else 0

    if args.command == "profile":
        error = _sweep_flag_error(args) or _select_backend(args)
        if error:
            print(error, file=sys.stderr)
            return 2
        spec = get_experiment(args.experiment)
        obs = _make_observer(args, with_registry=True)
        start = time.perf_counter()
        with _observed(obs):
            result = _run_one(spec, args)
        elapsed = time.perf_counter() - start
        _finish_observer(obs, args.trace_out)
        from .backends import current_backend_name

        print(f"[{result.experiment_id}] {spec.title} — profile")
        print(
            f"({'full' if args.full else 'quick'} mode, seed {args.seed}, "
            f"{current_backend_name()} backend, {elapsed:.1f}s wall)"
        )
        print()
        print(obs.registry.report())
        return 0

    return 2  # unreachable: argparse enforces the command set


if __name__ == "__main__":
    sys.exit(main())
