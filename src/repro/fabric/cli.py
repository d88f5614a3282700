"""``repro-fabric`` — the fabric's operational entry points.

One binary, five subcommands, mirroring the roles in a deployment::

    repro-fabric worker DIR     # one per host: pull leases, run jobs
    repro-fabric serve DIR      # the HTTP front door (one instance)
    repro-fabric run DIR ...    # a one-shot campaign, elected coordinator
    repro-fabric standby DIR    # hot-standby coordinator (failover)
    repro-fabric status DIR     # fleet view of a fabric directory

``DIR`` is the fabric directory every role shares — a local path for
single-host multi-process use, a shared mount (pass ``--shared`` for
the NFS-safe publish/read discipline) for a real fleet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro import obs


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("root", metavar="DIR",
                        help="fabric directory shared by the fleet")
    parser.add_argument("--shared", action="store_true",
                        help="use the shared-mount (NFS-safe) store "
                             "discipline: fsync directories on publish, "
                             "retry stale reads")
    parser.add_argument("--obs-dir", metavar="DIR", default=None,
                        help="enable repro.obs recording into DIR")


def _configure_obs(args) -> None:
    if args.obs_dir:
        obs.configure(args.obs_dir)
    elif args.command == "serve":
        # The service exposes /metrics; always collect in-memory
        # metrics there, even with no recording directory.
        if not obs.configure_from_env():
            obs.configure(None, export_env=False)
    else:
        obs.configure_from_env()


def _cmd_worker(args) -> int:
    from repro.exec.campaign import graceful_shutdown
    from repro.fabric.worker import WorkerAgent

    # Share one trace store across the fleet so every workload's op
    # stream is generated once, fabric-wide.
    os.environ.setdefault("REPRO_TRACE_DIR",
                          str(Path(args.root) / "traces"))
    agent = WorkerAgent(args.root, shared=args.shared,
                        worker_id=args.worker_id,
                        heartbeat_interval=args.heartbeat,
                        job_timeout=args.job_timeout)
    print(f"# worker {agent.worker_id} serving {agent.root}",
          file=sys.stderr)
    with graceful_shutdown() as stop:
        served = agent.run(max_units=args.max_units,
                           idle_exit=args.idle_exit,
                           should_stop=stop.is_set)
    print(f"# worker {agent.worker_id} exit: {served} unit(s) run",
          file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    from repro.fabric.coordinator import Coordinator
    from repro.fabric.service import CharacterizationService, serve

    coordinator = Coordinator(args.root, shared=args.shared,
                              lease_ttl=args.lease_ttl)
    service = CharacterizationService(coordinator)
    serve(service, host=args.host, port=args.port)
    return 0


def _cmd_run(args) -> int:
    from repro.exec.campaign import CampaignInterrupted, graceful_shutdown
    from repro.fabric.coordinator import Coordinator
    from repro.fabric.service import parse_request

    body = {"machine": args.machine, "seed": args.seed,
            "instructions": args.instructions, "warmup": args.warmup}
    if args.suite:
        body["suite"] = args.suite
    else:
        body["benchmarks"] = args.benchmark
    specs, machine, fidelity, seed = parse_request(body)
    coordinator = Coordinator(args.root, shared=args.shared,
                              lease_ttl=args.lease_ttl,
                              coordinator_id=args.coordinator_id,
                              coordinator_ttl=args.coordinator_ttl)
    try:
        with graceful_shutdown() as stop:
            suite = coordinator.run_campaign(
                specs, machine, fidelity, seed=seed,
                timeout=args.timeout, should_stop=stop.is_set)
    except CampaignInterrupted as err:
        print(f"# {err}", file=sys.stderr)
        return 130
    finally:
        # hand the seat over so the next `run` on this directory takes
        # it at once; a watching standby takes over through the ttl
        if not coordinator.standbys():
            coordinator.resign()
    print(f"# {len(suite.results)} benchmarks on {machine.name} "
          f"via {coordinator.root}")
    for result in suite.results:
        print(f"{result.spec.name}\t{result.seconds:.6f}\t"
              f"{result.ipc:.3f}")
    if suite.failures:
        print(f"# {len(suite.failures)} workload(s) failed",
              file=sys.stderr)
        for failure in suite.failures:
            print(f"#   {failure.name}: {failure.error_type}: "
                  f"{failure.message}", file=sys.stderr)
        return 1
    return 0


def _cmd_standby(args) -> int:
    from repro.exec.campaign import graceful_shutdown
    from repro.fabric.coordinator import Coordinator

    coordinator = Coordinator(args.root, shared=args.shared,
                              lease_ttl=args.lease_ttl,
                              coordinator_id=args.coordinator_id,
                              coordinator_ttl=args.coordinator_ttl)
    print(f"# standby coordinator {coordinator.coordinator_id} watching "
          f"{coordinator.root}", file=sys.stderr)
    with graceful_shutdown() as stop:
        coordinator.run(should_stop=stop.is_set, idle_exit=args.idle_exit)
    role = (f"leader@{coordinator.epoch}" if coordinator.is_leader
            else "standby")
    print(f"# coordinator {coordinator.coordinator_id} exit ({role})",
          file=sys.stderr)
    return 0


def _cmd_status(args) -> int:
    from repro.fabric.coordinator import Coordinator
    from repro.fabric.service import CharacterizationService

    coordinator = Coordinator(args.root, shared=args.shared)
    service = CharacterizationService(coordinator)
    health = service.health_json()
    leader = health.get("leader")
    if leader is not None:
        print(f"# leader: {leader['coordinator']} "
              f"(epoch {leader['epoch']})", file=sys.stderr)
    for cid, rec in sorted(health.get("coordinators", {}).items()):
        print(f"#   coordinator {cid}: epoch={rec.get('epoch')} "
              f"heartbeat_age={rec['age_s']:.1f}s"
              + (" [resigned]" if rec.get("resigned") else ""),
              file=sys.stderr)
    print(json.dumps(health, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fabric",
        description="Distributed campaign fabric over a shared directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("worker", help="run one worker agent")
    _add_common(p)
    p.add_argument("--worker-id", default=None,
                   help="stable agent id (default: <host>-<pid>)")
    p.add_argument("--heartbeat", type=float, default=1.0,
                   help="seconds between lease renewals")
    p.add_argument("--idle-exit", type=float, default=None,
                   help="exit after this many seconds with an empty "
                        "queue (default: serve forever)")
    p.add_argument("--max-units", type=int, default=None,
                   help="exit after running this many units")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-job wall-clock timeout in seconds")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("serve", help="run the HTTP service front-end")
    _add_common(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8137)
    p.add_argument("--lease-ttl", type=float, default=10.0,
                   help="seconds of heartbeat silence before reclaim")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("run", help="run one campaign across the fleet")
    _add_common(p)
    p.add_argument("benchmark", nargs="*",
                   help="benchmark names (or use --suite)")
    p.add_argument("--suite", choices=["dotnet", "aspnet", "speccpu"],
                   default=None)
    p.add_argument("--machine", default="i9")
    p.add_argument("--instructions", type=int, default=150_000)
    p.add_argument("--warmup", type=int, default=60_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=None,
                   help="overall campaign deadline in seconds")
    p.add_argument("--lease-ttl", type=float, default=10.0)
    p.add_argument("--coordinator-id", default=None,
                   help="stable coordinator id (default: c-<host>-<pid>)")
    p.add_argument("--coordinator-ttl", type=float, default=5.0,
                   help="leader heartbeat silence before takeover")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("standby",
                       help="run a hot-standby coordinator that takes "
                            "over open campaigns if the leader dies")
    _add_common(p)
    p.add_argument("--coordinator-id", default=None,
                   help="stable coordinator id (default: c-<host>-<pid>)")
    p.add_argument("--coordinator-ttl", type=float, default=5.0,
                   help="leader heartbeat silence before takeover")
    p.add_argument("--lease-ttl", type=float, default=10.0,
                   help="seconds of heartbeat silence before reclaim")
    p.add_argument("--idle-exit", type=float, default=None,
                   help="exit after this many seconds with no open "
                        "submissions (default: stand by forever)")
    p.set_defaults(func=_cmd_standby)

    p = sub.add_parser("status", help="print the fleet view as JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_status)

    args = parser.parse_args(argv)
    if args.command == "run" and not args.suite and not args.benchmark:
        parser.error("run needs benchmark names or --suite")
    _configure_obs(args)
    try:
        return args.func(args)
    finally:
        obs.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
