"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``cc``        solve connected components on a generated graph
``mst``       solve minimum spanning forest
``listrank``  rank a random linked list
``bfs``       breadth-first search distances from a source
``info``      show machine presets, calibration, and any cached tuning plan
``figures``   run paper-figure reproductions and print their tables
``tune``      run the autotuner and print its predicted-vs-measured table
``soak``      composed chaos campaign: silent corruption + fail-stop faults,
              every result certificate-verified, report in ``BENCH_soak.json``
``serve``     run the multi-tenant graph-analytics service (JSON over HTTP:
              admission control, quotas, deadlines, circuit breakers,
              graceful degradation, crash-safe job journal)
``loadtest``  drive a running service with an open-loop arrival process at
              several offered rates, report in ``BENCH_service.json``

``soak`` and ``tune`` accept ``--workers N`` (or ``auto``) to fan their
independent runs across a process pool; reports are identical for any
worker count apart from wall-clock fields.

Every solve prints the result summary, the modeled time, the Fig. 5
category breakdown, and the communication counters.  All inputs are
generated deterministically from ``--seed``.

``--impl auto``, ``--opts auto``, and ``--tprime auto`` hand the
corresponding choice to the :mod:`repro.tuning` planner (plans are
cached; see ``docs/autotuning.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Sequence

from .bench.report import banner, format_kv, format_table
from .core import (
    CC_IMPLS,
    MST_IMPLS,
    OptimizationFlags,
    cluster_for_input,
    connected_components,
    machine_for_input,
    minimum_spanning_forest,
)
from .core.results import SolveInfo
from .errors import ReproError
from .graph import hybrid_graph, powerlaw_graph, random_graph, with_random_weights
from .runtime import hps_cluster, sequential_machine, smp_node

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=50_000, help="vertex count")
    parser.add_argument("--density", type=float, default=4.0, help="edges per vertex (m/n)")
    parser.add_argument(
        "--kind", choices=("random", "hybrid", "powerlaw"), default="random", help="input family"
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--machine",
        default="16x8",
        help="cluster shape NODESxTHREADS (e.g. 16x8), 'smp' (1x16) or 'seq'",
    )
    parser.add_argument(
        "--no-calibrate",
        action="store_true",
        help="skip input-size calibration of cache/per-call costs",
    )
    parser.add_argument(
        "--tprime",
        type=_parse_tprime,
        default=2,
        help="virtual threads t' (a positive int, or 'auto' for the cache-fit choice)",
    )
    parser.add_argument(
        "--opts",
        default="all",
        help="'all', 'none', 'auto' (let the tuner choose), or comma-separated"
        " flag names (e.g. compact,circular)",
    )
    parser.add_argument(
        "--hierarchical",
        action="store_true",
        help="enable the future-work hierarchical collectives",
    )
    parser.add_argument("--validate", action="store_true", help="self-check the answer")
    parser.add_argument(
        "--fault-loss",
        type=float,
        default=0.0,
        help="uniform per-message loss probability (e.g. 1e-3); cc/mst only",
    )
    parser.add_argument(
        "--fault-stragglers",
        type=int,
        default=0,
        help="number of straggler threads (4x slowdown); cc/mst only",
    )
    parser.add_argument(
        "--fault-corruption",
        type=float,
        default=0.0,
        help="silent bit-flip rate in owner blocks (flips per element per"
        " modeled second, e.g. 2e-2); cc/mst only",
    )
    parser.add_argument(
        "--fault-payload-corruption",
        type=float,
        default=0.0,
        help="per-record probability of an in-flight collective payload"
        " flip (e.g. 1e-4); cc/mst only",
    )
    parser.add_argument(
        "--fault-node-loss", type=float, default=0.0, metavar="AT",
        help="permanently lose a node at this modeled time in seconds"
        " (e.g. 2e-4); cc/mst collective only — pair with --redundancy"
        " or the run aborts with UnrecoverableLossError",
    )
    parser.add_argument(
        "--fault-loss-node", type=int, default=1, metavar="N",
        help="which node --fault-node-loss kills (default 1)",
    )
    parser.add_argument(
        "--redundancy", choices=("buddy", "parity"), default=None,
        help="owner-block redundancy mode: replicate protected arrays so"
        " a permanent node loss is survivable (cc/mst collective + LT variants)",
    )
    parser.add_argument(
        "--spares", type=int, default=0,
        help="cold spare nodes recovery may promote instead of shrinking",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the fault plan's RNG"
    )
    parser.add_argument(
        "--integrity",
        action="store_true",
        help="enable silent-fault detection and verify-and-repair"
        " (checksummed blocks/payloads + invariant checks); cc/mst collective only",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="run the epoch race detector on this solve (exit 3 if races found)",
    )


def _parse_tprime(text: str):
    """argparse type for ``--tprime``: positive int or the string 'auto'."""
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"t' must be >= 1, got {value}")
    return value


def _parse_machine(spec: str, n: int, calibrate: bool):
    if spec == "seq":
        base = sequential_machine()
    elif spec == "smp":
        base = smp_node(16)
    else:
        try:
            nodes_s, threads_s = spec.lower().split("x")
            base = hps_cluster(int(nodes_s), int(threads_s))
        except (ValueError, ReproError) as err:
            raise SystemExit(f"bad --machine {spec!r}: use NODESxTHREADS, 'smp' or 'seq' ({err})")
    return machine_for_input(base, n) if calibrate else base


def _parse_opts(spec: str, hierarchical: bool):
    if spec == "auto":
        if hierarchical:
            raise SystemExit(
                "--opts auto cannot combine with --hierarchical:"
                " the tuner searches the paper's measured flags only"
            )
        return "auto"
    if spec == "all":
        flags = OptimizationFlags.all()
    elif spec == "none":
        flags = OptimizationFlags.none()
    else:
        try:
            flags = OptimizationFlags.only(*[s.strip() for s in spec.split(",") if s.strip()])
        except ReproError as err:
            raise SystemExit(str(err))
    if hierarchical:
        flags = flags.with_(hierarchical=True)
    return flags


def _build_graph(args: argparse.Namespace, weighted: bool):
    n, m = args.n, int(args.density * args.n)
    builders = {"random": random_graph, "hybrid": hybrid_graph, "powerlaw": powerlaw_graph}
    g = builders[args.kind](n, m, seed=args.seed)
    return with_random_weights(g, seed=args.seed + 1) if weighted else g


def _fault_plan(args: argparse.Namespace, machine):
    """Build the FaultPlan the CLI flags describe (None when unused)."""
    from .faults import FaultPlan

    return FaultPlan.from_cli(
        loss=args.fault_loss,
        stragglers=args.fault_stragglers,
        seed=args.fault_seed,
        total_threads=machine.total_threads,
        corruption=args.fault_corruption,
        payload_corruption=args.fault_payload_corruption,
        node_loss_at=getattr(args, "fault_node_loss", 0.0),
        node_loss_node=getattr(args, "fault_loss_node", 1),
    )


def _resilience_config(args: argparse.Namespace):
    """The RedundancyConfig behind ``--redundancy`` (None when unused)."""
    if getattr(args, "redundancy", None) is None:
        return None
    from .resilience import RedundancyConfig

    return RedundancyConfig(mode=args.redundancy, spares=args.spares)


def _reject_fault_flags(args: argparse.Namespace, command: str) -> None:
    from .errors import ConfigError

    if (
        getattr(args, "fault_loss", 0.0)
        or getattr(args, "fault_stragglers", 0)
        or getattr(args, "fault_corruption", 0.0)
        or getattr(args, "fault_payload_corruption", 0.0)
        or getattr(args, "fault_node_loss", 0.0)
    ):
        raise ConfigError(f"fault injection is only supported for cc/mst, not {command}")
    if getattr(args, "integrity", False):
        raise ConfigError(f"integrity protection is only supported for cc/mst, not {command}")
    if getattr(args, "redundancy", None) is not None:
        raise ConfigError(f"redundancy is only supported for cc/mst, not {command}")


@contextlib.contextmanager
def _maybe_analyzed(args: argparse.Namespace):
    """Run the body under the epoch race detector when ``--analyze``."""
    if not getattr(args, "analyze", False):
        yield None
        return
    from .analysis import analyzed

    with analyzed() as session:
        yield session


def _sanitizer_exit(session) -> int:
    """Print the sanitizer report; exit 3 when actual races were found."""
    if session is None:
        return 0
    print()
    print(session.render())
    return 3 if session.has_races else 0


def _print_info(info: SolveInfo) -> None:
    print(f"\nmachine : {info.machine.describe()}")
    print(f"modeled : {info.sim_time_ms:.3f} ms in {info.iterations} iteration(s)")
    print(f"wall    : {info.wall_time * 1e3:.1f} ms (simulation overhead)")
    print("breakdown (avg ms/thread):")
    body = format_kv({k: round(v * 1e3, 4) for k, v in info.breakdown().items()})
    print("  " + body.replace("\n", "\n  "))
    c = info.trace.counters
    print(
        f"comm    : {c.remote_messages:,} messages / {c.remote_bytes:,} bytes /"
        f" {c.collective_calls} collectives / {c.barriers} barriers"
    )
    if c.retries or c.crashes or c.checkpoint_restores:
        print(
            f"faults  : {c.retries:,} retries / {c.crashes} crashes /"
            f" {c.checkpoint_restores} checkpoint restores"
        )
    if c.corruptions_injected or c.corruptions_detected or c.repairs:
        print(
            f"silent  : {c.corruptions_injected} corruptions injected /"
            f" {c.corruptions_detected} detected / {c.repairs} repairs"
        )
    if c.node_losses or c.replicas_written:
        print(
            f"resil   : {c.node_losses} node loss(es) / {c.epoch_changes} epoch"
            f" change(s) / {c.blocks_reconstructed} blocks rebuilt /"
            f" {c.replicas_written:,} replica elements shipped"
        )
    for event in info.trace.events:
        print(f"event   : {event}")


def _cmd_cc(args: argparse.Namespace) -> int:
    g = _build_graph(args, weighted=False)
    machine = _parse_machine(args.machine, args.n, not args.no_calibrate)
    opts = _parse_opts(args.opts, args.hierarchical)
    print(banner(f"connected components — {args.kind} n={g.n:,} m={g.m:,}"))
    with _maybe_analyzed(args) as session:
        res = connected_components(
            g, machine, impl=args.impl, opts=opts, tprime=args.tprime, validate=args.validate,
            faults=_fault_plan(args, machine), graph_kind=args.kind,
            integrity=True if args.integrity else None,
            resilience=_resilience_config(args),
        )
    print(f"\ncomponents: {res.num_components}")
    _print_info(res.info)
    return _sanitizer_exit(session)


def _cmd_mst(args: argparse.Namespace) -> int:
    g = _build_graph(args, weighted=True)
    machine = _parse_machine(args.machine, args.n, not args.no_calibrate)
    opts = _parse_opts(args.opts, args.hierarchical)
    print(banner(f"minimum spanning forest — {args.kind} n={g.n:,} m={g.m:,}"))
    with _maybe_analyzed(args) as session:
        res = minimum_spanning_forest(
            g, machine, impl=args.impl, opts=opts, tprime=args.tprime, validate=args.validate,
            faults=_fault_plan(args, machine), graph_kind=args.kind,
            integrity=True if args.integrity else None,
            resilience=_resilience_config(args),
        )
    print(f"\nforest: {res.num_edges:,} edges, total weight {res.total_weight:,}")
    _print_info(res.info)
    return _sanitizer_exit(session)


def _cmd_listrank(args: argparse.Namespace) -> int:
    from .listrank import random_list, solve_ranks_cgm, solve_ranks_sequential, solve_ranks_wyllie

    _reject_fault_flags(args, "listrank")
    lst = random_list(args.n, args.seed)
    machine = _parse_machine(args.machine, args.n, not args.no_calibrate)
    opts = _parse_opts(args.opts, args.hierarchical)
    print(banner(f"list ranking — n={args.n:,}"))
    solvers = {
        "wyllie": lambda: solve_ranks_wyllie(lst, machine, opts, args.tprime),
        "cgm": lambda: solve_ranks_cgm(lst, machine, opts, args.tprime),
        "sequential": lambda: solve_ranks_sequential(lst),
    }
    with _maybe_analyzed(args) as session:
        ranks, info = solvers[args.impl]()
    print(f"\nhead rank: {int(ranks.max())} (= n-1: {int(ranks.max()) == args.n - 1})")
    _print_info(info)
    return _sanitizer_exit(session)


def _cmd_bfs(args: argparse.Namespace) -> int:
    from .bfs import solve_bfs_collective, solve_bfs_naive_upc, solve_bfs_sequential
    from .bfs.solvers import UNREACHED

    _reject_fault_flags(args, "bfs")
    g = _build_graph(args, weighted=False)
    machine = _parse_machine(args.machine, args.n, not args.no_calibrate)
    opts = _parse_opts(args.opts, args.hierarchical)
    print(banner(f"BFS from {args.source} — {args.kind} n={g.n:,} m={g.m:,}"))
    with _maybe_analyzed(args) as session:
        if args.impl == "collective":
            dist, info = solve_bfs_collective(g, args.source, machine, opts, args.tprime)
        elif args.impl == "naive":
            dist, info = solve_bfs_naive_upc(g, args.source, machine)
        else:
            dist, info = solve_bfs_sequential(g, args.source)
    reached = dist != UNREACHED
    print(f"\nreached {int(reached.sum()):,}/{g.n:,} vertices;"
          f" eccentricity {int(dist[reached].max())}; levels {info.iterations}")
    _print_info(info)
    return _sanitizer_exit(session)


def _cmd_soak(args: argparse.Namespace) -> int:
    from .integrity import SoakConfig, run_soak

    if args.service:
        return _cmd_soak_service(args)
    try:
        nodes_s, threads_s = args.machine.lower().split("x")
        nodes, threads = int(nodes_s), int(threads_s)
    except ValueError:
        raise SystemExit(f"bad --machine {args.machine!r}: soak wants NODESxTHREADS (e.g. 16x8)")
    config = SoakConfig(
        iterations=args.iterations,
        seed=args.seed,
        algos=tuple(args.algo),
        nodes=nodes,
        threads=threads,
        n=args.n,
        m=int(args.density * args.n),
        corruption=args.corruption,
        payload_corruption=args.payload_corruption,
        loss=args.loss,
        stragglers=args.stragglers,
        crashes=args.crashes,
        node_losses=args.node_losses,
        redundancy=args.redundancy or ("buddy" if args.node_losses else ""),
        spares=args.spares,
        unprotected=not args.no_unprotected,
    )
    print(banner(
        f"soak — {args.iterations} iteration(s) x {'/'.join(config.algos)} on"
        f" {nodes}x{threads}, n={config.n:,} m={config.m:,}"
    ))
    report = run_soak(config, out_dir=args.out_dir, workers=args.workers)
    s = report["summary"]
    wc = report["wallclock"]
    print(f"\nwallclock : {wc['seconds']:.2f}s with {wc['workers']} worker(s)")
    print(f"\nruns      : {s['runs']} protected"
          + (f" + {s['unprotected_runs']} unprotected" if s["unprotected_runs"] else ""))
    print(f"injected  : {s['injected']} corruptions, {s['detected']} detected,"
          f" {s['repairs']} repairs")
    if s.get("node_losses"):
        print(f"losses    : {s['node_losses']} permanent node losses survived,"
              f" {s['epoch_changes']} epoch changes,"
              f" {s['blocks_reconstructed']} blocks rebuilt")
    print(f"protected : {s['protected_wrong']} wrong, {s['protected_failed']} gave up")
    if s["unprotected_runs"]:
        print(f"unprotect : {s['unprotected_wrong_or_error']} wrong or errored"
              " (the failure mode integrity closes)")
    print(f"report    : {report['path']}")
    bad = s["protected_wrong"] + s["protected_failed"]
    if bad:
        print(f"\nFAIL: {bad} protected run(s) did not survive", file=sys.stderr)
        return 4
    print("\nall protected runs verified by certificate")
    return 0


def _cmd_soak_service(args: argparse.Namespace) -> int:
    """``soak --service``: the same chaos, routed through the HTTP API."""
    from .integrity import ServiceSoakConfig, run_service_soak

    config = ServiceSoakConfig(
        jobs=args.iterations,
        seed=args.seed,
        n=args.n,
        density=args.density,
        corruption=args.corruption,
        payload_corruption=args.payload_corruption,
        loss=args.loss,
        # --node-losses N turns on the node-kill chaos leg: half the
        # jobs lose a node of their simulated machine mid-solve.
        node_loss_fraction=0.5 if args.node_losses else 0.0,
        redundancy=args.redundancy or "buddy",
    )
    print(banner(
        f"service soak — {config.jobs} chaos job(s) through a live server"
        f" (crash-restart: {config.restart})"
    ))
    report = run_service_soak(config, out_dir=args.out_dir)
    s = report["summary"]
    print(f"\nsubmitted : {s['submitted']} ({s['accepted']} accepted,"
          f" {s['rejected_429']} over-quota/shed, {s['rejected_503']} breaker)")
    print(f"outcomes  : {s['outcomes']}")
    print(f"recovered : {s['recovered_after_restart']} orphan(s) after crash-restart")
    print(f"report    : {report['path']}")
    if s["violations"]:
        for violation in s["violations"]:
            print(f"violation : {violation}", file=sys.stderr)
        print(f"\nFAIL: {len(s['violations'])} service-contract violation(s)", file=sys.stderr)
        return 4
    print("\nservice contract held: no crash, no unverified result, no lost job")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import BackoffPolicy, ServiceConfig, ServiceServer

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        backoff=BackoffPolicy(max_attempts=args.max_attempts),
        journal_path=args.journal,
        default_deadline_s=args.default_deadline,
        verify=not args.no_verify,
    )
    server = ServiceServer(config)
    host, port = server.address
    print(banner(f"repro service — http://{host}:{port}"))
    print(f"workers   : {config.workers}")
    print(f"queue     : {config.queue_capacity} slots"
          f" (degraded >= {config.degraded_at:.0%}, overload >= {config.overload_at:.0%})")
    print(f"quota     : {config.quota_rate:g}/s per tenant, burst {config.quota_burst:g}")
    print(f"journal   : {config.journal_path or '(disabled)'}")
    if server.service.recovered_jobs:
        print(f"recovered : {server.service.recovered_jobs} in-flight job(s) from the journal")
    print("endpoints : POST /submit, GET /status/<job>, /result/<job>, /healthz, /metrics")
    print("\nserving (Ctrl-C to stop)")
    server.serve_forever()
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from .bench.harness import write_bench_json
    from .service import LoadtestConfig, run_loadtest

    config = LoadtestConfig(
        base_url=args.url.rstrip("/"),
        rates_per_s=tuple(args.rates),
        jobs_per_level=args.jobs,
        seed=args.seed,
        n=args.n,
        density=args.density,
        machine=args.machine,
        deadline_s=args.deadline,
        fault_fraction=args.fault_fraction,
    )
    print(banner(
        f"loadtest — {config.base_url}, rates {'/'.join(f'{r:g}' for r in config.rates_per_s)}"
        f" jobs/s x {config.jobs_per_level} jobs"
    ))
    report = run_loadtest(config)
    rows = []
    for level in report["levels"]:
        rows.append([
            f"{level['offered_rate_per_s']:g}",
            level["offered"],
            level["accepted"],
            level["rejected_429"],
            level["completed"],
            f"{level['throughput_per_s']:.2f}",
            f"{level['shed_rate']:.0%}",
            "-" if level["latency_p50_s"] is None else f"{level['latency_p50_s'] * 1e3:.0f}",
            "-" if level["latency_p99_s"] is None else f"{level['latency_p99_s'] * 1e3:.0f}",
        ])
    print(format_table(
        ["rate/s", "offered", "accepted", "429", "done", "done/s", "shed", "p50 ms", "p99 ms"],
        rows,
    ))
    path = write_bench_json("service", report, directory=args.out_dir)
    print(f"\nreport: {path}")
    if report["contract_violations"]:
        for violation in report["contract_violations"]:
            print(f"violation: {violation}", file=sys.stderr)
        print(
            f"\nFAIL: {len(report['contract_violations'])} contract violation(s)",
            file=sys.stderr,
        )
        return 4
    print("contract held: every served result verified, server healthy throughout")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .tuning import PlanCache, Workload, calibrate_profile

    print(banner("machine presets"))
    rows = []
    for name, machine in [
        ("hps_cluster(16,16)", hps_cluster(16, 16)),
        ("hps_cluster(16,8)", hps_cluster(16, 8)),
        ("smp_node(16)", smp_node(16)),
        ("sequential", sequential_machine()),
    ]:
        rows.append([name, machine.describe()])
    print(format_table(["preset", "description"], rows))
    n = args.n
    calibrated = _parse_machine(args.machine, n, calibrate=True)
    print(f"\ncalibrated for n={n:,}: {calibrated.describe()}")
    print(f"per-call scale: {calibrated.per_call_scale:.2e}")

    print(banner("calibrated machine profile (measured by the tuning probes)"))
    profile = calibrate_profile(calibrated)
    for line in profile.summary_lines():
        print(line)

    cache = PlanCache()
    print(f"\ntuning-plan cache: {cache.path} ({len(cache)} plan(s))")
    m = int(args.density * n)
    for kind in ("cc", "mst"):
        plan = cache.get(calibrated, Workload(kind=kind, n=n, m=m, graph_kind=args.kind))
        if plan is None:
            print(f"  {kind}: no cached plan for this machine x input (run `repro tune`)")
        else:
            for line in plan.summary_lines():
                print(f"  {kind}: {line}")
    return 0


def _plan_table(plan, limit: int = 12) -> str:
    """Predicted-vs-measured table of a plan's top entries (all probed
    entries first, then the best analytic-only rows up to ``limit``)."""
    probed = plan.probed()
    rest = [e for e in plan.entries if e.probed_ms is None][: max(0, limit - len(probed))]
    rows = []
    for e in probed + rest:
        rows.append(
            [
                e.impl,
                e.opts_key,
                e.tprime,
                f"{e.predicted_ms:.3f}",
                "-" if e.probed_ms is None else f"{e.probed_ms:.3f}",
            ]
        )
    return format_table(["impl", "flags", "t'", "predicted ms", "measured ms"], rows)


def _cmd_tune(args: argparse.Namespace) -> int:
    from .tuning import PlanCache, Workload, autotune, calibrate_profile

    machine = _parse_machine(args.machine, args.n, not args.no_calibrate)
    m = int(args.density * args.n)
    print(banner(f"autotune — {args.algo} {args.kind} n={args.n:,} m={m:,}"))

    profile = calibrate_profile(machine)
    print("machine profile:")
    for line in profile.summary_lines():
        print(f"  {line}")

    cache = PlanCache()
    workload = Workload(kind=args.algo, n=args.n, m=m, graph_kind=args.kind)
    plan = autotune(
        workload, machine, cache=cache, use_cache=not args.fresh, workers=args.workers
    )
    print(f"\nplan cache: {cache.path}")
    print(f"searched {plan.lattice_size} configurations;"
          f" {len(plan.probed())} probe-measured at n={plan.probe_n:,}")
    print(_plan_table(plan))
    sel = plan.selected
    print(f"\nselected: {sel.config_label()} ({sel.best_ms:.3f} ms modeled at n={args.n:,})")

    # Demonstrate the pick against the paper's default on the real input.
    g = _build_graph(args, weighted=args.algo == "mst")
    solve = connected_components if args.algo == "cc" else minimum_spanning_forest
    auto = solve(g, machine, impl="auto", opts="auto", tprime="auto", graph_kind=args.kind)
    default = solve(g, machine, impl="collective", opts=OptimizationFlags.all(), tprime=2)
    print(f"\nfull-size check (n={args.n:,}, seed={args.seed}):")
    print(f"  auto    : {auto.info.sim_time_ms:.3f} ms modeled")
    print(f"  default : {default.info.sim_time_ms:.3f} ms modeled (all flags, t'=2)")
    for event in auto.info.trace.events:
        print(f"  event   : {event}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import CATALOG, run_verify
    from .analysis.report import render_json, render_sarif, render_text
    from .errors import ConfigError

    rules = None
    if args.rules:
        rules = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = sorted(rules - set(CATALOG))
        if unknown:
            raise ConfigError(
                f"analyze: unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(CATALOG))}"
            )

    paths = args.paths or [str(Path(__file__).parent)]
    findings = run_verify(paths)
    if rules is not None:
        findings = [f for f in findings if f.rule in rules]

    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings, CATALOG))
    else:
        if findings:
            print(render_text(findings))
            print(
                f"\n{len(findings)} finding(s); see docs/static-analysis.md "
                "for the rule catalog"
            )
        else:
            print(f"analyze: {len(paths)} path(s) clean")
    return 1 if findings else 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .bench.figures import ALL_FIGURES

    names = args.only if args.only else sorted(ALL_FIGURES)
    for name in names:
        if name not in ALL_FIGURES:
            raise SystemExit(f"unknown figure {name!r}; choose from {sorted(ALL_FIGURES)}")
        fig = ALL_FIGURES[name](scale=args.scale)
        print()
        print(fig.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated-PGAS graph algorithms (SC'10 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cc = sub.add_parser("cc", help="connected components")
    _add_common(p_cc)
    p_cc.add_argument("--impl", choices=CC_IMPLS, default="collective")
    p_cc.set_defaults(func=_cmd_cc)

    p_mst = sub.add_parser("mst", help="minimum spanning forest")
    _add_common(p_mst)
    p_mst.add_argument("--impl", choices=MST_IMPLS, default="collective")
    p_mst.set_defaults(func=_cmd_mst)

    p_bfs = sub.add_parser("bfs", help="breadth-first search")
    _add_common(p_bfs)
    p_bfs.add_argument("--impl", choices=("collective", "naive", "sequential"), default="collective")
    p_bfs.add_argument("--source", type=int, default=0)
    p_bfs.set_defaults(func=_cmd_bfs)

    p_lr = sub.add_parser("listrank", help="list ranking")
    _add_common(p_lr)
    p_lr.add_argument("--impl", choices=("wyllie", "cgm", "sequential"), default="wyllie")
    p_lr.set_defaults(func=_cmd_listrank)

    p_soak = sub.add_parser(
        "soak", help="composed chaos/soak campaign (silent + fail-stop faults)"
    )
    p_soak.add_argument("--iterations", type=int, default=5)
    p_soak.add_argument("--seed", type=int, default=0)
    p_soak.add_argument(
        "--algo", nargs="+", choices=("cc", "mst"), default=["cc", "mst"],
        help="algorithms to soak (default: both)",
    )
    p_soak.add_argument("--machine", default="16x8", help="cluster shape NODESxTHREADS")
    p_soak.add_argument("--n", type=int, default=2048, help="vertex count per iteration")
    p_soak.add_argument("--density", type=float, default=4.0, help="edges per vertex (m/n)")
    p_soak.add_argument(
        "--corruption", type=float, default=2.0e-2,
        help="owner-block flip rate (per element per modeled second)",
    )
    p_soak.add_argument(
        "--payload-corruption", type=float, default=1.0e-4,
        help="per-record in-flight payload flip probability",
    )
    p_soak.add_argument("--loss", type=float, default=0.0, help="per-message loss probability")
    p_soak.add_argument("--stragglers", type=int, default=0, help="straggler threads (4x)")
    p_soak.add_argument("--crashes", type=int, default=0, help="scheduled crashes per run")
    p_soak.add_argument(
        "--node-losses", type=int, default=0,
        help="permanent node losses scheduled per run (protected legs"
        " recover through redundancy; unprotected legs abort loudly)",
    )
    p_soak.add_argument(
        "--redundancy", choices=("buddy", "parity"), default=None,
        help="owner-block redundancy mode for the protected legs"
        " (default: buddy when --node-losses is set)",
    )
    p_soak.add_argument(
        "--spares", type=int, default=0,
        help="cold spare nodes recovery may promote instead of shrinking",
    )
    p_soak.add_argument(
        "--no-unprotected", action="store_true",
        help="skip the unprotected comparison legs (protected runs only)",
    )
    p_soak.add_argument("--out-dir", default=None, help="directory for BENCH_soak.json")
    p_soak.add_argument(
        "--workers", default=None,
        help="process-pool workers: an int or 'auto' (default: serial)",
    )
    p_soak.add_argument(
        "--service", action="store_true",
        help="route the chaos through a live HTTP service instead of direct"
        " solver calls (exercises admission control, shedding, and journal"
        " crash-recovery; report in BENCH_service_soak.json)",
    )
    p_soak.set_defaults(func=_cmd_soak)

    p_info = sub.add_parser("info", help="machine presets and calibration")
    p_info.add_argument("--n", type=int, default=100_000)
    p_info.add_argument("--density", type=float, default=4.0, help="edges per vertex (m/n)")
    p_info.add_argument(
        "--kind", choices=("random", "hybrid", "powerlaw"), default="random", help="input family"
    )
    p_info.add_argument(
        "--machine",
        default="16x8",
        help="cluster shape NODESxTHREADS (e.g. 16x8), 'smp' (1x16) or 'seq'",
    )
    p_info.set_defaults(func=_cmd_info)

    p_tune = sub.add_parser(
        "tune", help="calibrate, search the configuration lattice, print the plan"
    )
    _add_common(p_tune)
    p_tune.add_argument("--algo", choices=("cc", "mst"), default="cc")
    p_tune.add_argument(
        "--fresh", action="store_true", help="ignore any cached plan and re-search"
    )
    p_tune.add_argument(
        "--workers", default=None,
        help="process-pool workers for probe solves: an int or 'auto' (default: serial)",
    )
    p_tune.set_defaults(func=_cmd_tune)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant graph-analytics service (JSON over HTTP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642, help="0 picks a free port")
    p_serve.add_argument("--workers", type=int, default=2, help="solver worker threads")
    p_serve.add_argument("--queue-capacity", type=int, default=64, help="bounded queue slots")
    p_serve.add_argument(
        "--quota-rate", type=float, default=10.0, help="per-tenant tokens per second"
    )
    p_serve.add_argument("--quota-burst", type=float, default=20.0, help="per-tenant burst size")
    p_serve.add_argument(
        "--max-attempts", type=int, default=3, help="solve attempts per job (with backoff)"
    )
    p_serve.add_argument(
        "--journal", default=None,
        help="append-only job journal path (enables crash recovery on restart)",
    )
    p_serve.add_argument(
        "--default-deadline", type=float, default=30.0,
        help="deadline (s) for jobs that do not set one",
    )
    p_serve.add_argument(
        "--no-verify", action="store_true",
        help="skip the certificate check of served results (not recommended;"
        " results are marked 'unverified')",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_load = sub.add_parser(
        "loadtest", help="open-loop load generator against a running service"
    )
    p_load.add_argument("--url", default="http://127.0.0.1:8642", help="service base URL")
    p_load.add_argument(
        "--rates", type=float, nargs="+", default=[2.0, 6.0, 18.0],
        help="offered arrival rates (jobs/s), one level each — include one"
        " past saturation",
    )
    p_load.add_argument("--jobs", type=int, default=30, help="jobs per level")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--n", type=int, default=512, help="vertex count per job")
    p_load.add_argument("--density", type=float, default=4.0)
    p_load.add_argument("--machine", default="4x2", help="cluster shape per job")
    p_load.add_argument("--deadline", type=float, default=20.0, help="per-job deadline (s)")
    p_load.add_argument(
        "--fault-fraction", type=float, default=0.25,
        help="fraction of jobs submitted with injected message loss",
    )
    p_load.add_argument("--out-dir", default=None, help="directory for BENCH_service.json")
    p_load.set_defaults(func=_cmd_loadtest)

    p_an = sub.add_parser(
        "analyze", help="static verifier: cost-model, determinism and flow rules"
    )
    p_an.add_argument(
        "paths", nargs="*", help="files/directories to check (default: the repro package)"
    )
    p_an.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="finding output format (sarif is the CI artifact format)",
    )
    p_an.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule selection (e.g. SY01,CH01); default: all",
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_fig = sub.add_parser("figures", help="run paper-figure reproductions")
    p_fig.add_argument("--scale", type=float, default=0.25)
    p_fig.add_argument("--only", nargs="*", help="figure keys (e.g. fig7 sec3)")
    p_fig.set_defaults(func=_cmd_figures)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
