"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``cc``        solve connected components on a generated graph
``mst``       solve minimum spanning forest
``listrank``  rank a random linked list
``bfs``       breadth-first search distances from a source
``info``      show machine presets, calibration, and any cached tuning plan
``figures``   run paper-figure reproductions and print their tables
``tune``      run the autotuner and print its measured plan table
``soak``      chaos campaign through a live service: quota pressure, faults,
              crash-restart, report in ``BENCH_service_soak.json``
``serve``     run the multi-tenant graph-analytics service (JSON over HTTP:
              admission control, quotas, deadlines, circuit breakers,
              graceful degradation, crash-safe job journal)
``loadtest``  drive a running service with an open-loop arrival process at
              several offered rates, report in ``BENCH_service.json``

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
from .bfs import BFS_IMPLS, solve_bfs
from .bfs.solvers import UNREACHED
from .core import (
    CC_IMPLS,
    MST_IMPLS,
    OptimizationFlags,
    connected_components,
    machine_for_input,
    minimum_spanning_forest,
)
from .core.results import SolveInfo
from .errors import ReproError
from .graph import FAMILIES, generate
from .runtime import (
    MACHINE_SPECS,
    hps_cluster,
    parse_machine,
    sequential_machine,
    smp_node,
)

__all__ = ["main", "build_parser"]


def _add_problem(parser: argparse.ArgumentParser, graph: bool = True) -> None:
    """The input (a graph with ``graph``, else a list) and the machine."""
    parser.add_argument("--n", type=int, default=50_000, help="vertex count")
    if graph:
        parser.add_argument("--density", type=float, default=4.0, help="edges per vertex (m/n)")
        parser.add_argument("--kind", choices=FAMILIES, default="random", help="input family")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--machine", default="16x8", help=f"machine: {MACHINE_SPECS}")
    parser.add_argument(
        "--no-calibrate",
        action="store_true",
        help="skip input-size calibration of cache/per-call costs",
    )


def _add_schedule(parser: argparse.ArgumentParser) -> None:
    """The options of one solve's schedule: t', flags, race detection."""
    parser.add_argument(
        "--tprime",
        type=_parse_tprime,
        default=2,
        help="virtual threads t' (a positive int, or 'auto' for the cache-fit choice)",
    )
    parser.add_argument(
        "--opts",
        type=_opts_arg,
        default="all",
        help="'auto' (let the tuner choose), or 'all', 'none' and flag names joined"
        " by ',' or '+' (e.g. compact,circular; all,hierarchical adds the"
        " future-work hierarchical collectives)",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="run the epoch race detector on this solve (exit 3 if races found)",
    )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    """Fault injection and the protections against it (cc / mst)."""
    parser.add_argument(
        "--fault-loss",
        type=float,
        default=0.0,
        help="uniform per-message loss probability (e.g. 1e-3)",
    )
    parser.add_argument(
        "--fault-stragglers",
        type=int,
        default=0,
        help="number of straggler threads (4x slowdown)",
    )
    parser.add_argument(
        "--fault-corruption",
        type=float,
        default=0.0,
        help="silent bit-flip rate in owner blocks (flips per element per"
        " modeled second, e.g. 2e-2)",
    )
    parser.add_argument(
        "--fault-payload-corruption",
        type=float,
        default=0.0,
        help="per-record probability of an in-flight collective payload"
        " flip (e.g. 1e-4)",
    )
    parser.add_argument(
        "--fault-node-loss", type=float, default=0.0, metavar="AT",
        help="permanently lose a node at this modeled time in seconds"
        " (e.g. 2e-4) — pair with --redundancy or the run aborts with"
        " UnrecoverableLossError",
    )
    parser.add_argument(
        "--fault-loss-node", type=int, default=1, metavar="N",
        help="which node --fault-node-loss kills (default 1)",
    )
    parser.add_argument(
        "--redundancy", choices=("buddy", "parity"), default=None,
        help="owner-block redundancy mode: replicate protected arrays so"
        " a permanent node loss is survivable",
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
        " (checksummed blocks/payloads + invariant checks)",
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


def _opts_arg(text: str):
    """argparse type for ``--opts``: :meth:`OptimizationFlags.parse`."""
    try:
        return OptimizationFlags.parse(text)
    except ReproError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _machine(args: argparse.Namespace):
    """The ``--machine`` spec, calibrated for ``--n`` unless ``--no-calibrate``."""
    try:
        base = parse_machine(args.machine)
    except ReproError as err:
        raise SystemExit(f"bad --machine: {err}")
    return base if args.no_calibrate else machine_for_input(base, args.n)


def _build_graph(args: argparse.Namespace, weighted: bool):
    return generate(args.kind, args.n, int(args.density * args.n), args.seed, weighted)


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
        node_loss_at=args.fault_node_loss,
        node_loss_node=args.fault_loss_node,
    )


def _resilience_config(args: argparse.Namespace):
    """The RedundancyConfig behind ``--redundancy`` (None when unused)."""
    if args.redundancy is None:
        return None
    from .resilience import RedundancyConfig

    return RedundancyConfig(mode=args.redundancy, spares=args.spares)


@contextlib.contextmanager
def _maybe_analyzed(args: argparse.Namespace):
    """Run the body under the epoch race detector when ``--analyze``."""
    if not args.analyze:
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


#: cc / mst: (banner title, solver, answer line).
_SOLVES = {
    "cc": (
        "connected components", connected_components,
        lambda res: f"components: {res.num_components}",
    ),
    "mst": (
        "minimum spanning forest", minimum_spanning_forest,
        lambda res: f"forest: {res.num_edges:,} edges, total weight {res.total_weight:,}",
    ),
}


def _cmd_solve(args: argparse.Namespace) -> int:
    title, solve, answer = _SOLVES[args.command]
    g = _build_graph(args, weighted=args.command == "mst")
    machine = _machine(args)
    print(banner(f"{title} — {args.kind} n={g.n:,} m={g.m:,}"))
    with _maybe_analyzed(args) as session:
        res = solve(
            g, machine, impl=args.impl, opts=args.opts, tprime=args.tprime,
            validate=args.validate, faults=_fault_plan(args, machine), graph_kind=args.kind,
            integrity=True if args.integrity else None,
            resilience=_resilience_config(args),
        )
    print(f"\n{answer(res)}")
    _print_info(res.info)
    return _sanitizer_exit(session)


def _cmd_listrank(args: argparse.Namespace) -> int:
    from .listrank import random_list, solve_ranks_cgm, solve_ranks_sequential, solve_ranks_wyllie

    lst = random_list(args.n, args.seed)
    machine = _machine(args)
    print(banner(f"list ranking — n={args.n:,}"))
    solvers = {
        "wyllie": lambda: solve_ranks_wyllie(lst, machine, args.opts, args.tprime),
        "cgm": lambda: solve_ranks_cgm(lst, machine, args.opts, args.tprime),
        "sequential": lambda: solve_ranks_sequential(lst),
    }
    with _maybe_analyzed(args) as session:
        ranks, info = solvers[args.impl]()
    print(f"\nhead rank: {int(ranks.max())} (= n-1: {int(ranks.max()) == args.n - 1})")
    _print_info(info)
    return _sanitizer_exit(session)


def _cmd_bfs(args: argparse.Namespace) -> int:
    g = _build_graph(args, weighted=False)
    machine = _machine(args)
    print(banner(f"BFS from {args.source} — {args.kind} n={g.n:,} m={g.m:,}"))
    with _maybe_analyzed(args) as session:
        dist, info = solve_bfs(g, args.source, machine, args.impl, args.opts, args.tprime)
    reached = dist != UNREACHED
    print(f"\nreached {int(reached.sum()):,}/{g.n:,} vertices;"
          f" eccentricity {int(dist[reached].max())}; levels {info.iterations}")
    _print_info(info)
    return _sanitizer_exit(session)


def _cmd_soak(args: argparse.Namespace) -> int:
    """``soak``: the chaos campaign, routed through a live HTTP service."""
    from .service import ServiceSoakConfig, run_service_soak

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
    from .tuning import PlanCache, Workload

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
    calibrated = _machine(args)
    print(f"\ncalibrated for n={n:,}: {calibrated.describe()}")
    print(f"per-call scale: {calibrated.per_call_scale:.2e}")

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
    """The ``limit`` best measured entries of a plan, ranked."""
    rows = [
        [e.impl, e.opts_key, e.tprime, f"{e.ms:.3f}"] for e in plan.entries[:limit]
    ]
    return format_table(["impl", "flags", "t'", "measured ms"], rows)


def _cmd_tune(args: argparse.Namespace) -> int:
    from .tuning import PlanCache, Workload, autotune

    machine = _machine(args)
    m = int(args.density * args.n)
    print(banner(f"autotune — {args.algo} {args.kind} n={args.n:,} m={m:,}"))

    cache = PlanCache()
    workload = Workload(kind=args.algo, n=args.n, m=m, graph_kind=args.kind)
    plan = autotune(workload, machine, cache=cache, use_cache=not args.fresh)
    print(f"plan cache: {cache.path}")
    print(f"measured {plan.lattice_size} configurations"
          f" from {len({e.impl for e in plan.entries})} probe solves at n={plan.probe_n:,}")
    print(_plan_table(plan))
    sel = plan.selected
    print(f"\nselected: {sel.config_label()} ({sel.ms:.3f} ms modeled at n={args.n:,})")

    # Demonstrate the pick against the paper's default on the real input.
    g = _build_graph(args, weighted=args.algo == "mst")
    solve = _SOLVES[args.algo][1]
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

    for command, title, impls in (
        ("cc", "connected components", CC_IMPLS),
        ("mst", "minimum spanning forest", MST_IMPLS),
    ):
        p_solve = sub.add_parser(command, help=title)
        _add_problem(p_solve)
        _add_schedule(p_solve)
        p_solve.add_argument("--validate", action="store_true", help="self-check the answer")
        _add_faults(p_solve)
        p_solve.add_argument("--impl", choices=impls, default="collective")
        p_solve.set_defaults(func=_cmd_solve)

    p_bfs = sub.add_parser("bfs", help="breadth-first search")
    _add_problem(p_bfs)
    _add_schedule(p_bfs)
    p_bfs.add_argument("--impl", choices=BFS_IMPLS, default="collective")
    p_bfs.add_argument("--source", type=int, default=0)
    p_bfs.set_defaults(func=_cmd_bfs)

    p_lr = sub.add_parser("listrank", help="list ranking")
    _add_problem(p_lr, graph=False)
    _add_schedule(p_lr)
    p_lr.add_argument("--impl", choices=("wyllie", "cgm", "sequential"), default="wyllie")
    p_lr.set_defaults(func=_cmd_listrank)

    p_soak = sub.add_parser(
        "soak",
        help="chaos campaign through a live service (quota pressure, faults,"
        " crash-restart + journal recovery; report in BENCH_service_soak.json)",
    )
    p_soak.add_argument("--iterations", type=int, default=5, help="jobs to submit")
    p_soak.add_argument("--seed", type=int, default=0)
    p_soak.add_argument("--n", type=int, default=2048, help="vertex count per job")
    p_soak.add_argument("--density", type=float, default=4.0, help="edges per vertex (m/n)")
    p_soak.add_argument(
        "--corruption", type=float, default=2.0e-2,
        help="owner-block flip rate (per element per modeled second) of faulted jobs",
    )
    p_soak.add_argument(
        "--payload-corruption", type=float, default=1.0e-4,
        help="per-record in-flight payload flip probability of faulted jobs",
    )
    p_soak.add_argument(
        "--loss", type=float, default=0.0, help="per-message loss probability of faulted jobs"
    )
    p_soak.add_argument(
        "--node-losses", type=int, default=0,
        help="nonzero: half the jobs permanently lose a node mid-solve"
        " (redundancy-protected, so they must still verify)",
    )
    p_soak.add_argument(
        "--redundancy", choices=("buddy", "parity"), default=None,
        help="owner-block redundancy mode of the node-loss jobs (default: buddy)",
    )
    p_soak.add_argument("--out-dir", default=None, help="directory for BENCH_service_soak.json")
    p_soak.set_defaults(func=_cmd_soak)

    p_info = sub.add_parser("info", help="machine presets and calibration")
    p_info.add_argument("--n", type=int, default=100_000)
    p_info.add_argument("--density", type=float, default=4.0, help="edges per vertex (m/n)")
    p_info.add_argument("--kind", choices=FAMILIES, default="random", help="input family")
    p_info.add_argument("--machine", default="16x8", help=f"machine: {MACHINE_SPECS}")
    p_info.set_defaults(func=_cmd_info, no_calibrate=False)

    p_tune = sub.add_parser(
        "tune", help="search impl x t', print the plan"
    )
    _add_problem(p_tune)
    p_tune.add_argument("--algo", choices=("cc", "mst"), default="cc")
    p_tune.add_argument(
        "--fresh", action="store_true", help="ignore any cached plan and re-search"
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
