"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``platforms``            list the simulated platform profiles
``kernels``              list the registered kernel plugins
``figure FIG``           rerun one paper figure (fig3..fig9); ``--small``
                         uses a reduced parameter set for a quick look
``ablation NAME``        run one ablation (pilot_vs_batch,
                         scheduler_policy, overhead_scaling,
                         fault_resilience, fault_ablation)
``plan``                 ask the execution-strategy layer where to run a
                         workload (``--ntasks --seconds --objective``)
``lint``                 run the repro.lint static-analysis pass
                         (determinism, dataclass, state-machine, event rules)
``trace``                inspect a JSONL trace dump: summarize, export
                         Chrome trace JSON (Perfetto), critical-path
"""

from __future__ import annotations

import argparse
import sys


def cmd_platforms(_args) -> int:
    from repro.cluster.platforms import get_platform, list_platforms

    for name in list_platforms():
        platform = get_platform(name)
        print(
            f"{name:<18} {platform.nodes:>6} nodes x {platform.cores_per_node:>3} "
            f"cores, {platform.node.memory_gb:>6.0f} GB/node  {platform.description}"
        )
    return 0


def cmd_kernels(_args) -> int:
    from repro.core.kernel_registry import get_kernel_plugin, list_kernel_plugins

    for name in list_kernel_plugins():
        plugin = get_kernel_plugin(name)
        print(f"{name:<24} {plugin.description}")
    return 0


_SMALL_FIGURE_KWARGS = {
    "fig3": {"task_counts": (8, 16, 32)},
    "fig4": {"task_counts": (8, 16)},
    "fig5": {"replicas": 64, "core_counts": (8, 16, 32, 64)},
    "fig6": {"replica_counts": (8, 16, 32, 64)},
    "fig7": {"simulations": 64, "core_counts": (8, 16, 32, 64)},
    "fig8": {"sim_counts": (8, 16, 32, 64)},
    "fig9": {"simulations": 8, "cores_per_sim": (1, 4, 8)},
}


def cmd_figure(args) -> int:
    from repro import experiments
    from repro.experiments.harness import run_figure

    name = args.figure
    if name not in _SMALL_FIGURE_KWARGS:
        print(f"unknown figure {name!r}; pick one of "
              f"{sorted(_SMALL_FIGURE_KWARGS)}", file=sys.stderr)
        return 2
    module = getattr(experiments, name)
    kwargs = _SMALL_FIGURE_KWARGS[name] if args.small else {}
    result = run_figure(
        module.points(**kwargs), module.report, parallel=args.parallel,
        cache_dir=args.cache, spool_dir=args.spool, trace_out=args.trace_out,
    )
    result.print_report()
    return 0 if result.all_claims_hold else 1


def cmd_ablation(args) -> int:
    from repro.experiments import ablations
    from repro.experiments.fault_ablation import fault_ablation

    known = list(ablations.__all__) + ["fault_ablation"]
    runner = getattr(ablations, args.name, None)
    if args.name == "fault_ablation":
        runner = fault_ablation
    if runner is None or args.name.startswith("_"):
        print(f"unknown ablation {args.name!r}; pick one of "
              f"{known}", file=sys.stderr)
        return 2
    result = runner()
    result.print_report()
    return 0 if result.all_claims_hold else 1


def cmd_plan(args) -> int:
    from repro.core.strategy import WorkloadEstimate, select_resource

    workload = WorkloadEstimate(
        ntasks=args.ntasks,
        task_seconds=args.seconds,
        cores_per_task=args.cores_per_task,
        stages=args.stages,
    )
    plan = select_resource(workload, args.resources, objective=args.objective)
    print(f"resource : {plan.resource}")
    print(f"cores    : {plan.cores}")
    print(f"TTC est. : {plan.estimated_ttc:.1f} s "
          f"(queue wait {plan.estimated_queue_wait:.1f} s)")
    print(f"cost est.: {plan.estimated_cost_core_hours:.1f} core-hours")
    return 0


def cmd_lint(args) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def cmd_trace(args) -> int:
    from repro.telemetry.cli import run_trace

    return run_trace(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ensemble Toolkit reproduction CLI",
        epilog="run `repro <command> --help` for per-command options",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="command",
        title="commands",
    )

    sub.add_parser(
        "platforms", help="list the simulated platform profiles"
    ).set_defaults(fn=cmd_platforms)
    sub.add_parser(
        "kernels", help="list the registered kernel plugins"
    ).set_defaults(fn=cmd_kernels)

    figure = sub.add_parser(
        "figure", help="rerun one paper figure (fig3 .. fig9)"
    )
    figure.add_argument("figure", help="fig3 .. fig9")
    figure.add_argument("--small", action="store_true",
                        help="reduced parameters for a quick run")
    figure.add_argument("--trace-out", metavar="DIR", default=None,
                        help="dump a Chrome trace per sweep point into "
                             "DIR/<point key>/")
    figure.add_argument("--spool", metavar="DIR", default=None,
                        help="stream each sweep point's trace to an NDJSON "
                             "spool file in DIR/<point key>/ instead of "
                             "keeping it in memory (identical content)")
    figure.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="run the figure's sweep points across N "
                             "worker processes")
    figure.add_argument("--cache", metavar="DIR", default=None,
                        help="reuse finished sweep points from this run "
                             "cache directory")
    figure.set_defaults(fn=cmd_figure)

    ablation = sub.add_parser(
        "ablation",
        help="run one ablation (pilot_vs_batch, scheduler_policy, "
             "overhead_scaling, fault_resilience, fault_ablation)",
    )
    ablation.add_argument("name")
    ablation.set_defaults(fn=cmd_ablation)

    lint = sub.add_parser(
        "lint",
        help="static analysis: determinism (DET), dataclass (DC), "
             "state-machine (SM) and event-callback (EVT) rules",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(fn=cmd_lint)

    trace = sub.add_parser(
        "trace",
        help="inspect a JSONL trace dump: summarize / export (Chrome "
             "trace JSON for Perfetto) / critical-path",
    )
    from repro.telemetry.cli import add_trace_arguments

    add_trace_arguments(trace)
    trace.set_defaults(fn=cmd_trace)

    plan = sub.add_parser(
        "plan", help="resource selection for a workload (execution strategy)"
    )
    plan.add_argument("--ntasks", type=int, required=True)
    plan.add_argument("--seconds", type=float, required=True,
                      help="single-core seconds per task")
    plan.add_argument("--cores-per-task", type=int, default=1)
    plan.add_argument("--stages", type=int, default=1)
    plan.add_argument("--objective", choices=("ttc", "cost"), default="ttc")
    plan.add_argument(
        "--resources",
        nargs="+",
        default=["xsede.comet", "xsede.stampede", "xsede.supermic"],
    )
    plan.set_defaults(fn=cmd_plan)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
