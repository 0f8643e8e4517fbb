"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures and probe *why* the design works:

* ``pilot_vs_batch``  — the pilot abstraction against the "scripting"
  baseline the paper's introduction argues against: one batch job per task,
  each paying its own queue wait.
* ``scheduler_policy`` — the agent's backfill queue against strict FIFO
  under heterogeneous task sizes.
* ``overhead_scaling`` — EnTK pattern overhead vs. task count with
  everything else held fixed (isolates the ∝-tasks claim of Fig. 3).
"""

from __future__ import annotations

from repro.analytics.metrics import phase_execution_time
from repro.analytics.tables import Series
from repro.cluster.job import BatchJob
from repro.cluster.platforms import get_platform
from repro.core.kernel_plugin import Kernel
from repro.core.patterns.bag_of_tasks import BagOfTasks
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import run_on_sim
from repro.experiments.workloads import CharCountPipeline, SleepBag
from repro.pilot.retry import RetryPolicy
from repro.saga.adaptors.sim import SimContext

__all__ = [
    "pilot_vs_batch",
    "scheduler_policy",
    "overhead_scaling",
    "fault_resilience",
    "heterogeneity_utilization",
    "patterns_vs_dag",
]


class _MixedBag(BagOfTasks):
    """Alternating wide (mpi) and narrow tasks — a fragmentation stressor."""

    def __init__(self, size: int, duration: float, wide_cores: int) -> None:
        super().__init__(size=size)
        self.duration = duration
        self.wide_cores = wide_cores

    def task(self, instance: int) -> Kernel:
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = [f"--duration={self.duration}"]
        if instance % 2 == 0:
            kernel.cores = self.wide_cores
            kernel.uses_mpi = True
        return kernel


def pilot_vs_batch(
    ntasks: int = 64,
    task_duration: float = 120.0,
    resource: str = "xsede.comet",
    cores: int = 64,
    seed: int = 0,
) -> ExperimentResult:
    """TTC of one pilot vs. one batch job per task, with queue waits on."""
    result = ExperimentResult(
        figure="ablation:pilot-vs-batch",
        description=f"{ntasks} x {task_duration}s tasks on {resource} "
        f"({cores} cores): pilot vs. per-task batch submission",
    )
    # --- pilot: one container job, agent schedules all tasks -----------------
    pattern = SleepBag(ntasks, task_duration)
    _, handle, breakdown = run_on_sim(
        pattern,
        resource=resource,
        cores=cores,
        seed=seed,
        model_queue_wait=True,
    )
    pilot_ttc = breakdown.ttc
    queue_wait = handle.pilot.saga_job.timestamps.get("RUNNING", 0.0)
    result.rows.append(
        {"strategy": "pilot", "ttc_s": pilot_ttc, "exec_s": breakdown.execution_time,
         "pilot_queue_wait_s": queue_wait}
    )

    # --- baseline: every task is its own batch job ----------------------------
    platform = get_platform(resource)
    context = SimContext(platform=platform, model_queue_wait=True)
    done_times: list[float] = []

    def on_end(job: BatchJob, state) -> None:
        done_times.append(context.sim.now)

    for _ in range(ntasks):
        context.batch.submit(
            BatchJob(nodes=1, walltime=3600.0, duration=task_duration,
                     on_end=on_end)
        )
    context.sim.run()
    batch_ttc = max(done_times) if done_times else 0.0
    result.rows.append({"strategy": "per-task batch", "ttc_s": batch_ttc,
                        "exec_s": float(task_duration), "pilot_queue_wait_s": 0.0})

    result.claim(
        "the pilot completes the ensemble faster than per-task batch jobs",
        pilot_ttc < batch_ttc,
    )
    result.claim(
        "per-task batch pays queue wait per task (TTC >> task duration)",
        batch_ttc > 2 * task_duration,
    )
    result.notes.append(
        f"speedup pilot vs batch: {batch_ttc / pilot_ttc:.2f}x"
        if pilot_ttc > 0
        else "n/a"
    )
    return result


def scheduler_policy(
    ntasks: int = 32,
    duration: float = 60.0,
    wide_cores: int = 12,
    resource: str = "xsede.comet",
    cores: int = 24,
    seed: int = 0,
) -> ExperimentResult:
    """Agent backfill vs. strict FIFO on a mixed-width bag of tasks."""
    result = ExperimentResult(
        figure="ablation:scheduler-policy",
        description=f"{ntasks} mixed-width tasks ({wide_cores}-core MPI "
        f"alternating with 1-core) on a {cores}-core pilot",
    )
    ttcs = {}
    for policy in ("backfill", "fifo"):
        pattern = _MixedBag(ntasks, duration, wide_cores)
        _, _, breakdown = run_on_sim(
            pattern,
            resource=resource,
            cores=cores,
            seed=seed,
            agent_policy=policy,
        )
        ttcs[policy] = breakdown.ttc
        result.rows.append(
            {"policy": policy, "ttc_s": breakdown.ttc,
             "exec_s": breakdown.execution_time}
        )
    result.claim(
        "backfill is no slower than FIFO on heterogeneous widths",
        ttcs["backfill"] <= ttcs["fifo"] * 1.001,
    )
    result.notes.append(
        f"fifo/backfill TTC ratio: {ttcs['fifo'] / ttcs['backfill']:.2f}"
    )
    return result


def overhead_scaling(
    task_counts=(16, 64, 256, 1024),
    resource: str = "xsede.comet",
    cores: int = 256,
    seed: int = 0,
) -> ExperimentResult:
    """EnTK pattern overhead vs. task count at fixed pilot size."""
    result = ExperimentResult(
        figure="ablation:overhead-scaling",
        description=f"pattern overhead vs tasks in {tuple(task_counts)} "
        f"(pipeline pattern, fixed {cores}-core pilot on {resource})",
    )
    overhead_series = result.add_series(
        Series(name="pattern_overhead", x_label="tasks", y_label="overhead_s",
               expectation="proportional to the task count")
    )
    for n in task_counts:
        pattern = CharCountPipeline(n)
        _, _, breakdown = run_on_sim(pattern, resource=resource, cores=cores, seed=seed)
        overhead_series.append(n, breakdown.pattern_overhead)
        result.rows.append(
            {"tasks": n, "pattern_overhead_s": breakdown.pattern_overhead,
             "per_task_ms": 1000.0 * breakdown.pattern_overhead / (2 * n)}
        )
    result.claim(
        "pattern overhead grows with the task count",
        overhead_series.is_increasing(),
    )
    # Proportionality: the model is affine (per-batch constant + per-task
    # cost), so judge the *marginal* per-task cost between consecutive
    # sizes — it must be roughly constant.
    slopes = [
        (overhead_series.y[i + 1] - overhead_series.y[i])
        / (overhead_series.x[i + 1] - overhead_series.x[i])
        for i in range(len(overhead_series.x) - 1)
    ]
    result.claim(
        "marginal per-task overhead is roughly constant (true proportionality)",
        max(slopes) <= 1.5 * min(slopes),
    )
    return result


def fault_resilience(
    fault_rates=(0.0, 0.1, 0.2, 0.4),
    ntasks: int = 64,
    task_duration: float = 100.0,
    retries: int = 10,
    resource: str = "xsede.comet",
    cores: int = 64,
    seed: int = 0,
) -> ExperimentResult:
    """TTC and completion under injected task faults, with retries on.

    Quantifies the paper's fault-tolerance requirement (§I): retried
    ensembles always complete, and the TTC penalty grows with the fault
    rate but stays bounded (a failed task wastes at most one partial
    execution per attempt).
    """
    result = ExperimentResult(
        figure="ablation:fault-resilience",
        description=f"{ntasks} x {task_duration}s tasks, fault rates "
        f"{tuple(fault_rates)}, {retries} retries, {cores}-core pilot",
    )
    ttc_series = result.add_series(
        Series(name="ttc", x_label="fault_rate", y_label="ttc_s",
               expectation="grows with the fault rate, bounded")
    )
    for rate in fault_rates:

        class _Bag(SleepBag):
            retry_policy = RetryPolicy(max_attempts=retries + 1,
                                       backoff_base=0.0)

        pattern = _Bag(ntasks, task_duration)
        _, handle, breakdown = run_on_sim(
            pattern,
            resource=resource,
            cores=cores,
            seed=seed,
            fault_rate=rate,
        )
        faults = len(handle.profile.events("task_fault"))
        done = sum(u.state.value == "DONE" for u in pattern.units)
        ttc_series.append(rate, breakdown.ttc)
        result.rows.append(
            {
                "fault_rate": rate,
                "ttc_s": breakdown.ttc,
                "faults": faults,
                "attempts": len(pattern.units),
                "completed": done,
            }
        )
    result.claim(
        "every ensemble completes despite faults (retry absorbs them)",
        all(row["completed"] == ntasks for row in result.rows),
    )
    result.claim(
        "TTC grows with the fault rate",
        ttc_series.y[-1] > ttc_series.y[0],
    )
    result.claim(
        "the worst-case TTC stays within 4x of the clean run (bounded cost)",
        ttc_series.y[-1] <= 4.0 * ttc_series.y[0],
    )
    return result


def heterogeneity_utilization(
    cvs=(0.0, 0.5, 1.0, 2.0),
    ntasks: int = 128,
    mean_duration: float = 100.0,
    wide_fraction: float = 0.25,
    wide_cores: int = 8,
    resource: str = "xsede.comet",
    cores: int = 48,
    seed: int = 0,
) -> ExperimentResult:
    """Pilot utilization vs. task-duration heterogeneity (lognormal CV).

    The paper's experiments are homogeneous; real (and adaptive) ensembles
    are not.  This ablation sweeps the duration CV of a mixed-width
    synthetic ensemble and reports TTC and core utilization for the
    backfilling agent, plus the FIFO comparison at the highest CV.
    """
    from repro.analytics.metrics import utilization
    from repro.experiments.generator import SyntheticBag, WorkloadSpec

    result = ExperimentResult(
        figure="ablation:heterogeneity",
        description=f"{ntasks} mixed tasks ({wide_fraction:.0%} x "
        f"{wide_cores}-core), duration CV in {tuple(cvs)}, "
        f"{cores}-core pilot",
    )
    util_series = result.add_series(
        Series(name="utilization", x_label="cv", y_label="fraction",
               expectation="degrades as heterogeneity grows (stragglers)")
    )
    for cv in cvs:
        spec = WorkloadSpec(
            ntasks=ntasks,
            mean_duration=mean_duration,
            duration_cv=cv,
            wide_fraction=wide_fraction,
            wide_cores=wide_cores,
            seed=seed,
        )
        pattern = SyntheticBag(spec)
        _, _, breakdown = run_on_sim(
            pattern, resource=resource, cores=cores, seed=seed
        )
        util = utilization(
            pattern.units, total_cores=cores, span=breakdown.execution_time
        )
        util_series.append(cv, util)
        result.rows.append(
            {
                "cv": cv,
                "ttc_s": breakdown.ttc,
                "exec_s": breakdown.execution_time,
                "utilization": util,
            }
        )

    # FIFO comparison at the highest heterogeneity.
    spec = WorkloadSpec(
        ntasks=ntasks, mean_duration=mean_duration, duration_cv=cvs[-1],
        wide_fraction=wide_fraction, wide_cores=wide_cores, seed=seed,
    )
    pattern = SyntheticBag(spec)
    _, _, fifo_breakdown = run_on_sim(
        pattern, resource=resource, cores=cores, seed=seed,
        agent_policy="fifo",
    )
    backfill_ttc = result.rows[-1]["ttc_s"]
    result.rows.append(
        {
            "cv": cvs[-1],
            "ttc_s": fifo_breakdown.ttc,
            "exec_s": fifo_breakdown.execution_time,
            "utilization": float("nan"),
        }
    )
    result.notes.append(
        f"FIFO at cv={cvs[-1]}: TTC {fifo_breakdown.ttc:.1f}s vs backfill "
        f"{backfill_ttc:.1f}s "
        f"({fifo_breakdown.ttc / backfill_ttc:.2f}x)"
    )
    result.claim(
        "utilization degrades with heterogeneity",
        util_series.y[-1] < util_series.y[0],
    )
    result.claim(
        "backfill beats (or ties) FIFO under heterogeneity",
        backfill_ttc <= fifo_breakdown.ttc * 1.001,
    )
    return result


def patterns_vs_dag(
    sizes=(8, 32, 128),
    resource: str = "xsede.comet",
    seed: int = 0,
) -> ExperimentResult:
    """EnTK patterns vs. the generic-DAG programming model (paper §II).

    The char-count workload is run twice per size: as an
    :class:`EnsembleOfPipelines` (the user writes two stage methods) and
    as a mechanically-translated explicit DAG (the DAGMan/Pegasus model:
    the user owns every task and every precedence edge).  Execution is on
    the same runtime, so TTC parity shows the *pattern* costs nothing at
    run time — while the edge counts quantify the expression burden the
    paper's special-purpose design removes.
    """
    from repro.baselines.dag import express_eop_as_dag

    result = ExperimentResult(
        figure="ablation:patterns-vs-dag",
        description=f"char-count pipelines as EnTK pattern vs explicit DAG, "
        f"sizes {tuple(sizes)} on {resource}",
    )
    parity = True
    for n in sizes:
        pattern = CharCountPipeline(n)
        _, _, pattern_breakdown = run_on_sim(
            pattern, resource=resource, cores=n, seed=seed
        )
        dag = express_eop_as_dag(CharCountPipeline(n))
        tasks, edges = dag.task_count, dag.edge_count
        _, _, dag_breakdown = run_on_sim(
            dag, resource=resource, cores=n, seed=seed
        )
        parity &= (
            abs(dag_breakdown.execution_time - pattern_breakdown.execution_time)
            <= 0.15 * pattern_breakdown.execution_time
        )
        result.rows.append(
            {
                "size": n,
                "model": "entk-pattern",
                "user_edges": 0,
                "tasks": len(pattern.units),
                "exec_s": pattern_breakdown.execution_time,
                "ttc_s": pattern_breakdown.ttc,
            }
        )
        result.rows.append(
            {
                "size": n,
                "model": "explicit-dag",
                "user_edges": edges,
                "tasks": tasks,
                "exec_s": dag_breakdown.execution_time,
                "ttc_s": dag_breakdown.ttc,
            }
        )
    result.claim(
        "execution parity: the pattern abstraction costs nothing at run time",
        parity,
    )
    result.claim(
        "the DAG model's user-owned edges grow with the ensemble size",
        all(
            row["user_edges"] == row["size"]
            for row in result.rows
            if row["model"] == "explicit-dag"
        ),
    )
    return result
