"""Fault-injection ablation: TTC inflation under node failures × retry policy.

The paper's §I motivates EnTK with "fault-tolerant execution of large
ensembles"; the task-level ablation (:func:`~repro.experiments.ablations
.fault_resilience`) quantifies that for process deaths.  This sweep probes
the *node*-level failure domain added by :mod:`repro.cluster.faults`: whole
nodes crash with an exponential MTBF, every resident unit is killed and
requeued under a :class:`~repro.pilot.retry.RetryPolicy`, and the node
stays out of service for a repair interval.

For each (node MTBF, retry policy) cell the sweep reports time to
completion, its inflation over the fault-free baseline, and the
fault-recovery overhead decomposition (wasted execution, backoff delay)
from :func:`repro.analytics.faults.fault_recovery_summary` — the
fault-domain analogue of the paper's Fig. 3 overhead decomposition.
"""

from __future__ import annotations

from repro.analytics.faults import fault_recovery_summary
from repro.analytics.tables import Series
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import run_on_sim
from repro.experiments.workloads import SleepBag
from repro.pilot.retry import RetryPolicy

__all__ = ["DEFAULT_POLICIES", "fault_ablation", "main"]


#: The two recovery strategies the sweep contrasts: resubmit immediately
#: vs. exponential backoff.  Failed-node exclusion is off so neither can
#: run out of placeable nodes on a small pilot (exclusion is exercised by
#: the unit tests instead).
DEFAULT_POLICIES: dict[str, RetryPolicy] = {
    "eager": RetryPolicy(
        max_attempts=8, backoff_base=0.0, exclude_failed_nodes=False
    ),
    "backoff": RetryPolicy(
        max_attempts=8,
        backoff_base=5.0,
        backoff_factor=2.0,
        backoff_cap=120.0,
        exclude_failed_nodes=False,
    ),
}


def fault_ablation(
    node_mtbfs=(0.0, 150.0, 120.0),
    policies: dict[str, RetryPolicy] | None = None,
    ntasks: int = 64,
    task_duration: float = 100.0,
    repair_time: float = 120.0,
    resource: str = "xsede.comet",
    cores: int = 64,
    seed: int = 0,
) -> ExperimentResult:
    """Sweep node fault rate × retry policy; report TTC inflation.

    ``node_mtbfs`` are per-node mean seconds between failures (0 is the
    fault-free baseline, run once).  Every run must still complete all
    *ntasks* tasks — that is the fault-tolerance claim under test; the
    price of the faults shows up as TTC inflation and a nonzero
    fault-recovery overhead column.
    """
    policies = policies if policies is not None else DEFAULT_POLICIES
    result = ExperimentResult(
        figure="ablation:node-faults",
        description=(
            f"{ntasks} x {task_duration}s tasks on a {cores}-core pilot "
            f"({resource}); node MTBF in {tuple(node_mtbfs)}s x retry "
            f"policies {tuple(policies)}"
        ),
    )

    def one_run(mtbf: float, policy: RetryPolicy | None):
        pattern = SleepBag(ntasks, task_duration)
        _, handle, breakdown = run_on_sim(
            pattern,
            resource=resource,
            cores=cores,
            seed=seed,
            node_mtbf=mtbf,
            node_repair_time=repair_time,
            retry_policy=policy,
        )
        summary = fault_recovery_summary(handle.profile)
        done = sum(u.state.value == "DONE" for u in pattern.units)
        return breakdown, summary, done

    # Fault-free baseline (policy is irrelevant without faults: with no
    # kills there is nothing to retry).
    clean_breakdown, clean_summary, clean_done = one_run(0.0, None)
    clean_ttc = clean_breakdown.ttc
    result.rows.append(
        {
            "policy": "-",
            "node_mtbf_s": 0.0,
            "ttc_s": clean_ttc,
            "inflation": 1.0,
            "node_failures": clean_summary.node_failures,
            "units_killed": clean_summary.units_killed,
            "requeues": clean_summary.unit_requeues,
            "fault_overhead_s": clean_breakdown.fault_overhead,
            "completed": clean_done,
        }
    )

    inflation_series: dict[str, Series] = {}
    for name in policies:
        inflation_series[name] = result.add_series(
            Series(
                name=f"inflation[{name}]",
                x_label="fault_rate_per_node_hour",
                y_label="ttc_inflation",
                expectation="grows with the node fault rate",
            )
        )

    for name, policy in policies.items():
        for mtbf in node_mtbfs:
            if mtbf <= 0:
                continue
            breakdown, summary, done = one_run(mtbf, policy)
            inflation = breakdown.ttc / clean_ttc if clean_ttc > 0 else 1.0
            inflation_series[name].append(3600.0 / mtbf, inflation)
            result.rows.append(
                {
                    "policy": name,
                    "node_mtbf_s": mtbf,
                    "ttc_s": breakdown.ttc,
                    "inflation": inflation,
                    "node_failures": summary.node_failures,
                    "units_killed": summary.units_killed,
                    "requeues": summary.unit_requeues,
                    "fault_overhead_s": breakdown.fault_overhead,
                    "completed": done,
                }
            )

    faulted = [row for row in result.rows if row["node_mtbf_s"] > 0]
    result.claim(
        "the fault-free baseline pays zero fault-recovery overhead",
        clean_breakdown.fault_overhead == 0.0 and clean_summary.overhead == 0.0,
    )
    result.claim(
        "every run completes all tasks despite node failures",
        all(row["completed"] == ntasks for row in result.rows),
    )
    result.claim(
        "node failures occur and units are requeued in every faulted run",
        bool(faulted)
        and all(
            row["node_failures"] > 0 and row["requeues"] > 0 for row in faulted
        ),
    )
    result.claim(
        "faulted runs report nonzero fault-recovery overhead",
        all(row["fault_overhead_s"] > 0 for row in faulted),
    )
    result.claim(
        "faults never make the ensemble faster (TTC inflation >= 1)",
        all(row["inflation"] >= 0.999 for row in faulted),
    )
    result.notes.append(
        "inflation = TTC / fault-free TTC at the same seed; "
        "fault_overhead_s = wasted execution + retry backoff "
        "(+ pilot resubmission downtime, not exercised here)"
    )
    return result


def main() -> None:  # pragma: no cover - convenience runner
    print(fault_ablation().report())


if __name__ == "__main__":  # pragma: no cover
    main()
