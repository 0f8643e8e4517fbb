"""Fig. 4 — kernel-plugin validation (paper §IV.B).

The SAL pattern with real science kernels — Gromacs simulations and an
LSDMap analysis — over the same 24..192 task/core range on Comet.  The
claim: the toolkit's overheads are unchanged by the switch from utility
kernels (Fig. 3) to MD kernels, i.e. the kernel-plugin abstraction does
not leak workload cost into toolkit cost.
"""

from __future__ import annotations

from repro.analytics.tables import Series
from repro.experiments import fig3
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import run_figure

__all__ = ["run", "points", "report", "TASK_COUNTS", "RESOURCE"]

TASK_COUNTS = (24, 48, 96, 192)
RESOURCE = "xsede.comet"

#: Each task count runs the MD workload, then its char-count reference.
_WORKLOADS = ("GromacsLSDMapSAL", "CharCountSAL")


def points(task_counts=TASK_COUNTS, resource=RESOURCE, seed: int = 0) -> list[dict]:
    return [
        {
            "workload": workload,
            "args": {"instances": n},
            "resource": resource,
            "cores": n,
            "walltime_minutes": 24 * 60.0,
            "seed": seed,
        }
        for n in task_counts
        for workload in _WORKLOADS
    ]


def _row(workload: str, n: int, breakdown: dict) -> dict:
    return {
        "workload": workload,
        "tasks": n,
        "exec_s": breakdown["execution_time"],
        "core_overhead_s": breakdown["core_overhead"],
        "pattern_overhead_s": breakdown["pattern_overhead"],
        "ttc_s": breakdown["ttc"],
    }


def report(points, records) -> ExperimentResult:
    task_counts = tuple(dict.fromkeys(point["cores"] for point in points))
    result = ExperimentResult(
        figure="fig4",
        description="Gromacs-LSDMap via SAL, tasks=cores in "
        f"{task_counts} on {points[0]['resource']}: overheads vs. Fig. 3",
    )
    core_series = result.add_series(
        Series(name="core_overhead", x_label="tasks", y_label="core_s",
               expectation="constant, equal to fig3's")
    )
    pattern_series = result.add_series(
        Series(name="pattern_overhead", x_label="tasks", y_label="overhead_s",
               expectation="grows with tasks, equal to fig3's")
    )
    # Kernel invariance is judged on *per-unit* overhead: the MD workload
    # has n+1 units per configuration (n sims + 1 global analysis) while
    # the utility reference has 2n, so absolute overheads differ by design.
    md_per_unit: list[float] = []
    reference_per_unit: list[float] = []

    for n, md, reference in zip(task_counts, records[::2], records[1::2]):
        md, reference = md["breakdown"], reference["breakdown"]
        core_series.append(n, md["core_overhead"])
        pattern_series.append(n, md["pattern_overhead"])
        md_per_unit.append(md["pattern_overhead"] / md["ntasks"])
        result.rows.append(_row("gromacs-lsdmap", n, md))
        reference_per_unit.append(
            reference["pattern_overhead"] / reference["ntasks"]
        )
        result.rows.append(_row("charcount-reference", n, reference))

    result.claim("EnTK core overhead is constant", core_series.is_constant(0.05))
    result.claim(
        "pattern overhead grows with the task count", pattern_series.is_increasing()
    )
    invariant = all(
        abs(md - ref) <= 0.35 * max(ref, 1e-9)
        for md, ref in zip(md_per_unit, reference_per_unit)
    )
    result.claim(
        "changing kernels does not change EnTK per-task overheads "
        "(Fig. 3 vs Fig. 4)",
        invariant,
    )
    result.notes.append(
        "fig3 companion available via repro.experiments.fig3.run() "
        f"(same machine, sizes {fig3.TASK_COUNTS})"
    )
    return result


def run(**params) -> ExperimentResult:
    """The figure, run serially (*params* as :func:`points` takes them)."""
    return run_figure(points(**params), report)
