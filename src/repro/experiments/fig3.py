"""Fig. 3 — characterization of the three execution patterns (paper §IV.A).

The two-stage character-count application (mkfile -> ccount) is run with
all three patterns on (simulated) XSEDE Comet, with tasks = cores in
{24, 48, 96, 192}.  The paper's observations to reproduce:

1. application execution times are similar across patterns and roughly
   constant across configurations (all tasks run concurrently),
2. the EnTK *core overhead* is constant (independent of pattern/scale),
3. the EnTK *pattern overhead* grows with the number of tasks.
"""

from __future__ import annotations

from repro.analytics.tables import Series
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import run_figure

__all__ = ["run", "points", "report", "TASK_COUNTS", "RESOURCE"]

TASK_COUNTS = (24, 48, 96, 192)
RESOURCE = "xsede.comet"

#: Pattern name -> its char-count workload class and that class's size
#: argument.
_PATTERNS = {
    "pipeline": ("CharCountPipeline", "ensemble_size"),
    "sal": ("CharCountSAL", "instances"),
    "ee": ("CharCountEE", "ensemble_size"),
}


def points(task_counts=TASK_COUNTS, resource=RESOURCE, seed: int = 0) -> list[dict]:
    return [
        {
            "workload": workload,
            "args": {size: n},
            "resource": resource,
            "cores": n,
            "walltime_minutes": 24 * 60.0,
            "seed": seed,
        }
        for n in task_counts
        for workload, size in _PATTERNS.values()
    ]


def report(points, records) -> ExperimentResult:
    task_counts = tuple(dict.fromkeys(point["cores"] for point in points))
    resource = points[0]["resource"]
    result = ExperimentResult(
        figure="fig3",
        description="char-count app under pipeline/SAL/EE patterns, "
        f"tasks=cores in {task_counts} on {resource}",
    )
    exec_series = {
        name: result.add_series(
            Series(name=f"exec:{name}", x_label="tasks", y_label="exec_s",
                   expectation="similar across patterns, ~constant")
        )
        for name in _PATTERNS
    }
    core_series = result.add_series(
        Series(name="core_overhead", x_label="tasks", y_label="core_s",
               expectation="constant")
    )
    pattern_series = {
        name: result.add_series(
            Series(name=f"pattern_overhead:{name}", x_label="tasks",
                   y_label="overhead_s", expectation="grows with tasks")
        )
        for name in _PATTERNS
    }

    names = {workload: name for name, (workload, _) in _PATTERNS.items()}
    for point, record in zip(points, records):
        name, n = names[point["workload"]], point["cores"]
        breakdown = record["breakdown"]
        exec_series[name].append(n, breakdown["execution_time"])
        pattern_series[name].append(n, breakdown["pattern_overhead"])
        if name == "pipeline":
            core_series.append(n, breakdown["core_overhead"])
        result.rows.append(
            {
                "pattern": name,
                "tasks": n,
                "cores": n,
                "exec_s": breakdown["execution_time"],
                "core_overhead_s": breakdown["core_overhead"],
                "pattern_overhead_s": breakdown["pattern_overhead"],
                "ttc_s": breakdown["ttc"],
            }
        )

    # -- the paper's claims ------------------------------------------------------
    for name, series in exec_series.items():
        result.claim(
            f"execution time of {name} is ~constant across configurations",
            series.is_constant(tolerance=0.35),
        )
    means = [sum(s.y) / len(s.y) for s in exec_series.values()]
    result.claim(
        "execution times are similar across the three patterns",
        max(means) <= 1.6 * min(means),
    )
    result.claim("EnTK core overhead is constant", core_series.is_constant(0.05))
    for name, series in pattern_series.items():
        result.claim(
            f"EnTK pattern overhead of {name} grows with the task count",
            series.is_increasing(),
        )
    return result


def run(**params) -> ExperimentResult:
    """The figure, run serially (*params* as :func:`points` takes them)."""
    return run_figure(points(**params), report)
