"""Fig. 7 — strong scaling of the SAL pattern (paper §IV.C.2).

Amber + CoCo (iterative collective coordinates) on (simulated) Stampede:
1024 simulations of 0.6 ps each on one core, cores swept 64..1024, one
SAL iteration.  The paper observes:

1. simulation time decreases linearly with the core count,
2. analysis (serial CoCo over all simulations) time is constant — it
   depends on the simulation count, which is fixed.
"""

from __future__ import annotations

from repro.analytics.tables import Series
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import run_figure

__all__ = ["run", "points", "report", "CORE_COUNTS", "SIMULATIONS", "RESOURCE"]

SIMULATIONS = 1024
CORE_COUNTS = (64, 128, 256, 512, 1024)
RESOURCE = "xsede.stampede"


def points(
    simulations: int = SIMULATIONS,
    core_counts=CORE_COUNTS,
    resource: str = RESOURCE,
    duration_ps: float = 0.6,
    seed: int = 0,
) -> list[dict]:
    return [
        {
            "workload": "AmberCoCoSAL",
            "args": {"instances": simulations, "iterations": 1,
                     "duration_ps": duration_ps},
            "resource": resource,
            "cores": cores,
            "walltime_minutes": 12 * 60.0,
            "seed": seed,
        }
        for cores in core_counts
    ]


def report(points, records) -> ExperimentResult:
    simulations = points[0]["args"]["instances"]
    result = ExperimentResult(
        figure="fig7",
        description=f"SAL strong scaling: {simulations} Amber-CoCo sims, "
        f"cores in {tuple(point['cores'] for point in points)} on "
        f"{points[0]['resource']}",
    )
    sim_series = result.add_series(
        Series(name="simulation", x_label="cores", y_label="sim_s",
               expectation="decreases linearly with cores")
    )
    analysis_series = result.add_series(
        Series(name="analysis", x_label="cores", y_label="analysis_s",
               expectation="constant (serial, depends on sim count)")
    )

    for point, record in zip(points, records):
        phases = record["phases"]
        row = {
            "simulations": simulations,
            "cores": point["cores"],
            "sim_s": phases.get("md.amber", 0.0),
            "analysis_s": phases.get("analysis.coco", 0.0),
        }
        sim_series.append(row["cores"], row["sim_s"])
        analysis_series.append(row["cores"], row["analysis_s"])
        result.rows.append(row)

    result.claim(
        "simulation time decreases linearly with the core count",
        sim_series.halves_per_doubling(tolerance=0.2),
    )
    result.claim(
        "analysis time is constant across core counts",
        analysis_series.is_constant(tolerance=0.1),
    )
    return result


def run(**params) -> ExperimentResult:
    """The figure, run serially (*params* as :func:`points` takes them)."""
    return run_figure(points(**params), report)
