"""Fig. 8 — weak scaling of the SAL pattern (paper §IV.C.2).

Amber + CoCo on (simulated) Stampede with simulations = cores swept
64..4096, one iteration.  The paper observes:

1. simulation time is constant (one core per simulation at every scale),
2. analysis time increases with the simulation count (serial CoCo).

The paper adds that the analysis kernel's absolute performance is
"unrelated to the scalability of Ensemble toolkit" — the toolkit's own
overheads stay proportional to task count regardless.
"""

from __future__ import annotations

from repro.analytics.tables import Series
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import run_figure

__all__ = ["run", "points", "report", "SIM_COUNTS", "RESOURCE"]

SIM_COUNTS = (64, 128, 256, 512, 1024, 2048, 4096)
RESOURCE = "xsede.stampede"


def points(
    sim_counts=SIM_COUNTS,
    resource: str = RESOURCE,
    duration_ps: float = 0.6,
    seed: int = 0,
) -> list[dict]:
    return [
        {
            "workload": "AmberCoCoSAL",
            "args": {"instances": sims, "iterations": 1,
                     "duration_ps": duration_ps},
            "resource": resource,
            "cores": sims,
            "walltime_minutes": 12 * 60.0,
            "seed": seed,
        }
        for sims in sim_counts
    ]


def report(points, records) -> ExperimentResult:
    result = ExperimentResult(
        figure="fig8",
        description="SAL weak scaling: sims = cores in "
        f"{tuple(point['cores'] for point in points)} "
        f"on {points[0]['resource']}",
    )
    sim_series = result.add_series(
        Series(name="simulation", x_label="simulations", y_label="sim_s",
               expectation="constant (fixed problem size per core)")
    )
    analysis_series = result.add_series(
        Series(name="analysis", x_label="simulations", y_label="analysis_s",
               expectation="grows with the simulation count")
    )

    for point, record in zip(points, records):
        sims = point["cores"]
        sim_time = record["phases"].get("md.amber", 0.0)
        analysis_time = record["phases"].get("analysis.coco", 0.0)
        sim_series.append(sims, sim_time)
        analysis_series.append(sims, analysis_time)
        result.rows.append(
            {
                "simulations": sims,
                "cores": sims,
                "sim_s": sim_time,
                "analysis_s": analysis_time,
            }
        )

    result.claim(
        "simulation time is constant (linear weak scaling)",
        sim_series.is_constant(tolerance=0.1),
    )
    result.claim(
        "analysis time grows with the simulation count",
        analysis_series.is_increasing() and analysis_series.grows_linearly(),
    )
    return result


def run(**params) -> ExperimentResult:
    """The figure, run serially (*params* as :func:`points` takes them)."""
    return run_figure(points(**params), report)
