"""Fig. 5 — strong scaling of the EE pattern (paper §IV.C.1).

Amber + temperature exchange on (simulated) SuperMIC: 2560 replicas of
solvated alanine dipeptide, 6 ps per replica on one core each, with the
core count swept 20..2560.  The paper observes:

1. simulation time halves when the core count doubles (waves of
   concurrent replicas),
2. exchange time is constant — it depends on the replica count, which is
   fixed here.
"""

from __future__ import annotations

from repro.analytics.tables import Series
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import run_figure

__all__ = ["run", "points", "report", "CORE_COUNTS", "REPLICAS", "RESOURCE"]

REPLICAS = 2560
CORE_COUNTS = (20, 40, 80, 160, 320, 640, 1280, 2560)
RESOURCE = "xsede.supermic"


def points(
    replicas: int = REPLICAS,
    core_counts=CORE_COUNTS,
    resource: str = RESOURCE,
    duration_ps: float = 6.0,
    seed: int = 0,
) -> list[dict]:
    return [
        {
            "workload": "AmberTemperatureREMD",
            "args": {"replicas": replicas, "iterations": 1,
                     "duration_ps": duration_ps},
            "resource": resource,
            "cores": cores,
            "walltime_minutes": 47 * 60.0,
            "seed": seed,
        }
        for cores in core_counts
    ]


def report(points, records) -> ExperimentResult:
    replicas = points[0]["args"]["replicas"]
    result = ExperimentResult(
        figure="fig5",
        description=f"EE strong scaling: {replicas} replicas, cores in "
        f"{tuple(point['cores'] for point in points)} on "
        f"{points[0]['resource']}",
    )
    sim_series = result.add_series(
        Series(name="simulation", x_label="cores", y_label="sim_s",
               expectation="halves per core doubling")
    )
    exchange_series = result.add_series(
        Series(name="exchange", x_label="cores", y_label="exchange_s",
               expectation="constant (depends on replica count only)")
    )

    for point, record in zip(points, records):
        phases = record["phases"]
        row = {
            "replicas": replicas,
            "cores": point["cores"],
            "sim_s": phases.get("md.amber", 0.0),
            "exchange_s": phases.get("exchange.temperature", 0.0),
        }
        sim_series.append(row["cores"], row["sim_s"])
        exchange_series.append(row["cores"], row["exchange_s"])
        result.rows.append(row)

    result.claim(
        "simulation time halves when cores double (linear strong scaling)",
        sim_series.halves_per_doubling(tolerance=0.2),
    )
    result.claim(
        "exchange time is constant across core counts",
        exchange_series.is_constant(tolerance=0.15),
    )
    return result


def run(**params) -> ExperimentResult:
    """The figure, run serially (*params* as :func:`points` takes them)."""
    return run_figure(points(**params), report)
