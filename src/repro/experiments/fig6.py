"""Fig. 6 — weak scaling of the EE pattern (paper §IV.C.1).

Same Amber temperature-exchange workload on SuperMIC, now with the
problem size per core fixed: replicas = cores, swept 20..2560.  The paper
observes:

1. simulation time is constant (every replica always has its own core),
2. exchange time increases with the replica count (serial global step).
"""

from __future__ import annotations

from repro.analytics.tables import Series
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import run_figure

__all__ = ["run", "points", "report", "REPLICA_COUNTS", "RESOURCE"]

REPLICA_COUNTS = (20, 40, 80, 160, 320, 640, 1280, 2560)
RESOURCE = "xsede.supermic"


def points(
    replica_counts=REPLICA_COUNTS,
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
            "cores": replicas,
            "walltime_minutes": 12 * 60.0,
            "seed": seed,
        }
        for replicas in replica_counts
    ]


def report(points, records) -> ExperimentResult:
    result = ExperimentResult(
        figure="fig6",
        description=f"EE weak scaling: replicas = cores in "
        f"{tuple(point['cores'] for point in points)} on "
        f"{points[0]['resource']}",
    )
    sim_series = result.add_series(
        Series(name="simulation", x_label="replicas", y_label="sim_s",
               expectation="constant (fixed problem size per core)")
    )
    exchange_series = result.add_series(
        Series(name="exchange", x_label="replicas", y_label="exchange_s",
               expectation="grows with the replica count")
    )

    for point, record in zip(points, records):
        replicas = point["cores"]
        sim_time = record["phases"].get("md.amber", 0.0)
        exchange_time = record["phases"].get("exchange.temperature", 0.0)
        sim_series.append(replicas, sim_time)
        exchange_series.append(replicas, exchange_time)
        result.rows.append(
            {
                "replicas": replicas,
                "cores": replicas,
                "sim_s": sim_time,
                "exchange_s": exchange_time,
            }
        )

    result.claim(
        "simulation time is constant (linear weak scaling)",
        sim_series.is_constant(tolerance=0.1),
    )
    result.claim(
        "exchange time grows with the replica count",
        exchange_series.is_increasing(),
    )
    return result


def run(**params) -> ExperimentResult:
    """The figure, run serially (*params* as :func:`points` takes them)."""
    return run_figure(points(**params), report)
