"""Fig. 9 — MPI capability of Ensemble toolkit (paper §IV.C.3).

Amber-CoCo via SAL on (simulated) Stampede with 64 concurrent simulations
of 6 ps each, varying the cores *per simulation* through {1, 16, 32, 64}
(total cores 64..4096).  The paper observes that simulation execution time
drops linearly with the per-simulation core count — i.e. multi-core (MPI)
units are first-class and the toolkit's overheads depend on task *count*,
not task *size*.
"""

from __future__ import annotations

from repro.analytics.tables import Series
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import run_figure

__all__ = ["run", "points", "report", "CORES_PER_SIM", "SIMULATIONS", "RESOURCE"]

SIMULATIONS = 64
CORES_PER_SIM = (1, 16, 32, 64)
RESOURCE = "xsede.stampede"


def points(
    simulations: int = SIMULATIONS,
    cores_per_sim=CORES_PER_SIM,
    resource: str = RESOURCE,
    duration_ps: float = 6.0,
    seed: int = 0,
) -> list[dict]:
    return [
        {
            "workload": "AmberCoCoSAL",
            "args": {"instances": simulations, "iterations": 1,
                     "duration_ps": duration_ps, "cores_per_simulation": k},
            "resource": resource,
            "cores": simulations * k,
            "walltime_minutes": 12 * 60.0,
            "seed": seed,
        }
        for k in cores_per_sim
    ]


def report(points, records) -> ExperimentResult:
    args = points[0]["args"]
    simulations = args["instances"]
    widths = tuple(point["args"]["cores_per_simulation"] for point in points)
    result = ExperimentResult(
        figure="fig9",
        description=f"MPI capability: {simulations} sims of "
        f"{args['duration_ps']} ps, cores/sim in {widths} on "
        f"{points[0]['resource']}",
    )
    sim_series = result.add_series(
        Series(name="simulation", x_label="cores_per_sim", y_label="sim_s",
               expectation="drops linearly with cores per simulation")
    )

    for point, record in zip(points, records):
        k = point["args"]["cores_per_simulation"]
        sim_time = record["phases"].get("md.amber", 0.0)
        sim_series.append(k, sim_time)
        result.rows.append(
            {
                "simulations": simulations,
                "cores_per_sim": k,
                "total_cores": point["cores"],
                "sim_s": sim_time,
            }
        )

    result.claim(
        "simulation time drops linearly with cores per simulation",
        sim_series.halves_per_doubling(tolerance=0.25),
    )
    result.claim(
        "every MPI width executed successfully at O(1000) total cores",
        len(sim_series) == len(widths),
    )
    return result


def run(**params) -> ExperimentResult:
    """The figure, run serially (*params* as :func:`points` takes them)."""
    return run_figure(points(**params), report)
