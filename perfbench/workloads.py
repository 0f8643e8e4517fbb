"""The benchmark workloads and their seeded inputs.

Each workload is one closed-loop client: one process submits one pattern
and waits for it to finish.  This module holds only the definitions and
the input generator; it imports nothing from ``repro``, so the
orchestrator can read it without paying the toolkit's import cost.

``inputs(name, seed, scale)`` is the only place a seed turns into
workload inputs.  The pattern classes in :mod:`apps` receive the
generated values and nothing else.

Sizes are small on purpose: a run reports the fastest of many short
passes (see ``run.end_to_end``), and more passes steady that minimum on
a shared host better than longer ones do.
"""

from __future__ import annotations

import random

#: The seed whose outcomes are pinned in ``pinned.json``.
PINNED_SEED = 1

#: Scales: ``full`` is what the benchmark measures; ``tiny`` is the
#: same workload shrunk for the benchmark's own tests.
SCALES = ("full", "tiny")

WORKLOADS: dict[str, dict] = {
    "envelope_bulk": {
        "why": "The million-unit path: bulk lifecycle with a spool, where "
               "host time goes to unit_store, kernel, drivers, slots and "
               "agent, and profiler and analytics cost almost nothing.",
        "units": {"full": 12_000, "tiny": 400},
    },
    "figure_classic": {
        "why": "The published-figure path: per-unit lifecycle with a spooled "
               "trace that is written during the run and read back by the "
               "full analysis, so cheaper writes that make reads dearer show.",
        "units": {"full": 200, "tiny": 40},
    },
    "sched_faults": {
        "why": "Scheduling under failures: mixed-width MPI and serial tasks "
               "on a pilot smaller than the demand, with node failures and "
               "retries, so agent, slots and unit_store dominate.",
        "units": {"full": 500, "tiny": 60},
    },
}


def inputs(name: str, seed: int, scale: str = "full") -> dict:
    """The generated inputs of workload *name* for *seed*.

    The same (name, seed, scale) always gives the same dict.  Host work
    depends on the seed only through these values.
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}")
    rng = random.Random(f"{name}:{seed}")
    units = WORKLOADS[name]["units"][scale]
    if name == "envelope_bulk":
        # Every pipeline shares its stage durations, so the bulk path
        # moves homogeneous batches whatever the seed.
        return {
            "pipelines": units // 2,
            "durations": [rng.randint(30, 50), rng.randint(10, 30)],
            "cores": 10_016,
        }
    if name == "figure_classic":
        return {
            "instances": units // 2,
            "size": rng.randint(500, 1500),
            "cores": min(units // 2, 240),
        }
    # Stratified draws: every seed gets each width from 1 to 16 equally
    # often and durations spread evenly over 5-40 s, in its own order and
    # with its own jitter, so that the host work of a run depends on the
    # seed as little as the node failures allow.
    widths = [1 + i % 16 for i in range(units)]
    durations = [round(5.0 + 35.0 * (i + rng.random()) / units, 3)
                 for i in range(units)]
    rng.shuffle(widths)
    rng.shuffle(durations)
    return {
        "tasks": list(zip(widths, durations)),
        "cores": 1024 if scale == "full" else 128,
        "node_mtbf": 200.0,
        "node_repair_time": 120.0,
    }
