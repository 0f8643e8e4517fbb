"""The benchmark's applications, their analysis and their output checks.

Importing this module imports the toolkit, so a worker imports it only
after starting its set-up clock.  Everything here is what a user of the
toolkit would write: pattern subclasses, a resource handle, and the
analysis calls of the paper's figures.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import (
    BagOfTasks,
    EnsembleOfPipelines,
    SimulationAnalysisLoop,
)
from repro.core.profiler import breakdown_from_profile
from repro.core.resource_handle import ResourceHandle
from repro.exceptions import PatternError
from repro.pilot.retry import RetryPolicy
from repro.pilot.states import UnitState
from repro.telemetry.analysis import critical_path
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.span import SpanBuilder


def _sleep(seconds: float, cores: int = 1) -> Kernel:
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={seconds}"]
    kernel.cores = cores
    kernel.uses_mpi = cores > 1
    return kernel


def _mkfile(size: int) -> Kernel:
    kernel = Kernel(name="misc.mkfile")
    kernel.arguments = [f"--size={size}", "--filename=output.txt"]
    return kernel


def _ccount(source_token: str) -> Kernel:
    kernel = Kernel(name="misc.ccount")
    kernel.arguments = ["--inputfile=input.txt", "--outputfile=ccount.txt"]
    kernel.link_input_data = [f"{source_token}/output.txt > input.txt"]
    return kernel


class SleepPipelines(EnsembleOfPipelines):
    """Two-stage sleep pipelines, the shape of the scale-envelope runs."""

    def __init__(self, pipelines: int, durations: list[int]) -> None:
        super().__init__(ensemble_size=pipelines, pipeline_size=2)
        self.durations = durations

    def stage_1(self, instance: int) -> Kernel:
        return _sleep(self.durations[0])

    def stage_2(self, instance: int) -> Kernel:
        return _sleep(self.durations[1])


class CharCountLoop(SimulationAnalysisLoop):
    """The character-count application as a one-iteration SAL."""

    def __init__(self, instances: int, size: int) -> None:
        super().__init__(iterations=1, simulation_instances=instances,
                         analysis_instances=instances)
        self.size = size

    def simulation_stage(self, iteration: int, instance: int) -> Kernel:
        return _mkfile(self.size)

    def analysis_stage(self, iteration: int, instance: int) -> Kernel:
        return _ccount(f"$SIMULATION_{iteration}_{instance}")


class SleepBag(BagOfTasks):
    """A bag of sleeps whose widths and durations are given, not drawn."""

    def __init__(self, tasks: list[tuple[int, float]]) -> None:
        super().__init__(size=len(tasks))
        self.tasks = tasks

    def task(self, instance: int) -> Kernel:
        cores, seconds = self.tasks[instance - 1]
        return _sleep(seconds, cores)


def make_handle(name: str, params: dict, workdir: Path, seed: int) -> ResourceHandle:
    """The resource handle of workload *name* (not yet allocated)."""
    if name == "envelope_bulk":
        return ResourceHandle(
            "ncsa.bluewaters", cores=params["cores"], walltime=24 * 60,
            mode="sim", seed=seed, bulk_lifecycle=True,
            spool_dir=workdir / "spool",
        )
    if name == "figure_classic":
        return ResourceHandle(
            "xsede.comet", cores=params["cores"], walltime=24 * 60,
            mode="sim", seed=seed, spool_dir=workdir / "spool",
        )
    return ResourceHandle(
        "xsede.stampede", cores=params["cores"], walltime=48 * 60,
        mode="sim", seed=seed, slot_strategy="contiguous",
        node_mtbf=params["node_mtbf"],
        node_repair_time=params["node_repair_time"],
        retry_policy=RetryPolicy(max_attempts=20, backoff_base=1.0,
                                 backoff_cap=30.0),
    )


def make_pattern(name: str, params: dict):
    if name == "envelope_bulk":
        return SleepPipelines(params["pipelines"], params["durations"])
    if name == "figure_classic":
        return CharCountLoop(params["instances"], params["size"])
    return SleepBag(params["tasks"])


def run(handle: ResourceHandle, pattern) -> str | None:
    """Run *pattern*; returns the failure message instead of raising it."""
    try:
        handle.run(pattern)
    except PatternError as exc:
        return str(exc)
    return None


def analyse(name: str, handle: ResourceHandle, pattern) -> dict:
    """The timed analysis: Fig. 3 breakdown, plus the full trace analysis
    (span tree, critical path, metric series) on ``figure_classic``."""
    breakdown = breakdown_from_profile(handle.profile, pattern)
    out = {"breakdown_ttc": breakdown.ttc}
    if name == "figure_classic":
        tree = SpanBuilder().add_events(handle.profile).build()
        path = critical_path(tree, pattern.uid)
        registry = MetricsRegistry.from_events(handle.profile)
        out["path_total"] = path.total
        out["metric_series"] = len(registry.names())
    return out


def outcome(name: str, params: dict, handle: ResourceHandle, pattern,
            analysis: dict, error: str | None) -> dict:
    """What the run produced, and every output check that failed."""
    units = list(pattern.units)
    done = sum(u.state is UnitState.DONE for u in units)
    expected = {
        "envelope_bulk": 2 * params.get("pipelines", 0),
        "figure_classic": 2 * params.get("instances", 0),
        "sched_faults": len(params.get("tasks", ())),
    }[name]
    failures = []
    if error is not None:
        failures.append(f"run failed: {error}")
    if len(units) != expected:
        failures.append(f"{len(units)} units, expected {expected}")
    not_final = sum(not u.state.is_final for u in units)
    if not_final:
        failures.append(f"{not_final} units never reached a final state")
    result = {
        "units": max(len(units), expected),
        "done": done,
        "unit_fail_frac": (expected - done) / expected if expected else 1.0,
        "sim_ttc_s": handle.session.now(),
    }
    if name == "figure_classic" and "path_total" in analysis:
        if analysis["path_total"] != analysis["breakdown_ttc"]:
            failures.append(
                f"critical path total {analysis['path_total']!r} != "
                f"breakdown TTC {analysis['breakdown_ttc']!r}"
            )
        if not analysis["metric_series"]:
            failures.append("no metric series in the trace")
    if name == "sched_faults":
        result["requeues"] = len(handle.profile.events("unit_requeue"))
        result["node_failures"] = len(handle.profile.events("node_fail"))
        if not result["node_failures"]:
            failures.append("no node failed: the fault path was not exercised")
    result["failures"] = failures
    return result

