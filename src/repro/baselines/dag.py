"""A DAGMan/Pegasus-style generic DAG workflow, as a baseline.

The paper's §II: "DAGMan simply schedules the jobs as per the DAG where
each edge of the DAG specifies the order of precedence"; general workflow
systems make the *user* enumerate every task and every edge.  This module
implements that model faithfully — a named-task DAG executed with maximal
concurrency on the pilot runtime — and helpers that mechanically express
the paper's patterns as DAGs, so the harness can quantify the programming-
model gap (tasks + edges the user owns) while showing execution parity.

The DAG executes through the same driver machinery as the patterns, so
TTC comparisons isolate the model, not the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import networkx as nx

from repro.core.drivers.base import PatternDriver, SubmitRequest
from repro.core.drivers.registry import register_driver
from repro.core.execution_pattern import ExecutionPattern
from repro.exceptions import PatternError
from repro.pilot.states import UnitState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel_plugin import Kernel
    from repro.pilot.unit import ComputeUnit

__all__ = ["DAGWorkflow", "DAGTask", "express_eop_as_dag", "express_sal_as_dag"]


@dataclass
class DAGTask:
    """One node: a kernel factory plus its explicit dependencies."""

    name: str
    kernel_factory: object  # Callable[[], Kernel]
    depends_on: list[str] = field(default_factory=list)


class DAGWorkflow(ExecutionPattern):
    """An explicit task DAG (the general-purpose workflow-system model).

    >>> dag = DAGWorkflow()
    >>> dag.add_task("a", make_kernel_a)
    >>> dag.add_task("b", make_kernel_b, depends_on=["a"])

    Staging placeholder: ``$TASK_<name>`` resolves to the named
    predecessor's sandbox (the dependency must be declared).
    """

    pattern_name = "dag"

    def __init__(self) -> None:
        super().__init__()
        self._tasks: dict[str, DAGTask] = {}

    # -- construction ------------------------------------------------------------

    def add_task(self, name, kernel_factory, depends_on=None) -> "DAGWorkflow":
        if name in self._tasks:
            raise PatternError(f"DAG task {name!r} already exists")
        self._tasks[name] = DAGTask(
            name=name,
            kernel_factory=kernel_factory,
            depends_on=list(depends_on or []),
        )
        return self

    @property
    def task_count(self) -> int:
        return len(self._tasks)

    @property
    def edge_count(self) -> int:
        """Dependency edges the user had to declare explicitly."""
        return sum(len(task.depends_on) for task in self._tasks.values())

    def graph(self) -> "nx.DiGraph":
        graph = nx.DiGraph()
        graph.add_nodes_from(self._tasks)
        for task in self._tasks.values():
            for dependency in task.depends_on:
                graph.add_edge(dependency, task.name)
        return graph

    def validate(self) -> None:
        super().validate()
        if not self._tasks:
            raise PatternError("DAG has no tasks")
        for task in self._tasks.values():
            for dependency in task.depends_on:
                if dependency not in self._tasks:
                    raise PatternError(
                        f"task {task.name!r} depends on unknown task "
                        f"{dependency!r}"
                    )
        if not nx.is_directed_acyclic_graph(self.graph()):
            cycle = nx.find_cycle(self.graph())
            raise PatternError(f"workflow graph has a cycle: {cycle}")

    # -- used by the driver ----------------------------------------------------------

    def get_task(self, name: str) -> DAGTask:
        return self._tasks[name]

    def task_names(self) -> list[str]:
        return list(self._tasks)


class DAGWorkflowDriver(PatternDriver):
    """Executes a :class:`DAGWorkflow` with maximal concurrency.

    A task is submitted the moment its last dependency finishes; a failed
    task cancels (never submits) its whole descendant cone but leaves
    independent branches running — DAGMan's "as much as possible"
    semantics.
    """

    def __init__(self, pattern, handle) -> None:
        super().__init__(pattern, handle)
        self._graph = None
        self._remaining_deps: dict[str, int] = {}
        self._task_uid: dict[str, str] = {}
        self._pending_count = 0

    def start(self) -> None:
        pattern = self.pattern
        self._graph = pattern.graph()
        self._remaining_deps = {
            name: self._graph.in_degree(name) for name in pattern.task_names()
        }
        self._pending_count = pattern.task_count
        roots = [name for name, deps in self._remaining_deps.items() if deps == 0]
        self._submit_tasks(roots)

    def _submit_tasks(self, names: list[str]) -> None:
        requests = []
        for name in names:
            task = self.pattern.get_task(name)
            kernel: "Kernel" = task.kernel_factory()
            placeholders = {
                f"TASK_{dependency}": self._task_uid[dependency]
                for dependency in task.depends_on
            }
            requests.append(
                SubmitRequest(
                    kernel=kernel,
                    tags={"dag_task": name},
                    placeholders=placeholders,
                )
            )
        units = self.submit(requests)
        for name, unit in zip(names, units):
            self._task_uid[name] = unit.uid

    def on_unit_retried(self, old, new) -> None:
        name = old.description.tags.get("dag_task")
        if name is not None:
            self._task_uid[name] = new.uid

    def on_unit_final(self, unit: "ComputeUnit") -> None:
        name = unit.description.tags["dag_task"]
        with self._lock:
            self._pending_count -= 1
            if unit.state is not UnitState.DONE:
                # Prune the descendant cone: those tasks will never run.
                descendants = nx.descendants(self._graph, name)
                not_submitted = [
                    d for d in descendants if d not in self._task_uid
                ]
                for d in not_submitted:
                    self._remaining_deps[d] = -1  # poisoned
                self._pending_count -= len(not_submitted)
                return
            ready = []
            for successor in self._graph.successors(name):
                if self._remaining_deps[successor] < 0:
                    continue
                self._remaining_deps[successor] -= 1
                if self._remaining_deps[successor] == 0:
                    ready.append(successor)
        if unit.state is UnitState.DONE and ready:
            self._submit_tasks(ready)

    @property
    def done(self) -> bool:
        with self._lock:
            return self._pending_count <= 0


register_driver(DAGWorkflow, DAGWorkflowDriver)


# ---------------------------------------------------------------------------
# Mechanical translations of the paper's patterns into the DAG model
# ---------------------------------------------------------------------------


def express_eop_as_dag(eop_pattern) -> DAGWorkflow:
    """Rewrite an EnsembleOfPipelines instance as an explicit DAG.

    What the pattern gives for free, the DAG user must enumerate:
    N*M tasks and N*(M-1) precedence edges, plus hand-rewritten
    ``$STAGE_k`` placeholders.
    """
    dag = DAGWorkflow()
    for instance in range(1, eop_pattern.ensemble_size + 1):
        for stage in range(1, eop_pattern.pipeline_size + 1):
            name = f"p{instance}_s{stage}"
            depends = [f"p{instance}_s{stage - 1}"] if stage > 1 else []

            def factory(s=stage, i=instance):
                kernel = eop_pattern.get_stage(s, i)
                kernel.link_input_data = [
                    entry.replace(f"$STAGE_{s - 1}", f"$TASK_p{i}_s{s - 1}")
                    for entry in kernel.link_input_data
                ]
                kernel.copy_input_data = [
                    entry.replace(f"$STAGE_{s - 1}", f"$TASK_p{i}_s{s - 1}")
                    for entry in kernel.copy_input_data
                ]
                return kernel

            dag.add_task(name, factory, depends_on=depends)
    return dag


def express_sal_as_dag(sal_pattern) -> DAGWorkflow:
    """Rewrite a SimulationAnalysisLoop instance as an explicit DAG.

    The SAL barriers become dense edge sets: every analysis of iteration
    *t* depends on every simulation of *t*; every simulation of *t+1*
    depends on every analysis of *t* — O(iterations * N * M) edges.
    """
    dag = DAGWorkflow()
    for iteration in range(1, sal_pattern.iterations + 1):
        for instance in range(1, sal_pattern.simulation_instances + 1):
            depends = (
                [
                    f"i{iteration - 1}_a{a}"
                    for a in range(1, sal_pattern.analysis_instances + 1)
                ]
                if iteration > 1
                else []
            )

            def sim_factory(t=iteration, i=instance):
                return sal_pattern.get_simulation(t, i)

            dag.add_task(f"i{iteration}_s{instance}", sim_factory,
                         depends_on=depends)
        for instance in range(1, sal_pattern.analysis_instances + 1):
            depends = [
                f"i{iteration}_s{s}"
                for s in range(1, sal_pattern.simulation_instances + 1)
            ]

            def ana_factory(t=iteration, i=instance):
                kernel = sal_pattern.get_analysis(t, i)
                rewritten = []
                for entry in kernel.link_input_data:
                    for s in range(1, sal_pattern.simulation_instances + 1):
                        entry = entry.replace(
                            f"$SIMULATION_{t}_{s}", f"$TASK_i{t}_s{s}"
                        )
                    rewritten.append(entry)
                kernel.link_input_data = rewritten
                return kernel

            dag.add_task(f"i{iteration}_a{instance}", ana_factory,
                         depends_on=depends)
    return dag
