"""The workload (pattern) classes used across the paper's experiments.

These are complete, runnable EnTK applications — the same classes serve the
examples, the tests and the benchmark harness.
"""

from __future__ import annotations

from repro.core.kernel_plugin import Kernel
from repro.core.patterns.bag_of_tasks import BagOfTasks
from repro.core.patterns.ensemble_exchange import EnsembleExchange
from repro.core.patterns.pipeline import EnsembleOfPipelines
from repro.core.patterns.simulation_analysis_loop import SimulationAnalysisLoop
from repro.kernels.md import STEPS_PER_PS

__all__ = [
    "CharCountPipeline",
    "CharCountSAL",
    "CharCountEE",
    "GromacsLSDMapSAL",
    "AmberTemperatureREMD",
    "AmberCoCoSAL",
    "SleepBag",
]

#: File size of the characterization workload (paper §IV.A).
CHARCOUNT_SIZE = 1000


def _mkfile_kernel() -> Kernel:
    kernel = Kernel(name="misc.mkfile")
    kernel.arguments = [f"--size={CHARCOUNT_SIZE}", "--filename=output.txt"]
    return kernel


def _ccount_kernel(source_token: str) -> Kernel:
    kernel = Kernel(name="misc.ccount")
    kernel.arguments = ["--inputfile=input.txt", "--outputfile=ccount.txt"]
    kernel.link_input_data = [f"{source_token}/output.txt > input.txt"]
    return kernel


class CharCountPipeline(EnsembleOfPipelines):
    """The paper's two-stage character-count app as an ensemble of pipelines."""

    def __init__(self, ensemble_size: int) -> None:
        super().__init__(ensemble_size=ensemble_size, pipeline_size=2)

    def stage_1(self, instance: int) -> Kernel:
        return _mkfile_kernel()

    def stage_2(self, instance: int) -> Kernel:
        return _ccount_kernel("$STAGE_1")


class CharCountSAL(SimulationAnalysisLoop):
    """The character-count app mapped onto the SAL pattern.

    Stage 1 (simulation): mkfile per instance; stage 2 (analysis): ccount
    per instance over the matching simulation's file.  One iteration.
    """

    def __init__(self, instances: int) -> None:
        super().__init__(
            iterations=1,
            simulation_instances=instances,
            analysis_instances=instances,
        )

    def simulation_stage(self, iteration: int, instance: int) -> Kernel:
        return _mkfile_kernel()

    def analysis_stage(self, iteration: int, instance: int) -> Kernel:
        return _ccount_kernel(f"$SIMULATION_{iteration}_{instance}")


class CharCountEE(EnsembleExchange):
    """The character-count app mapped onto the EE pattern.

    Simulation stage: mkfile per member; exchange stage: ccount over the
    pair's files (pairwise, temporally unsynchronized — members count as
    soon as a partner is ready).  One iteration.
    """

    def __init__(self, ensemble_size: int) -> None:
        super().__init__(
            ensemble_size=ensemble_size, iterations=1, exchange_mode="pairwise"
        )

    def simulation_stage(self, iteration: int, instance: int) -> Kernel:
        return _mkfile_kernel()

    def exchange_stage(self, iteration: int, instances) -> Kernel:
        first = instances[0]
        return _ccount_kernel(f"$REPLICA_{first}")


class GromacsLSDMapSAL(SimulationAnalysisLoop):
    """The paper's Fig. 4 workload: Gromacs simulations + LSDMap analysis."""

    def __init__(
        self,
        instances: int,
        iterations: int = 1,
        nsteps: int = 300,
        stride: int = 10,
    ) -> None:
        super().__init__(
            iterations=iterations,
            simulation_instances=instances,
            analysis_instances=1,
        )
        self.nsteps = nsteps
        self.stride = stride

    def simulation_stage(self, iteration: int, instance: int) -> Kernel:
        kernel = Kernel(name="md.gromacs")
        kernel.arguments = [
            f"--nsteps={self.nsteps}",
            f"--stride={self.stride}",
            "--system=ala2-2d",
            "--outfile=trajectory.npz",
            f"--seed={1000 * iteration + instance}",
        ]
        if iteration > 1:
            kernel.arguments.append("--startfile=previous.npz")
            kernel.link_input_data = [
                f"$SIMULATION_{iteration - 1}_{instance}/trajectory.npz > previous.npz"
            ]
        return kernel

    def analysis_stage(self, iteration: int, instance: int) -> Kernel:
        kernel = Kernel(name="analysis.lsdmap")
        total_frames = self.simulation_instances * (self.nsteps // self.stride)
        kernel.arguments = [
            "--pattern=traj_*.npz",
            "--outfile=lsdmap.npz",
            f"--nframes={total_frames}",
        ]
        kernel.link_input_data = [
            f"$SIMULATION_{iteration}_{i}/trajectory.npz > traj_{i:04d}.npz"
            for i in range(1, self.simulation_instances + 1)
        ]
        return kernel


class AmberTemperatureREMD(EnsembleExchange):
    """The paper's Fig. 5/6 workload: Amber + temperature exchange.

    2881-atom alanine dipeptide (toy-MD backed), each replica simulated
    ``duration_ps`` on one core, then a global temperature exchange whose
    serial cost grows with the replica count.
    """

    def __init__(
        self,
        replicas: int,
        iterations: int = 1,
        duration_ps: float = 6.0,
        t_min: float = 1.0,
        t_max: float = 4.0,
    ) -> None:
        super().__init__(
            ensemble_size=replicas, iterations=iterations, exchange_mode="global"
        )
        self.duration_ps = duration_ps
        self.t_min = t_min
        self.t_max = t_max

    def simulation_stage(self, iteration: int, instance: int) -> Kernel:
        kernel = Kernel(name="md.amber")
        kernel.arguments = [
            f"--duration-ps={self.duration_ps}",
            "--system=ala2-2d",
            "--outfile=replica.npz",
            f"--seed={1000 * iteration + instance}",
        ]
        if iteration > 1:
            kernel.arguments.append("--startfile=previous.npz")
            kernel.link_input_data = [
                "$PREV_SIMULATION/replica.npz > previous.npz"
            ]
        return kernel

    def exchange_stage(self, iteration: int, instances) -> Kernel:
        kernel = Kernel(name="exchange.temperature")
        kernel.arguments = [
            "--mode=global",
            "--pattern=replica_*.npz",
            f"--tmin={self.t_min}",
            f"--tmax={self.t_max}",
            f"--phase={iteration % 2}",
            "--outfile=exchange.npz",
            f"--nreplicas={len(instances)}",
        ]
        kernel.link_input_data = [
            f"$REPLICA_{i}/replica.npz > replica_{i:05d}.npz" for i in instances
        ]
        return kernel


class AmberCoCoSAL(SimulationAnalysisLoop):
    """The paper's Fig. 7/8/9 workload: Amber simulations + serial CoCo.

    ``cores_per_simulation > 1`` turns the simulations into MPI units
    (Fig. 9's capability demonstration).
    """

    def __init__(
        self,
        instances: int,
        iterations: int = 1,
        duration_ps: float = 0.6,
        cores_per_simulation: int = 1,
        stride: int = 10,
    ) -> None:
        super().__init__(
            iterations=iterations,
            simulation_instances=instances,
            analysis_instances=1,
        )
        self.duration_ps = duration_ps
        self.cores_per_simulation = cores_per_simulation
        self.stride = stride

    @property
    def nsteps(self) -> int:
        return max(int(self.duration_ps * STEPS_PER_PS), 1)

    def simulation_stage(self, iteration: int, instance: int) -> Kernel:
        kernel = Kernel(name="md.amber")
        kernel.arguments = [
            f"--nsteps={self.nsteps}",
            f"--stride={self.stride}",
            "--system=ala2-2d",
            "--outfile=trajectory.npz",
            f"--seed={1000 * iteration + instance}",
        ]
        kernel.cores = self.cores_per_simulation
        kernel.uses_mpi = self.cores_per_simulation > 1
        if iteration > 1:
            kernel.arguments += [
                "--startfile=coco.npz",
                f"--startindex={instance - 1}",
            ]
            kernel.link_input_data = ["$PREV_ANALYSIS/coco.npz"]
        return kernel

    def analysis_stage(self, iteration: int, instance: int) -> Kernel:
        kernel = Kernel(name="analysis.coco")
        total_frames = self.simulation_instances * max(self.nsteps // self.stride, 1)
        kernel.arguments = [
            "--pattern=traj_*.npz",
            "--outfile=coco.npz",
            f"--npoints={self.simulation_instances}",
            f"--nframes={total_frames}",
        ]
        kernel.link_input_data = [
            f"$SIMULATION_{iteration}_{i}/trajectory.npz > traj_{i:05d}.npz"
            for i in range(1, self.simulation_instances + 1)
        ]
        return kernel


class SleepBag(BagOfTasks):
    """N identical fixed-duration tasks (the ablations' workload)."""

    def __init__(self, size: int, duration: float) -> None:
        super().__init__(size=size)
        self.duration = duration

    def task(self, instance: int) -> Kernel:
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = [f"--duration={self.duration}"]
        return kernel
