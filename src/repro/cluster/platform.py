"""Static descriptions of compute platforms."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["NodeSpec", "PlatformSpec"]


@dataclass(frozen=True)
class NodeSpec:
    """Hardware of one (homogeneous) compute node."""

    cores: int
    memory_gb: float
    #: Relative per-core speed; 1.0 is the reference (Comet's Haswell).
    #: Modelled task durations are divided by this factor.
    core_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError("node must have at least one core")
        if self.memory_gb <= 0:
            raise ConfigurationError("node memory must be positive")
        if self.core_speed <= 0:
            raise ConfigurationError("core_speed must be positive")


@dataclass(frozen=True)
class PlatformSpec:
    """Everything the simulator needs to know about a machine.

    The latency fields are the per-platform knobs of the overhead models;
    they were chosen to land in the same ballpark as the RADICAL-Pilot
    characterization the paper cites [27], not fitted to the paper's plots.
    """

    name: str
    nodes: int
    node: NodeSpec
    #: Mean batch-queue wait for a pilot job, seconds.  The scaling
    #: experiments in the paper report in-allocation times only, so the
    #: default profiles use small values; the pilot-vs-batch ablation
    #: raises it.
    mean_queue_wait: float = 30.0
    #: Batch system submit latency (qsub round trip), seconds.
    submit_latency: float = 1.0
    #: Time for the pilot agent to bootstrap inside the allocation, seconds.
    agent_bootstrap: float = 15.0
    #: Per-unit launch overhead inside the agent (process spawn, env setup).
    unit_launch_overhead: float = 0.05
    #: Shared filesystem bandwidth, bytes/second.
    fs_bandwidth: float = 1e9
    #: Round-trip latency client <-> resource (task submission path), s.
    network_rtt: float = 0.05
    #: Scheduler queue policy limits.
    max_walltime: float = 48 * 3600.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ConfigurationError("platform must have at least one node")
        for attr in (
            "mean_queue_wait",
            "submit_latency",
            "agent_bootstrap",
            "unit_launch_overhead",
            "network_rtt",
        ):
            if getattr(self, attr) < 0:
                raise ConfigurationError(f"{attr} must be non-negative")
        if self.fs_bandwidth <= 0:
            raise ConfigurationError("fs_bandwidth must be positive")

    # -- derived quantities --------------------------------------------------

    @property
    def total_cores(self) -> int:
        return self.nodes * self.node.cores

    @property
    def cores_per_node(self) -> int:
        return self.node.cores

    def nodes_for_cores(self, cores: int) -> int:
        """Smallest whole-node allocation holding *cores* cores."""
        if cores <= 0:
            raise ConfigurationError("core request must be positive")
        return math.ceil(cores / self.node.cores)

    def replace(self, **overrides) -> "PlatformSpec":
        """Return a copy with *overrides* applied (dataclass ``replace``)."""
        import dataclasses

        return dataclasses.replace(self, **overrides)
