"""The resource handle: allocate / run / deallocate (paper §III.B.3).

:class:`ResourceHandle` is the user's connection to one machine: it requests
the pilot (resource allocation), runs execution patterns on it, and releases
it.  The paper's EnMD called this the ``SingleClusterEnvironment``; the alias
is provided.

Example::

    handle = ResourceHandle(resource="local.localhost", cores=8, walltime=10)
    handle.allocate()
    handle.run(my_pattern)
    handle.deallocate()
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING

from repro.core.drivers.registry import get_driver_class
from repro.core.overhead import EnTKOverheadModel
from repro.core.patterns.composite import PatternSequence
from repro.exceptions import AllocationError, ResourceHandleError
from repro.pilot.description import ComputePilotDescription
from repro.pilot.pilot_manager import PilotManager
from repro.pilot.session import Session
from repro.pilot.states import PilotState
from repro.pilot.unit_manager import UnitManager
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.execution_pattern import ExecutionPattern

__all__ = ["ResourceHandle", "SingleClusterEnvironment"]

log = get_logger("core.resource_handle")


class ResourceHandle:
    """Allocate resources, run patterns, deallocate.

    Parameters
    ----------
    resource:
        Platform name (``"local.localhost"``, ``"xsede.comet"`` ...).
    cores:
        Pilot size in cores.
    walltime:
        Requested walltime in minutes.
    username, queue, project:
        Accepted for API fidelity; credentials are meaningless here and the
        queue/project strings are only recorded.
    mode:
        ``"local"`` or ``"sim"``; defaults to local on ``local.localhost``
        and simulated elsewhere.
    seed, model_queue_wait:
        Simulation knobs (see :class:`repro.pilot.session.Session`).
    fault_rate, node_mtbf, node_repair_time, pilot_mtbf:
        Fault-injection knobs: task-level Bernoulli faults, node-level
        MTBF/repair failure domains and pilot container-job deaths
        (all sim-only; see :class:`repro.pilot.session.Session`).
    max_pilot_resubmits, retry_policy:
        Recovery knobs: pilot resubmission budget and the runtime
        :class:`~repro.pilot.retry.RetryPolicy` for units killed by
        node/pilot failures.
    agent_policy, slot_strategy:
        Agent scheduling knobs (see :class:`repro.pilot.agent.Agent`).
    spool_dir:
        Stream the trace to an NDJSON spool file (see
        :class:`repro.pilot.session.Session`).
    bulk_lifecycle:
        Ignored, with a :class:`DeprecationWarning`.  It used to pick the
        trace granularity; every trace now writes one event per unit
        list, naming its members.
    overheads:
        EnTK client-side cost model used under simulation.
    """

    def __init__(
        self,
        resource: str,
        cores: int,
        walltime: float,
        username: str | None = None,
        queue: str = "",
        project: str = "",
        mode: str | None = None,
        seed: int = 0,
        model_queue_wait: bool = False,
        fault_rate: float = 0.0,
        node_mtbf: float = 0.0,
        node_repair_time: float = 300.0,
        pilot_mtbf: float = 0.0,
        max_pilot_resubmits: int = 0,
        retry_policy=None,
        agent_policy: str = "backfill",
        slot_strategy: str = "scattered",
        sandbox=None,
        spool_dir=None,
        bulk_lifecycle: bool | None = None,
        overheads: EnTKOverheadModel | None = None,
    ) -> None:
        self.resource = resource
        self.cores = cores
        self.walltime = walltime
        self.username = username
        self.queue = queue
        self.project = project
        self.mode = mode or ("local" if resource == "local.localhost" else "sim")
        self.seed = seed
        self.model_queue_wait = model_queue_wait
        self.fault_rate = fault_rate
        self.node_mtbf = node_mtbf
        self.node_repair_time = node_repair_time
        self.pilot_mtbf = pilot_mtbf
        self.max_pilot_resubmits = max_pilot_resubmits
        self.retry_policy = retry_policy
        self.agent_policy = agent_policy
        self.slot_strategy = slot_strategy
        self.sandbox = sandbox
        self.spool_dir = spool_dir
        if bulk_lifecycle is not None:
            warnings.warn(
                "ResourceHandle(bulk_lifecycle=...) is ignored: every trace "
                "writes one event per unit list",
                DeprecationWarning, stacklevel=2,
            )
        self.overheads = overheads or EnTKOverheadModel()

        self.session: Session | None = None
        self.pmgr: PilotManager | None = None
        self.umgr: UnitManager | None = None
        self.pilot = None
        self.allocated = False
        self.deallocated = False

    # -- internals ---------------------------------------------------------------

    @property
    def platform(self):
        self._require_allocated()
        return self.session.platform

    def _require_allocated(self) -> None:
        if not self.allocated or self.session is None:
            raise ResourceHandleError("resource handle is not allocated")
        if self.deallocated:
            raise ResourceHandleError("resource handle was deallocated")

    def _charge(self, seconds: float) -> None:
        """Advance virtual time by a client-side cost (sim mode only)."""
        if self.session is not None and self.session.is_simulated and seconds > 0:
            sim = self.session.sim
            sim.run(until=sim.now + seconds)

    # -- lifecycle -----------------------------------------------------------------

    def allocate(self, wait: bool = True) -> "ResourceHandle":
        """Create the session and submit the pilot request.

        With ``wait=True`` (default) the call returns once the pilot is
        active — queue wait is thereby excluded from pattern run times,
        matching how the paper reports its in-allocation measurements.
        """
        if self.allocated:
            raise ResourceHandleError("resource handle is already allocated")
        self.session = Session(
            mode=self.mode,
            platform=self.resource,
            sandbox=self.sandbox,
            seed=self.seed,
            model_queue_wait=self.model_queue_wait,
            fault_rate=self.fault_rate,
            node_mtbf=self.node_mtbf,
            node_repair_time=self.node_repair_time,
            pilot_mtbf=self.pilot_mtbf,
            max_pilot_resubmits=self.max_pilot_resubmits,
            retry_policy=self.retry_policy,
            spool_dir=self.spool_dir,
        )
        prof = self.session.prof
        prof.event("entk_init_start", self.session.uid)
        self._charge(self.overheads.init_cost)
        prof.event("entk_init_stop", self.session.uid)

        prof.event("entk_alloc_start", self.session.uid,
                   resource=self.resource, cores=self.cores)
        self.pmgr = PilotManager(
            self.session,
            policy=self.agent_policy,
            slot_strategy=self.slot_strategy,
        )
        description = ComputePilotDescription(
            resource=self.resource,
            cores=self.cores,
            runtime=self.walltime,
            queue=self.queue,
            project=self.project,
            mode=self.mode,
        )
        self.pilot = self.pmgr.submit_pilots(description)[0]
        self._charge(self.overheads.allocate_cost)
        prof.event("entk_alloc_stop", self.session.uid)

        self.umgr = UnitManager(self.session)
        self.umgr.add_pilots(self.pilot)
        self.allocated = True

        if wait:
            self.pmgr.wait_pilots_active(timeout=120.0)
            if self.pilot.state is not PilotState.ACTIVE:
                raise AllocationError(
                    f"pilot did not activate (state={self.pilot.state.value})"
                )
        return self

    def run(self, pattern: "ExecutionPattern") -> "ExecutionPattern":
        """Execute *pattern* on the allocation; blocks until it completes.

        :class:`PatternSequence` instances run their constituents in order
        on the same allocation.  Raises :class:`PatternError` if any task
        failed.
        """
        self._require_allocated()
        if isinstance(pattern, PatternSequence):
            self.session.prof.event("entk_pattern_start", pattern.uid,
                                    pattern=pattern.pattern_name)
            for sub in pattern.patterns:
                self.run(sub)
            pattern.units = [u for sub in pattern.patterns for u in sub.units]
            pattern.executed = True
            self.session.prof.event("entk_pattern_stop", pattern.uid)
            return pattern
        driver_cls = get_driver_class(pattern)
        driver = driver_cls(pattern, self)
        driver.run()
        return pattern

    def deallocate(self) -> None:
        """Cancel the pilot and close the session."""
        if not self.allocated or self.deallocated:
            return
        prof = self.session.prof
        prof.event("entk_cancel_start", self.session.uid)
        self.pmgr.cancel_pilots()
        self._charge(self.overheads.cancel_cost)
        prof.event("entk_cancel_stop", self.session.uid)
        self.session.close()
        self.deallocated = True

    # -- conveniences -----------------------------------------------------------------

    def __enter__(self) -> "ResourceHandle":
        return self.allocate()

    def __exit__(self, *exc_info) -> None:
        self.deallocate()

    @property
    def profile(self):
        """The session's profiler (valid until and after deallocation)."""
        if self.session is None:
            raise ResourceHandleError("resource handle was never allocated")
        return self.session.prof


#: The paper-era EnMD name for the resource handle.
SingleClusterEnvironment = ResourceHandle
