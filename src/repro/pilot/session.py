"""The pilot session: root object of one runtime instance."""

from __future__ import annotations

import shutil
import tempfile
import threading
from pathlib import Path
from typing import Callable

from repro.cluster.faults import NodeFaultModel
from repro.cluster.platforms import get_platform
from repro.eventsim import RandomStreams
from repro.exceptions import ConfigurationError
from repro.pilot.db import SessionStore
from repro.pilot.faults import FaultModel
from repro.pilot.retry import RetryPolicy
from repro.pilot.profiler import Profiler
from repro.pilot.unit_store import UnitStore
from repro.saga.adaptors.sim import SimContext
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sink import SpoolSink
from repro.telemetry.span import Tracer
from repro.utils.ids import generate_id
from repro.utils.logger import get_logger
from repro.utils.timing import WallClock

__all__ = ["Session"]

log = get_logger("pilot.session")


class Session:
    """Owns the clock, profiler, store and (if simulated) the DES context.

    Parameters
    ----------
    mode:
        ``"local"`` — tasks really execute on this machine, wall clock.
        ``"sim"`` — everything advances on a virtual clock against the
        simulated *platform*.
    platform:
        Platform name for simulated sessions (ignored for local ones, which
        always use the ``local.localhost`` profile).
    sandbox:
        Directory for unit sandboxes in local mode.  A temporary directory
        is created (and removed on :meth:`close`) when omitted.
    seed:
        Master seed of the simulation's random streams.
    model_queue_wait:
        Whether the simulated batch queue adds stochastic queue waits.
    fault_rate:
        Per-execution Bernoulli task-fault probability (sim only).
    node_mtbf / node_repair_time:
        Node-level failure domain: mean seconds between failures of one
        node (0 disables) and how long a failed node stays out of service
        (sim only; see :mod:`repro.cluster.faults`).
    pilot_mtbf:
        Mean seconds between pilot container-job deaths once active
        (0 disables; sim only).
    max_pilot_resubmits:
        How many times the pilot manager resubmits a killed pilot job
        through the batch queue before giving up (default 0 keeps the
        historical dead-end FAILED behaviour).
    retry_policy:
        Runtime-level :class:`~repro.pilot.retry.RetryPolicy` applied by
        the unit manager to units killed by node/pilot failures.  ``None``
        fails such units on first death.
    spool_dir:
        When given, the profiler streams events to an NDJSON spool file
        ``<spool_dir>/<session_uid>.trace.jsonl`` instead of keeping the
        whole trace resident (see :mod:`repro.telemetry.sink`).  Trace
        *content* is bit-identical either way.  Metric points live only
        in the trace in both cases: ``session.metrics`` writes them and
        keeps nothing, and ``MetricsRegistry.from_events(session.prof)``
        reads them back.
    """

    def __init__(
        self,
        mode: str = "local",
        platform: str = "local.localhost",
        sandbox: str | Path | None = None,
        seed: int = 0,
        model_queue_wait: bool = False,
        fault_rate: float = 0.0,
        node_mtbf: float = 0.0,
        node_repair_time: float = 300.0,
        pilot_mtbf: float = 0.0,
        max_pilot_resubmits: int = 0,
        retry_policy: RetryPolicy | None = None,
        spool_dir: str | Path | None = None,
    ) -> None:
        if mode not in ("local", "sim"):
            raise ConfigurationError(f"unknown session mode {mode!r}")
        if pilot_mtbf < 0:
            raise ConfigurationError("pilot mtbf must be non-negative")
        if max_pilot_resubmits < 0:
            raise ConfigurationError("max_pilot_resubmits must be non-negative")
        self.uid = generate_id("session")
        self.mode = mode
        self.platform = get_platform(platform)
        self.store = SessionStore()
        self.closed = False
        self.node_fault_model = NodeFaultModel(node_mtbf, node_repair_time)
        self.pilot_mtbf = pilot_mtbf
        self.max_pilot_resubmits = max_pilot_resubmits
        self.retry_policy = retry_policy
        #: Wake-ups of local waiters (see :meth:`wait_until`).
        self._wakeup = threading.Condition()
        self._generation = 0

        if mode == "sim":
            self.sim_context = SimContext(
                platform=self.platform,
                streams=RandomStreams(seed),
                model_queue_wait=model_queue_wait,
            )
            self.fault_model = FaultModel(fault_rate).bind(
                self.sim_context.streams
            )
            self._clock = self.sim_context.sim.clock
            self._own_sandbox = False
            self.sandbox = None
        else:
            if fault_rate or node_mtbf or pilot_mtbf:
                raise ConfigurationError(
                    "fault injection is a simulated-mode feature"
                )
            self.sim_context = None
            self.fault_model = FaultModel(0.0)
            self._clock = WallClock()
            if sandbox is None:
                self.sandbox = Path(tempfile.mkdtemp(prefix=f"repro-{self.uid}-"))
                self._own_sandbox = True
            else:
                self.sandbox = Path(sandbox)
                self.sandbox.mkdir(parents=True, exist_ok=True)
                self._own_sandbox = False

        self.spool_path: Path | None = None
        sink = None
        if spool_dir is not None:
            self.spool_path = Path(spool_dir) / f"{self.uid}.trace.jsonl"
            sink = SpoolSink(self.spool_path)
        self.prof = Profiler(self._clock.now, sink=sink)
        # Telemetry rides on the profiler: explicit spans and metric
        # points are just more trace events, so they charge no virtual
        # time and stay bit-deterministic under a seed.  Imported as
        # submodules: repro.telemetry must not import the pilot layer.
        self.tracer = Tracer(self.prof)
        self.metrics = MetricsRegistry(emit=self.prof.event)
        self.unit_store = UnitStore(self)
        self.prof.event("session_start", self.uid, mode=mode, platform=platform)
        self.store.insert("sessions", self.uid, {"mode": mode, "platform": platform})

    # -- time ------------------------------------------------------------------

    def now(self) -> float:
        return self._clock.now()

    @property
    def is_simulated(self) -> bool:
        return self.mode == "sim"

    @property
    def sim(self):
        """The discrete-event simulator (simulated sessions only)."""
        if self.sim_context is None:
            raise ConfigurationError("local sessions have no simulator")
        return self.sim_context.sim

    def run_events(self) -> None:
        """Drain the simulator (no-op for local sessions)."""
        if self.sim_context is not None:
            self.sim_context.sim.run()

    # -- waiting -----------------------------------------------------------------

    def wait_until(
        self,
        predicate: Callable[[], bool],
        *,
        timeout: float | None = None,
        drained: Callable[[], BaseException] | None = None,
    ) -> bool:
        """Block until *predicate()* holds; return whether it does.

        Every blocking call of the runtime and the pattern drivers waits
        here.  A simulated session steps the DES until the predicate
        holds; if the simulation runs dry first it raises ``drained()``,
        or returns false without *drained*.  *timeout* is ignored there:
        virtual time passes only as fast as events do.  A local session
        sleeps until :meth:`notify`, for at most *timeout* seconds, and
        returns false if the predicate still fails then.

        The predicate runs outside the wake-up lock, so it may take other
        locks (a driver's, say) that a notifier holds while it notifies.
        A notify between reading the generation counter and testing the
        predicate moves the counter, so no wake-up is lost.
        """
        if self.sim_context is not None:
            sim = self.sim_context.sim
            while not predicate():
                if sim.step() is None:
                    if drained is None:
                        return False
                    raise drained()
            return True
        deadline = None if timeout is None else self.now() + timeout
        wakeup = self._wakeup
        while True:
            with wakeup:
                generation = self._generation
            if predicate():
                return True
            with wakeup:
                while self._generation == generation:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - self.now()
                        if remaining <= 0:
                            return False
                    wakeup.wait(remaining)

    def notify(self) -> None:
        """Wake every :meth:`wait_until` caller to test its predicate.

        The unit store calls this once per batch of units that reach a
        final state, after every callback of the batch has run, and a
        pilot calls it after each of its state changes.  Call it outside
        the unit store's lock.
        """
        with self._wakeup:
            self._generation += 1
            self._wakeup.notify_all()

    # -- lifecycle ---------------------------------------------------------------

    def close(self, *, cleanup: bool = True) -> None:
        """Finalize the session; remove owned sandboxes when *cleanup*."""
        if self.closed:
            return
        self.prof.event("session_close", self.uid)
        self.prof.close()
        if (
            cleanup
            and self._own_sandbox
            and self.sandbox is not None
            and self.sandbox.exists()
        ):
            shutil.rmtree(self.sandbox, ignore_errors=True)
        self.closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
