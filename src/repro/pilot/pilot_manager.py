"""The pilot manager: submits and tears down pilots through SAGA."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import PilotError
from repro.pilot.agent.agent import Agent
from repro.pilot.description import ComputePilotDescription
from repro.pilot.pilot import ComputePilot
from repro.pilot.states import PilotState
from repro.saga.job import JobDescription, JobService
from repro.saga.states import JobState
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.session import Session

__all__ = ["PilotManager"]

log = get_logger("pilot.pmgr")


class PilotManager:
    """Creates pilots, launches their container jobs, attaches agents."""

    def __init__(self, session: "Session", **agent_options) -> None:
        self.session = session
        self.uid = "pmgr." + session.uid
        self.pilots: list[ComputePilot] = []
        self._agent_options = agent_options
        #: Pending pilot-level fault event per pilot uid (sim only).
        self._pilot_fault_events: dict[str, object] = {}

    # -- submission ---------------------------------------------------------------

    def submit_pilots(
        self, descriptions: list[ComputePilotDescription] | ComputePilotDescription
    ) -> list[ComputePilot]:
        """Launch one container job per description; returns pilot handles."""
        if isinstance(descriptions, ComputePilotDescription):
            descriptions = [descriptions]
        pilots = []
        for description in descriptions:
            pilots.append(self._submit_one(description))
        return pilots

    def _submit_one(self, description: ComputePilotDescription) -> ComputePilot:
        description.validate()
        if description.mode != self.session.mode:
            raise PilotError(
                f"pilot mode {description.mode!r} does not match session "
                f"mode {self.session.mode!r}"
            )
        pilot = ComputePilot(description, self.session)
        pilot.agent = Agent(self.session, pilot, **self._agent_options)
        with self.session.tracer.span(
            "pmgr.submit", self.uid, cores=description.cores
        ):
            self.session.prof.event(
                "pilot_submit", pilot.uid, cores=description.cores
            )
            if self.session.is_simulated:
                self._launch_sim(pilot)
            else:
                self._launch_local(pilot)
        self.pilots.append(pilot)
        self.session.store.insert(
            "pilots",
            pilot.uid,
            {"resource": description.resource, "cores": description.cores},
        )
        return pilot

    def _launch_sim(self, pilot: ComputePilot) -> None:
        context = self.session.sim_context
        service = JobService(f"sim://{pilot.description.resource}", context=context)
        job = self._make_sim_job(pilot, service)
        pilot.advance(PilotState.PENDING)
        job.run()

    def _make_sim_job(self, pilot: ComputePilot, service: JobService):
        """One container-job incarnation of *pilot* (initial or resubmitted)."""
        context = self.session.sim_context
        submitted = self.session.now()

        def payload(job) -> None:
            # Container job started: batch-queue wait is over for this
            # incarnation; the agent bootstraps, then goes ACTIVE.
            self.session.metrics.sample(
                "pilot.queue_wait", self.session.now() - submitted
            )

            def bootstrap_done() -> None:
                if pilot.state is PilotState.PENDING:
                    pilot.advance(PilotState.ACTIVE)
                    pilot.agent.start()
                    self._arm_pilot_fault(pilot, job)

            context.sim.schedule(
                context.platform.agent_bootstrap,
                bootstrap_done,
                label=f"bootstrap:{pilot.uid}",
            )

        def on_job_state(job, state: JobState) -> None:
            if pilot.state.is_final:
                return
            if state is JobState.DONE:
                # Container job ended normally (modelled duration elapsed):
                # the allocation is gone, the pilot is done — not failed.
                self._disarm_pilot_fault(pilot)
                pilot.agent.stop()
                pilot.advance(PilotState.DONE)
            elif state is JobState.FAILED:
                self._disarm_pilot_fault(pilot)
                if pilot.resubmits < self.session.max_pilot_resubmits:
                    self._resubmit_sim(pilot, service)
                else:
                    # FAILED first so retry placement skips this pilot,
                    # then fail/migrate everything it still held.
                    pilot.advance(PilotState.FAILED)
                    pilot.agent.abort()
            elif state is JobState.CANCELED:
                self._disarm_pilot_fault(pilot)
                pilot.agent.stop()
                pilot.advance(PilotState.CANCELED)

        job = service.create_job(
            JobDescription(
                name=pilot.uid,
                executable="pilot-agent",
                total_cpu_count=pilot.cores,
                wall_time_limit=pilot.description.runtime * 60.0,
                payload=payload,
            )
        )
        job.add_callback(on_job_state)
        pilot.saga_job = job
        return job

    def _resubmit_sim(self, pilot: ComputePilot, service: JobService) -> None:
        """Send a killed pilot back through the batch queue.

        The agent is suspended (in-flight units go to the unit manager's
        retry path, queued units are kept), the pilot returns to PENDING,
        and a fresh container job pays submit latency and queue wait again.
        """
        pilot.resubmits += 1
        log.info("resubmitting pilot %s (attempt %d/%d)",
                 pilot.uid, pilot.resubmits, self.session.max_pilot_resubmits)
        pilot.agent.suspend()
        job = self._make_sim_job(pilot, service)
        pilot.advance(PilotState.PENDING)
        self.session.prof.event(
            "pilot_resubmit", pilot.uid, attempt=pilot.resubmits
        )
        job.run()

    def _arm_pilot_fault(self, pilot: ComputePilot, job) -> None:
        """Draw this incarnation's death time from the pilot-fault stream."""
        mtbf = self.session.pilot_mtbf
        if not mtbf:
            return
        context = self.session.sim_context
        delay = float(context.streams.get("pilot_faults").exponential(mtbf))

        def fire() -> None:
            self._pilot_fault_events.pop(pilot.uid, None)
            if job.state is JobState.RUNNING:
                self.session.prof.event("pilot_fault", pilot.uid)
                job.fail()

        self._pilot_fault_events[pilot.uid] = context.sim.schedule(
            delay, fire, label=f"pilot_fault:{pilot.uid}"
        )

    def _disarm_pilot_fault(self, pilot: ComputePilot) -> None:
        event = self._pilot_fault_events.pop(pilot.uid, None)
        if event is not None:
            self.session.sim.cancel(event)

    def _launch_local(self, pilot: ComputePilot) -> None:
        service = JobService("fork://localhost")

        def payload(job) -> None:
            # The container job thread *is* the allocation: it stays alive
            # until the pilot is finalized, exactly like a real batch job.
            pilot.advance(PilotState.ACTIVE)
            pilot.agent.start()
            self.session.wait_until(
                lambda: pilot.state.is_final,
                timeout=pilot.description.runtime * 60.0,
            )

        def on_job_state(job, state: JobState) -> None:
            # Walltime expiry with the pilot still ACTIVE is a normal end of
            # allocation: the pilot is DONE, not CANCELED/FAILED.
            if pilot.state.is_final:
                return
            if state is JobState.DONE:
                pilot.agent.stop()
                pilot.advance(PilotState.DONE)

        job = service.create_job(
            JobDescription(
                name=pilot.uid,
                executable="pilot-agent",
                total_cpu_count=pilot.cores,
                wall_time_limit=pilot.description.runtime * 60.0,
                payload=payload,
            )
        )
        job.add_callback(on_job_state)
        pilot.saga_job = job
        pilot.advance(PilotState.PENDING)
        job.run()

    # -- teardown -----------------------------------------------------------------

    def cancel_pilots(self, pilots: list[ComputePilot] | None = None) -> None:
        """Cancel *pilots* (default: all owned) and release their resources."""
        for pilot in pilots if pilots is not None else list(self.pilots):
            if pilot.state.is_final:
                continue
            self.session.prof.event("pilot_cancel", pilot.uid)
            self._disarm_pilot_fault(pilot)
            pilot.agent.stop()
            pilot.advance(PilotState.CANCELED)
            if pilot.saga_job is not None:
                pilot.saga_job.cancel()

    def wait_pilots_active(self, timeout: float | None = None) -> None:
        """Wait until no pilot is NEW or PENDING (see ``Session.wait_until``).

        A simulated session steps the DES; a local one blocks for at most
        *timeout* seconds in total and then returns, whatever the pilots'
        states."""
        self.session.wait_until(
            lambda: not any(
                p.state in (PilotState.NEW, PilotState.PENDING)
                for p in self.pilots
            ),
            timeout=timeout,
            drained=lambda: PilotError(
                "simulation drained before pilots activated"
            ),
        )
