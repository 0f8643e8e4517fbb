"""Batch-queue scheduling for simulated clusters.

Implements the two policies that matter for this reproduction:

* ``fifo``  — strict first-come-first-served over whole nodes.
* ``easy``  — FIFO head + EASY backfilling: a later job may jump ahead only
  if it fits in the currently free nodes *and* cannot delay the head job's
  guaranteed start (the "shadow time" computed from running jobs' walltime
  expiries).

Queue *wait* beyond what contention produces is modelled by an optional
exponential hold per job (mean taken from the platform profile), because the
paper's machines were shared with other users we do not simulate.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.job import BatchJob, BatchJobState
from repro.cluster.platform import PlatformSpec
from repro.eventsim import Event, RandomStreams, Simulator
from repro.exceptions import QueuePolicyError
from repro.utils.logger import get_logger

__all__ = ["BatchScheduler"]

log = get_logger("cluster.batch")


class BatchScheduler:
    """The batch system of one simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformSpec,
        streams: RandomStreams | None = None,
        *,
        policy: str = "easy",
        model_queue_wait: bool = False,
    ) -> None:
        if policy not in ("fifo", "easy"):
            raise QueuePolicyError(f"unknown queue policy {policy!r}")
        self.sim = sim
        self.platform = platform
        self.policy = policy
        self.model_queue_wait = model_queue_wait
        self.streams = streams or RandomStreams(0)
        self.free_nodes = platform.nodes
        self._queue: list[BatchJob] = []
        self._running: dict[str, BatchJob] = {}
        self._kill_events: dict[str, Event] = {}
        self._eligible_at: dict[str, float] = {}
        self._history: list[BatchJob] = []

    # -- public API ----------------------------------------------------------

    def submit(self, job: BatchJob) -> BatchJob:
        """Submit *job*; it becomes visible after the platform submit latency."""
        if job.nodes > self.platform.nodes:
            raise QueuePolicyError(
                f"job {job.uid} wants {job.nodes} nodes; "
                f"{self.platform.name} has {self.platform.nodes}"
            )
        if job.walltime <= 0:
            raise QueuePolicyError("walltime must be positive")
        if job.walltime > self.platform.max_walltime:
            raise QueuePolicyError(
                f"walltime {job.walltime}s exceeds queue limit "
                f"{self.platform.max_walltime}s"
            )
        job.submit_time = self.sim.now
        hold = 0.0
        if self.model_queue_wait and self.platform.mean_queue_wait > 0:
            hold = float(
                self.streams.get("queue_wait").exponential(
                    self.platform.mean_queue_wait
                )
            )
        self._eligible_at[job.uid] = self.sim.now + self.platform.submit_latency + hold
        self.sim.schedule(
            self.platform.submit_latency,
            lambda: self._enqueue(job),
            label=f"enqueue:{job.uid}",
        )
        return job

    def cancel(self, job: BatchJob) -> None:
        """Cancel a pending or running job."""
        if job.state is BatchJobState.PENDING:
            if job in self._queue:
                self._queue.remove(job)
            job.advance(BatchJobState.CANCELLED)
            job.end_time = self.sim.now
            self._finish(job, BatchJobState.CANCELLED, release_nodes=False)
        elif job.state is BatchJobState.RUNNING:
            self.release(job, BatchJobState.CANCELLED)

    def fail(self, job: BatchJob) -> None:
        """Kill a running job from outside (its nodes died); frees its nodes.

        Pending jobs cannot *fail* this way — there is nothing running to
        die — so failing a non-running job is a no-op.
        """
        if job.state is BatchJobState.RUNNING:
            self.release(job, BatchJobState.FAILED)

    def release(self, job: BatchJob, state: BatchJobState = BatchJobState.COMPLETED) -> None:
        """Return a running job's nodes to the pool and finalize it."""
        if job.state is not BatchJobState.RUNNING:
            raise QueuePolicyError(
                f"cannot release job {job.uid} in state {job.state.value}"
            )
        kill = self._kill_events.pop(job.uid, None)
        if kill is not None:
            self.sim.cancel(kill)
        self._running.pop(job.uid, None)
        self.free_nodes += job.nodes
        job.advance(state)
        job.end_time = self.sim.now
        self._finish(job, state, release_nodes=False)
        self._try_schedule()

    @property
    def history(self) -> list[BatchJob]:
        """All jobs that reached a final state, in completion order."""
        return list(self._history)

    # -- internals -------------------------------------------------------------

    def _finish(self, job: BatchJob, state: BatchJobState, *, release_nodes: bool) -> None:
        if release_nodes:
            self.free_nodes += job.nodes
        self._history.append(job)
        if job.on_end is not None:
            job.on_end(job, state)

    def _enqueue(self, job: BatchJob) -> None:
        if job.state is not BatchJobState.PENDING:
            return  # cancelled while in the submit pipe
        self._queue.append(job)
        self._try_schedule()

    def _is_eligible(self, job: BatchJob) -> bool:
        return self.sim.now >= self._eligible_at.get(job.uid, 0.0) - 1e-9

    def _retry_at_eligibility(self, job: BatchJob) -> None:
        when = self._eligible_at.get(job.uid, self.sim.now)
        if when > self.sim.now:
            self.sim.schedule_at(
                when, self._try_schedule, label=f"eligible:{job.uid}"
            )

    def _try_schedule(self) -> None:
        """Place as many queued jobs as the policy allows."""
        # FIFO phase: start eligible jobs from the head while they fit.
        while self._queue:
            head = self._queue[0]
            if not self._is_eligible(head):
                self._retry_at_eligibility(head)
                break
            if head.nodes <= self.free_nodes:
                self._queue.pop(0)
                self._start(head)
            else:
                break

        if self.policy != "easy" or not self._queue:
            return

        head = self._queue[0]
        if not self._is_eligible(head):
            return
        shadow, spare = self._shadow_time(head)
        for job in list(self._queue[1:]):
            if job.nodes > self.free_nodes or not self._is_eligible(job):
                if not self._is_eligible(job):
                    self._retry_at_eligibility(job)
                continue
            ends_before_shadow = self.sim.now + job.walltime <= shadow + 1e-9
            fits_in_spare = job.nodes <= spare
            if ends_before_shadow or fits_in_spare:
                self._queue.remove(job)
                self._start(job)
                if job.nodes <= spare:
                    spare -= job.nodes
                # Free nodes changed; the head still cannot start (we only
                # backfilled jobs that fit in what the head could not use).

    def _shadow_time(self, head: BatchJob) -> tuple[float, int]:
        """Earliest guaranteed start for *head* and spare nodes at that time.

        Walks running jobs in order of guaranteed end (start + walltime),
        accumulating released nodes until the head fits.  Returns
        ``(shadow_time, spare_nodes)`` where *spare_nodes* is how many of the
        then-free nodes the head would leave unused (backfill jobs that fit
        in the spare can never delay the head).
        """
        free = self.free_nodes
        if head.nodes <= free:
            return self.sim.now, free - head.nodes
        expiries = sorted(
            (j.start_time + j.walltime, j.nodes)  # type: ignore[operator]
            for j in self._running.values()
        )
        for when, nodes in expiries:
            free += nodes
            if free >= head.nodes:
                return max(when, self.sim.now), free - head.nodes
        # Unreachable if the submit-side size check passed, but stay safe.
        return float("inf"), 0

    def _start(self, job: BatchJob) -> None:
        self.free_nodes -= job.nodes
        if self.free_nodes < 0:
            raise QueuePolicyError("scheduler over-allocated nodes (internal bug)")
        job.advance(BatchJobState.RUNNING)
        job.start_time = self.sim.now
        self._running[job.uid] = job
        self._kill_events[job.uid] = self.sim.schedule(
            job.walltime,
            lambda: self._walltime_kill(job),
            label=f"walltime:{job.uid}",
        )
        if job.duration is not None:
            self.sim.schedule(
                min(job.duration, job.walltime),
                lambda: self._natural_end(job),
                label=f"duration:{job.uid}",
            )
        if job.on_start is not None:
            job.on_start(job)

    def _natural_end(self, job: BatchJob) -> None:
        if job.state is BatchJobState.RUNNING:
            self.release(job, BatchJobState.COMPLETED)

    def _walltime_kill(self, job: BatchJob) -> None:
        if job.state is BatchJobState.RUNNING:
            self.release(job, BatchJobState.TIMEOUT)
