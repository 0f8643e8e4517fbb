"""Property tests of the paper-critical runtime invariants (DESIGN.md §6),
read from each run's trace.

Core accounting is read from the ``agent.<pilot>.cores_busy`` and
``cores_held`` gauges that :meth:`MetricsRegistry.from_events` derives
from the lifecycle events, and state order from each unit's lifecycle
records (:func:`tests.trace_projections.per_unit`).
"""

from hypothesis import given, settings, strategies as st

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import BagOfTasks
from repro.core.resource_handle import ResourceHandle
from repro.telemetry import MetricsRegistry
from tests.trace_projections import per_unit

#: The lifecycle states of a unit that runs to DONE, in order.
_STATE_ORDER = (
    "NEW", "UMGR_SCHEDULING", "AGENT_STAGING_INPUT", "AGENT_SCHEDULING",
    "EXECUTING", "AGENT_STAGING_OUTPUT", "DONE",
)


def peak_cores(events) -> dict[str, float]:
    """The peak of each derived ``cores_busy``/``cores_held`` gauge over
    every pilot of the trace, keyed by gauge."""
    metrics = MetricsRegistry.from_events(events)
    peaks: dict[str, float] = {}
    for gauge in ("cores_busy", "cores_held"):
        series = [metrics.series(name) for name in metrics.names()
                  if name.startswith("agent.") and name.endswith("." + gauge)]
        assert series and all(s.derived for s in series), gauge
        peaks[gauge] = max(s.vmax for s in series)
    return peaks


def assert_state_times_monotonic(events) -> None:
    """Every unit's lifecycle records are stamped in state order."""
    stamps: dict[str, dict[str, float]] = {}
    for ev in per_unit(events):
        if ev.name == "unit_new":
            stamps.setdefault(ev.uid, {})["NEW"] = ev.time
        elif ev.name == "unit_state":
            stamps.setdefault(ev.uid, {})[ev.attrs["state"]] = ev.time
    assert stamps
    for uid, times in stamps.items():
        ordered = [times[state] for state in _STATE_ORDER if state in times]
        assert ordered == sorted(ordered), (uid, times)


class MixedBag(BagOfTasks):
    """Tasks with hypothesis-chosen core widths and durations."""

    def __init__(self, shapes):
        super().__init__(size=len(shapes))
        self.shapes = shapes

    def task(self, instance):
        cores, duration = self.shapes[instance - 1]
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = [f"--duration={duration}"]
        kernel.cores = cores
        kernel.uses_mpi = cores > 1
        return kernel


@settings(max_examples=25, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=8),     # cores
            st.floats(min_value=1.0, max_value=50.0),  # duration
        ),
        min_size=1,
        max_size=20,
    ),
    pilot_cores=st.integers(min_value=8, max_value=24),
    policy=st.sampled_from(["backfill", "fifo"]),
)
def test_property_core_accounting_never_violated(shapes, pilot_cores, policy):
    """For arbitrary mixed workloads and either agent policy: occupied
    cores never exceed the pilot, all tasks finish, timestamps are
    monotonic."""
    handle = ResourceHandle(
        "xsede.comet", cores=pilot_cores, walltime=600, mode="sim",
        agent_policy=policy,
    )
    handle.allocate()
    pattern = MixedBag(shapes)
    handle.run(pattern)
    handle.deallocate()

    assert all(u.state.value == "DONE" for u in pattern.units)
    events = list(handle.profile)
    peaks = peak_cores(events)
    assert peaks["cores_busy"] <= pilot_cores, peaks
    assert peaks["cores_held"] <= pilot_cores, peaks
    assert_state_times_monotonic(events)


def test_peak_concurrency_reaches_pilot_size():
    """A saturating homogeneous bag drives the pilot to full occupancy."""
    handle = ResourceHandle("xsede.comet", cores=8, walltime=600, mode="sim")
    handle.allocate()

    class Bag(BagOfTasks):
        def task(self, instance):
            kernel = Kernel(name="misc.sleep")
            kernel.arguments = ["--duration=50"]
            return kernel

    pattern = Bag(size=24)
    handle.run(pattern)
    handle.deallocate()
    assert peak_cores(list(handle.profile)) == {
        "cores_busy": 8, "cores_held": 8,
    }
