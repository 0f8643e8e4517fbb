"""Differential test: one-read analyses vs. the one-query-per-figure reference.

``breakdown_from_profile``, ``fault_recovery_summary`` and
``SpanBuilder.build`` now answer every question from one
:class:`~repro.telemetry.sink.TraceIndex` instead of one full pass over
the trace per question, and the breakdown's execution time is the
length of ``repro.telemetry.analysis.interval_union`` instead of a
helper of its own.  Their results must not change in any bit: the
Fig. 3 breakdown feeds every figure, and the span tree feeds the
critical path and the Chrome export whose hashes the determinism tests
pin.  The implementations they replaced are kept here, verbatim in
behavior, as the executable specification, and both are run on real
traces: EoP, SAL and bag-of-tasks patterns, fault-free and with node,
pilot and task faults, with resident and spooled traces.  The reference
builder also derives the agent's phase spans (stage-in, launch,
stage-out) from the state intervals, as a full scan per unit over the
trace with every lifecycle batch expanded to one record per member.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Mapping

import pytest

from repro.analytics.faults import FaultRecoverySummary, fault_recovery_summary
from repro.core.patterns import (
    BagOfTasks,
    EnsembleOfPipelines,
    SimulationAnalysisLoop,
)
from repro.core.profiler import OverheadBreakdown, breakdown_from_profile
from repro.core.resource_handle import ResourceHandle
from repro.pilot.retry import RetryPolicy
from repro.pilot.states import UnitState
from repro.telemetry import SpanBuilder, critical_path
from repro.telemetry.span import Span, SpanTree
from repro.utils.ids import reset_id_counters
from tests.test_determinism import _sleep
from tests.trace_projections import per_unit


# -- reference implementation (one profiler query per figure) ----------------


def _ref_merge_interval_length(intervals):
    total = 0.0
    end = -float("inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def _ref_span_sum(prof, start_name, stop_name, uid):
    starts = prof.events(start_name, uid)
    stops = prof.events(stop_name, uid)
    return sum(
        stop.time - start.time for start, stop in zip(starts, stops)
    )


def _ref_fault_recovery_summary(prof) -> FaultRecoverySummary:
    node_fails = prof.events("node_fail")
    node_repairs = prof.events("node_repair")
    pilot_faults = prof.events("pilot_fault")
    resubmits = prof.events("pilot_resubmit")
    task_faults = prof.events("task_fault")
    node_kills = prof.events("unit_node_kill")
    pilot_kills = prof.events("unit_pilot_kill")
    requeues = prof.events("unit_requeue")
    retries = prof.events("entk_task_retry")

    wasted = sum(ev.attrs.get("wasted", 0.0) for ev in node_kills)
    wasted += sum(ev.attrs.get("wasted", 0.0) for ev in pilot_kills)
    wasted += sum(ev.attrs.get("at", 0.0) for ev in task_faults)

    backoff = sum(ev.attrs.get("delay", 0.0) for ev in requeues)
    backoff += sum(ev.attrs.get("delay", 0.0) for ev in retries)

    trace_end = max((ev.time for ev in prof), default=0.0)
    agent_starts: dict[str, list[float]] = {}
    for ev in prof.events("agent_start"):
        agent_starts.setdefault(ev.uid, []).append(ev.time)
    resubmit_downtime = 0.0
    for ev in resubmits:
        later = [t for t in agent_starts.get(ev.uid, []) if t >= ev.time]
        resubmit_downtime += (min(later) if later else trace_end) - ev.time

    repair_times: dict[tuple[str, int], list[float]] = {}
    for ev in node_repairs:
        key = (ev.uid, ev.attrs.get("node", -1))
        repair_times.setdefault(key, []).append(ev.time)
    node_downtime = 0.0
    for ev in node_fails:
        key = (ev.uid, ev.attrs.get("node", -1))
        later = [t for t in repair_times.get(key, []) if t >= ev.time]
        node_downtime += (min(later) if later else trace_end) - ev.time

    return FaultRecoverySummary(
        node_failures=len(node_fails),
        node_repairs=len(node_repairs),
        pilot_faults=len(pilot_faults),
        pilot_resubmits=len(resubmits),
        task_faults=len(task_faults),
        units_killed=len(node_kills) + len(pilot_kills),
        unit_requeues=len(requeues),
        task_retries=len(retries),
        wasted_execution=wasted,
        backoff_delay=backoff,
        resubmit_downtime=resubmit_downtime,
        node_downtime=node_downtime,
    )


def _ref_breakdown_from_profile(prof, pattern) -> OverheadBreakdown:
    units = [u for u in pattern.units]
    ttc = prof.span("entk_pattern_start", "entk_pattern_stop", pattern.uid) or 0.0

    intervals: list[tuple[float, float]] = []
    for u in units:
        start = u.timestamps.get(UnitState.EXECUTING.value)
        stop = u.timestamps.get(UnitState.AGENT_STAGING_OUTPUT.value)
        if stop is None:
            stop = u.timestamps.get(u.state.value)
        if start is not None and stop is not None:
            intervals.append((start, stop))
    execution_time = _ref_merge_interval_length(intervals)
    makespan = (
        max(stop for _, stop in intervals) - min(start for start, _ in intervals)
        if intervals
        else 0.0
    )
    core_overhead = (
        _ref_span_sum(prof, "entk_init_start", "entk_init_stop", None)
        + _ref_span_sum(prof, "entk_alloc_start", "entk_alloc_stop", None)
        + _ref_span_sum(prof, "entk_cancel_start", "entk_cancel_stop", None)
    )
    create = _ref_span_sum(
        prof, "entk_stage_create_start", "entk_stage_create_stop", pattern.uid
    )
    charged = sum(
        ev.attrs.get("seconds", 0.0)
        for ev in prof.events("entk_pattern_overhead", pattern.uid)
    )
    pattern_overhead = create + charged
    runtime_overhead = max(ttc - execution_time - pattern_overhead, 0.0)
    return OverheadBreakdown(
        ttc=ttc,
        execution_time=execution_time,
        makespan=makespan,
        core_overhead=core_overhead,
        pattern_overhead=pattern_overhead,
        runtime_overhead=runtime_overhead,
        ntasks=len(units),
        fault_overhead=_ref_fault_recovery_summary(prof).overhead,
    )


_REF_STAGING = {"AGENT_STAGING_INPUT": "agent.stage_in",
                "AGENT_STAGING_OUTPUT": "agent.stage_out"}
_REF_PHASES = {*_REF_STAGING.values(), "exec.launch"}


class _ReferenceSpanBuilder(SpanBuilder):
    """The span builder with its full-trace scan per derivation pass."""

    def build(self) -> SpanTree:
        events = sorted(self._events, key=lambda ev: ev.time)
        t_trace_end = events[-1].time
        spans: dict[str, Span] = {}

        def add(span: Span) -> Span:
            spans[span.uid] = span
            return span

        root = add(self._ref_session_span(events, t_trace_end))
        for name in ("entk_init", "entk_alloc", "entk_cancel"):
            for i, (uid, t0, t1, attrs) in enumerate(
                self._ref_paired(events, f"{name}_start", f"{name}_stop")
            ):
                add(Span(f"{name}:{i}", name, t0, t1,
                         parent=root.uid, ref=uid, attrs=dict(attrs)))
        self._ref_pattern_spans(events, spans, root, t_trace_end)
        self._ref_pilot_spans(events, spans, root, t_trace_end)
        self._ref_unit_spans(events, spans, root, t_trace_end)
        self._ref_explicit_spans(events, spans, root, t_trace_end)
        return SpanTree(root=root, spans=spans)

    @staticmethod
    def _ref_paired(events, start_name, stop_name):
        open_by_uid: dict[str, list[tuple[float, Mapping[str, Any]]]] = {}
        pairs = []
        for ev in events:
            if ev.name == start_name:
                open_by_uid.setdefault(ev.uid, []).append((ev.time, ev.attrs))
            elif ev.name == stop_name and open_by_uid.get(ev.uid):
                t0, attrs = open_by_uid[ev.uid].pop(0)
                pairs.append((ev.uid, t0, ev.time, attrs))
        pairs.sort(key=lambda pair: pair[1])
        return pairs

    def _ref_session_span(self, events, t_trace_end):
        starts = [ev for ev in events if ev.name == "session_start"]
        closes = [ev for ev in events if ev.name == "session_close"]
        uid = starts[0].uid if starts else "session"
        t0 = starts[0].time if starts else events[0].time
        t1 = closes[-1].time if closes else t_trace_end
        return Span(f"session:{uid}", "session", t0, max(t1, t_trace_end),
                    parent=None, ref=uid)

    def _ref_pattern_spans(self, events, spans, root, t_trace_end):
        patterns = self._ref_paired(events, "entk_pattern_start",
                                    "entk_pattern_stop")
        stopped = [uid for uid, _, _, _ in patterns]
        for ev in events:
            if ev.name == "entk_pattern_start" and ev.uid not in stopped:
                patterns.append((ev.uid, ev.time, t_trace_end, ev.attrs))
        for uid, t0, t1, attrs in patterns:
            spans[f"pattern:{uid}"] = Span(
                f"pattern:{uid}", "pattern", t0, t1, parent=root.uid,
                ref=uid, attrs=dict(attrs),
            )
        pattern_spans = [s for s in spans.values() if s.name == "pattern"]
        for span in pattern_spans:
            enclosing = [
                other
                for other in pattern_spans
                if other is not span
                and other.t_start <= span.t_start
                and span.t_end <= other.t_end
                and other.duration > span.duration
            ]
            if enclosing:
                enclosing.sort(key=lambda s: (s.duration, s.uid))
                span.parent = enclosing[0].uid
        for uid, t0, t1, attrs in self._ref_paired(
            events, "entk_stage_create_start", "entk_stage_create_stop"
        ):
            i = sum(1 for s in spans.values()
                    if s.name == "entk_stage_create" and s.ref == uid)
            parent = f"pattern:{uid}" if f"pattern:{uid}" in spans else root.uid
            key = f"entk_stage_create:{uid}:{i}"
            spans[key] = Span(key, "entk_stage_create", t0, t1,
                              parent=parent, ref=uid, attrs=dict(attrs))
        charge_counts: dict[str, int] = {}
        for ev in events:
            if ev.name != "entk_pattern_overhead":
                continue
            seconds = float(ev.attrs.get("seconds", 0.0))
            i = charge_counts.get(ev.uid, 0)
            charge_counts[ev.uid] = i + 1
            parent = (f"pattern:{ev.uid}"
                      if f"pattern:{ev.uid}" in spans else root.uid)
            key = f"entk_pattern_overhead:{ev.uid}:{i}"
            spans[key] = Span(key, "entk_pattern_overhead", ev.time,
                              ev.time + seconds, parent=parent, ref=ev.uid,
                              attrs=dict(ev.attrs))

    def _ref_pilot_spans(self, events, spans, root, t_trace_end):
        submits: dict[str, float] = {}
        ends: dict[str, float] = {}
        startup_open: dict[str, float] = {}
        startup_count: dict[str, int] = {}
        for ev in events:
            if ev.name == "pilot_submit":
                submits.setdefault(ev.uid, ev.time)
                startup_open[ev.uid] = ev.time
            elif ev.name == "pilot_resubmit":
                startup_open[ev.uid] = ev.time
            elif ev.name == "agent_start" and ev.uid in startup_open:
                i = startup_count.get(ev.uid, 0)
                startup_count[ev.uid] = i + 1
                key = f"pilot_startup:{ev.uid}:{i}"
                spans[key] = Span(key, "pilot_startup",
                                  startup_open.pop(ev.uid), ev.time,
                                  parent=f"pilot:{ev.uid}", ref=ev.uid)
            elif ev.name in ("agent_stop", "agent_abort", "pilot_cancel"):
                ends[ev.uid] = ev.time
        for uid, t0 in submits.items():
            spans[f"pilot:{uid}"] = Span(
                f"pilot:{uid}", "pilot", t0, ends.get(uid, t_trace_end),
                parent=root.uid, ref=uid,
            )

    def _ref_unit_spans(self, events, spans, root, t_trace_end):
        phases = not any(
            ev.name == "span_open" and ev.attrs.get("span") in _REF_PHASES
            for ev in events
        )
        events = per_unit(events)
        created: dict[str, tuple[float, str]] = {}
        states: dict[str, list[tuple[float, str]]] = {}
        for ev in events:
            if ev.name == "unit_new":
                created.setdefault(
                    ev.uid, (ev.time, str(ev.attrs.get("pattern", "")))
                )
            elif ev.name == "unit_state":
                states.setdefault(ev.uid, []).append(
                    (ev.time, str(ev.attrs.get("state", "")))
                )
        for uid in sorted(set(created) | set(states)):
            t_created, pattern_uid = created.get(uid, (None, ""))
            seq = states.get(uid, [])
            t0 = t_created if t_created is not None else seq[0][0]
            t1 = seq[-1][0] if seq else t_trace_end
            parent = (f"pattern:{pattern_uid}"
                      if f"pattern:{pattern_uid}" in spans else root.uid)
            container = Span(f"unit:{uid}", "unit", t0, t1, parent=parent,
                             ref=uid, attrs={"pattern": pattern_uid})
            spans[container.uid] = container
            for i in range(len(seq) - 1):
                t_phase, state = seq[i]
                key = f"unit:{uid}:{i}"
                spans[key] = Span(key, f"unit:{state}", t_phase,
                                  seq[i + 1][0], parent=container.uid,
                                  ref=uid)
            if phases:
                self._ref_phase_spans(events, spans, uid, container.uid,
                                      t_trace_end)

    @staticmethod
    def _ref_phase_spans(events, spans, uid, parent, t_trace_end):
        state_name = "unit_state"
        mine = [ev for ev in events
                if ev.uid == uid and ev.name in (state_name, "unit_slots")]

        def next_state(i):
            return next((ev for ev in mine[i + 1:] if ev.name == state_name),
                        None)

        staging, launches = [], []
        for i, ev in enumerate(mine):
            after = next_state(i)
            t_end = after.time if after is not None else t_trace_end
            if ev.name == state_name:
                name = _REF_STAGING.get(ev.attrs.get("state"))
                if name is not None:
                    staging.append((name, ev.time, t_end))
            else:
                launches.append(("exec.launch", ev.time, t_end))
        counts: dict[str, int] = {}
        for name, t0, t1 in staging + launches:
            i = counts.get(name, 0)
            counts[name] = i + 1
            key = f"{name}:{uid}:{i}"
            spans[key] = Span(key, name, t0, t1, parent=parent, ref=uid)

    def _ref_explicit_spans(self, events, spans, root, t_trace_end):
        opened: dict[str, Span] = {}
        for ev in events:
            if ev.name == "span_open":
                attrs = {
                    key: value
                    for key, value in ev.attrs.items()
                    if key not in ("span", "ref", "parent")
                }
                span = Span(ev.uid, str(ev.attrs.get("span", "span")),
                            ev.time, t_trace_end,
                            parent=str(ev.attrs.get("parent", "")) or None,
                            ref=str(ev.attrs.get("ref", "")), attrs=attrs)
                opened[ev.uid] = span
                spans[ev.uid] = span
            elif ev.name == "span_close" and ev.uid in opened:
                opened.pop(ev.uid).t_end = ev.time
        for span in spans.values():
            if not span.uid.startswith("span."):
                continue
            if span.parent and span.parent in spans:
                continue
            span.parent = self._entity_span(span.ref, spans, root)


# -- workloads ---------------------------------------------------------------

_RETRY = RetryPolicy(
    max_attempts=10, backoff_base=2.0, backoff_factor=2.0,
    backoff_cap=60.0, jitter=0.5, exclude_failed_nodes=False,
)


class _EoP(EnsembleOfPipelines):
    retry_policy = _RETRY

    def stage_1(self, instance):
        return _sleep(80)

    def stage_2(self, instance):
        return _sleep(40)


class _SAL(SimulationAnalysisLoop):
    retry_policy = _RETRY

    def simulation_stage(self, iteration, instance):
        return _sleep(60)

    def analysis_stage(self, iteration, instance):
        return _sleep(20)


class _Bag(BagOfTasks):
    retry_policy = _RETRY

    def task(self, instance):
        return _sleep(100)


PATTERNS = {
    "eop": lambda: _EoP(ensemble_size=24, pipeline_size=2),
    "sal": lambda: _SAL(iterations=2, simulation_instances=24),
    "bag": lambda: _Bag(size=40),
}

FAULTS = {
    "none": {},
    "node": dict(node_mtbf=80.0, node_repair_time=120.0, retry_policy=_RETRY),
    "pilot": dict(pilot_mtbf=60.0, max_pilot_resubmits=20,
                  retry_policy=_RETRY),
    "task": dict(fault_rate=0.2, retry_policy=_RETRY),
}

#: The summary field a fault configuration must move off zero, so each
#: case provably exercises its failure domain.
_EXERCISED = {"node": "node_failures", "pilot": "pilot_faults",
              "task": "task_faults"}

#: One seed per case.  Short runs may see no pilot death at all; these
#: seeds give every fault case at least one event of its kind.
CASES = [
    (pattern, faults, seed)
    for seed, (pattern, faults) in enumerate(product(PATTERNS, FAULTS), 2)
]


@pytest.mark.parametrize("sink", ["memory", "spool"])
@pytest.mark.parametrize("pattern_name,faults,seed", CASES)
def test_one_read_analyses_match_reference(
    pattern_name, faults, seed, sink, tmp_path
):
    reset_id_counters()
    spool = {"spool_dir": tmp_path} if sink == "spool" else {}
    handle = ResourceHandle(
        "xsede.comet", cores=32, walltime=900, mode="sim", seed=seed,
        **FAULTS[faults], **spool,
    )
    handle.allocate()
    pattern = PATTERNS[pattern_name]()
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    prof = handle.profile
    assert (handle.session.spool_path is not None) == (sink == "spool")

    summary = fault_recovery_summary(prof)
    assert summary.as_dict() == _ref_fault_recovery_summary(prof).as_dict()
    if faults in _EXERCISED:
        assert getattr(summary, _EXERCISED[faults]) > 0
    else:
        assert summary.overhead == 0.0

    breakdown = breakdown_from_profile(prof, pattern)
    assert (breakdown.as_dict()
            == _ref_breakdown_from_profile(prof, pattern).as_dict())

    tree = SpanBuilder().add_events(prof).build()
    reference = _ReferenceSpanBuilder().add_events(prof).build()
    assert list(tree.spans.items()) == list(reference.spans.items())
    assert tree.root == reference.root
    path = critical_path(tree, pattern.uid)
    ref_path = critical_path(reference, pattern.uid)
    assert path.segments == ref_path.segments
    assert path.total == ref_path.total == breakdown.ttc
