"""Hot-path classes must stay ``__slots__``-only.

At the million-unit scale every per-event / per-unit instance dict is a
measurable resident term (a bare ``__dict__`` costs more than the whole
slotted object).  This audit pins the classes that sit on those paths:
adding a field is fine, silently reverting one of them to dict-backed
instances is a regression this test turns into a failure.
"""

import pytest

from repro.lint.model import Finding
from repro.pilot.description import (
    ComputePilotDescription,
    ComputeUnitDescription,
    StagingDirective,
)
from repro.pilot.unit import ComputeUnit
from repro.pilot.unit_store import UnitTimestamps
from repro.telemetry.metrics import MetricSeries
from repro.telemetry.sink import MemorySink, ProfileEvent, SpoolSink
from repro.telemetry.span import Span

#: Every class audited as slots-only.  Grow this list; drop an entry only
#: when its class is deleted.
AUDITED = [
    # one per trace event — the single hottest allocation
    ProfileEvent,
    # one per explicit/derived span in analytics
    Span,
    # one per unit (view + timestamp view over the columnar store)
    ComputeUnit,
    UnitTimestamps,
    # one per submitted task
    ComputeUnitDescription,
    ComputePilotDescription,
    StagingDirective,
    # one per metric series / sink per session
    MetricSeries,
    MemorySink,
    SpoolSink,
    # one per lint diagnostic (repo-wide sweeps)
    Finding,
]


def _has_instance_dict(cls) -> bool:
    return any("__dict__" in vars(base) for base in cls.__mro__)


@pytest.mark.parametrize("cls", AUDITED, ids=lambda c: c.__name__)
def test_audited_class_has_no_instance_dict(cls):
    assert not _has_instance_dict(cls), (
        f"{cls.__name__} grew an instance __dict__; declare __slots__ "
        f"(or dataclass(slots=True)) on it and every base"
    )


def test_profile_event_rejects_ad_hoc_attributes():
    ev = ProfileEvent(0.0, "x", "u")
    with pytest.raises(AttributeError):
        ev.extra = 1
