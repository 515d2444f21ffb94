"""An unobserved run builds no telemetry event.

Every call site emits under ``if obs.active:``, and the default
observer has no subscribers. So with every event class in
:mod:`repro.obs.events` patched to raise on construction, the
benchmark's two workloads still complete, with summaries equal to the
unpatched runs': storm-2tracks (faults, background traffic) with online
replanning armed, and the 3-replica sessions fleet. An observed twin
proves the patch bites.
"""

from __future__ import annotations

import json

import pytest

from perfbench.workloads import spec_dict
from repro.obs import events
from repro.scenario import ScenarioSpec, run_scenario

EVENT_TYPES = [getattr(events, name) for name in events.__all__]

SPECS = {
    "storm-2tracks": {
        **spec_dict("storm-2tracks"),
        "replan": {
            "queue_high": 3,
            "pending_high": 12,
            "sustain_checks": 4,
            "cooldown_s": 5.0,
        },
    },
    "sessions-fleet": spec_dict("sessions-fleet"),
}


class _EventBuilt(Exception):
    pass


def _refuse(self, *args, **kwargs):
    raise _EventBuilt(type(self).__name__)


def _summary(spec: dict) -> str:
    res = run_scenario(ScenarioSpec.from_dict(spec))
    return json.dumps(res.summary, sort_keys=True)


@pytest.fixture
def no_events(monkeypatch):
    for cls in EVENT_TYPES:
        monkeypatch.setattr(cls, "__init__", _refuse)


def test_every_event_class_is_listed():
    names = {
        name
        for name, obj in vars(events).items()
        if isinstance(obj, type) and obj.__module__ == events.__name__
    }
    assert names == set(events.__all__)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_unobserved_run_builds_no_event(name, monkeypatch):
    expected = _summary(SPECS[name])
    for cls in EVENT_TYPES:
        monkeypatch.setattr(cls, "__init__", _refuse)
    assert _summary(SPECS[name]) == expected


@pytest.mark.parametrize("name", sorted(SPECS))
def test_observed_twin_builds_events(name, no_events):
    with pytest.raises(_EventBuilt):
        _summary({**SPECS[name], "observer": {"flight": True}})
