"""Typed, deterministic fault plans for the serving simulation.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` entries,
each pinned to a simulation-clock timestamp.  Plans are plain data: they
can be authored by hand, loaded from JSON (``examples/faultplan.json``),
or generated from an MTBF/MTTR model via :func:`poisson_plan` using the
shared seeded RNG helpers, so a given seed always yields the same chaos.

Event kinds
-----------

``switch_down`` / ``switch_up``
    Crash / restore an INA-capable switch.  A crash clears the switch's
    aggregator SRAM (in-flight slot state is lost) and stops its
    heartbeats; schedulers fail the affected groups over to ring.
``slot_storm``
    Aggregator-slot exhaustion storm: a rogue tenant (or a misconfigured
    job) seizes ``slots`` aggregator slots for ``duration`` seconds.
    The switch stays up but INA throughput collapses, so detection
    treats it as a degraded switch until the storm passes.
``link_degrade`` / ``link_restore``
    Scale an Ethernet link's usable capacity by ``factor`` (0 < f <= 1)
    and/or apply a packet-loss fraction ``loss`` (goodput scales by
    ``1 - loss``).  Applied through :class:`~repro.network.linkstate.
    LinkLoadTracker` so both schedulers and transfer pricing see it.
``server_down`` / ``server_up``
    Fail-stop a server: its GPUs disappear and any KV cache they held is
    lost.  In-flight requests on the server are requeued for prefill
    redo; KV transfers re-pair around its decode GPUs.

Targets may be raw node/link ids (ints) or portable index references:
``"switch#0"`` means "the first INA-capable switch of the topology",
``"server#1"`` the second server, ``"link#3"`` the fourth Ethernet
link.  References are resolved against the built topology when the
injector arms, which keeps example plans independent of concrete ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import DEFAULT_SEED

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "poisson_plan",
]

#: Recognised event kinds, grouped by the resource class they hit.
FAULT_KINDS: dict[str, str] = {
    "switch_down": "switch",
    "switch_up": "switch",
    "slot_storm": "switch",
    "link_degrade": "link",
    "link_restore": "link",
    "server_down": "server",
    "server_up": "server",
}

#: Kinds that may carry an automatic recovery after ``duration`` seconds.
_AUTO_RECOVER: dict[str, str] = {
    "switch_down": "switch_up",
    "slot_storm": "",  # storm release is internal (seized slots freed)
    "link_degrade": "link_restore",
    "server_down": "server_up",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (or recovery) on the simulation clock."""

    time: float
    kind: str
    target: int | str
    #: optional automatic recovery delay (seconds); 0 disables it.
    duration: float = 0.0
    #: capacity multiplier for ``link_degrade`` (0 < factor <= 1).
    factor: float = 1.0
    #: packet-loss fraction for ``link_degrade`` (0 <= loss < 1).
    loss: float = 0.0
    #: aggregator slots seized by a ``slot_storm``.
    slots: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}"
            )
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.kind == "link_degrade":
            if not (0.0 < self.factor <= 1.0):
                raise ValueError(
                    f"link_degrade factor must be in (0, 1], got {self.factor}"
                )
            if not (0.0 <= self.loss < 1.0):
                raise ValueError(
                    f"link_degrade loss must be in [0, 1), got {self.loss}"
                )
        if self.kind == "slot_storm":
            if self.slots <= 0:
                raise ValueError("slot_storm needs slots > 0")
            if self.duration <= 0:
                raise ValueError("slot_storm needs duration > 0")

    @property
    def resource_kind(self) -> str:
        return FAULT_KINDS[self.kind]

    @property
    def effective_capacity_factor(self) -> float:
        """Usable-goodput multiplier for a degraded link."""
        return self.factor * (1.0 - self.loss)

    def recovery_event(self) -> "FaultEvent | None":
        """The automatic recovery implied by ``duration``, if any."""
        if self.duration <= 0:
            return None
        up_kind = _AUTO_RECOVER.get(self.kind, "")
        if not up_kind:
            return None
        return FaultEvent(
            time=self.time + self.duration, kind=up_kind, target=self.target
        )

    def to_dict(self) -> dict:
        d: dict = {"time": self.time, "kind": self.kind, "target": self.target}
        if self.duration:
            d["duration"] = self.duration
        if self.kind == "link_degrade":
            d["factor"] = self.factor
            if self.loss:
                d["loss"] = self.loss
        if self.kind == "slot_storm":
            d["slots"] = self.slots
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultEvent":
        known = {
            "time", "kind", "target", "duration", "factor", "loss", "slots"
        }
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown fault event fields: {sorted(extra)}")
        return cls(**d)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered schedule of fault events."""

    events: tuple[FaultEvent, ...] = ()
    #: seed for injector-side randomness (retry jitter); the plan itself
    #: is fully deterministic.
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, e.kind, str(e.target)))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        known = {"seed", "events"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown fault plan fields: {sorted(extra)}")
        events = tuple(
            FaultEvent.from_dict(e) for e in d.get("events", ())
        )
        return cls(events=events, seed=int(d.get("seed", DEFAULT_SEED)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def poisson_plan(
    horizon_s: float,
    mtbf_s: float,
    mttr_s: float,
    rng: np.random.Generator,
    *,
    switches: int = 1,
    servers: int = 0,
    links: int = 0,
    seed: int = DEFAULT_SEED,
) -> FaultPlan:
    """Generate a crash/repair plan from an exponential MTBF/MTTR model.

    Each eligible resource (the first ``switches`` INA switches, first
    ``servers`` servers, first ``links`` Ethernet links — via portable
    ``"#i"`` references) alternates healthy and failed states with
    ``Exp(mtbf_s)`` uptimes and ``Exp(mttr_s)`` outages, truncated to the
    horizon.  Outages that would outlive the horizon are still given a
    recovery event so every run ends healthy.
    """
    if mtbf_s <= 0 or mttr_s <= 0:
        raise ValueError("mtbf_s and mttr_s must be > 0")
    events: list[FaultEvent] = []

    def _walk(prefix: str, down_kind: str, idx: int) -> None:
        t = float(rng.exponential(mtbf_s))
        while t < horizon_s:
            outage = max(1e-3, float(rng.exponential(mttr_s)))
            events.append(
                FaultEvent(
                    time=t,
                    kind=down_kind,
                    target=f"{prefix}#{idx}",
                    duration=outage,
                    # link brownouts cut capacity rather than fail-stop
                    factor=0.25 if down_kind == "link_degrade" else 1.0,
                )
            )
            t += outage + float(rng.exponential(mtbf_s))

    for i in range(switches):
        _walk("switch", "switch_down", i)
    for i in range(servers):
        _walk("server", "server_down", i)
    for i in range(links):
        _walk("link", "link_degrade", i)
    return FaultPlan(events=tuple(events), seed=seed)
