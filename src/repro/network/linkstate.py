"""Link-load tracking: the live view of remaining bandwidth ``B(e)``.

The paper's agents poll hardware counters on switches and DCGM on GPU
servers to obtain per-link utilisation; the central controller aggregates
them. Here a :class:`LinkLoadTracker` plays that role for the simulator:
components *register* sustained loads (bytes/s) on directed links and the
tracker answers ``B(e) = max(C(e) - load(e), floor)`` plus utilisation
ratios, all as NumPy arrays so the planner and the online scheduler can
consume them vectorised.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.network.topology import Topology

#: Never report less than this fraction of capacity as available, mirroring
#: the transport layer's ability to squeeze some goodput through a busy
#: link rather than fully starving (and avoiding divide-by-zero downstream).
MIN_AVAILABLE_FRACTION = 0.02


@dataclass
class LinkLoadTracker:
    """Registered sustained loads over directed links.

    Loads are additive: each registration returns a handle that must be
    released. An exponentially-weighted *utilisation history* is kept for
    the online scheduler's periodic penalty refresh (Eq. 18 uses monitored
    ``B(e*)`` of intersecting links).
    """

    topology: Topology
    ewma_alpha: float = 0.3
    _capacity: np.ndarray = field(init=False)
    _base_capacity: np.ndarray = field(init=False)
    _degrade: dict[int, float] = field(default_factory=dict, init=False)
    #: what-if intervention scales (absolute, per link: capacity =
    #: base * scale * degrade); distinct from fault degradation so a
    #: counterfactually upgraded link can still brown out.
    _scale: dict[int, float] = field(default_factory=dict, init=False)
    _load: np.ndarray = field(init=False)
    _ewma_util: np.ndarray = field(init=False)
    _next_handle: int = field(default=0, init=False)
    _registrations: dict[int, tuple[np.ndarray, float | np.ndarray]] = field(
        default_factory=dict, init=False
    )
    #: tolerated double-releases (each one is a caller bug worth counting)
    double_releases: int = field(default=0, init=False)
    #: monotonic mutation counter: bumped on every register/release/
    #: degradation/reset, so caches keyed on this tracker's state (the
    #: planner's estimation cache) can detect staleness in O(1).
    version: int = field(default=0, init=False)
    #: ``(version, B(e))`` of the last :meth:`available` read
    _available: tuple[int, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha in (0,1], got {self.ewma_alpha}")
        self._base_capacity = self.topology.capacity_array()
        self._capacity = self._base_capacity.copy()
        self._load = np.zeros_like(self._capacity)
        self._ewma_util = np.zeros_like(self._capacity)

    # -- registration ----------------------------------------------------

    def register(
        self,
        link_ids: Sequence[int] | np.ndarray,
        rate: float | np.ndarray,
    ) -> int:
        """Add sustained load on links; returns one handle for all of them.

        ``rate`` is bytes/s on each link, or an array of per-link rates
        shaped like ``link_ids``.
        """
        ids = np.asarray(link_ids, dtype=np.int64)
        if isinstance(rate, np.ndarray):
            rate = rate.astype(np.float64)  # a copy the caller cannot mutate
            if rate.shape != ids.shape:
                raise ValueError(
                    f"rate: shape {rate.shape} does not match link_ids "
                    f"shape {ids.shape}"
                )
            if (rate < 0).any():
                raise ValueError(f"rate: every rate must be >= 0, got {rate}")
        elif rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self._load)):
            raise ValueError("link id out of range")
        np.add.at(self._load, ids, rate)
        self.version += 1
        handle = self._next_handle
        self._next_handle += 1
        self._registrations[handle] = (ids, rate)
        return handle

    def release(self, handle: int, strict: bool = True) -> None:
        """Remove a previously registered load.

        An unknown handle means the caller double-released (or released
        after :meth:`reset`). By default that raises a descriptive
        ``KeyError``; with ``strict=False`` it is tolerated and counted
        in :attr:`double_releases` instead — failover paths that may
        race a cancellation use this so the leak stays visible without
        killing a long simulation.
        """
        entry = self._registrations.pop(handle, None)
        if entry is None:
            if strict:
                raise KeyError(
                    f"link-load handle {handle!r} is not registered: it was "
                    "already released, invalidated by reset(), or never "
                    "issued by this tracker"
                )
            self.double_releases += 1
            return
        ids, rate = entry
        np.add.at(self._load, ids, -rate)
        self.version += 1
        # Guard against floating-point drift below zero.
        np.maximum(self._load, 0.0, out=self._load)

    def active_registrations(self) -> int:
        """Number of currently registered loads."""
        return len(self._registrations)

    @property
    def handles_issued(self) -> int:
        """Handles :meth:`register` has returned since construction."""
        return self._next_handle

    # -- queries -----------------------------------------------------------

    @property
    def capacity(self) -> np.ndarray:
        """Per-link capacity ``C(e)`` (bytes/s); do not mutate.

        Reflects any active fault-injected degradations; the pristine
        values live in :meth:`base_capacity`.
        """
        return self._capacity

    @property
    def base_capacity(self) -> np.ndarray:
        """Undegraded per-link capacity; do not mutate."""
        return self._base_capacity

    # -- fault injection ---------------------------------------------------

    def _recompute_capacity(self, link_id: int) -> None:
        self._capacity[link_id] = (
            self._base_capacity[link_id]
            * self._scale.get(link_id, 1.0)
            * self._degrade.get(link_id, 1.0)
        )

    def set_link_factor(self, link_id: int, factor: float) -> None:
        """Scale one directed link's capacity to ``factor``x its base.

        Models brownouts (capacity cuts, loss-induced goodput collapse)
        injected by :mod:`repro.faults`. ``factor=1`` restores the link.
        Composes multiplicatively with any what-if intervention scale
        (:meth:`scale_links`).
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        if not 0 <= link_id < len(self._capacity):
            raise ValueError(f"link id {link_id} out of range")
        if factor >= 1.0:
            self._degrade.pop(link_id, None)
        else:
            self._degrade[link_id] = factor
        self._recompute_capacity(link_id)
        self.version += 1

    def degraded_links(self) -> dict[int, float]:
        """Currently degraded links as ``{link_id: factor}``."""
        return dict(self._degrade)

    # -- what-if interventions ---------------------------------------------

    def scale_links(
        self, link_ids: list[int] | np.ndarray, factor: float
    ) -> None:
        """Set (not multiply) a counterfactual capacity scale on links.

        Used by the what-if profiler (:mod:`repro.obs.whatif`) to model
        "what if this link class were ``factor``x faster" without forking
        the topology builders. Unlike :meth:`set_link_factor` the factor
        may exceed 1 (upgrades); the call is idempotent so re-applying a
        config to a shared tracker cannot compound. ``factor=1`` clears.
        """
        if factor <= 0.0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        for link_id in np.asarray(link_ids, dtype=np.int64).tolist():
            if not 0 <= link_id < len(self._capacity):
                raise ValueError(f"link id {link_id} out of range")
            if factor == 1.0:
                self._scale.pop(link_id, None)
            else:
                self._scale[link_id] = factor
            self._recompute_capacity(link_id)
        self.version += 1

    def scale_class(self, selector: str, factor: float) -> int:
        """Scale every link whose class (or kind) matches ``selector``.

        ``selector`` is a class name from
        :meth:`~repro.network.topology.Topology.link_classes`
        (``nvlink``/``pcie``/``ethernet_access``/``ethernet_trunk``) or a
        raw kind name (``ethernet``). Returns the number of links scaled
        (0 when the topology has no such links — not an error, so one
        intervention catalog spans topologies).
        """
        classes = self.class_names()
        kinds = self.kind_names()
        vocab = set(classes) | set(kinds) | {
            "nvlink", "pcie", "ethernet", "ethernet_access", "ethernet_trunk"
        }
        if selector not in vocab:
            raise ValueError(
                f"unknown link selector {selector!r}; expected one of "
                f"{sorted(vocab)}"
            )
        ids = [
            i
            for i in range(len(self._capacity))
            if classes[i] == selector or kinds[i] == selector
        ]
        if ids:
            self.scale_links(ids, factor)
        return len(ids)

    def load(self) -> np.ndarray:
        """Copy of the per-link registered load (bytes/s)."""
        return self._load.copy()

    def available(self) -> np.ndarray:
        """Remaining bandwidth ``B(e)`` per directed link (bytes/s).

        One read-only array per tracker :attr:`version`, shared by every
        reader of that version. A write builds a new array on the next
        read and never touches the old one, so a held array is a
        snapshot.
        """
        cached = self._available
        if cached is not None and cached[0] == self.version:
            return cached[1]
        floor = MIN_AVAILABLE_FRACTION * self._capacity
        avail = np.maximum(self._capacity - self._load, floor)
        avail.flags.writeable = False
        self._available = (self.version, avail)
        return avail

    def utilization(self) -> np.ndarray:
        """Instantaneous ``load / capacity`` per directed link (can be >1)."""
        return self._load / self._capacity

    def available_on(self, link_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """``B(e)`` restricted to the given links."""
        return self.available()[np.asarray(link_ids, dtype=np.int64)]

    def path_bottleneck(self, link_ids: Sequence[int]) -> float:
        """``min_e B(e)`` over a path — the Eq. 11 denominator."""
        if not link_ids:
            return float("inf")
        return float(self.available_on(link_ids).min())

    def path_max_utilization(self, link_ids: Sequence[int]) -> float:
        """``max_e load/C`` over a path — the policy cost base of §III-D."""
        if not link_ids:
            return 0.0
        ids = np.asarray(link_ids, dtype=np.int64)
        return float((self._load[ids] / self._capacity[ids]).max())

    # -- monitoring --------------------------------------------------------

    def _kind_names(self) -> list[str]:
        from repro.network.topology import LinkKind

        if not hasattr(self, "_kind_name_cache"):
            kinds = self.topology.kind_array()
            self._kind_name_cache = [
                LinkKind(int(k)).name.lower() for k in kinds
            ]
        return self._kind_name_cache

    def kind_names(self) -> list[str]:
        """Per-link kind names (``"ethernet"``, ``"nvlink"``, ...)
        indexed by link id — the attribution layer labels congested
        links with these."""
        return self._kind_names()

    def class_names(self) -> list[str]:
        """Per-link class names (``ethernet_access``/``ethernet_trunk``/
        ``nvlink``/``pcie``) indexed by link id; cached."""
        if not hasattr(self, "_class_name_cache"):
            self._class_name_cache = self.topology.link_classes()
        return self._class_name_cache

    def utilization_by_class(self) -> dict[str, tuple[float, float]]:
        """``{class: (mean, max)}`` instantaneous utilisation per link
        class — the finer-grained sibling of :meth:`utilization_by_kind`
        that separates leader/access Ethernet from inter-track trunks."""
        util = self.utilization()
        names = self.class_names()
        out: dict[str, tuple[float, float]] = {}
        for cls in sorted(set(names)):
            mask = np.array([n == cls for n in names])
            u = util[mask]
            if u.size:
                out[cls] = (float(u.mean()), float(u.max()))
        return out

    def utilization_by_kind(self) -> dict[str, tuple[float, float]]:
        """``{kind: (mean, max)}`` instantaneous utilisation per link kind.

        The aggregate the observability layer exports as gauges — the
        simulator's stand-in for the per-technology dashboards built from
        DCGM (NVLink/PCIe) and switch counters (Ethernet) in §III-D.
        """
        util = self.utilization()
        names = self._kind_names()
        out: dict[str, tuple[float, float]] = {}
        for kind in sorted(set(names)):
            mask = np.array([n == kind for n in names])
            u = util[mask]
            if u.size:
                out[kind] = (float(u.mean()), float(u.max()))
        return out

    def busy_links(
        self, min_util: float = 0.0
    ) -> list[tuple[int, str, float]]:
        """``(link_id, kind, utilisation)`` for links above ``min_util``.

        Bounded export for per-link gauges: idle links are skipped so a
        large fabric does not flood the metrics snapshot with zeros.
        """
        util = self.utilization()
        names = self._kind_names()
        return [
            (int(i), names[i], float(u))
            for i, u in enumerate(util)
            if u > min_util
        ]

    def poll(self) -> np.ndarray:
        """Update and return the EWMA utilisation (the 'hardware counters').

        Called periodically by the central controller in the prototype;
        the simulator calls it on its monitoring cadence.
        """
        inst = self.utilization()
        self._ewma_util *= 1.0 - self.ewma_alpha
        self._ewma_util += self.ewma_alpha * inst
        return self._ewma_util.copy()

    def ewma_utilization(self) -> np.ndarray:
        """Last EWMA utilisation snapshot without updating it."""
        return self._ewma_util.copy()

    def reset(self) -> None:
        """Drop all registrations, degradations, intervention scales,
        and history (between benchmark runs)."""
        self._load[:] = 0.0
        self._ewma_util[:] = 0.0
        self._registrations.clear()
        self._degrade.clear()
        self._scale.clear()
        self._capacity[:] = self._base_capacity
        self.version += 1
