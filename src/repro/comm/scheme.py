"""The CollectiveScheme protocol and registry: one dispatch point for
every communication-scheduling scheme.

Eq. 7 selects, per tensor-parallel group, INA (``alpha``) or ring
(``beta``); a *scheme* bundles everything a serving system needs to know
about that choice. Its one primitive is route resolution:
:meth:`CollectiveScheme.route` turns a ``(mode, switch)`` policy of a
group into a :class:`~repro.comm.context.Route` — switch, leaders and
member order fixed once on the offline view — carrying the directed
links the policy occupies and a ``time`` that reads only their live
bandwidths. Everything else derives from routes: the Eq. 7 estimate
(Algorithm 2's ``getlatency``) is the argmin over the scheme's candidate
routes plus the plain ring, a committed policy is priced on its route,
and the online scheduler's policy-table rows are routes built at bind
time.

Every layer dispatches through :func:`get_scheme` instead of
``SchemeKind`` ladders: ``latency.estimate_group_step`` /
``price_group_step``, the planner's candidate enumeration and estimation
cache keys, the online scheduler's policy cost tables, the engine's
static pricing, the controller's failover direction, and the CLI. Adding
a collective is one file registering one subclass (see
``docs/COLLECTIVES.md``); ``repro/comm/twostage.py`` and
``repro/comm/tree.py`` are the reference examples.

The four classic schemes — the paper's three baselines plus HeroServe —
live here; their estimates, forced times and plans are pinned
byte-identical by ``tests/data/golden_scheme_parity.json``:

* ``RING``       — ring all-reduce only (DistServe),
* ``INA_SYNC``   — SwitchML: synchronous INA, slot-window throughput cap,
* ``INA_ASYNC``  — ATP: asynchronous INA, end-host fallback under slot
  contention,
* ``HYBRID``     — HeroServe: NVLink first-stage reduction, then the
  cheaper of INA/ring among per-server leaders.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

from repro.comm.context import CommContext, Route
from repro.comm.hybrid import group_by_server, hybrid_routes, leader_legs
from repro.comm.ina import InaRoute, ina_route, select_ina_switch, switch_delay
from repro.comm.ring import RingRoute, ring_order, ring_route
from repro.switch.protocols import ATP_FALLBACK_PENALTY, DEFAULT_RTT

#: Per-job aggregator-slot share. The Tofino pool (512 slots in our
#: dataplane model) is divided among tenant jobs by the control plane's
#: SlotAllocator; a serving deployment shares each switch with the other
#: phase's groups and background tenants, so a job's working share is a
#: quarter-pool. ATP's asynchronous streaming needs ~bw*RTT/payload slots
#: in flight to saturate a 100G link (~98 at 1 KiB payloads); contention
#: eating into the share is what triggers its end-host fallback.
DEFAULT_N_SLOTS = 128
DEFAULT_SLOT_PAYLOAD = 1024  # bytes

#: ATP goodput efficiency relative to SwitchML: ATP's best-effort packet
#: format carries per-packet job/sequence metadata and reserves header
#: room for the fallback path, so its payload fraction per MTU is lower
#: (Lao et al. report ~10% framing overhead vs SwitchML's packed slots).
ATP_WIRE_EFFICIENCY = 0.9

class SchemeKind(enum.Enum):
    """Communication scheduling scheme of a serving system."""

    RING = "ring"
    INA_SYNC = "ina_sync"
    INA_ASYNC = "ina_async"
    HYBRID = "hybrid"
    RING_2STAGE = "ring-2stage"
    TREE = "tree"


@dataclass(frozen=True)
class GroupCommEstimate:
    """Chosen mode and per-step latency for one TP group (Eq. 7 output)."""

    scheme: SchemeKind
    #: Eq. 7 selector: "ina" (alpha=1) or "ring" (beta=1); hybrid reports
    #: its Ethernet-stage mode, other schemes their own mode string.
    mode: str
    ina_switch: int | None
    step_time: float
    #: directed links the chosen policy occupies (for load registration)
    links: tuple[int, ...]


def _window_cap_time(
    data_bytes: float, n_slots: int, slot_payload: int
) -> float:
    """Minimum time the SwitchML window allows for ``data_bytes``."""
    goodput = n_slots * slot_payload / DEFAULT_RTT
    return data_bytes / goodput


def _atp_cost_factor(
    bottleneck_bw: float,
    n_slots: int,
    slot_payload: int,
    contention: float,
) -> float:
    """Mean per-chunk cost multiplier from ATP's end-host fallback."""
    demand = bottleneck_bw * DEFAULT_RTT / slot_payload
    available = max(1.0, (1.0 - contention) * n_slots)
    in_switch = min(1.0, available / max(demand, 1e-9))
    return in_switch + (1.0 - in_switch) * ATP_FALLBACK_PENALTY


def rank_switches(
    ctx: CommContext, gpus: Sequence[int], k: int
) -> list[int]:
    """The ``k`` INA-capable switches nearest to the group."""
    # Tie-break equal delays on the switch id so candidate order (and
    # therefore policy enumeration) is deterministic across runs.
    return sorted(
        ctx.built.ina_capable_switches(),
        key=lambda sw: (switch_delay(ctx, gpus, sw), sw),
    )[: max(1, k)]


class CollectiveScheme(ABC):
    """One collective-communication scheme, pluggable at every layer.

    Subclasses set ``kind`` (their :class:`SchemeKind` tag) and
    ``heterogeneous`` (the network view their routes assume), extend
    ``_resolve`` for their own modes, and list their routes in
    ``_candidates`` (what Eq. 7 weighs) and ``_policy_rows`` (the online
    table).
    Register one instance with :func:`register_scheme` and every layer —
    planner, estimation cache, policy tables, engine, failover, CLI,
    baselines — picks it up with zero special-casing.
    """

    kind: SchemeKind
    #: network view: True when the scheme stages traffic over NVLink, so
    #: its contexts should route through intra-server links.
    heterogeneous: bool = False

    @property
    def name(self) -> str:
        """Canonical registry key (the :class:`SchemeKind` value)."""
        return self.kind.value

    # -- protocol ----------------------------------------------------------

    def policy_key(
        self, mode: str = "ring", switch: int | None = None
    ) -> str:
        """Canonical policy-table name of a ``(mode, switch)`` route."""
        return mode if switch is None else f"{mode}@{switch}"

    def switch_demand(self, n_candidates: int) -> int:
        """INA switch candidates the policy table consumes (0 = none)."""
        return 0

    def failover_target(self) -> str:
        """Mode a group degrades to when its aggregation switch dies."""
        return "ring"

    # -- route resolution --------------------------------------------------

    def route(
        self,
        ctx: CommContext,
        gpus: Sequence[int],
        mode: str = "ring",
        switch: int | None = None,
    ) -> Route:
        """Resolve one ``(mode, switch)`` policy of the group, once.

        Resolution reads the offline capacity view (Algorithm 2's
        precomputed ``P``/``D``), never the live load.
        """
        return self._resolve(ctx.offline(), list(gpus), mode, switch)

    def _resolve(
        self,
        view: CommContext,
        gpus: list[int],
        mode: str,
        switch: int | None,
    ) -> Route:
        """Build the route of one mode, resolving on ``view``."""
        if mode in ("ring", "none"):
            return ring_route(view, gpus)
        raise ValueError(f"scheme {self.name!r} cannot price mode {mode!r}")

    @abstractmethod
    def _candidates(self, view: CommContext, gpus: list[int]) -> list[Route]:
        """The scheme's own Eq. 7 routes for a multi-GPU group."""

    def _policy_rows(
        self, view: CommContext, gpus: list[int], switches: list[int]
    ) -> list[Route]:
        """The scheme's own policy-table rows, given the ranked switches."""
        return []

    def policy_routes(
        self, ctx: CommContext, gpus: Sequence[int], n_switch_candidates: int
    ) -> list[Route]:
        """The group's candidate policy-table rows, plain ring last."""
        gpus = list(gpus)
        ring = ring_route(ctx, gpus)
        if len(gpus) == 1:
            # Degenerate single-GPU group: nothing to synchronise. Every
            # scheme exposes the same zero-cost "ring" policy.
            return [ring]
        view = ctx.offline()
        k = self.switch_demand(n_switch_candidates)
        switches = rank_switches(view, gpus, k) if k > 0 else []
        return self._policy_rows(view, gpus, switches) + [ring]

    # -- offline pricing ---------------------------------------------------

    def _price(
        self,
        route: Route,
        t: float,
        ctx: CommContext,
        data_bytes: float,
        n_slots: int,
        slot_payload: int,
        contention: float,
    ) -> float:
        """Protocol correction of a route's time ``t`` (estimate, forced)."""
        return t

    def estimate_route(
        self,
        ctx: CommContext,
        gpus: Sequence[int],
        data_bytes: float,
        n_slots: int = DEFAULT_N_SLOTS,
        slot_payload: int = DEFAULT_SLOT_PAYLOAD,
        contention: float = 0.0,
    ) -> tuple[Route, float]:
        """The Eq. 7 winner among the group's routes, with its step time.

        This is Algorithm 2's ``getlatency``: the cheapest of the
        scheme's candidate routes against the plain ring. Every scheme
        keeps the ring fallback, because all baselines fall back to NCCL
        when INA would be slower. Single-GPU groups short-circuit to a
        zero-cost ring. Pricing reads no route's ``links``, so no
        footprint is walked until a caller reads the winner's.

        The candidates are resolved on ``ctx`` itself: the planner's
        view is the offline one, and an estimate made on a live view
        (an online replan, a congestion study) chooses switches and
        leaders for that state.
        """
        gpus = list(gpus)
        if not gpus:
            raise ValueError("empty GPU group")
        ring = ring_route(ctx, gpus)
        t_ring = ring.time(ctx, data_bytes)
        best, t_best = ring, t_ring
        if len(gpus) > 1:
            t_best = float("inf")
            for route in self._candidates(ctx, gpus):
                t = self._price(
                    route, route.plan_time(ctx, data_bytes), ctx,
                    data_bytes, n_slots, slot_payload, contention,
                )
                if t < t_best:
                    best, t_best = route, t
            if not t_best <= t_ring:
                best, t_best = ring, t_ring
        return best, t_best

    def estimate_time(
        self,
        ctx: CommContext,
        gpus: Sequence[int],
        data_bytes: float,
        n_slots: int = DEFAULT_N_SLOTS,
        slot_payload: int = DEFAULT_SLOT_PAYLOAD,
        contention: float = 0.0,
    ) -> GroupCommEstimate:
        """One synchronisation step's latency under this scheme.

        :meth:`estimate_route`'s winner returned with its selector and
        the links it occupies.
        """
        best, t_best = self.estimate_route(
            ctx, gpus, data_bytes, n_slots, slot_payload, contention
        )
        return GroupCommEstimate(
            self.kind, best.mode, best.switch, t_best, best.links
        )

    def forced_time(
        self,
        ctx: CommContext,
        gpus: Sequence[int],
        mode: str,
        switch: int | None,
        data_bytes: float,
        n_slots: int = DEFAULT_N_SLOTS,
        slot_payload: int = DEFAULT_SLOT_PAYLOAD,
        contention: float = 0.0,
    ) -> float:
        """Latency of executing a *fixed* policy at current link state.

        Static systems commit to the plan's mode/switch and do not
        re-select per iteration; only the physics (live bandwidths along
        the committed route) varies.
        """
        gpus = list(gpus)
        if len(gpus) <= 1 or data_bytes <= 0:
            return 0.0
        route = self.route(ctx, gpus, mode, switch)
        return self._price(
            route, route.time(ctx, data_bytes), ctx,
            data_bytes, n_slots, slot_payload, contention,
        )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, CollectiveScheme] = {}


def register_scheme(scheme: CollectiveScheme) -> CollectiveScheme:
    """Register a scheme under its canonical name; returns it."""
    key = scheme.name
    if key in _REGISTRY:
        raise ValueError(f"scheme {key!r} is already registered")
    _REGISTRY[key] = scheme
    return scheme


def get_scheme(key: "SchemeKind | str | CollectiveScheme") -> CollectiveScheme:
    """Resolve a scheme by kind, canonical name, or identity."""
    if isinstance(key, CollectiveScheme):
        return key
    name = key.value if isinstance(key, SchemeKind) else str(key)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown collective scheme {name!r}; "
            f"registered: {sorted(_REGISTRY)}"
        ) from None


def registered_schemes() -> tuple[CollectiveScheme, ...]:
    """Every registered scheme, in registration order."""
    return tuple(_REGISTRY.values())


# ---------------------------------------------------------------------------
# the four classic schemes
# ---------------------------------------------------------------------------


class RingScheme(CollectiveScheme):
    """Plain Ethernet ring all-reduce (DistServe / NCCL)."""

    kind = SchemeKind.RING

    def _candidates(self, view, gpus):
        return []


class _InaSchemeBase(CollectiveScheme):
    """Shared routes of the homogeneous-network INA flavours.

    All members push over Ethernet to one switch. The estimate and
    forced pricing apply the protocol's throughput model (``_price``);
    live policy rows read congestion from the link bandwidths alone.
    """

    def switch_demand(self, n_candidates: int) -> int:
        return n_candidates

    def _resolve(self, view, gpus, mode, switch):
        if mode == "ina":
            if switch is None:
                raise ValueError("ina mode requires a switch")
            return ina_route(view, gpus, switch)
        return super()._resolve(view, gpus, mode, switch)

    def _candidates(self, view, gpus):
        return [ina_route(view, gpus, select_ina_switch(view, gpus))]

    def _policy_rows(self, view, gpus, switches):
        return [ina_route(view, gpus, sw) for sw in switches]


class InaSyncScheme(_InaSchemeBase):
    """SwitchML: synchronous INA with the slot-window throughput cap."""

    kind = SchemeKind.INA_SYNC

    def _price(
        self, route, t, ctx, data_bytes, n_slots, slot_payload, contention
    ):
        if not isinstance(route, InaRoute):
            return t
        return max(t, _window_cap_time(data_bytes, n_slots, slot_payload))


class InaAsyncScheme(_InaSchemeBase):
    """ATP: asynchronous INA with end-host fallback under contention."""

    kind = SchemeKind.INA_ASYNC

    def _price(
        self, route, t, ctx, data_bytes, n_slots, slot_payload, contention
    ):
        if not isinstance(route, InaRoute):
            return t
        bw = min(ctx.path_bottleneck(g, route.switch) for g in route.members)
        t *= _atp_cost_factor(bw, n_slots, slot_payload, contention)
        t /= ATP_WIRE_EFFICIENCY
        return t


class HybridScheme(CollectiveScheme):
    """HeroServe's NVLink-first hybrid all-reduce.

    Multi-server groups stage through per-server leaders
    (:func:`~repro.comm.hybrid.hybrid_routes`); the estimate and forced
    modes are the Ethernet stage's (``"ina"``/``"ring"``), policy rows
    spell them ``"hybrid-ina"``/``"hybrid-ring"``. A one-server group is
    a pure NVLink ring.
    """

    kind = SchemeKind.HYBRID
    heterogeneous = True

    def switch_demand(self, n_candidates: int) -> int:
        return n_candidates

    def _resolve(self, view, gpus, mode, switch):
        servers = list(group_by_server(view, gpus).values())
        staged = mode in ("ina", "hybrid-ina", "ring", "hybrid-ring")
        if staged and len(servers) > 1:
            return hybrid_routes(view, servers, [mode], switch)[0]
        if mode == "nvlink":
            # Policy row of a one-server group: registers no links.
            return RingRoute(mode, None, (), tuple(ring_order(view, gpus)))
        if mode == "none" and len(servers) == 1:
            # The estimate's NVLink ring registers the leader's legs.
            return RingRoute(
                mode,
                None,
                lambda: leader_legs(view, servers, [servers[0][0]]),
                tuple(ring_order(view, gpus)),
            )
        if staged or mode == "none":
            return ring_route(view, gpus)
        return super()._resolve(view, gpus, mode, switch)

    def _candidates(self, view, gpus):
        servers = list(group_by_server(view, gpus).values())
        if len(servers) == 1:
            return [self._resolve(view, gpus, "none", None)]
        # Both Ethernet stages share the leaders elected against the
        # switch chosen for provisional leaders.
        return hybrid_routes(view, servers, ["ina", "ring"])

    def _policy_rows(self, view, gpus, switches):
        servers = list(group_by_server(view, gpus).values())
        if len(servers) == 1:
            # One server: the NVLink ring is unbeatable and uses no
            # fabric links; the Ethernet ring fallback still follows.
            return [self._resolve(view, gpus, "nvlink", None)]
        rows = [
            hybrid_routes(view, servers, ["hybrid-ina"], sw)[0]
            for sw in switches
        ]
        # The leader ring's leaders face the nearest switch, fixed here.
        rows += hybrid_routes(view, servers, ["hybrid-ring"], switches[0])
        return rows


RING_SCHEME = register_scheme(RingScheme())
INA_SYNC_SCHEME = register_scheme(InaSyncScheme())
INA_ASYNC_SCHEME = register_scheme(InaAsyncScheme())
HYBRID_SCHEME = register_scheme(HybridScheme())

__all__ = [
    "ATP_WIRE_EFFICIENCY",
    "DEFAULT_N_SLOTS",
    "DEFAULT_SLOT_PAYLOAD",
    "CollectiveScheme",
    "GroupCommEstimate",
    "Route",
    "SchemeKind",
    "get_scheme",
    "rank_switches",
    "register_scheme",
    "registered_schemes",
    "RING_SCHEME",
    "INA_SYNC_SCHEME",
    "INA_ASYNC_SCHEME",
    "HYBRID_SCHEME",
]
