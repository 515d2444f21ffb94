"""Load-aware online scheduler (paper §III-D).

One :class:`LoadAwareScheduler` exists per tensor-parallel GPU group. At
construction it asks the group's scheme (from the CollectiveScheme
registry) for its policy routes — the rows of the Fig. 5 policy
selection table, each resolved once into the links it occupies:

* for the hybrid (HeroServe) scheme: ``hybrid-ina`` via each of the
  ``n_switch_candidates`` nearest INA-capable switches, ``hybrid-ring``
  (NVLink stage + leader ring), and the plain ``ring`` fallback;
* for homogeneous INA schemes: ``ina`` via each candidate switch plus
  ``ring``;
* for the ring scheme: ``ring`` only (nothing to adapt — DistServe);
* any registered extra schemes (``ring-2stage``, ``tree``, …) contribute
  their rows when enabled via ``extra_schemes``, name-deduplicated.

On every ncclAllreduce-equivalent call, :meth:`decide` consults the
policy cost table (Eq. 16), applies the Eq. 17 virtual-utilisation
updates, and prices the chosen row's route against the *live* link
state of exactly the links it registers — so
as links congest, traffic shifts between NVLink-offloaded and pure
Ethernet routes, and across switches. The central controller refreshes
``b_c`` and the penalty matrix periodically (Eq. 18).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.comm.context import CommContext, Route
from repro.comm.scheme import (
    CollectiveScheme,
    SchemeKind,
    get_scheme,
    rank_switches,  # noqa: F401  (compat re-export)
)
from repro.core.policy import Policy, PolicyCostTable
from repro.obs.events import PolicySelected
from repro.obs.observer import NULL_OBSERVER


@dataclass(frozen=True)
class CommDecision:
    """Outcome of one online scheduling decision."""

    policy: Policy
    step_time: float
    links: tuple[int, ...]


def _bottleneck_capacity(ctx: CommContext, links: Sequence[int]) -> float:
    """Minimum raw capacity over a link set (C_c of Eq. 16)."""
    if not links:
        # Intra-server-only policies never bottleneck on the fabric; use
        # the NVLink capacity scale so delta stays near zero.
        return 1e12
    topo = ctx.built.topology
    return min(topo.links[lid].capacity for lid in links)


class LoadAwareScheduler:
    """Per-group online scheduler with a policy cost table."""

    def __init__(
        self,
        ctx: CommContext,
        gpus: Sequence[int],
        scheme: SchemeKind,
        n_switch_candidates: int = 2,
        window: float = 0.1,
        gamma: float = 0.3,
        observer: object = NULL_OBSERVER,
        extra_schemes: Sequence[str] = (),
    ) -> None:
        if not gpus:
            raise ValueError("empty GPU group")
        self.ctx = ctx
        self.gpus = list(gpus)
        primary = get_scheme(scheme)
        self.scheme = primary.kind
        self.observer = observer or NULL_OBSERVER
        #: one route per policy row, indexed by ``policy_id``
        self._routes: list[Route] = []
        policies = self._build_policies(
            primary, n_switch_candidates, extra_schemes
        )
        self.table = PolicyCostTable(policies, window=window, gamma=gamma)

    # -- policy construction ------------------------------------------------

    def _build_policies(
        self,
        primary: CollectiveScheme,
        n_switch_candidates: int,
        extra_schemes: Sequence[str],
    ) -> list[Policy]:
        ctx = self.ctx
        policies: list[Policy] = []
        seen: set[str] = set()
        schemes = [primary]
        if len(self.gpus) > 1:
            schemes += [
                s for s in map(get_scheme, extra_schemes)
                if s.kind != primary.kind
            ]
        for scheme in schemes:
            for route in scheme.policy_routes(
                ctx, self.gpus, n_switch_candidates
            ):
                name = scheme.policy_key(route.mode, route.switch)
                if name in seen:
                    continue
                seen.add(name)
                self._routes.append(route)
                policies.append(
                    Policy(
                        policy_id=len(policies),
                        name=name,
                        mode=route.mode,
                        switch=route.switch,
                        links=route.links,
                        bottleneck_capacity=_bottleneck_capacity(
                            ctx, route.links
                        ),
                    )
                )
        return policies

    # -- pricing --------------------------------------------------------------

    def _estimate_time(self, policy: Policy, data_bytes: float) -> float:
        """Live latency of executing ``policy`` for ``data_bytes``."""
        return self._routes[policy.policy_id].time(self.ctx, data_bytes)

    # -- public API -------------------------------------------------------------

    def decide(self, data_bytes: float) -> CommDecision:
        """Select the policy for one synchronisation step (Eq. 16/17).

        Per Fig. 5, the selection consults the *current* link bandwidths
        ("suppose B[e5] is lower than B[e3], and policy c1 is selected"):
        each GPU's local view of its links is instantaneous (DCGM /
        switch counters), so ``b_c`` is re-grounded from live utilisation
        before the argmin; the Eq. 17 virtual increments then arbitrate
        the transfers landing between monitor updates.
        """
        if self.ctx.linkstate is not None:
            self.table.refresh_utilization(self.ctx.linkstate)
        policy = self.table.select(data_bytes)
        t = self._estimate_time(policy, data_bytes)
        if self.observer.active:
            self.observer.emit(
                PolicySelected(tuple(self.gpus), policy.name, policy.mode)
            )
        return CommDecision(policy=policy, step_time=t, links=policy.links)

    def refresh(self) -> None:
        """Controller-triggered periodic refresh (needs live link state)."""
        ls = self.ctx.linkstate
        if ls is None:
            return
        self.table.refresh_utilization(ls)
        self.table.refresh_penalties(ls)

    def apply_health(self, health) -> tuple[bool, bool]:
        """Mask policies whose switch or links are detected unhealthy.

        Returns ``(changed, degraded)``: whether the mask flipped on this
        call and whether the group is currently running restricted. A
        group is never left without a route — if every policy would be
        masked, link-based masking is dropped first (degraded links are
        slow, not gone), and an all-masked residue clears entirely.
        """

        def switch_bad(p: Policy) -> bool:
            return p.switch is not None and not health.available(
                "switch", p.switch
            )

        down_links = health.detected_down("link")
        mask = [
            switch_bad(p)
            or any(lid in down_links for lid in p.links)
            for p in self.table.policies
        ]
        if all(mask):
            mask = [switch_bad(p) for p in self.table.policies]
        if all(mask):
            mask = [False] * len(mask)
        changed = self.table.set_mask(mask)
        return changed, any(mask)
