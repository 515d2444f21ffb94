"""``tree``: recursive halving-doubling all-reduce over Ethernet.

Rabenseifner's algorithm on the homogeneous network view: a
reduce-scatter by recursive *halving* (round ``r`` exchanges
``D / 2^(r+1)`` bytes between partners ``i`` and ``i XOR 2^r``), then an
all-gather by recursive *doubling* that mirrors it. ``log2(p)`` rounds
each way instead of the ring's ``2(p-1)`` steps, so the tree wins on
latency-dominated (small-payload) steps and loses to the ring's perfect
bandwidth utilisation on large ones — exactly the regime split Eq. 7's
argmin arbitrates.

Non-power-of-two groups fold the ``p - 2^⌊log2 p⌋`` extra members in a
pre-reduce (extra ``i + p2`` pushes its full tensor to partner ``i``) and
a post-broadcast mirror, the standard MPI treatment.

``T_tree = pre + 2 · Σ_r max_pairs t(i, i⊕2^r, D/2^(r+1)) + post``

Members pair in server-major ring order so early (largest-chunk) rounds
hit server-adjacent partners. One file, one registration — see
``docs/COLLECTIVES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.comm.context import CommContext, Route
from repro.comm.ring import ring_order
from repro.comm.scheme import (
    CollectiveScheme,
    SchemeKind,
    register_scheme,
)


def _split(ctx: CommContext, gpus: list[int]) -> tuple[list[int], int]:
    """Server-major member order and the power-of-two core size."""
    members = ring_order(ctx, gpus)
    p2 = 1
    while p2 * 2 <= len(members):
        p2 *= 2
    return members, p2


def tree_allreduce_time(
    ctx: CommContext, gpus: list[int], data_bytes: float
) -> float:
    """Halving-doubling time with non-power-of-two pre/post folding."""
    gpus = list(gpus)
    if len(gpus) <= 1 or data_bytes <= 0:
        return 0.0
    members, p2 = _split(ctx, gpus)
    extras = len(members) - p2
    pre = post = 0.0
    if extras:
        pre = max(
            ctx.path_time(members[p2 + i], members[i], data_bytes)
            for i in range(extras)
        )
        post = max(
            ctx.path_time(members[i], members[p2 + i], data_bytes)
            for i in range(extras)
        )
    core = members[:p2]
    halving = 0.0
    dist, r = 1, 0
    while dist < p2:
        chunk = data_bytes / float(2 ** (r + 1))
        halving += max(
            max(
                ctx.path_time(core[i], core[i ^ dist], chunk),
                ctx.path_time(core[i ^ dist], core[i], chunk),
            )
            for i in range(p2)
        )
        dist <<= 1
        r += 1
    return pre + 2.0 * halving + post


def _tree_links(ctx: CommContext, gpus: tuple[int, ...]) -> tuple[int, ...]:
    """Every directed link any halving/doubling exchange traverses."""
    members, p2 = _split(ctx, gpus)
    links: list[int] = []
    for i in range(len(members) - p2):
        links.extend(ctx.path_links(members[p2 + i], members[i]))
        links.extend(ctx.path_links(members[i], members[p2 + i]))
    core = members[:p2]
    dist = 1
    while dist < p2:
        for i in range(p2):
            links.extend(ctx.path_links(core[i], core[i ^ dist]))
        dist <<= 1
    return tuple(links)


@dataclass
class TreeRoute(Route):
    """Halving-doubling over ``members`` (server-major pairing)."""

    members: tuple[int, ...]

    def time(self, ctx: CommContext, data_bytes: float) -> float:
        return tree_allreduce_time(ctx, list(self.members), data_bytes)


class TreeScheme(CollectiveScheme):
    """Recursive halving-doubling over Ethernet (``tree``)."""

    kind = SchemeKind.TREE

    def _resolve(self, view, gpus, mode, switch):
        if mode != "tree":
            return super()._resolve(view, gpus, mode, switch)
        members = tuple(gpus)
        return TreeRoute(
            mode, None, partial(_tree_links, view, members), members
        )

    def _candidates(self, view, gpus):
        return [self._resolve(view, gpus, "tree", None)]

    def _policy_rows(self, view, gpus, switches):
        return self._candidates(view, gpus)


TREE_SCHEME = register_scheme(TreeScheme())

__all__ = [
    "TREE_SCHEME",
    "TreeRoute",
    "TreeScheme",
    "tree_allreduce_time",
]
