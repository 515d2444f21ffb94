"""Online transmission policies and the policy cost table (paper §III-D).

A *policy* ``c`` is a routing configuration for one GPU group's
synchronisation: the scheme (INA at a particular switch, hybrid, or
ring) together with the directed links it occupies. The per-GPU policy
cost table tracks, for each policy, a **virtual bandwidth-utilisation
ratio** ``b_c``; selecting a policy for a transfer of ``D`` bytes costs

    ``J(c, D) = b_c + delta``,  ``delta = D / (T_u * C_c)``  (Eq. 16)

where ``T_u`` is the estimation window and ``C_c`` the policy's
bottleneck link capacity — i.e. ``delta`` is the utilisation the new
transfer adds to the tightest link if spread over the window. (The paper
writes the denominator as ``T_u b_c``; with ``b_c`` a dimensionless
ratio that expression is not a utilisation, so we read it as the
bottleneck *bandwidth* of ``c`` — the natural normalisation that makes
Eq. 17's update a ratio. Documented in DESIGN.md.)

After selection, every policy's ``b_c`` is bumped (Eq. 17): the winner by
``delta``, the others by ``delta * f_{(c*,c)}`` — the load-penalty factor,
an EWMA (Eq. 18) of the link-sharing ratio

    ``W_{(c*,c)} = sum_{e in c* ∩ c} B(e) / sum_{e in c} B(e)``.

Periodically the controller *refreshes* ``b_c`` from monitored link
utilisation (switch counters / DCGM), pulling the virtual values back to
ground truth. Both measurements, ``b`` and ``W``, are computed once per
link-state version over a padded policy×link index built with the table;
their sums run left to right, as the scalar :meth:`sharing_ratio` does,
so the two agree bit for bit. A table whose rows share no link (a
one-server group's ``[nvlink, ring]``) has ``W = 0`` in every state and
skips the EWMA.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.network.linkstate import LinkLoadTracker
from repro.util.validation import require_positive


@dataclass(frozen=True)
class Policy:
    """One routing configuration ``c`` for a GPU group's collective."""

    policy_id: int
    name: str
    #: "ina" | "ring" | "hybrid-ina" | "hybrid-ring" | "nvlink"
    mode: str
    #: aggregation switch node id when mode uses INA
    switch: int | None
    #: directed links the policy occupies
    links: tuple[int, ...]
    #: bottleneck capacity C_c over the links (bytes/s)
    bottleneck_capacity: float

    def __post_init__(self) -> None:
        require_positive("bottleneck_capacity", self.bottleneck_capacity)


class PolicyCostTable:
    """The §III-D policy cost table for one GPU group.

    Holds ``b`` (virtual utilisation per policy) and ``f`` (pairwise load
    penalties). The table is conceptually replicated on every GPU of the
    group and kept consistent by the central controller; since updates
    are deterministic given the same inputs, one shared instance models
    the synchronised replicas exactly.
    """

    def __init__(
        self,
        policies: list[Policy],
        window: float = 0.1,
        gamma: float = 0.3,
    ) -> None:
        if not policies:
            raise ValueError("need at least one policy")
        for i, p in enumerate(policies):
            if p.policy_id != i:
                raise ValueError("policy_id must equal list index")
        require_positive("window", window)
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.policies = list(policies)
        self.window = window
        self.gamma = gamma
        n = len(policies)
        # Padded policy x link index, link multiplicity kept: row j lists
        # policy j's links in order, zero-padded where ``_has_link`` is
        # False. ``uses[i, u]`` says policy i occupies distinct link u.
        # ``_terms[i, j, k]`` marks the entries of row j that policy i
        # also uses (Eq. 18's ``e in c* ∩ c``); the last plane ``_terms[n]``
        # marks all of row j (the denominator's ``e in c``).
        width = max(1, *(len(p.links) for p in policies))
        self._links = np.zeros((n, width), dtype=np.int64)
        self._has_link = np.zeros((n, width), dtype=bool)
        for i, p in enumerate(policies):
            self._links[i, : len(p.links)] = p.links
            self._has_link[i, : len(p.links)] = True
        col = np.unique(self._links, return_inverse=True)[1].reshape(
            self._links.shape
        )
        uses = np.zeros((n, int(col.max()) + 1), dtype=bool)
        uses[np.nonzero(self._has_link)[0], col[self._has_link]] = True
        self._terms = np.concatenate(
            [uses[:, col] & self._has_link, self._has_link[None]]
        )
        self._off_diagonal = ~np.eye(n, dtype=bool)
        #: no two distinct rows share a link: Eq. 18's ``W`` is 0 for
        #: every link state and ``f`` stays 0, so the EWMA is skipped
        self._share_free = not self._terms[:-1][self._off_diagonal].any()
        #: Eq. 16's ``T_u * C_c`` per policy
        self._window_caps = window * np.array(
            [p.bottleneck_capacity for p in policies]
        )
        #: ``(tracker, version, b)`` and ``(tracker, version, W)`` of the
        #: last measurement; every ``decide`` re-measures ``b``, and most
        #: land on a version a refresh or an earlier decide already saw
        self._measured_b: tuple | None = None
        self._measured_w: tuple | None = None
        self.b = np.zeros(n)
        # Penalty factors start at the *static* sharing ratio (unit link
        # weights over distinct links, exact integer counts) so the very
        # first updates already propagate across overlapping policies.
        counts = uses.astype(np.int64)
        distinct = counts.sum(axis=1)
        self.f = np.divide(
            counts @ counts.T,
            distinct,
            out=np.zeros((n, n)),
            where=self._off_diagonal & (distinct > 0),
        )
        self.selections = np.zeros(n, dtype=np.int64)
        #: health mask — True rows are excluded from selection (their
        #: switch or links are believed down); all-False by default.
        self.masked = np.zeros(n, dtype=bool)

    def set_mask(self, masked: Sequence[bool]) -> bool:
        """Replace the health mask; returns True when it changed.

        Masking every policy is rejected: a group must always keep at
        least one lawful route (callers degrade the mask instead).
        """
        new = np.asarray(list(masked), dtype=bool)
        if new.shape != self.masked.shape:
            raise ValueError(
                f"mask length {new.size} != {self.masked.size} policies"
            )
        if new.all():
            raise ValueError("cannot mask every policy of a group")
        if bool(np.array_equal(new, self.masked)):
            return False
        self.masked = new
        return True

    # -- sharing structure -------------------------------------------------

    def sharing_ratio(
        self, linkstate: LinkLoadTracker, selected: int, other: int
    ) -> float:
        """Eq. 18's ``W_{(c*,c)}`` with monitored bandwidths ``B(e)``."""
        sel = set(self.policies[selected].links)
        oth = self.policies[other].links
        if not oth:
            return 0.0
        avail = linkstate.available()
        denom = float(sum(avail[e] for e in oth))
        if denom <= 0:
            return 0.0
        shared = [e for e in oth if e in sel]
        return float(sum(avail[e] for e in shared)) / denom

    # -- Eq. 16 selection ----------------------------------------------------

    def delta(self, data_bytes: float) -> np.ndarray:
        """Per-policy added utilisation of a ``data_bytes`` transfer."""
        return data_bytes / self._window_caps

    def costs(self, data_bytes: float) -> np.ndarray:
        """``J(c, D) = b_c + delta`` for every policy."""
        return self.b + self.delta(data_bytes)

    def select(self, data_bytes: float) -> Policy:
        """Pick argmin-J policy and apply the Eq. 17 table update."""
        if data_bytes < 0:
            raise ValueError("data_bytes must be >= 0")
        deltas = self.delta(data_bytes)
        j = self.b + deltas
        if self.masked.any():
            # Failover: unhealthy routes are priced out of the argmin.
            # The guard keeps the fault-free fast path byte-identical.
            j = np.where(self.masked, np.inf, j)
        best = int(np.argmin(j))
        # Eq. 17: winner takes its own delta; others take delta * f.
        bump = deltas[best] * self.f[best]
        bump[best] = deltas[best]
        self.b += bump
        self.selections[best] += 1
        return self.policies[best]

    # -- periodic controller refresh ----------------------------------------

    def refresh_utilization(self, linkstate: LinkLoadTracker) -> None:
        """Reset ``b_c`` to the monitored max utilisation over its links.

        This is the controller's periodic synchronisation: virtual
        within-window increments are replaced by measured ground truth, so
        ``b`` cannot drift unboundedly. Policies without links measure 0.
        """
        b = _current(self._measured_b, linkstate)
        if b is None:
            # Utilisation is never negative, so zero padding leaves each
            # row's max as it is and measures 0 for a link-less policy.
            util = linkstate.utilization()[self._links]
            b = np.where(self._has_link, util, 0.0).max(axis=1)
            self._measured_b = (linkstate, linkstate.version, b)
        self.b[:] = b

    def _sharing_matrix(self, linkstate: LinkLoadTracker) -> np.ndarray:
        """Eq. 18's ``W`` for every ordered policy pair, per version.

        Off the diagonal, ``W[i, j]`` is :meth:`sharing_ratio`
        ``(linkstate, i, j)`` bit for bit: ``cumsum(...)[..., -1]`` adds a
        zero-padded row left to right like Python's ``sum`` (``np.sum``
        would add pairwise). The diagonal is zero, as is ``f``'s.
        """
        w = _current(self._measured_w, linkstate)
        if w is None:
            avail = linkstate.available()[self._links]
            sums = np.where(self._terms, avail, 0.0).cumsum(axis=2)[..., -1]
            denom = sums[-1]
            w = np.divide(
                sums[:-1],
                denom,
                out=np.zeros_like(self.f),
                where=self._off_diagonal & (denom > 0),
            )
            self._measured_w = (linkstate, linkstate.version, w)
        return w

    def refresh_penalties(self, linkstate: LinkLoadTracker) -> None:
        """Eq. 18: EWMA-update every pairwise penalty ``f_{(c*,c)}``.

        A share-free table returns at once: its static ``f`` starts at
        0, ``W`` is 0 in every link state, and
        ``0.0 * (1 - gamma) + gamma * 0.0 == 0.0``.
        """
        if self._share_free:
            return
        w = self._sharing_matrix(linkstate)
        # In place, with the loop's roundings: (1 - gamma) * f + gamma * W.
        # A zero diagonal in both keeps f's diagonal zero.
        self.f *= 1 - self.gamma
        self.f += self.gamma * w


def _current(
    memo: tuple | None, linkstate: LinkLoadTracker
) -> np.ndarray | None:
    """A ``(tracker, version, value)`` memo's value if it is current."""
    if memo and memo[0] is linkstate and memo[1] == linkstate.version:
        return memo[2]
    return None


@dataclass
class PolicyTableStats:
    """Diagnostics snapshot used in tests and example output."""

    names: list[str] = field(default_factory=list)
    b: list[float] = field(default_factory=list)
    selections: list[int] = field(default_factory=list)


def table_stats(table: PolicyCostTable) -> PolicyTableStats:
    """Extract a printable snapshot of a policy table."""
    return PolicyTableStats(
        names=[p.name for p in table.policies],
        b=[float(x) for x in table.b],
        selections=[int(x) for x in table.selections],
    )
