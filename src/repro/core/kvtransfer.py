"""KV-cache transfer latency between prefill and decode clusters.

Paper Eqs. 14-15: after prefill, every prefill GPU streams the KV segments
it computed to its paired decode GPUs (pairs share the same layer range
and tensor slice); transfers are concurrent, so ``T_f`` is the slowest
prefill GPU's total transfer time, each transfer costed with the per-hop
additive model.

Pairing: the tensor dimension maps slice-to-slice; the layer (pipeline)
dimension maps each prefill stage's layers onto the decode stages covering
those layers. When ``P_tens`` differs across phases, a prefill GPU's slice
overlaps ``ceil`` of the ratio of decode slices (the paper's
``ceil(P_tens / A)``-style correction term in ``D_{i,j}``).
"""

from __future__ import annotations

import functools
from collections.abc import Collection, Sequence

import numpy as np

from repro.comm.context import CommContext
from repro.llm.memory import kv_bytes_per_token
from repro.llm.models import ModelConfig


def _repaired_decode_stages(
    decode_stages: Sequence[Sequence[int]],
    exclude_gpus: Collection[int],
) -> list[list[int]]:
    """Substitute failed decode GPUs with stage survivors (round-robin).

    The stage layout (and therefore every pair's layer/tensor share) is
    preserved; only the *destination* of the failed positions changes, so
    a survivor absorbs the orphaned slice next to its own.
    """
    excl = set(exclude_gpus)
    repaired: list[list[int]] = []
    for stage in decode_stages:
        survivors = [g for g in stage if g not in excl]
        if not survivors or len(survivors) == len(stage):
            repaired.append(list(stage))
            continue
        rr = 0
        row: list[int] = []
        for g in stage:
            if g in excl:
                row.append(survivors[rr % len(survivors)])
                rr += 1
            else:
                row.append(g)
        repaired.append(row)
    return repaired


def _stage_key(stages: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, stages))


def kv_pairings(
    prefill_stages: Sequence[Sequence[int]],
    decode_stages: Sequence[Sequence[int]],
    exclude_gpus: Collection[int] = (),
) -> tuple[tuple[int, int, float], ...]:
    """(prefill_gpu, decode_gpu, share) transfers, in pairing order.

    ``share`` is the fraction of the *whole batch's* KV bytes that flows
    on that pair. Shares over all pairs sum to 1 (each KV byte moves
    exactly once).

    ``exclude_gpus`` re-pairs around decode GPUs believed failed: each
    excluded GPU's share is redistributed to the healthy survivors of
    its decode stage (who hold the adjacent tensor slices and can absorb
    the orphaned KV until the group is repaired). A stage with no
    healthy GPU cannot absorb anything — the exclusion is ignored for
    that stage and the transfer targets the original owners (the caller
    must wait for recovery or replan instead).

    The pairing is static: it is computed once per (prefill stages,
    decode stages, exclusions) and the same tuple is returned after that.
    """
    return _pairings(
        _stage_key(prefill_stages),
        _stage_key(decode_stages),
        frozenset(exclude_gpus),
    )


@functools.lru_cache(maxsize=32)
def _pairings(
    prefill_stages: tuple[tuple[int, ...], ...],
    decode_stages: tuple[tuple[int, ...], ...],
    exclude_gpus: frozenset[int],
) -> tuple[tuple[int, int, float], ...]:
    """:func:`kv_pairings` on hashable stages, memoized."""
    if not prefill_stages or not decode_stages:
        raise ValueError("both phases need at least one stage")
    if exclude_gpus:
        decode_stages = _repaired_decode_stages(decode_stages, exclude_gpus)
    pp_p, pp_d = len(prefill_stages), len(decode_stages)
    pairs: list[tuple[int, int, float]] = []
    for ip, pstage in enumerate(prefill_stages):
        # Layer interval [ip/pp_p, (ip+1)/pp_p) overlaps decode stages.
        lo, hi = ip / pp_p, (ip + 1) / pp_p
        pt_p = len(pstage)
        for id_, dstage in enumerate(decode_stages):
            dlo, dhi = id_ / pp_d, (id_ + 1) / pp_d
            layer_overlap = max(0.0, min(hi, dhi) - max(lo, dlo))
            if layer_overlap <= 0:
                continue
            pt_d = len(dstage)
            for jp, pg in enumerate(pstage):
                # Tensor slice [jp/pt_p, (jp+1)/pt_p) overlaps decode slices.
                tlo, thi = jp / pt_p, (jp + 1) / pt_p
                for jd, dg in enumerate(dstage):
                    dtlo, dthi = jd / pt_d, (jd + 1) / pt_d
                    tensor_overlap = max(
                        0.0, min(thi, dthi) - max(tlo, dtlo)
                    )
                    if tensor_overlap <= 0:
                        continue
                    pairs.append(
                        (pg, dg, layer_overlap * tensor_overlap)
                    )
    return tuple(pairs)


@functools.lru_cache(maxsize=32)
def _per_gpu_layout(
    prefill_stages: tuple[tuple[int, ...], ...],
    decode_stages: tuple[tuple[int, ...], ...],
    exclude_gpus: frozenset[int],
) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 14's static layout: ``(pairs, shares, rows, mask)``.

    ``pairs`` are the ``(prefill, decode)`` GPUs of the pairing and
    ``shares`` their byte shares. Row ``r`` of the padded ``rows`` index
    holds, in pairing order, the positions of one prefill GPU's pairs;
    ``mask`` marks the real entries.
    """
    pairing = _pairings(prefill_stages, decode_stages, exclude_gpus)
    by_gpu: dict[int, list[int]] = {}
    for i, (pg, _, _) in enumerate(pairing):
        by_gpu.setdefault(pg, []).append(i)
    shape = (len(by_gpu), max(map(len, by_gpu.values()), default=1))
    rows = np.zeros(shape, dtype=np.intp)
    mask = np.zeros(shape, dtype=bool)
    for r, members in enumerate(by_gpu.values()):
        rows[r, : len(members)] = members
        mask[r, : len(members)] = True
    shares = np.array([share for _, _, share in pairing])
    for arr in (shares, rows, mask):
        arr.flags.writeable = False
    return tuple((pg, dg) for pg, dg, _ in pairing), shares, rows, mask


def estimate_kv_transfer_time(
    ctx: CommContext,
    model: ModelConfig,
    k_in: int,
    prefill_stages: Sequence[Sequence[int]],
    decode_stages: Sequence[Sequence[int]],
    exclude_gpus: Collection[int] = (),
) -> float:
    """Eq. 14: ``T_f = max_k T_k^p`` over prefill GPUs.

    The batch's total KV volume is ``2 K_in L h`` elements; each pair's
    bytes are its share of that volume, costed along the offline route
    (Eq. 15's per-hop sum). A prefill GPU's transfers to distinct decode
    GPUs are sequential on its NIC, hence summed, left to right in
    pairing order.
    """
    if k_in <= 0:
        raise ValueError(f"k_in must be > 0, got {k_in}")
    total_bytes = kv_bytes_per_token(model) * k_in
    pairs, shares, rows, mask = _per_gpu_layout(
        _stage_key(prefill_stages),
        _stage_key(decode_stages),
        frozenset(exclude_gpus),
    )
    if not pairs:
        return 0.0
    times = ctx.path_times(pairs, total_bytes * shares)
    per_gpu = np.where(mask, times[rows], 0.0).cumsum(-1)[:, -1]
    return float(per_gpu.max())


def kv_transfer_flows(
    ctx: CommContext,
    model: ModelConfig,
    k_in: int,
    prefill_stages: Sequence[Sequence[int]],
    decode_stages: Sequence[Sequence[int]],
    exclude_gpus: Collection[int] = (),
) -> list[tuple[tuple[int, ...], float]]:
    """(link path, bytes) for each KV transfer — for the flow simulator."""
    total_bytes = kv_bytes_per_token(model) * k_in
    out: list[tuple[tuple[int, ...], float]] = []
    pairs = kv_pairings(
        prefill_stages, decode_stages, exclude_gpus=exclude_gpus
    )
    for pg, dg, share in pairs:
        if pg == dg:
            continue
        out.append((ctx.path_links(pg, dg), total_bytes * share))
    return out


def plan_kv_migration(
    ctx: CommContext,
    model: ModelConfig,
    tokens: int,
    src_stages: Sequence[Sequence[int]],
    dst_stages: Sequence[Sequence[int]],
) -> tuple[float, list[tuple[tuple[int, ...], float]], float]:
    """Model moving ``tokens`` of resident KV from one decode placement
    to another (a plan-transition migration).

    Reuses the prefill->decode pairing machinery with the *old* decode
    stages as the source side: the layer/tensor-slice overlap rules are
    the same, only the direction differs. Returns ``(duration, flows,
    moved_bytes)`` where ``flows`` is the ``(link path, bytes)`` list to
    register on the link tracker and ``moved_bytes`` counts only the
    bytes that actually cross links (a GPU kept by the new placement
    re-shards locally for free).
    """
    if tokens <= 0:
        return 0.0, [], 0.0
    duration = estimate_kv_transfer_time(
        ctx, model, tokens, src_stages, dst_stages
    )
    flows = kv_transfer_flows(ctx, model, tokens, src_stages, dst_stages)
    moved = float(sum(nbytes for _, nbytes in flows))
    if moved <= 0.0:
        return 0.0, [], 0.0
    return duration, flows, moved
