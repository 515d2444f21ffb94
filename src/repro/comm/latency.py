"""Assembled synchronisation latency (paper Eqs. 5, 7) per scheme.

Eq. 7 selects, per tensor-parallel group, INA (``alpha``) or ring
(``beta``); Eq. 5 sums the per-step latencies ``T_m(s)`` plus the pipeline
boundary cost ``T_pp``. Each transformer layer contributes two
synchronisation steps (attention output and FFN, §III-C2), each carrying
``K_in * h`` activation elements in prefill and ``q * h`` in decode.

The per-scheme physics lives in :mod:`repro.comm.scheme` (the
``CollectiveScheme`` registry); this module keeps the historical
entrypoints — :func:`estimate_group_step` and :func:`price_group_step`
are now thin registry dispatchers, and the Eq. 5 assembly
(:func:`estimate_phase_comm`) is scheme-agnostic. ``SchemeKind``,
``GroupCommEstimate`` and the slot-window constants are re-exported here
for backward compatibility.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.comm.context import CommContext
from repro.comm.pipeline import pipeline_sync_time
from repro.comm.scheme import (  # noqa: F401  (compat re-exports)
    ATP_WIRE_EFFICIENCY,
    DEFAULT_N_SLOTS,
    DEFAULT_SLOT_PAYLOAD,
    CollectiveScheme,
    GroupCommEstimate,
    SchemeKind,
    get_scheme,
)
from repro.llm.models import ModelConfig


def estimate_group_step(
    ctx: CommContext,
    gpus: Sequence[int],
    data_bytes: float,
    scheme: SchemeKind | str | CollectiveScheme,
    n_slots: int = DEFAULT_N_SLOTS,
    slot_payload: int = DEFAULT_SLOT_PAYLOAD,
    contention: float = 0.0,
) -> GroupCommEstimate:
    """One synchronisation step's latency for a TP group under a scheme.

    This is Algorithm 2's ``getlatency``: compute the scheme's flavoured
    latency and the ring latency, return the cheaper with its selector.
    Dispatches to the registered :class:`CollectiveScheme`.
    """
    return get_scheme(scheme).estimate_time(
        ctx,
        gpus,
        data_bytes,
        n_slots=n_slots,
        slot_payload=slot_payload,
        contention=contention,
    )


def price_group_step(
    ctx: CommContext,
    gpus: Sequence[int],
    scheme: SchemeKind | str | CollectiveScheme,
    mode: str,
    ina_switch: int | None,
    data_bytes: float,
    n_slots: int = DEFAULT_N_SLOTS,
    slot_payload: int = DEFAULT_SLOT_PAYLOAD,
    contention: float = 0.0,
) -> float:
    """Latency of executing a *fixed* policy at current link state.

    Static systems (the baselines, or HeroServe with the online
    scheduler ablated) commit to the offline plan's mode/switch and do
    not re-select per iteration; only the physics (live bandwidths along
    the committed route) varies. ``mode``/``ina_switch`` come from the
    plan's :class:`GroupCommEstimate`. Dispatches to the registered
    :class:`CollectiveScheme`.
    """
    return get_scheme(scheme).forced_time(
        ctx,
        gpus,
        mode,
        ina_switch,
        data_bytes,
        n_slots=n_slots,
        slot_payload=slot_payload,
        contention=contention,
    )


def sync_steps_per_pass(model: ModelConfig, p_pipe: int) -> int:
    """Synchronisation steps one pipeline stage performs per pass.

    Two all-reduces per layer (attention output + FFN), layers split
    evenly over ``p_pipe`` stages.
    """
    if p_pipe < 1:
        raise ValueError(f"p_pipe must be >= 1, got {p_pipe}")
    layers_per_stage = max(1, round(model.n_layers / p_pipe))
    return 2 * layers_per_stage


def allreduce_bytes(model: ModelConfig, tokens: int) -> int:
    """Payload per synchronisation step for ``tokens`` in flight.

    ``D_col(a) = D_col(f) = K_in * h`` (§III-C2), at model precision.
    Prefill passes ``tokens = K_in``; decode passes ``tokens = Q``.
    """
    return tokens * model.hidden_size * model.dtype_bytes


@dataclass(frozen=True)
class PhaseCommEstimate:
    """Full-pass communication latency of one phase (Eq. 5 output)."""

    total_time: float        # T_n for the pass
    per_stage: tuple[GroupCommEstimate, ...]
    pipeline_time: float     # T_pp


def estimate_phase_comm(
    ctx: CommContext,
    stages: Sequence[Sequence[int]],
    model: ModelConfig,
    tokens: int,
    scheme: SchemeKind,
    activation_bytes: int | None = None,
    n_slots: int = DEFAULT_N_SLOTS,
    slot_payload: int = DEFAULT_SLOT_PAYLOAD,
    contention: float = 0.0,
    cache=None,
) -> PhaseCommEstimate:
    """Eq. 5: ``T_n = T_pp + sum_s T_m(s)`` over a full model pass.

    ``stages`` are the pipeline groups (each a TP group of GPU ids);
    ``tokens`` drives both the all-reduce payload and the pipeline
    activation volume (``K_in`` for a prefill pass, ``Q`` for one decode
    iteration). ``cache`` (a :class:`repro.core.estcache.EstimationCache`
    built over ``ctx``) memoizes the per-group step estimates; the
    perturbation loop has usually priced every stage already, so the
    final assembly is all hits.
    """
    if not stages:
        raise ValueError("need at least one pipeline stage")
    p_pipe = len(stages)
    data = allreduce_bytes(model, tokens)
    steps = sync_steps_per_pass(model, p_pipe)
    if cache is not None:
        per_stage = tuple(
            cache.group_step(
                grp,
                data,
                scheme,
                n_slots=n_slots,
                slot_payload=slot_payload,
                contention=contention,
            )
            for grp in stages
        )
        pp_ctx = cache.ctx
    else:
        per_stage = tuple(
            estimate_group_step(
                ctx,
                grp,
                data,
                scheme,
                n_slots=n_slots,
                slot_payload=slot_payload,
                contention=contention,
            )
            for grp in stages
        )
        pp_ctx = ctx
    sync_total = steps * sum(e.step_time for e in per_stage)
    act_bytes = (
        data if activation_bytes is None else activation_bytes
    )
    t_pp = (
        pipeline_sync_time(pp_ctx, stages, act_bytes) if p_pipe > 1 else 0.0
    )
    return PhaseCommEstimate(
        total_time=sync_total + t_pp,
        per_stage=per_stage,
        pipeline_time=t_pp,
    )
