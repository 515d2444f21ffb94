"""Pipeline-parallel synchronisation latency (paper Eq. 6).

``T_pp = sum_i T_pp(i)`` where ``T_pp(i) = min_a max_{k in K_g(i+1)}
T_{k,a}``: stage ``i`` hands its activations to stage ``i+1`` through the
sender ``a`` (in stage ``i``) that minimises the slowest receiver's
latency. Activation volume per boundary: ``K_in * h`` elements for
prefill, ``q * h`` for decode (one token per in-flight request).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

from repro.comm.context import CommContext
from repro.llm.models import ModelConfig


def stage_boundary_time(
    ctx: CommContext,
    senders: Sequence[int],
    receivers: Sequence[int],
    data_bytes: float,
) -> float:
    """Eq. 6 for one boundary: best sender's worst receiver latency."""
    if not senders or not receivers:
        raise ValueError("both stages must be non-empty")
    times = ctx.path_times(tuple(product(senders, receivers)), data_bytes)
    return float(times.reshape(len(senders), len(receivers)).max(1).min())


def prefill_activation_bytes(model: ModelConfig, k_in: int) -> int:
    """Per-boundary activation bytes in prefill: ``K_in * h`` elements."""
    return k_in * model.hidden_size * model.dtype_bytes


def decode_activation_bytes(model: ModelConfig, q: int) -> int:
    """Per-boundary activation bytes in decode: ``q * h`` elements."""
    return q * model.hidden_size * model.dtype_bytes


def pipeline_sync_time(
    ctx: CommContext,
    stages: Sequence[Sequence[int]],
    data_bytes: float,
) -> float:
    """``T_pp``: sum of Eq. 6 over the ``P_pipe - 1`` stage boundaries."""
    total = 0.0
    for senders, receivers in zip(stages, stages[1:]):
        total += stage_boundary_time(ctx, senders, receivers, data_bytes)
    return total
