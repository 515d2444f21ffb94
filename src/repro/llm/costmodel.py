"""Computation-latency cost model (paper Eqs. 12-13) with fitted C1..C6.

Eq. 12 (prefill):
    ``T_c^pre = C1/P_tens * (4 h^2 + 2 h m) K_in
              + C2/(b P_tens) * 3 h K_in2 + C3``

Eq. 13 (decode, per iteration):
    ``T_c^dec = C4/(P_tens P_pipe) * (4 h^2 + 2 h m) [* Q]
              + C5/(P_tens P_pipe) * 3 h K_ctx + C6``

The paper fits C1..C6 by "profiling and interpolation"; we do the same
against :class:`~repro.llm.profiler.SyntheticExecutor` measurements taken
at several tensor-parallel degrees, solved by non-negative least squares.

One deliberate clarification relative to the paper's notation: Eq. 13 as
printed omits the batch size Q from the GEMM term; any batched decode
implementation scales linearly in Q, and the paper's own profiling method
would absorb that scaling. We therefore carry Q explicitly (a batch of 1
recovers the printed formula). This is documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from repro.llm.batch import BatchSpec
from repro.llm.models import ModelConfig
from repro.llm.profiler import (
    HardwareProfile,
    profile_decode,
    profile_prefill,
)


@dataclass(frozen=True)
class CostCoefficients:
    """Fitted linear coefficients of Eqs. 12-13 (seconds per unit)."""

    c1: float  # prefill GEMM seconds per FLOP-feature
    c2: float  # prefill attention seconds per feature
    c3: float  # prefill fixed overhead (Python runtime, noise)
    c4: float  # decode GEMM seconds per feature
    c5: float  # decode KV-attention seconds per feature
    c6: float  # decode fixed overhead incl. pipeline fill

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.c1, self.c2, self.c3, self.c4, self.c5, self.c6]
        )


def fit_coefficients(
    model: ModelConfig,
    hardware: HardwareProfile,
    p_tens_grid: tuple[int, ...] = (1, 2, 4, 8),
    p_pipe_grid: tuple[int, ...] = (1, 2, 4),
    seed: int | None = 0,
) -> CostCoefficients:
    """Profile the synthetic executor and solve for C1..C6.

    Prefill and decode are fitted independently (they are separate phases
    on separate clusters). Features are pre-divided by the parallel degree
    of their sample so the solved coefficients are the parallelism-free
    C's of the paper.
    """
    # --- prefill: solve [C1, C2, C3] ------------------------------------
    rows, ys = [], []
    for p in p_tens_grid:
        for s in profile_prefill(model, hardware, p, seed=seed):
            f = s.features.copy()
            f[0] /= p
            f[1] /= p
            rows.append(f)
            ys.append(s.latency)
    a = np.asarray(rows)
    y = np.asarray(ys)
    pre, _ = nnls(a, y)

    # --- decode: solve [C4, C5, C6] --------------------------------------
    rows, ys = [], []
    for pt in p_tens_grid:
        for pp in p_pipe_grid:
            for s in profile_decode(model, hardware, pt, pp, seed=seed):
                f = s.features.copy()
                f[0] /= pt * pp
                f[1] /= pt * pp
                rows.append(f)
                ys.append(s.latency)
    a = np.asarray(rows)
    y = np.asarray(ys)
    dec, _ = nnls(a, y)

    return CostCoefficients(
        c1=float(pre[0]),
        c2=float(pre[1]),
        c3=float(pre[2]),
        c4=float(dec[0]),
        c5=float(dec[1]),
        c6=float(dec[2]),
    )


@dataclass(frozen=True)
class ComputeCostModel:
    """Eqs. 12-13 evaluated with fitted coefficients for one (model, GPU)."""

    model: ModelConfig
    hardware_name: str
    coeffs: CostCoefficients

    def prefill_time(self, batch: BatchSpec, p_tens: int) -> float:
        """Eq. 12: full prefill pass latency (computation only)."""
        if p_tens < 1:
            raise ValueError(f"p_tens must be >= 1, got {p_tens}")
        m = self.model
        h, ffn, b = m.hidden_size, m.ffn_size, m.attn_block_size
        c = self.coeffs
        return (
            c.c1 / p_tens * (4.0 * h * h + 2.0 * h * ffn) * batch.k_in
            + c.c2 / (b * p_tens) * 3.0 * h * batch.k_in2
            + c.c3
        )

    def decode_time(
        self,
        q: int,
        context_tokens: int,
        p_tens: int,
        p_pipe: int,
    ) -> float:
        """Eq. 13: one decode iteration latency (computation only)."""
        if p_tens < 1 or p_pipe < 1:
            raise ValueError("parallel degrees must be >= 1")
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        m = self.model
        h, ffn = m.hidden_size, m.ffn_size
        c = self.coeffs
        par = p_tens * p_pipe
        return (
            c.c4 / par * (4.0 * h * h + 2.0 * h * ffn) * q
            + c.c5 / par * 3.0 * h * context_tokens
            + c.c6
        )


# Fit results are deterministic for a (model, hardware, seed) triple and
# moderately expensive (hundreds of synthetic profiles), so memoise them.
_FIT_CACHE: dict[tuple[str, str, int | None], ComputeCostModel] = {}


def fit_compute_model(
    model: ModelConfig,
    hardware: HardwareProfile,
    seed: int | None = 0,
) -> ComputeCostModel:
    """Memoised :func:`fit_coefficients` -> :class:`ComputeCostModel`."""
    key = (model.name, hardware.name, seed)
    cached = _FIT_CACHE.get(key)
    if cached is None:
        coeffs = fit_coefficients(model, hardware, seed=seed)
        cached = ComputeCostModel(model, hardware.name, coeffs)
        _FIT_CACHE[key] = cached
    return cached


class CostModelBank:
    """Per-hardware cost models for heterogeneous GPU groups.

    The testbed mixes A100 and V100 servers; a tensor-parallel group's
    iteration time is gated by its slowest member, so group latencies are
    the max over members' hardware models.
    """

    def __init__(
        self,
        model: ModelConfig,
        hardware_by_name: dict[str, HardwareProfile],
        seed: int | None = 0,
    ) -> None:
        if not hardware_by_name:
            raise ValueError("need at least one hardware profile")
        self.model = model
        self._models = {
            name: fit_compute_model(model, hw, seed=seed)
            for name, hw in hardware_by_name.items()
        }

    def for_hardware(self, name: str) -> ComputeCostModel:
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(
                f"no cost model for hardware {name!r}; "
                f"have {sorted(self._models)}"
            ) from None

    def group_prefill_time(
        self, gpu_hardware: list[str], batch: BatchSpec, p_tens: int
    ) -> float:
        """Slowest-member prefill latency for a TP group.

        Priced once per distinct hardware model: members of one model
        take the same time, and ``max`` does not depend on order.
        """
        return max(
            self.for_hardware(hw).prefill_time(batch, p_tens)
            for hw in dict.fromkeys(gpu_hardware)
        )

    def group_decode_time(
        self,
        gpu_hardware: list[str],
        q: int,
        context_tokens: int,
        p_tens: int,
        p_pipe: int,
    ) -> float:
        """Slowest-member decode-iteration latency for a TP group.

        Priced once per distinct hardware model, like
        :meth:`group_prefill_time`.
        """
        return max(
            self.for_hardware(hw).decode_time(
                q, context_tokens, p_tens, p_pipe
            )
            for hw in dict.fromkeys(gpu_hardware)
        )
