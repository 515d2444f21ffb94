"""Transformer model configurations (the Table I model parameters).

Provides the OPT family the paper evaluates (OPT-66B on the testbed,
OPT-175B in simulation), the LLaMA-3-70B shape used by Fig. 1's breakdown,
and a tiny config for fast tests. Parameter counts follow the standard
decoder-layer accounting: attention ``4h^2`` + FFN ``2hm`` weights per
layer, plus embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require_positive


@dataclass(frozen=True)
class ModelConfig:
    """Decoder-only transformer shape (Table I symbols in comments)."""

    name: str
    n_layers: int          # L
    hidden_size: int       # h
    n_heads: int           # A
    ffn_size: int          # m
    vocab_size: int = 50272
    max_seq_len: int = 2048
    #: bytes per parameter / activation element (FP16 throughout, as in §V)
    dtype_bytes: int = 2
    #: attention-kernel block size b (Table I); paged-attention block rows
    attn_block_size: int = 16

    def __post_init__(self) -> None:
        require_positive("n_layers", self.n_layers)
        require_positive("hidden_size", self.hidden_size)
        require_positive("n_heads", self.n_heads)
        require_positive("ffn_size", self.ffn_size)
        if self.hidden_size % self.n_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"n_heads {self.n_heads}"
            )

    # -- derived sizes -------------------------------------------------

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads

    @property
    def params_per_layer(self) -> int:
        """Attention (QKV + output proj) + FFN weights of one layer."""
        return 4 * self.hidden_size**2 + 2 * self.hidden_size * self.ffn_size

    @property
    def param_count(self) -> int:
        """Total parameters R (Table I), embeddings included."""
        emb = self.vocab_size * self.hidden_size
        pos = self.max_seq_len * self.hidden_size
        return self.n_layers * self.params_per_layer + emb + pos

    @property
    def param_bytes(self) -> int:
        """Model weight footprint in bytes at ``dtype_bytes`` precision."""
        return self.param_count * self.dtype_bytes

    def flops_per_token_prefill(self) -> float:
        """Dense matmul FLOPs to process one prompt token (all layers)."""
        return 2.0 * self.n_layers * self.params_per_layer


def _opt(name: str, L: int, h: int, A: int) -> ModelConfig:
    return ModelConfig(
        name=name, n_layers=L, hidden_size=h, n_heads=A, ffn_size=4 * h
    )


#: OPT family (Zhang et al., 2022), shapes from the paper's Table 1.
OPT_1_3B = _opt("OPT-1.3B", 24, 2048, 32)
OPT_13B = _opt("OPT-13B", 40, 5120, 40)
OPT_30B = _opt("OPT-30B", 48, 7168, 56)
OPT_66B = _opt("OPT-66B", 64, 9216, 72)
OPT_175B = _opt("OPT-175B", 96, 12288, 96)

#: LLaMA-3-70B shape, used only for the Fig. 1 cost-breakdown bench.
LLAMA3_70B = ModelConfig(
    name="LLaMA-3-70B",
    n_layers=80,
    hidden_size=8192,
    n_heads=64,
    ffn_size=28672,
    vocab_size=128256,
    max_seq_len=8192,
)

#: Small config so unit tests and property tests run in milliseconds.
TINY = ModelConfig(
    name="TINY",
    n_layers=4,
    hidden_size=256,
    n_heads=8,
    ffn_size=1024,
    vocab_size=1000,
    max_seq_len=512,
)

MODEL_ZOO: dict[str, ModelConfig] = {
    m.name: m
    for m in (OPT_1_3B, OPT_13B, OPT_30B, OPT_66B, OPT_175B, LLAMA3_70B, TINY)
}


def get_model(name: str) -> ModelConfig:
    """Look up a model config by name; raises ``KeyError`` with options."""
    try:
        return MODEL_ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}"
        ) from None
