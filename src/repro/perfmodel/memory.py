"""Model and KV-cache memory accounting for the performance model.

:class:`MemoryModel` sizes a contiguous KV cache per token, per sequence and
per batch, and decides whether weights, KV cache and activations fit in HBM.
These are analytic deployment projections: they use
``PerfModelSpec.dtype_bytes`` (default 2 — the paper's fp16 serving hardware)
to model a hypothetical full-size deployment.  What a cached token or a KV
page actually costs in this process is the pool's own answer
(:meth:`repro.kvcache.paged.BlockPool.kv_token_nbytes`,
:meth:`repro.kvcache.paged.KVStoreConfig.page_bytes`), never a parallel
formula here.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PerfModelSpec", "MemoryModel", "MPT_7B", "GPT_J_6B", "CEREBRAS_GPT_6_7B"]


@dataclass(frozen=True)
class PerfModelSpec:
    """Architecture description of a (full-size) transformer for perf modelling."""

    name: str
    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    vocab_size: int
    dtype_bytes: int = 2  # fp16 deployment

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.dtype_bytes <= 0:
            raise ValueError("dtype_bytes must be positive")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def n_parameters(self) -> int:
        """Approximate parameter count (attention + MLP + embeddings)."""
        per_layer = 4 * self.d_model**2 + 2 * self.d_model * self.d_ff
        return self.n_layers * per_layer + self.vocab_size * self.d_model


#: MPT-7B — the model used for the paper's performance experiments.
MPT_7B = PerfModelSpec(
    name="MPT-7B", n_layers=32, d_model=4096, n_heads=32, d_ff=16384, vocab_size=50432
)
GPT_J_6B = PerfModelSpec(
    name="GPT-J-6B", n_layers=28, d_model=4096, n_heads=16, d_ff=16384, vocab_size=50400
)
CEREBRAS_GPT_6_7B = PerfModelSpec(
    name="Cerebras-GPT-6.7B", n_layers=32, d_model=4096, n_heads=32, d_ff=16384, vocab_size=50257
)


class MemoryModel:
    """Byte accounting for model weights and the KV cache."""

    def __init__(self, spec: PerfModelSpec):
        self.spec = spec

    # ------------------------------------------------------------------
    def model_bytes(self) -> float:
        """Size of the model weights in bytes."""
        return self.spec.n_parameters() * self.spec.dtype_bytes

    def kv_bytes_per_token(self, beam_size: int = 1) -> float:
        """KV-cache bytes contributed by one sequence token (all layers, K and V)."""
        return 2 * self.spec.n_layers * self.spec.d_model * self.spec.dtype_bytes * beam_size

    def kv_cache_bytes(self, seq_len: int, batch_size: int = 1, beam_size: int = 1) -> float:
        """Total KV-cache size for ``seq_len`` cached tokens per sequence."""
        return self.kv_bytes_per_token(beam_size) * seq_len * batch_size

    def activation_bytes(self, batch_size: int, seq_len: int) -> float:
        """Rough activation working-set during decode (a few residual streams)."""
        return 8 * batch_size * seq_len * self.spec.d_model * self.spec.dtype_bytes

    # ------------------------------------------------------------------
    def kv_working_multiplier(self, beam_size: int = 1) -> float:
        """Transient working-set multiplier applied to the KV cache.

        Beam-search decoding re-orders the cached keys/values after every step,
        which transiently holds a second copy of the cache (this is what pushes
        the paper's 4096+4096, batch-2, beam-4 full-attention configuration out
        of memory on an 80 GB A100).  Greedy decoding only pays an allocator
        fragmentation margin.
        """
        return 2.0 if beam_size > 1 else 1.2

    def fits(
        self,
        hbm_capacity_bytes: float,
        seq_len: int,
        batch_size: int,
        beam_size: int = 1,
    ) -> bool:
        """Whether weights + KV cache + activations fit in HBM (no CPU offload)."""
        total = (
            self.model_bytes()
            + self.kv_cache_bytes(seq_len, batch_size, beam_size)
            * self.kv_working_multiplier(beam_size)
            + self.activation_bytes(batch_size, min(seq_len, 2048))
        )
        return total <= hbm_capacity_bytes

    def max_batch_size(
        self, hbm_capacity_bytes: float, seq_len: int, beam_size: int = 1, limit: int = 1024
    ) -> int:
        """Largest batch size that fits; 0 when even batch 1 does not fit."""
        for batch in range(1, limit + 1):
            if not self.fits(hbm_capacity_bytes, seq_len, batch, beam_size):
                return batch - 1
        return limit

