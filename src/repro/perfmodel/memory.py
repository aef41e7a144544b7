"""Model and KV-cache memory accounting for the performance model.

Besides the contiguous worst-case model, :class:`MemoryModel` accounts for
**paged** KV storage (fixed-size pages, as implemented in
:mod:`repro.kvcache.paged`): per-sequence memory rounds up to whole pages
(bounded internal fragmentation of at most ``page_size - 1`` tokens per
sequence) while reservation-based fragmentation — the worst-case
``prompt + max_new_tokens`` slabs the pre-paged engine had to hold — is
eliminated entirely.  The paged formulas (:meth:`MemoryModel.kv_page_bytes`,
:meth:`MemoryModel.paged_kv_cache_bytes`,
:meth:`MemoryModel.paged_max_concurrency`) take a ``kv_dtype`` knob: with
``"int8"`` a page stores 1-byte codes plus per-page/per-head float32
``(scale, zero)`` pairs (:mod:`repro.kvcache.quant`), which is how the same
HBM budget funds several times more concurrent sequences.

A **tiered** section models KV offload (:mod:`repro.kvcache.offload`):
:meth:`MemoryModel.tier0_frames` converts a tier-0 byte budget into page
frames the way the serving engine does, :meth:`MemoryModel.
tiered_capacity_ratio` and :meth:`MemoryModel.tiered_max_concurrency` give
the capacity amplification and frame-bound concurrency when cold pages
spill to a tier-1 arena, and :meth:`MemoryModel.spill_transfer_seconds`
prices the spill/restore traffic a decode step pays across the tier link.

Two distinct byte conventions coexist here, on purpose:

* **Analytic deployment projections** use ``PerfModelSpec.dtype_bytes``
  (default 2 — the paper's fp16 serving hardware) unless ``kv_dtype``
  overrides them.  These model a hypothetical full-size deployment.
* **Measured residency** (:meth:`MemoryModel.measured_kv_bytes`) asks live
  caches what a token *actually* costs in this process — the storage
  dtype's item size for full-precision pools, int8 codes plus amortized
  page scales for quantized ones — so it never re-derives bytes from a
  parallel formula that could drift from the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.kvcache.paged import KVStoreConfig

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
    # paged storage
    # ------------------------------------------------------------------
    def kv_pages(self, seq_len: int, page_size: int) -> int:
        """Pages (per layer) holding ``seq_len`` cached tokens."""
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        return -(-int(seq_len) // page_size)

    def kv_page_bytes(self, page_size: int, kv_dtype: str | None = None) -> float:
        """Bytes of one KV page across all layers (keys + values).

        ``kv_dtype=None`` stores the deployment dtype
        (``PerfModelSpec.dtype_bytes`` per element); ``"int8"`` stores 1-byte
        codes plus one float32 ``(scale, zero)`` pair per page, per head, per
        K/V stream, per layer — the storage format of
        :class:`repro.kvcache.quant.QuantizedBlockPool`.
        """
        if kv_dtype in (None, "native"):
            return self.kv_bytes_per_token() * page_size
        if str(kv_dtype) != "int8":
            raise ValueError(f"unknown kv_dtype {kv_dtype!r}; expected None or 'int8'")
        codes = 2 * self.spec.n_layers * self.spec.d_model * page_size
        params = 2 * 2 * 4 * self.spec.n_heads * self.spec.n_layers
        return float(codes + params)

    def paged_kv_cache_bytes(
        self,
        seq_len: int,
        batch_size: int = 1,
        page_size: int = 16,
        kv_dtype: str | None = None,
    ) -> float:
        """Resident KV bytes under paged storage: whole pages per sequence.

        The gap to :meth:`kv_cache_bytes` at the same ``seq_len`` is the
        internal fragmentation (< one page per sequence); the gap to the
        worst-case reservation ``kv_cache_bytes(prompt + max_new)`` is what
        paging reclaims for additional concurrent sequences.  ``kv_dtype``
        (see :meth:`kv_page_bytes`) additionally shrinks what each resident
        page costs — eviction and quantization compose.
        """
        return (
            self.kv_pages(seq_len, page_size)
            * self.kv_page_bytes(page_size, kv_dtype)
            * batch_size
        )

    def paged_max_concurrency(
        self,
        hbm_capacity_bytes: float,
        seq_len: int,
        page_size: int = 16,
        watermark: float = 0.1,
        kv_dtype: str | None = None,
    ) -> int:
        """Concurrent sequences of resident length ``seq_len`` a paged pool
        sized to the free HBM (after weights, below the watermark) can hold.

        With ``kv_dtype="int8"`` each sequence's pages cost ~``dtype_bytes``x
        less, so concurrency under the same budget rises by nearly that
        factor (the pinned ``quant_concurrency_ratio`` benchmark gates it at
        >= 2x).
        """
        budget = (hbm_capacity_bytes - self.model_bytes()) * (1.0 - watermark)
        per_seq = self.paged_kv_cache_bytes(seq_len, 1, page_size, kv_dtype)
        if budget <= 0 or per_seq <= 0:
            return 0
        return int(budget // per_seq)

    # ------------------------------------------------------------------
    # tiered offload (repro.kvcache.offload)
    # ------------------------------------------------------------------
    def tier0_frames(
        self,
        tier0_budget_bytes: float,
        page_size: int = 16,
        kv_dtype: str | None = None,
    ) -> int:
        """Tier-0 page frames (per layer) a byte budget funds.

        This *is* the engine's ``tier0_budget`` conversion
        (:meth:`repro.kvcache.paged.KVStoreConfig.resolve_pages`), fed the
        analytic page footprint instead of a live pool's: the budget buys
        whole cross-layer pages, with a floor of two frames per layer (the
        minimum for copy-on-write, which transiently holds a source and a
        destination page resident).
        """
        config = KVStoreConfig(
            page_size=page_size, kv_dtype=kv_dtype, tier0_budget=tier0_budget_bytes
        )
        return config.resolve_pages(page_bytes=self.kv_page_bytes(page_size, kv_dtype))[1]

    def tiered_capacity_ratio(
        self,
        seq_len: int,
        page_size: int = 16,
        resident_pages_per_seq: int = 1,
    ) -> float:
        """Capacity amplification of tiered offload at fixed tier-0 bytes.

        Without offload a sequence of resident length ``seq_len`` pins all
        of its pages in tier 0; with offload only its hot working set
        (``resident_pages_per_seq`` — at minimum the append page) must be
        resident while the cold tail lives in the tier-1 arena.  The ratio
        of the two is how many times more cacheable tokens the same tier-0
        budget funds — the analytic counterpart of the pinned
        ``offload_capacity_ratio`` benchmark (gated at >= 2x).
        """
        if resident_pages_per_seq <= 0:
            raise ValueError("resident_pages_per_seq must be positive")
        return self.kv_pages(seq_len, page_size) / resident_pages_per_seq

    def tiered_max_concurrency(
        self,
        tier0_budget_bytes: float,
        page_size: int = 16,
        resident_pages_per_seq: int = 1,
        watermark: float = 0.1,
        kv_dtype: str | None = None,
    ) -> int:
        """Concurrent sequences a tier-0 frame budget can keep decoding.

        Unlike :meth:`paged_max_concurrency`, residency no longer scales
        with ``seq_len`` — each running sequence only needs its hot
        ``resident_pages_per_seq`` frames while spilled pages wait in the
        arena.  A watermark fraction of the frames stays free as restore
        headroom, matching the scheduler's frame-aware admission rule.
        """
        frames = self.tier0_frames(tier0_budget_bytes, page_size, kv_dtype)
        usable = frames - max(int(watermark * frames), 1)
        if resident_pages_per_seq <= 0:
            raise ValueError("resident_pages_per_seq must be positive")
        return max(usable // resident_pages_per_seq, 0)

    def spill_transfer_seconds(
        self,
        n_pages: int,
        transfer_bandwidth_bytes: float,
        page_size: int = 16,
        kv_dtype: str | None = None,
    ) -> float:
        """Time to move ``n_pages`` cross-layer pages across the tier link.

        Spill and restore traffic are symmetric byte-for-byte (transfers
        are byte-exact in both directions), so one formula covers both; a
        decode step that restores ``r`` pages and spills ``s`` victims pays
        ``spill_transfer_seconds(r + s, bw)`` of transfer time, which is
        how the engine's ``pool_usage()`` spill/restore byte counters
        convert into a latency overhead.
        """
        if transfer_bandwidth_bytes <= 0:
            raise ValueError("transfer_bandwidth_bytes must be positive")
        if n_pages < 0:
            raise ValueError("n_pages must be non-negative")
        return n_pages * self.kv_page_bytes(page_size, kv_dtype) / transfer_bandwidth_bytes

    @staticmethod
    def measured_kv_bytes(caches: Iterable, dtype_bytes: int | None = None) -> int:
        """Resident KV bytes of live per-layer caches, summed via each cache's
        own ``nbytes`` — which asks the backing pool what a cached token
        actually costs (full-precision storage dtype, or int8 codes plus
        amortized page scales for a quantized pool) — the measured
        counterpart of the analytical formulas above."""
        return sum(cache.nbytes(dtype_bytes) for cache in caches)

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

    def crossover_seq_len(self, beam_size: int = 1, batch_size: int = 1) -> int:
        """Sequence length at which the KV cache size equals the model size (Fig. 1b)."""
        per_token = self.kv_bytes_per_token(beam_size) * batch_size
        return int(self.model_bytes() / per_token)
