"""KV-cache data structures and the cache managers that apply eviction policies.

Storage is paged: the one per-layer cache (:class:`BatchedLayerKVCache`),
which the solo :class:`CacheManager` and the serving
:class:`BatchedCacheManager` both keep their rows in, is a thin view over
per-layer :class:`BlockPool` page pools with ref-counted, copy-on-write pages — see
:mod:`repro.kvcache.paged`.  A ``kv_dtype="int8"`` knob swaps the pools for
:class:`QuantizedBlockPool` (int8 pages with per-page/per-head scales, see
:mod:`repro.kvcache.quant`) without changing any cache-facing API.

The ``admission_policy`` knob picks how the prefix registry ranks reclaim
victims (see :mod:`repro.kvcache.admission`): :class:`LRUAdmissionPolicy`
(``"lru"``) or frequency-aware :class:`WTinyLFUAdmissionPolicy`
(``"wtinylfu"``), so hot shared prompt prefixes survive scan bursts of
unique prompts.  Both, and tier-0's spill victims, keep recency in one
:class:`~repro.kvcache.admission.RecencyOrder`.

A ``tier0_budget`` knob enables **tiered KV offload**
(:mod:`repro.kvcache.offload`): each pool keeps only the pages that budget
funds resident in its tier-0 slabs and spills cold pages as raw slab bytes to
a tier-1 arena (``spill_backend="compressed"`` — RAM, no codec despite the
name — or ``"mmap"``), restoring them transparently on access — outputs stay
bit-identical with offload on or off.

All of these knobs are fields of :class:`KVStoreConfig`, declared once.
"""

from repro.kvcache.admission import (
    ADMISSION_POLICIES,
    FrequencySketch,
    LRUAdmissionPolicy,
    WTinyLFUAdmissionPolicy,
    resolve_admission_policy,
)
from repro.kvcache.batch import BatchedCacheManager, BatchedLayerKVCache, BatchedLayerView
from repro.kvcache.manager import CacheManager
from repro.kvcache.paged import (
    DEFAULT_PAGE_SIZE,
    BlockPool,
    KVStoreConfig,
    PagedKVStore,
    PageTable,
    PoolExhausted,
    PrefixMatch,
    PrefixRegistry,
    chunk_digest,
    resolve_pool_class,
)
from repro.kvcache.offload import (
    SPILL_BACKENDS,
    CompressedSpillArena,
    MmapSpillArena,
    TieredBlockPool,
    TieredQuantizedBlockPool,
    resolve_spill_arena,
    resolve_tiered_pool_class,
)
from repro.kvcache.quant import QuantizedBlockPool
from repro.kvcache.stats import CacheStats

__all__ = [
    "ADMISSION_POLICIES",
    "FrequencySketch",
    "LRUAdmissionPolicy",
    "WTinyLFUAdmissionPolicy",
    "resolve_admission_policy",
    "CacheManager",
    "CacheStats",
    "BatchedLayerKVCache",
    "BatchedCacheManager",
    "BatchedLayerView",
    "BlockPool",
    "PageTable",
    "KVStoreConfig",
    "PagedKVStore",
    "PoolExhausted",
    "PrefixMatch",
    "PrefixRegistry",
    "QuantizedBlockPool",
    "SPILL_BACKENDS",
    "CompressedSpillArena",
    "MmapSpillArena",
    "TieredBlockPool",
    "TieredQuantizedBlockPool",
    "chunk_digest",
    "resolve_pool_class",
    "resolve_spill_arena",
    "resolve_tiered_pool_class",
    "DEFAULT_PAGE_SIZE",
]
