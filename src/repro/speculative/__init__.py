"""Self-speculative decoding on the paged KV store.

Decode latency is dominated by per-step memory traffic and dispatch overhead;
speculative decoding amortizes many target-model steps behind one batched
**verify** pass.  A cheap drafter — a sparse-cache (window/Keyformer/H2O)
pass over the target's own weights, a smaller model, or a free n-gram lookup
— proposes ``k`` tokens; the target scores all of them at once via the
multi-query verify kernel, accepts the matching prefix, and rolls the
rejected tail's KV pages back through the paged store's refcount machinery.

Greedy output is **bit-identical** to vanilla greedy decoding (tokens and
float64 log-probabilities) for every drafter; see ``docs/speculative.md``.
"""

from repro.speculative.config import SpeculationConfig
from repro.speculative.decoder import (
    BatchedRowVerifyTarget,
    SpeculativeGenerator,
    run_round,
)
from repro.speculative.drafter import (
    Drafter,
    NgramDrafter,
    PolicyDrafter,
    make_drafter_policy,
)
from repro.speculative.telemetry import SpeculationStats

__all__ = [
    "SpeculationConfig",
    "SpeculationStats",
    "SpeculativeGenerator",
    "BatchedRowVerifyTarget",
    "run_round",
    "Drafter",
    "PolicyDrafter",
    "NgramDrafter",
    "make_drafter_policy",
]
