"""Roofline latency model for prompt processing and token generation.

Token generation on large models is memory-bandwidth bound: every step must
stream the model weights plus the entire KV cache from HBM.  Prompt
processing is compute bound (large GEMMs).  The model therefore computes, per
decoding step:

* ``weight_time``   — model bytes / effective bandwidth,
* ``kv_time``       — KV-cache bytes for the current cache length / bandwidth,
* ``compute_time``  — GEMV + attention FLOPs / effective FLOP/s,
* ``overhead``      — fixed per-step kernel-launch overhead, plus the score
  function overhead of the eviction policy (Keyformer's Gumbel softmax).

Per-step latency is ``max(memory, compute) + overhead`` (memory and compute
overlap on the GPU), which reduces to the memory term for 7B-class models —
exactly the regime the paper analyses.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.perfmodel.hardware import HardwareSpec, A100_80GB
from repro.perfmodel.memory import MemoryModel, PerfModelSpec

__all__ = ["AttentionPolicyOverhead", "LatencyBreakdown", "LatencyModel"]


@dataclass(frozen=True)
class AttentionPolicyOverhead:
    """Extra per-step cost of a KV-cache eviction policy's score function.

    ``flops_per_cached_token`` models the Gumbel-softmax / top-k work per
    cached token per layer; ``fixed_seconds`` models kernel launches for the
    additional ops.  ``none()`` describes full attention / window attention,
    ``keyformer()`` the Gumbel softmax + top-k selection, ``h2o()`` the
    accumulated-attention update + top-k.
    """

    name: str
    flops_per_cached_token: float = 0.0
    fixed_seconds: float = 0.0

    @classmethod
    def none(cls) -> "AttentionPolicyOverhead":
        return cls(name="none")

    @classmethod
    def h2o(cls) -> "AttentionPolicyOverhead":
        # accumulate + top-k ≈ a few ops per cached token per layer plus a
        # small number of extra kernel launches per step.
        return cls(name="h2o", flops_per_cached_token=6.0, fixed_seconds=5.0e-6)

    @classmethod
    def keyformer(cls) -> "AttentionPolicyOverhead":
        # Gumbel noise addition, temperature scaling, softmax and top-k:
        # ≈ 12 ops per cached token per layer plus extra kernel launches.
        return cls(name="keyformer", flops_per_cached_token=12.0, fixed_seconds=1.0e-5)


@dataclass
class LatencyBreakdown:
    """Per-phase latency decomposition of one generation run (seconds)."""

    prompt_time: float = 0.0
    kv_data_movement_time: float = 0.0
    weight_data_movement_time: float = 0.0
    compute_time: float = 0.0
    attention_compute_time: float = 0.0
    score_overhead_time: float = 0.0
    step_overhead_time: float = 0.0
    n_decode_steps: int = 0

    @property
    def decode_time(self) -> float:
        """Total token-generation time (memory/compute overlap already applied)."""
        memory = self.kv_data_movement_time + self.weight_data_movement_time
        return (
            max(memory, self.compute_time)
            + self.score_overhead_time
            + self.step_overhead_time
        )

    @property
    def total_time(self) -> float:
        return self.prompt_time + self.decode_time

    @property
    def kv_movement_fraction(self) -> float:
        """Fraction of total time spent moving KV-cache data (Figure 1a green bars)."""
        if self.total_time == 0:
            return 0.0
        return self.kv_data_movement_time / self.total_time


class LatencyModel:
    """Roofline latency model for one model on one accelerator."""

    def __init__(
        self,
        spec: PerfModelSpec,
        hardware: HardwareSpec = A100_80GB,
        kv_reorder_passes: float = 2.0,
    ):
        self.spec = spec
        self.hardware = hardware
        self.memory = MemoryModel(spec)
        #: Extra KV-cache traffic per step when beam search re-orders the cache
        #: (one read + one write of the whole cache), matching the HuggingFace
        #: beam-search implementation the paper measures.
        self.kv_reorder_passes = kv_reorder_passes

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def prompt_flops(self, prompt_len: int, batch_size: int = 1) -> float:
        """FLOPs of the prompt phase (dense forward over ``prompt_len`` tokens)."""
        params = self.spec.n_parameters()
        dense = 2.0 * params * prompt_len * batch_size
        attention = (
            4.0 * self.spec.n_layers * self.spec.d_model * prompt_len**2 * batch_size
        )
        return dense + attention

    def decode_step_flops(self, kv_len: int, batch_size: int = 1) -> float:
        """FLOPs of one decode step with ``kv_len`` cached tokens."""
        params = self.spec.n_parameters()
        dense = 2.0 * params * batch_size
        attention = 4.0 * self.spec.n_layers * self.spec.d_model * kv_len * batch_size
        return dense + attention

    def attention_step_flops(self, kv_len: int, batch_size: int = 1) -> float:
        """FLOPs of the scaled-dot-product ``(QK^T)V`` only (Figure 10 right)."""
        return 4.0 * self.spec.n_layers * self.spec.d_model * kv_len * batch_size

    def prompt_latency(self, prompt_len: int, batch_size: int = 1) -> float:
        """Prompt-processing latency (compute bound, overlapped with weight reads)."""
        compute = self.prompt_flops(prompt_len, batch_size) / self.hardware.effective_flops
        weights = self.memory.model_bytes() / self.hardware.effective_bandwidth_bytes
        return max(compute, weights) + self.hardware.kernel_launch_overhead_s

    # ------------------------------------------------------------------
    # full generation runs
    # ------------------------------------------------------------------
    def generation_breakdown(
        self,
        prompt_len: int,
        gen_len: int,
        batch_size: int = 1,
        beam_size: int = 1,
        kv_fraction: float = 1.0,
        policy_overhead: AttentionPolicyOverhead | None = None,
    ) -> LatencyBreakdown:
        """Latency breakdown of prompt + ``gen_len`` generated tokens.

        ``kv_fraction`` is the retained KV-cache fraction: 1.0 models full
        attention (the cache grows every step), smaller values model a policy
        that caps the cache at ``kv_fraction * prompt_len`` entries.
        """
        if not (0 < kv_fraction <= 1.0):
            raise ValueError("kv_fraction must be in (0, 1]")
        policy_overhead = policy_overhead or AttentionPolicyOverhead.none()
        bw = self.hardware.effective_bandwidth_bytes
        flops = self.hardware.effective_flops
        effective_batch = batch_size * beam_size

        breakdown = LatencyBreakdown(n_decode_steps=gen_len)
        breakdown.prompt_time = self.prompt_latency(prompt_len, effective_batch)

        budget = max(int(round(kv_fraction * prompt_len)), 1)
        weight_bytes = self.memory.model_bytes()
        kv_bytes_per_token = self.memory.kv_bytes_per_token() * effective_batch
        kv_traffic_passes = 1.0 + (self.kv_reorder_passes if beam_size > 1 else 0.0)

        for step in range(gen_len):
            if kv_fraction >= 1.0:
                kv_len = prompt_len + step
            else:
                kv_len = budget
            kv_bytes = kv_bytes_per_token * kv_len * kv_traffic_passes
            breakdown.kv_data_movement_time += kv_bytes / bw
            breakdown.weight_data_movement_time += weight_bytes / bw
            step_flops = self.decode_step_flops(kv_len, effective_batch)
            breakdown.compute_time += step_flops / flops
            breakdown.attention_compute_time += (
                self.attention_step_flops(kv_len, effective_batch) / flops
            )
            breakdown.score_overhead_time += (
                policy_overhead.flops_per_cached_token
                * kv_len
                * self.spec.n_layers
                * effective_batch
                / flops
                + policy_overhead.fixed_seconds
            )
            breakdown.step_overhead_time += self.hardware.kernel_launch_overhead_s
        return breakdown

    def generation_latency(
        self,
        prompt_len: int,
        gen_len: int,
        batch_size: int = 1,
        beam_size: int = 1,
        kv_fraction: float = 1.0,
        policy_overhead: AttentionPolicyOverhead | None = None,
    ) -> float:
        """End-to-end latency of prompt + generation in seconds."""
        return self.generation_breakdown(
            prompt_len, gen_len, batch_size, beam_size, kv_fraction, policy_overhead
        ).total_time

    def speedup_vs_full(
        self,
        prompt_len: int,
        gen_len: int,
        kv_fraction: float,
        batch_size: int = 1,
        beam_size: int = 1,
        policy_overhead: AttentionPolicyOverhead | None = None,
    ) -> float:
        """Latency speedup of a reduced-cache policy over full attention (Figure 9)."""
        full = self.generation_latency(prompt_len, gen_len, batch_size, beam_size, 1.0)
        reduced = self.generation_latency(
            prompt_len, gen_len, batch_size, beam_size, kv_fraction, policy_overhead
        )
        return full / reduced
