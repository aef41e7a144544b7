"""Analytical performance model of LLM generative inference on an A100-class GPU.

The paper's performance results (Figures 1, 9, 10 and Table 1) are measured on
an NVIDIA A100 (80 GB).  Without that hardware we reproduce the *shape* of
those results with a roofline model: per-token decode latency is dominated by
moving the model weights and the KV cache from HBM, so reducing the KV cache
by 50 % directly reduces the memory-bound portion of each step and allows a
larger batch before running out of HBM capacity.  :class:`StepCostModel`
charges each engine step of the load harness its virtual step-time.
"""

from repro.perfmodel.hardware import HardwareSpec, A100_80GB
from repro.perfmodel.memory import PerfModelSpec, MemoryModel, MPT_7B, GPT_J_6B, CEREBRAS_GPT_6_7B
from repro.perfmodel.latency import LatencyModel, LatencyBreakdown, AttentionPolicyOverhead
from repro.perfmodel.serving import StepCostModel
from repro.perfmodel.throughput import ThroughputModel, ThroughputResult

__all__ = [
    "StepCostModel",
    "HardwareSpec",
    "A100_80GB",
    "PerfModelSpec",
    "MemoryModel",
    "MPT_7B",
    "GPT_J_6B",
    "CEREBRAS_GPT_6_7B",
    "LatencyModel",
    "LatencyBreakdown",
    "AttentionPolicyOverhead",
    "ThroughputModel",
    "ThroughputResult",
]
