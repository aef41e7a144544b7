"""Inference keeps no state on the model: the contract that lets one model
serve concurrent prompt passes.

Every inference entry point — the prompt pass (``forward_suffix``, whole or
chunked, with and without score policies), the decode step (solo and a
padded batch) and the speculative verify step — must leave every attribute
of every module the object it was.  Only the training pass
(``DecoderLM.forward``) caches what ``backward`` reads, and its gradients
stay byte-for-byte those pinned in ``training_gradients.json``.  Two prompt
passes on one model in two threads are the same passes run one after the
other, bit for bit (the shared ``RopeTable``'s growth under two threads is
``tests/models/test_positional.py``).

Re-pin the gradient digests (only for a deliberate change of training
numerics)::

    PYTHONPATH=src:. python tests/models/test_inference_state.py --pin
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.generation.generator import Generator
from repro.models.config import GenerationConfig
from repro.models.layers import Module
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine
from repro.speculative import SpeculationConfig
from tests.conftest import tiny_config

GRADIENTS_PATH = Path(__file__).resolve().parent / "training_gradients.json"

#: Positional families: name -> ``tiny_config`` arguments.
FAMILIES = {
    "rope": ("rope", {}),
    "rope_half": ("rope", {"rope_fraction": 0.5}),
    "alibi": ("alibi", {}),
    "learned": ("learned", {}),
}
DTYPES = ("float64", "float32")
#: Longer than one 32-row attention block.
PROMPT_LEN = 40


def _modules(module: Module, path: str = "model"):
    yield path, module
    for name, child in module.submodules():
        yield from _modules(child, f"{path}.{name}")


def model_state(model: Module) -> dict[str, dict]:
    """Every module's attributes (``vars()``), keyed by the module's path."""
    return {path: dict(vars(module)) for path, module in _modules(model)}


def assert_state_kept(model: Module, before: dict[str, dict]) -> None:
    """Every attribute of every module is the object ``before`` recorded."""
    after = model_state(model)
    assert after.keys() == before.keys()
    missing = object()
    changed = [
        f"{path}.{name}"
        for path, attrs in after.items()
        for name in attrs.keys() | before[path].keys()
        if attrs.get(name, missing) is not before[path].get(name, missing)
    ]
    assert not changed, f"inference wrote {changed}"


def _keyformer(seed: int = 7) -> KeyformerPolicy:
    return KeyformerPolicy(KeyformerConfig(kv_fraction=0.5, seed=seed))


@pytest.fixture(params=[(f, d) for f in FAMILIES for d in DTYPES], ids="-".join)
def model(request) -> DecoderLM:
    family, dtype = request.param
    positional, extra = FAMILIES[family]
    return DecoderLM(tiny_config(positional, compute_dtype=dtype, **extra), seed=0)


def _ids(model: DecoderLM, shape, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, model.config.vocab_size, size=shape)


class TestInferenceWritesNothing:
    """Each inference entry point, on a model over every positional family at
    float64 and float32, leaves every module attribute untouched."""

    def test_prompt_pass(self, model):
        before = model_state(model)
        model.forward_suffix(_ids(model, (2, PROMPT_LEN)))
        assert_state_kept(model, before)

    def test_scored_prompt_pass(self, model):
        config = model.config
        policies = [_keyformer(seed) for seed in range(2)]
        for policy in policies:
            policy.setup(config.n_layers, config.n_heads, 1, PROMPT_LEN, 4)
        before = model_state(model)
        model.forward_suffix(_ids(model, (2, PROMPT_LEN)), scorers=policies)
        assert_state_kept(model, before)

    def test_chunked_prompt_pass(self, model):
        ids = _ids(model, (1, PROMPT_LEN))
        _, kv = model.forward_suffix(ids[:, :24])
        prefix = []
        for (k_raw, v), block in zip(kv, model.blocks):
            table = block.attn._rope_table
            prefix.append((k_raw if table is None else table.rotate(k_raw, np.arange(24)), v))
        before = model_state(model)
        model.forward_suffix(ids[:, 24:], prefix_kv=prefix, prefix_len=24)
        assert_state_kept(model, before)

    def test_solo_decode_step(self, model):
        _, manager = Generator(model, _keyformer())._prompt_forward(
            _ids(model, (1, PROMPT_LEN)), 4
        )
        before = model_state(model)
        model.decode_step_batch(np.array([3]), manager.query_positions(), manager.layer_views())
        assert_state_kept(model, before)

    def test_batched_decode_step(self, model):
        """Two rows at different depths: a padded batch."""
        engine = ContinuousBatchingEngine(model, policy_factory=_keyformer)
        for t in (PROMPT_LEN, PROMPT_LEN - 7):
            engine.submit(_ids(model, t, seed=t), GenerationConfig(max_new_tokens=4))
        engine.step()  # one request joins per step
        engine.step()
        assert engine.n_running == 2 and engine.n_queued == 0
        before = model_state(model)
        engine.step()
        assert_state_kept(model, before)

    def test_verify_step(self, model):
        speculation = SpeculationConfig(k=3)
        engine = ContinuousBatchingEngine(model, speculation=speculation)
        engine.submit(_ids(model, PROMPT_LEN), GenerationConfig(max_new_tokens=8))
        engine.step()
        rounds = engine.speculation_stats.rounds
        before = model_state(model)
        engine.step()
        assert engine.speculation_stats.rounds > rounds
        assert_state_kept(model, before)


# ----------------------------------------------------------------------
# training still caches what backward reads
# ----------------------------------------------------------------------
def _gradient_cases() -> dict[str, dict]:
    return {
        f"{family}-{dtype}-{'tied' if tied else 'head'}": dict(
            positional=FAMILIES[family][0],
            compute_dtype=dtype,
            tie_embeddings=tied,
            **FAMILIES[family][1],
        )
        for family in FAMILIES
        for dtype in DTYPES
        for tied in (True, False)
    }


def gradient_digest(case: dict) -> str:
    """sha256 of one training step's loss and every gradient's bytes."""
    case = dict(case)
    model = DecoderLM(tiny_config(case.pop("positional"), **case), seed=0)
    ids = _ids(model, (2, PROMPT_LEN), seed=1)
    loss = model.train_step_gradients(ids, np.roll(ids, -1, axis=1))
    digest = hashlib.sha256(np.float64(loss).tobytes())
    for name, grad in model.named_gradients():
        digest.update(name.encode())
        digest.update(grad.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(_gradient_cases()))
def test_training_gradients_are_pinned(name):
    pinned = json.loads(GRADIENTS_PATH.read_text())
    assert gradient_digest(_gradient_cases()[name]) == pinned[name]


# ----------------------------------------------------------------------
# reentrancy
# ----------------------------------------------------------------------
class TestReentrantPromptPass:
    """Two Keyformer prompt passes started together on one model in two
    threads are the same two passes run one after the other: logits, KV,
    score slabs and noise-generator state, byte for byte."""

    LENGTHS = (200, 161)

    @staticmethod
    def _pass(model, ids, barrier=None):
        config = model.config
        policy = _keyformer(seed=ids.shape[1])
        policy.setup(config.n_layers, config.n_heads, 1, ids.shape[1], 8)
        if barrier is not None:
            barrier.wait()
        logits, kv = model.forward_suffix(ids, scorers=[policy])
        return logits, kv, policy

    @staticmethod
    def _bytes(result) -> list:
        logits, kv, policy = result
        score = policy.score
        return [
            logits.tobytes(),
            *(a.tobytes() for layer in kv for a in layer),
            *(score.get(layer).tobytes() for layer in range(len(kv))),
            score.rng.bit_generator.state,
        ]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    def test_two_threads_are_two_sequential_passes(self, positional, dtype):
        config = tiny_config(positional, d_model=64, max_seq_len=256, compute_dtype=dtype)
        model = DecoderLM(config, seed=0)
        prompts = [_ids(model, (1, t), seed=t) for t in self.LENGTHS]
        sequential = [self._pass(model, ids) for ids in prompts]
        barrier = threading.Barrier(len(prompts))
        with ThreadPoolExecutor(len(prompts)) as pool:
            futures = [pool.submit(self._pass, model, ids, barrier) for ids in prompts]
            concurrent = [future.result() for future in futures]
        for alone, together in zip(sequential, concurrent):
            assert self._bytes(together) == self._bytes(alone)


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit(__doc__)
    digests = {name: gradient_digest(case) for name, case in sorted(_gradient_cases().items())}
    GRADIENTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"pinned {len(digests)} gradient digests to {GRADIENTS_PATH.name}")
