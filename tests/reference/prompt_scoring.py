"""Reference prompt scoring: the post-forward loops the fused per-block
scorers replaced, and helpers that feed whole prompt tensors to a scorer.

``reference_keyformer_prompt`` is ``KeyformerScore.init_from_prompt`` as it
was when the prompt pass still returned every layer's ``(B, H, T, T)``
masked logits: each ``(b, h)`` matrix in C order, 32 query rows at a time,
the generator drawn for whole rows, only the columns a causal block sees
transformed, the row sum run over the zero-padded row, and a running sum that
enters each block as part of its first row.  The fused scorer must match it,
generator state included, bit for bit.
"""

from __future__ import annotations

import numpy as np

#: Query rows per block of the reference loop.
REFERENCE_BLOCK_ROWS = 32


def _reference_noisy_softmax(score, block, positions, tau, columns):
    """``softmax((x + ζ)/τ)`` of ``block``'s leading ``columns`` (the rest
    exactly ``-inf``), the generator drawn for whole rows."""
    shape, dtype = block.shape, block.dtype
    if score.resample == "per-step":
        drawn = np.empty(shape, np.float64)
        score.noise.draw(drawn, score.rng)
        zeta = np.ascontiguousarray(drawn[..., :columns])
        score.noise.finish(zeta)
    else:
        zeta = score._zeta_for(positions)[..., :columns]
    work = np.empty(shape[:-1] + (columns,), dtype)
    np.copyto(work, zeta)
    work += block[..., :columns]
    work /= tau
    peak = work.max(axis=-1, keepdims=True)
    masked = not np.isfinite(peak).all()
    if masked:
        peak = np.where(np.isfinite(peak), peak, 0.0)
    work -= peak
    np.exp(work, out=work)
    padded = np.zeros(shape, dtype)
    padded[..., :columns] = work
    denom = padded.sum(axis=-1, keepdims=True)
    if masked:
        denom = np.where(denom == 0.0, 1.0, denom)
    work /= denom
    return work


def reference_keyformer_prompt(score, attn_logits, positions=None) -> np.ndarray:
    """The prompt contribution ``(B, H, T)`` of a :class:`KeyformerScore`
    from whole ``(B, H, S, T)`` masked logits; draws from ``score.rng``."""
    tau = score.tau_schedule(0)
    logits = np.asarray(attn_logits)
    n_queries, seq_len = logits.shape[-2:]
    pos = np.arange(seq_len) if positions is None else np.asarray(positions)
    lead = logits.shape[:-2]
    contribution = np.zeros(lead + (seq_len,), dtype=logits.dtype)
    for at in np.ndindex(*lead):
        rows, running = logits[at], contribution[at]
        for start in range(0, n_queries, REFERENCE_BLOCK_ROWS):
            block = rows[start : start + REFERENCE_BLOCK_ROWS]
            columns = min(start + len(block) + seq_len - n_queries, seq_len)
            if not (block[:, columns:] == -np.inf).all():
                columns = seq_len
            noisy = _reference_noisy_softmax(score, block, pos, tau, columns)
            if score.prompt_mode != "all":
                running[:columns] = noisy[-1]
                running[columns:] = 0.0
            else:
                if start:
                    noisy[0] += running[:columns]
                running[:columns] = noisy.sum(axis=0)
    return contribution


def reference_h2o_prompt(score, attn_probs) -> np.ndarray:
    """The prompt contribution of an :class:`AccumulatedAttentionScore`."""
    if score.prompt_mode == "all":
        return attn_probs.sum(axis=-2)
    return attn_probs[..., -1, :]


def visible_columns(block: np.ndarray) -> int:
    """Columns up to the last one any row of ``block`` sees (not ``-inf``)."""
    seen = np.flatnonzero((block != -np.inf).reshape(-1, block.shape[-1]).any(axis=0))
    return int(seen[-1]) + 1 if seen.size else 1


def score_prompt(owner, layer_idx, logits, probs=None, rows=REFERENCE_BLOCK_ROWS):
    """Feed whole ``(B, H, S, T)`` prompt tensors to ``owner``'s (a score or a
    policy) prompt scorer ``rows`` query rows at a time, each block clipped
    to the columns it sees, as the prompt pass does."""
    n_rows, width = logits.shape[-2:]
    scorer = owner.prompt_scorer(layer_idx, n_rows, width)
    if scorer is None:
        return
    if probs is None:
        probs = np.zeros_like(logits)
    for start in range(0, n_rows, rows):
        block = logits[..., start : start + rows, :]
        columns = visible_columns(block)
        scorer(start, block[..., :columns], probs[..., start : start + rows, :columns])


class Recorder:
    """A stand-in policy that records what the prompt pass feeds its
    scorers: per layer, the ``(1, H, S, T)`` masked logits (``-inf`` where
    a block saw no column) and probabilities (``0`` there)."""

    def __init__(self):
        self.scores: dict[int, np.ndarray] = {}
        self.attention: dict[int, np.ndarray] = {}

    def prompt_scorer(self, layer_idx, n_rows, width):
        return _Recording(self, layer_idx, n_rows, width)


class _Recording:
    def __init__(self, recorder, layer_idx, n_rows, width):
        self.recorder, self.layer_idx = recorder, layer_idx
        self.n_rows, self.width = n_rows, width

    def __call__(self, start, logits, probs):
        recorder, layer = self.recorder, self.layer_idx
        if layer not in recorder.scores:
            lead = logits.shape[:-2] + (self.n_rows, self.width)
            recorder.scores[layer] = np.full(lead, -np.inf, logits.dtype)
            recorder.attention[layer] = np.zeros(lead, probs.dtype)
        n, columns = logits.shape[-2:]
        recorder.scores[layer][..., start : start + n, :columns] = logits
        recorder.attention[layer][..., start : start + n, :columns] = probs


def recorded(recorders, layer_idx):
    """One layer's ``(attention, masked logits)`` over batch rows' recorders."""
    return (
        np.concatenate([r.attention[layer_idx] for r in recorders]),
        np.concatenate([r.scores[layer_idx] for r in recorders]),
    )


def set_up(policy, manager, prompt_len, max_new_tokens, prompt_attn=None, prompt_logits=None):
    """Set ``policy`` up for one sequence of ``manager`` as the engine does
    before a prompt pass and score per-layer ``(1, H, T, T)`` tensors into
    it; returns it for ``BatchedCacheManager.join``."""
    policy.setup(manager.n_layers, manager.n_heads, 1, prompt_len, max_new_tokens)
    for layer_idx, logits in enumerate(prompt_logits or ()):
        score_prompt(policy, layer_idx, logits, prompt_attn[layer_idx])
    return policy


def seed_manager(manager, prompt_kv, prompt_attn, prompt_logits, max_new_tokens):
    """``CacheManager.initialize_from_prompt`` from whole per-layer ``(B, H,
    T, T)`` prompt tensors, each row's policy scored from its slice of them
    as the prompt pass would."""
    batch, _, t, _ = prompt_kv[0][0].shape
    for row, policy in enumerate(manager.setup_rows(batch, t, max_new_tokens)):
        for layer_idx, (probs, logits) in enumerate(zip(prompt_attn, prompt_logits)):
            score_prompt(policy, layer_idx, logits[row : row + 1], probs[row : row + 1])
    manager.initialize_from_prompt(prompt_kv, max_new_tokens)


def score_after_the_pass(model, monkeypatch) -> None:
    """Make ``model.forward_suffix`` score its ``scorers`` the way the
    prompt pass did before scoring was fused into it: run the pass without
    them, then feed every score policy the whole-tensor masked logits and
    probabilities of ``reference_forward`` through the reference loops."""
    from repro.core.score import KeyformerScore
    from repro.models.attention import MultiHeadAttention
    from tests.models.test_attention import reference_forward

    forward_suffix = model.forward_suffix

    def post_forward(ids, prefix_kv=None, prefix_len=0, prompt_len=None, scorers=()):
        out = forward_suffix(ids, prefix_kv, prefix_len, prompt_len)
        policies = [(row, p) for row, p in enumerate(scorers) if p.needs_prompt_attention]
        if not policies:
            return out
        assert prefix_len == 0
        with monkeypatch.context() as patch:
            patch.setattr(MultiHeadAttention, "forward", reference_forward)
            model.forward(np.asarray(ids).reshape(len(scorers), -1), store_attention=True)
        for layer_idx, block in enumerate(model.blocks):
            attention, scores = block.attn.last_attention, block.attn.last_scores
            for row, policy in policies:
                score = policy.score
                if isinstance(score, KeyformerScore):
                    contribution = reference_keyformer_prompt(score, scores[row : row + 1])
                else:
                    contribution = reference_h2o_prompt(score, attention[row : row + 1])
                score._add(score._layers(layer_idx), contribution[None])
        return out

    monkeypatch.setattr(model, "forward_suffix", post_forward)
