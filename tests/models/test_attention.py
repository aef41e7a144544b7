"""Tests for multi-head attention: masking, gradients and the prompt and decode
kernels against dense references."""

import numpy as np
import pytest

from repro.models import tensor_ops as ops
from repro.models.attention import _ROW_BLOCK, MultiHeadAttention
from repro.models.config import ModelConfig
from repro.models.positional import alibi_bias_matrix, alibi_slopes, rope_rotate
from repro.models.transformer import DecoderLM
from tests.conftest import tiny_config
from tests.reference.prompt_scoring import Recorder, recorded


def make_attention(positional="rope", seed=0):
    config = tiny_config(positional)
    return MultiHeadAttention(config, np.random.default_rng(seed)), config


def _whole_prompt(attn, x):
    """``attend_prefill`` over the whole of ``x`` (an empty prefix), the
    blocks it scores recorded: ``(output, (k_raw, v), (attention, masked
    logits))``."""
    b, t, _ = x.shape
    empty = np.empty((b, attn.n_heads, 0, attn.d_head), x.dtype)
    recorders = [Recorder() for _ in range(b)]
    scorers = [(row, r.prompt_scorer(0, t, t)) for row, r in enumerate(recorders)]
    out, kv = attn.attend_prefill(x, empty, empty, 0, scorers=scorers)
    return out, kv, recorded(recorders, 0)


def reference_forward(self, x, positions=None, store_attention=False):
    """The whole-tensor formulation ``MultiHeadAttention.forward`` replaced.

    It computes ``QKᵀ``, ``exp``, the division and ``A·V`` over the whole
    ``(B, H, T, T)`` square and then masks half of it; the row-blocked forward
    must reproduce its every bit, layout included, at float64 and float32.
    """
    b, t, _ = x.shape
    if positions is None:
        positions = np.arange(t)
    positions = np.asarray(positions)

    q = self._split_heads(self.w_q(x))
    k_raw = self._split_heads(self.w_k(x))
    v = self._split_heads(self.w_v(x))

    if self.positional == "rope":
        pos_bh = positions if positions.ndim == 1 else positions[:, None, :]
        q_rot = rope_rotate(q, pos_bh, self.rope_dims, table=self._rope_table)
        k_rot = rope_rotate(k_raw, pos_bh, self.rope_dims, table=self._rope_table)
    else:
        q_rot, k_rot = q, k_raw

    scale = self._scale
    if q_rot.dtype == np.float64:
        scores = np.einsum("bhqd,bhkd->bhqk", q_rot, k_rot)
    else:
        scores = q_rot @ k_rot.swapaxes(-1, -2)
    scores *= scale

    if self.positional == "alibi":
        scores = scores + alibi_bias_matrix(self.n_heads, t)[None]

    future = np.arange(t)[None, :] > np.arange(t)[:, None]
    np.copyto(scores, -np.inf, where=future)

    attn = ops.softmax(scores, axis=-1)
    if store_attention:
        self.last_attention = attn
        self.last_scores = scores
        self.last_kv = (k_raw, v)

    if attn.dtype == np.float64:
        ctx = np.einsum("bhqk,bhkd->bhqd", attn, v)
    else:
        ctx = attn @ v
    out = self.w_o(self._merge_heads(ctx))

    self._cache = {
        "q_rot": q_rot,
        "k_rot": k_rot,
        "v": v,
        "attn": attn,
        "positions": positions,
        "scale": scale,
    }
    return out


def reference_attend_step(
    attn, q, keys, values, query_positions, key_positions, lengths=None
):
    """The solo decode step the one decode kernel replaced, written densely.

    One unrotated query per row over whole rows of raw cached keys: RoPE by
    :func:`rope_rotate` without the table fast path, scores by einsum at
    float64 and matmul below, the ALiBi bias from the slopes, softmax, A·V by
    einsum for float64 probabilities and matmul below, then the output
    projection.  ``lengths`` first masks each row's padded slots to ``-inf``
    (a padded batch's float32 semantics).  Returns ``(output, logits,
    probs)`` as ``MultiHeadAttention.attend_step_batch`` does.
    """
    b = q.shape[0]
    query_positions = np.asarray(query_positions)
    if attn.positional == "rope":
        q_pos = query_positions[:, None] if query_positions.ndim else query_positions
        q = rope_rotate(q, q_pos, attn.rope_dims)
        keys = rope_rotate(keys, key_positions, attn.rope_dims)
    if q.dtype == np.float64:
        logits = np.einsum("bhd,bhld->bhl", q, keys)
    else:
        logits = (q[:, :, None, :] @ keys.swapaxes(-1, -2))[:, :, 0, :]
    logits = logits * attn._scale
    if attn.positional == "alibi":
        distance = query_positions.astype(np.float64)[..., None, None] - key_positions
        logits = logits + -alibi_slopes(attn.n_heads)[:, None] * np.maximum(distance, 0.0)
    if lengths is not None:
        padded = np.arange(logits.shape[-1]) >= np.asarray(lengths)[:, None, None]
        logits = np.where(padded, -np.inf, logits)
    probs = ops.softmax(logits, axis=-1)
    if probs.dtype == np.float64:
        ctx = np.einsum("bhl,bhld->bhd", probs, values)
    else:
        ctx = (probs[:, :, None, :] @ values)[:, :, 0, :]
    return attn.w_o(ctx.reshape(b, attn.d_model)), logits, probs


#: Positional families of the reference grid: name -> ``tiny_config`` args.
REFERENCE_POSITIONAL = {
    "rope": ("rope", {}),
    "rope_half": ("rope", {"rope_fraction": 0.5}),
    "alibi": ("alibi", {}),
    "learned": ("learned", {}),
}
#: Prompt lengths: one block, its edges, a one-row tail, many blocks.
REFERENCE_LENGTHS = (1, 2, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 97, 600)


def _prompt_pass(config, ids, positions, reference=False):
    """Logits and each layer's stored attention from ``forward`` and, without
    ``positions`` (which neither ``forward_suffix`` nor
    ``train_step_gradients`` takes), the inference prompt pass's last-row
    logits, KV, the attention and masked logits it feeds its scorers
    (recorded) plus every parameter gradient.  Under ``reference`` the
    prompt-pass tensors are those ``reference_forward`` keeps on the
    module."""
    model = DecoderLM(config, seed=0)
    out = {"logits": model.forward(ids, positions=positions, store_attention=True)}
    for i, block in enumerate(model.blocks):
        out[f"{i}.attention"] = block.attn.last_attention
    if positions is None:
        if reference:
            logits = out["logits"][:, -1]
            layers = [(b.attn.last_kv, b.attn.last_attention, b.attn.last_scores)
                      for b in model.blocks]
        else:
            recorders = [Recorder() for _ in range(len(ids))]
            logits, kv = model.forward_suffix(ids, scorers=recorders)
            layers = [(layer_kv, *recorded(recorders, i)) for i, layer_kv in enumerate(kv)]
        out["prompt.logits"] = logits
        for i, ((k, v), attention, scores) in enumerate(layers):
            out[f"{i}.k"], out[f"{i}.v"] = k, v
            out[f"{i}.prompt.attention"], out[f"{i}.prompt.scores"] = attention, scores
        out["loss"] = np.float64(model.train_step_gradients(ids, np.roll(ids, -1, axis=1)))
        out.update(model.named_gradients())
    return out


class TestBlockedForwardIsTheWholeTensorForward:
    """Row-blocked causal-half attention against :func:`reference_forward`.

    Bytes, dtypes and the stored attention's strides must be equal: NumPy's
    reduction order follows memory layout, so buffers in the wrong layout
    change bits the goldens do not see (all C order: learned-position
    float64 logits and gradients differ from T = 16 on).  The prompt pass
    stores nothing; the blocks it feeds its scorers must hold the
    reference's values.
    """

    @pytest.mark.parametrize("t", REFERENCE_LENGTHS)
    @pytest.mark.parametrize("with_positions", [False, True], ids=["arange", "positions"])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("family", sorted(REFERENCE_POSITIONAL))
    def test_bytes_equal(self, family, dtype, batch, with_positions, t, monkeypatch):
        positional, extra = REFERENCE_POSITIONAL[family]
        config = tiny_config(
            positional, n_layers=1, max_seq_len=640, compute_dtype=dtype, **extra
        )
        rng = np.random.default_rng(t)
        ids = rng.integers(0, config.vocab_size, size=(batch, t))
        positions = None
        if with_positions:
            positions = np.arange(t) + rng.integers(0, 8, size=(batch, 1))

        got = _prompt_pass(config, ids, positions)
        monkeypatch.setattr(MultiHeadAttention, "forward", reference_forward)
        want = _prompt_pass(config, ids, positions, reference=True)

        assert got.keys() == want.keys()
        for name, expected in want.items():
            actual = got[name]
            assert actual.dtype == expected.dtype, name
            assert actual.shape == expected.shape, name
            assert actual.tobytes() == expected.tobytes(), name
            if name.endswith(".attention") and ".prompt." not in name:
                assert actual.strides == expected.strides, name

    def test_forward_computes_the_causal_half(self, monkeypatch):
        """No ``(B, H, T, T)`` score einsum and no whole-square softmax: the
        query-key products cover about half of the square."""
        config = tiny_config("rope", n_layers=1, max_seq_len=640)
        attn = MultiHeadAttention(config, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, 600, config.d_model))
        products = []
        real_einsum = np.einsum

        def spy(subscripts, *operands, **kwargs):
            if subscripts == "bhqd,bhkd->bhqk":
                products.append(operands[0].shape[2] * operands[1].shape[2])
            return real_einsum(subscripts, *operands, **kwargs)

        def no_softmax(*args, **kwargs):
            raise AssertionError("whole-tensor softmax in the prompt pass")

        monkeypatch.setattr(np, "einsum", spy)
        monkeypatch.setattr(ops, "softmax", no_softmax)
        attn(x, store_attention=True)
        assert len(products) > 1
        assert sum(products) <= 0.55 * 600 * 600


#: The end-to-end benchmark's model geometry, two layers.
BENCH_GEOMETRY = dict(vocab_size=256, d_model=128, n_heads=8, d_ff=512, max_seq_len=320)


class TestPrefillChunkIsForwardRows:
    """``attend_prefill`` is the forward's kernel on rows ``[P, P + S)``."""

    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned", "none"])
    @pytest.mark.parametrize("start, stop", [(0, 40), (40, 72), (48, 97)])
    def test_chunk_rows_equal_forward_rows(self, positional, start, stop, monkeypatch):
        attn, config = make_attention(positional)
        x = np.random.default_rng(2).normal(size=(1, 97, config.d_model))
        whole = attn(x)
        empty = np.empty((1, attn.n_heads, 0, attn.d_head))
        _, (k_raw, v) = attn.attend_prefill(x, empty, empty, 0)
        keys = k_raw[:, :, :start]
        if positional == "rope":
            keys = rope_rotate(keys, np.arange(start), attn.rope_dims, table=attn._rope_table)

        def no_softmax(*args, **kwargs):
            raise AssertionError("a second softmax on the prompt path")

        monkeypatch.setattr(ops, "softmax", no_softmax)
        out, (k, v_chunk) = attn.attend_prefill(
            x[:, start:stop], keys, v[:, :, :start], start, prompt_len=97
        )
        assert out.tobytes() == whole[:, start:stop].tobytes()
        assert k.tobytes() == k_raw[:, :, start:stop].tobytes()
        assert v_chunk.tobytes() == v[:, :, start:stop].tobytes()

    @pytest.mark.parametrize("t", [1, 2, 15, 16, 97, 300])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    def test_whole_prompt_is_the_forward(self, positional, dtype, t, monkeypatch):
        """``P = 0, S = T``: the inference prompt pass returns
        :func:`reference_forward`'s last-row logits and ``(k_raw, v)``, bytes
        and strides, and feeds its scorers the attention and masked logits'
        bytes, block by block."""
        config = ModelConfig(positional=positional, compute_dtype=dtype, n_layers=2,
                             **BENCH_GEOMETRY)
        model = DecoderLM(config, seed=0)
        ids = np.random.default_rng(t).integers(0, config.vocab_size, size=(1, t))
        recorder = Recorder()
        logits, kv = model.forward_suffix(ids, scorers=[recorder])
        got = {"logits": logits}
        for i, (k, v) in enumerate(kv):
            a, sc = recorded([recorder], i)
            got.update({f"{i}.k": k, f"{i}.v": v, f"{i}.attention": a, f"{i}.scores": sc})
        monkeypatch.setattr(MultiHeadAttention, "forward", reference_forward)
        want = {"logits": model.forward(ids, store_attention=True)[:, -1]}
        for i, block in enumerate(model.blocks):
            (k, v), a, sc = block.attn.last_kv, block.attn.last_attention, block.attn.last_scores
            want.update({f"{i}.k": k, f"{i}.v": v, f"{i}.attention": a, f"{i}.scores": sc})

        assert got.keys() == want.keys()
        for name, expected in want.items():
            actual = got[name]
            assert actual.dtype == expected.dtype, name
            assert actual.shape == expected.shape, name
            if name.endswith((".k", ".v")):
                assert actual.strides == expected.strides, name
            assert actual.tobytes() == expected.tobytes(), name

    def test_pass_returns_logits_and_kv_only(self):
        """The pass keeps no attention tensor: scorers see each block while it
        is hot, and a prompt is scored only in one whole pass.  It returns
        the last row's next-token logits only."""
        model = DecoderLM(tiny_config("rope"), seed=0)
        ids = np.arange(12).reshape(2, 6)
        logits, kv = model.forward_suffix(ids)
        assert logits.shape == (2, model.config.vocab_size)
        assert len(kv) == len(model.blocks)
        prefix = [(k[:, :, :3], v[:, :, :3]) for k, v in kv]
        with pytest.raises(ValueError, match="whole prompt"):
            model.forward_suffix(ids[:, 3:], prefix, 3, scorers=[Recorder(), Recorder()])


class TestForward:
    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned", "none"])
    def test_output_shape(self, positional, rng):
        attn, config = make_attention(positional)
        x = rng.normal(size=(2, 6, config.d_model))
        out = attn(x)
        assert out.shape == x.shape

    def test_causality(self, rng):
        """Changing a future token must not affect earlier outputs."""
        attn, config = make_attention("rope")
        x = rng.normal(size=(1, 8, config.d_model))
        out_a = attn(x).copy()
        x_mod = x.copy()
        x_mod[0, -1] += 10.0
        out_b = attn(x_mod)
        np.testing.assert_allclose(out_a[0, :-1], out_b[0, :-1], atol=1e-10)
        assert not np.allclose(out_a[0, -1], out_b[0, -1])

    @pytest.mark.parametrize("positional", ["rope", "alibi", "none"])
    def test_float32_forward_stays_close_to_float64(self, positional, rng):
        """Below float64 the two prompt GEMMs run through BLAS matmul (the
        dtype rule of the decode kernel); outputs, stored logits and stored
        probabilities stay within float32 rounding of the exact path."""
        exact, config = make_attention(positional)
        fast, _ = make_attention(positional)
        fast.to_dtype(np.float32)
        x = rng.normal(size=(2, 40, config.d_model))
        want, _, (want_attn, want_scores) = _whole_prompt(exact, x)
        got, _, (got_attn, got_scores) = _whole_prompt(fast, x.astype(np.float32))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
        live = np.isfinite(want_scores)
        np.testing.assert_array_equal(np.isfinite(got_scores), live)
        np.testing.assert_allclose(got_scores[live], want_scores[live], rtol=0, atol=1e-5)
        np.testing.assert_allclose(got_attn, want_attn, rtol=0, atol=1e-6)
        if positional != "alibi":  # the float64 ALiBi bias promotes the scores
            assert got.dtype == got_scores.dtype == np.float32

    def test_attention_rows_are_distributions(self, rng):
        attn, config = make_attention("alibi")
        x = rng.normal(size=(1, 5, config.d_model))
        attn(x, store_attention=True)
        probs = attn.last_attention
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        # Upper triangle must be exactly zero (masked).
        t = probs.shape[-1]
        mask = np.triu(np.ones((t, t), dtype=bool), k=1)
        assert np.all(probs[..., mask] == 0.0)

    def test_prompt_pass_returns_kv_and_scores(self, rng):
        attn, config = make_attention("rope")
        x = rng.normal(size=(2, 4, config.d_model))
        _, (k_raw, v), (_, scores) = _whole_prompt(attn, x)
        assert k_raw.shape == (2, config.n_heads, 4, config.d_head)
        assert v.shape == k_raw.shape
        assert scores.shape == (2, config.n_heads, 4, 4)

    def test_backward_input_gradient_matches_fd(self, rng):
        attn, config = make_attention("rope")
        x = rng.normal(size=(1, 3, config.d_model))
        upstream = rng.normal(size=(1, 3, config.d_model))

        def scalar(inp):
            return float(np.sum(attn.forward(inp) * upstream))

        attn.zero_grad()
        attn.forward(x)
        dx = attn.backward(upstream)

        eps = 1e-5
        numeric = np.zeros_like(x)
        flat_x = x.reshape(-1)
        flat_num = numeric.reshape(-1)
        for i in range(0, flat_x.size, 7):  # sample every 7th coordinate for speed
            orig = flat_x[i]
            flat_x[i] = orig + eps
            plus = scalar(x)
            flat_x[i] = orig - eps
            minus = scalar(x)
            flat_x[i] = orig
            flat_num[i] = (plus - minus) / (2 * eps)
        sampled = flat_num != 0
        np.testing.assert_allclose(dx.reshape(-1)[sampled], flat_num[sampled], atol=1e-5)


#: Live lengths per row of the decode grid: one row, a batch at one depth
#: (the solo manager's, no padding), and a ragged continuous batch.
DECODE_ROWS = {"one": [13], "equal": [13] * 4, "ragged": [9, 5, 13, 7]}


def _decode_inputs(attn, rows, dtype, seed=0):
    """Random ``(q, keys, values, query_positions, key_positions, lengths)``
    for :data:`DECODE_ROWS` ``rows``: key positions with eviction gaps, one
    query position and one live length per row."""
    rng = np.random.default_rng(seed)
    live = np.asarray(DECODE_ROWS[rows])
    batch, width, heads, d = len(live), int(live.max()), attn.n_heads, attn.d_head
    q = rng.normal(size=(batch, heads, d)).astype(dtype)
    keys = rng.normal(size=(batch, heads, width, d)).astype(dtype)
    values = rng.normal(size=(batch, heads, width, d)).astype(dtype)
    query_positions = 40 + live
    key_positions = np.sort(
        [[rng.choice(int(p), width, replace=False) for _ in range(heads)] for p in query_positions]
    )
    return q, keys, values, query_positions, key_positions, live


class TestDecodeStep:
    @pytest.mark.parametrize("rows", sorted(DECODE_ROWS))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("family", sorted(REFERENCE_POSITIONAL))
    def test_kernel_is_the_reference(self, family, dtype, rows):
        """``attend_step_batch`` against :func:`reference_attend_step`, bytes.

        At float64 every row is the reference on that row alone, at its live
        length (the batched-equals-solo contract); below float64 the batch is
        the reference on the batch.  The one exception is float32 ALiBi: the
        float64 bias promotes the probabilities and the kernel reduces A·V by
        matmul where the solo step used einsum, so its output is held to the
        float32 tolerance (a recorded bit change; logits and probabilities
        stay exact).
        """
        positional, extra = REFERENCE_POSITIONAL[family]
        attn = MultiHeadAttention(tiny_config(positional, **extra), np.random.default_rng(0))
        attn.to_dtype(dtype)
        q, keys, values, q_pos, k_pos, lengths = _decode_inputs(attn, rows, dtype)
        out, logits, probs = attn.attend_step_batch(q, keys, values, q_pos, k_pos, lengths)
        if dtype == "float64":
            cases = []
            for b, live in enumerate(DECODE_ROWS[rows]):
                want = reference_attend_step(
                    attn, q[b : b + 1], keys[b : b + 1, :, :live],
                    values[b : b + 1, :, :live], q_pos[b], k_pos[b : b + 1, :, :live],
                )
                got = out[b : b + 1], logits[b : b + 1, :, :live], probs[b : b + 1, :, :live]
                cases.append((got, want))
        else:
            want = reference_attend_step(attn, q, keys, values, q_pos, k_pos, lengths)
            cases = [((out, logits, probs), want)]
        for got, want in cases:
            for name, actual, expected in zip(("output", "logits", "probs"), got, want):
                assert actual.dtype == expected.dtype, name
                assert actual.shape == expected.shape, name
                if name == "output" and family == "alibi" and dtype == "float32":
                    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-5)
                else:
                    assert actual.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    def test_decode_matches_full_forward_last_row(self, positional, rng):
        """Attending a single query over cached keys must reproduce the last row
        of the full-sequence attention output."""
        attn, config = make_attention(positional)
        t = 6
        x = rng.normal(size=(1, t, config.d_model))
        full_out, (k_raw, v), (attention, _) = _whole_prompt(attn, x)

        q, k_new, v_new = attn.project_qkv(x[:, -1, :])
        np.testing.assert_allclose(k_new, k_raw[:, :, -1, :], atol=1e-10)

        key_positions = np.broadcast_to(np.arange(t), (1, config.n_heads, t))
        out, logits, probs = attn.attend_step_batch(
            q, k_raw, v, np.array([t - 1]), key_positions, np.array([t])
        )
        np.testing.assert_allclose(out, full_out[:, -1, :], atol=1e-8)
        np.testing.assert_allclose(probs[0], attention[0, :, -1, :], atol=1e-8)

    def test_logits_match_stored_scores(self, rng):
        attn, config = make_attention("alibi")
        t = 5
        x = rng.normal(size=(1, t, config.d_model))
        _, (k_raw, v), (_, scores) = _whole_prompt(attn, x)
        q, _, _ = attn.project_qkv(x[:, -1, :])
        key_positions = np.broadcast_to(np.arange(t), (1, config.n_heads, t))
        _, logits, _ = attn.attend_step_batch(
            q, k_raw, v, np.array([t - 1]), key_positions, np.array([t])
        )
        np.testing.assert_allclose(logits[0], scores[0, :, -1, :], atol=1e-8)

    def test_project_qkv_rejects_bad_shape(self, rng):
        attn, config = make_attention("rope")
        with pytest.raises(ValueError):
            attn.project_qkv(rng.normal(size=(1, 3, config.d_model)))

    def test_subset_of_keys_changes_output(self, rng):
        attn, config = make_attention("rope")
        t = 8
        x = rng.normal(size=(1, t, config.d_model))
        _, (k_raw, v), _ = _whole_prompt(attn, x)
        q, _, _ = attn.project_qkv(x[:, -1, :])
        all_pos = np.broadcast_to(np.arange(t), (1, config.n_heads, t))
        full, _, _ = attn.attend_step_batch(q, k_raw, v, np.array([t - 1]), all_pos, np.array([t]))
        subset = np.arange(t - 3, t)
        sub_pos = np.broadcast_to(subset, (1, config.n_heads, 3))
        reduced, _, probs = attn.attend_step_batch(
            q, k_raw[:, :, subset, :], v[:, :, subset, :], np.array([t - 1]), sub_pos, np.array([3])
        )
        assert not np.allclose(full, reduced)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
