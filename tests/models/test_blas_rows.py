"""The BLAS assumption the chunked-prefill contract rests on.

A prompt chunk runs its projections, MLP and LM head as ``(S, K) @ (K, N)``
GEMMs over the chunk's rows only, so a chunk reproduces the whole prompt
forward's rows bit for bit only if BLAS computes each output row the same
way whatever the row count and row offset.  On the pinned OpenBLAS this
holds from 16 rows on at every GEMM shape of the end-to-end benchmark's
model (``d_model=128``, ``d_ff=512``, vocabulary 256); below 16 rows the
small-matrix path computes ``(M, 512) @ (512, 128)`` rows differently.  A
BLAS upgrade that breaks this fails here, before the chunked-prefill tests
report the symptom.  ``make test-blas-threads`` runs this file under one and
two OpenBLAS threads.
"""

import numpy as np
import pytest

#: ``(K, N)`` of every GEMM in the benchmark geometry's prompt pass.
SHAPES = {
    "qkvo": (128, 128),
    "mlp_up": (128, 512),
    "mlp_down": (512, 128),
    "lm_head": (128, 256),
}
#: Row counts from the 16-row floor up, around block and chunk edges.
ROWS = (16, 17, 31, 32, 33, 64, 65, 97)
OFFSETS = (0, 1, 7, 64, 131, 300)
TOTAL = 400


@pytest.mark.parametrize("m", ROWS)
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_gemm_rows_do_not_depend_on_the_row_count(shape, dtype, m):
    k, n = SHAPES[shape]
    rng = np.random.default_rng(k * n + m)
    x = rng.standard_normal((TOTAL, k)).astype(dtype)
    w = (rng.standard_normal((k, n)) * 0.02).astype(dtype)
    whole = x @ w
    for offset in OFFSETS:
        rows = x[offset : offset + m] @ w
        assert rows.tobytes() == whole[offset : offset + m].tobytes(), (
            f"{shape} {dtype}: rows [{offset}, {offset + m}) differ from the whole product"
        )
