"""MX+ encoder micro-benchmark: batched numpy vs the per-block reference.

The bit-level layout and the hardware model consume structured encodings,
so the encode path must stay whole-tensor vectorized. Fake quantization
(``quantize_dequantize``, what the recipe autotuner and every model
evaluation hammer) runs the same block kernel without building the
encoding. This benchmark times a 4096x4096 MXFP4+ encode through the
batched :meth:`~repro.core.mxplus.MXPlusFormat.encode` against the
per-block :meth:`~repro.core.mxplus.MXPlusFormat.encode_reference`
specification (identical output, asserted field-for-field in
``tests/test_properties_core.py``) and asserts the vectorized path is at
least 2x faster.

The reference loops over half a million blocks in Python, so it is timed
on a 256-row slab and scaled linearly — exact for a per-block-independent
loop (same per-block work, 1/16 the blocks).
"""

import time

import numpy as np

from _util import print_table, run_once, save_result

from repro.core.mxplus import MXFP4Plus

SHAPE = (4096, 4096)
SLAB_ROWS = 256  # reference timed on a slab, scaled by the block ratio
MIN_SPEEDUP = 2.0


def _bench():
    fmt = MXFP4Plus()
    rng = np.random.default_rng(0)
    x = rng.normal(size=SHAPE)
    scale = SHAPE[0] // SLAB_ROWS

    t0 = time.perf_counter()
    fmt.encode(x)
    batched_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fmt.encode_reference(x[:SLAB_ROWS])
    reference_s = (time.perf_counter() - t0) * scale

    return {
        "shape": list(SHAPE),
        "blocks": SHAPE[0] * SHAPE[1] // fmt.block_size,
        "batched_s": batched_s,
        "reference_s_extrapolated": reference_s,
        "speedup": reference_s / batched_s,
        "bits_per_element": fmt.bits_per_element(),
    }


def test_encode_speed(benchmark):
    result = run_once(benchmark, _bench)
    print_table(
        "MXFP4+ 4096x4096 encode: batched vs per-block loop",
        {k: v for k, v in result.items() if isinstance(v, float)},
    )
    # Assert before save_result so a failing (e.g. load-skewed) run never
    # overwrites the committed artifact.
    assert result["speedup"] >= MIN_SPEEDUP
    save_result("encode_speed", result)
