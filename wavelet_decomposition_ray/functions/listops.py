"""Zero-copy helpers for Arrow ``list<T>`` columns.

A ``list<int32>`` column is stored as one flat values buffer plus an offsets
buffer; every vectorized stage in this engine works on ``(values, offsets)``
NumPy views of those buffers — never on Python row objects (SURVEY.md §1.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def list_to_numpy(col) -> tuple[np.ndarray, np.ndarray]:
    """ChunkedArray/Array of list<T> -> (flat_values, offsets) NumPy views.

    Offsets are normalized to start at 0 and index into the returned values.
    Zero-copy whenever the column has no nulls (the engine's schemas don't).
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.ListArray) or isinstance(col, pa.LargeListArray):
        offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        values = col.values.to_numpy(zero_copy_only=False)
        # normalize: slice away any shared-buffer prefix/suffix (numpy views,
        # still zero-copy) so offsets[0] == 0 and values ends at offsets[-1]
        if offsets[0] != 0 or offsets[-1] != len(values):
            values = values[offsets[0] : offsets[-1]]
            offsets = offsets - offsets[0]
        return values, offsets
    raise TypeError(f"expected a list column, got {type(col)}")


def numpy_to_list(values: np.ndarray, offsets: np.ndarray, value_type=None) -> pa.ListArray:
    """(flat_values, offsets) -> ListArray. Offsets must start at 0."""
    off = np.asarray(offsets)
    assert off[0] == 0, "offsets must be normalized"
    if off[-1] < 2**31:
        off_arr = pa.array(off.astype(np.int32), type=pa.int32())
        vals = pa.array(values, type=value_type) if value_type else pa.array(values)
        return pa.ListArray.from_arrays(off_arr, vals)
    off_arr = pa.array(off.astype(np.int64), type=pa.int64())
    vals = pa.array(values, type=value_type) if value_type else pa.array(values)
    return pa.LargeListArray.from_arrays(off_arr, vals)


def tile(col, n: int) -> pa.ChunkedArray:
    """``col`` repeated ``n`` times end to end, zero-copy."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    return pa.chunked_array(chunks * n, type=col.type)


def next_pow2_arr(lens: np.ndarray) -> np.ndarray:
    """Vectorized exact next-power-of-two (float log2 alone is off by one
    at exact powers of two; the two corrections below make it exact)."""
    l = np.maximum(np.asarray(lens, dtype=np.int64), 1)
    p = (np.int64(1) << np.int64(np.ceil(np.log2(l)))).astype(np.int64)
    p = np.where(p < l, p << 1, p)
    p = np.where((p >> 1) >= l, p >> 1, p)
    return p


def tumble_starts(offsets: np.ndarray, w: int):
    """Global tumbling-window segment boundaries across all rows of a batch.

    Given per-row segment offsets into one flat array and window width w,
    returns (starts, new_offsets, counts_per_window) such that
    ``np.<op>.reduceat(flat, starts)`` computes every row's tumbling windows
    in ONE call (segments never cross row boundaries because each row's last
    window ends exactly where the next row starts).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lens = np.diff(offsets)
    n_win = -(-lens // w)  # ceil; rows must be non-empty
    if (lens <= 0).any():
        raise ValueError("empty rows are not supported in tumbling rollups")
    total = int(n_win.sum())
    row_of = np.repeat(np.arange(len(lens)), n_win)
    cum = np.cumsum(n_win) - n_win
    within = np.arange(total, dtype=np.int64) - cum[row_of]
    starts = offsets[:-1][row_of] + within * w
    new_offsets = np.concatenate([[0], np.cumsum(n_win)])
    counts = np.full(total, w, dtype=np.int64)
    last_idx = cum + n_win - 1
    counts[last_idx] = lens - (n_win - 1) * w
    return starts, new_offsets, counts
