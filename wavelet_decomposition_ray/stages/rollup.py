"""Tier rollup stage: tumbling min/max/sum/count at every retention tier,
computed as a continuous-aggregate tree (tier t+1 folded from tier t) in a
single stateless ``map_batches`` pass — the Ray analog of the reference's
per-scale statistics ladder (``/root/reference/calc_EPN.py:3-43``; tutorial
cell 6 time_scales), per SURVEY.md §4.3.

The fold itself is :func:`tier_tree`: a native one-pass kernel
(``native/dod.c`` ``tier_tree_c``) with the numpy reduceat ladder as the
fallback when no C compiler exists.  ``RollupEncode``'s fused kernel runs
the same per-row fold (``fold_row``) and encodes each tier as it goes.

Output layout: one row per (doc, tier) with the four stat streams as list
columns — the shape the Gorilla/DoD encoder stage consumes, and the shape
that explodes cheaply to the long (window_idx) format for SQL-checked
queries.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import native
from ..functions.listops import (list_to_numpy, numpy_to_list, tile,
                                 tumble_starts)

STAT_NAMES = ("wmin", "wmax", "wsum", "wcount")


def _tier_offsets(offsets: np.ndarray, n_tiers: int) -> np.ndarray:
    """Window offsets of the tier-major ``(tier, row)`` stream layout:
    (tier t, row r) owns windows ``[out[(t-1)*n_rows + r], out[(t-1)*n_rows
    + r + 1])``, ceil(len_r / 2**t) of them."""
    lens = np.diff(np.asarray(offsets, dtype=np.int64))
    if (lens <= 0).any():
        raise ValueError("empty rows are not supported in tumbling rollups")
    shifts = np.arange(1, n_tiers + 1, dtype=np.int64)[:, None]
    out = np.zeros(n_tiers * len(lens) + 1, dtype=np.int64)
    np.cumsum((((lens - 1)[None, :] >> shifts) + 1).ravel(), out=out[1:])
    return out


def _tier_tree_np(v64: np.ndarray, offsets: np.ndarray, n_tiers: int):
    """Numpy fallback of the native kernel: the reduceat ladder, tier 1
    from raw tokens and every further tier folded from the previous one."""
    starts, off, counts = tumble_starts(offsets, 2)
    tv = {
        "wmin": np.minimum.reduceat(v64, starts),
        "wmax": np.maximum.reduceat(v64, starts),
        "wsum": np.add.reduceat(v64, starts),
        "wcount": counts,
    }
    tiers = [tv]
    for _ in range(1, n_tiers):
        starts, off, _ = tumble_starts(off, 2)
        tv = {
            "wmin": np.minimum.reduceat(tv["wmin"], starts),
            "wmax": np.maximum.reduceat(tv["wmax"], starts),
            "wsum": np.add.reduceat(tv["wsum"], starts),
            "wcount": np.add.reduceat(tv["wcount"], starts),
        }
        tiers.append(tv)
    return {k: np.concatenate([t[k] for t in tiers]) for k in STAT_NAMES}


def tier_tree(values: np.ndarray, offsets: np.ndarray, n_tiers: int):
    """Every dyadic tier (window width 2**t, t = 1..n_tiers) of every row
    of one flat ``(values, offsets)`` batch.

    Returns ``(stats, out_off)``: four flat int64 arrays (``STAT_NAMES``)
    in the tier-major stream layout of :func:`_tier_offsets`.  The native
    kernel makes one scan per row (tier 1 from raw tokens, tier t from
    tier t-1 in the output); without a C compiler the numpy reduceat
    ladder computes the same arrays.  Sums wrap mod 2**64, like numpy's int64 adds.
    """
    out_off = _tier_offsets(offsets, n_tiers)
    n_rows = len(offsets) - 1
    total = int(out_off[-1])
    if total == 0:
        z = np.zeros(0, dtype=np.int64)
        return {k: z for k in STAT_NAMES}, out_off
    fn = native.tier_tree()
    if fn is None:
        return _tier_tree_np(np.asarray(values).astype(np.int64), offsets,
                             n_tiers), out_off
    v = np.asarray(values)
    if v.dtype != np.int32:
        v = v.astype(np.int64)
    v = np.ascontiguousarray(v)
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    if off[0] < 0 or off[-1] > len(v):
        raise ValueError("offsets run past the values array")
    stats = {k: np.empty(total, dtype=np.int64) for k in STAT_NAMES}
    fn(v.ctypes.data, off.ctypes.data, int(v.dtype == np.int64), n_rows,
       n_tiers, out_off.ctypes.data, *(stats[k].ctypes.data for k in STAT_NAMES))
    return stats, out_off


class TierRollup:
    """Batch fn: sequences -> per-(doc, tier) rollup rows, all tiers.

    Tier t has window width 2**t; tier 1 reduces the raw tokens, every
    further tier folds the previous one (exact for dyadic tumbling windows —
    FIXTURES.md invariant 3), so total work is O(n_tokens), not
    O(n_tokens * n_tiers).  The fold is :func:`tier_tree` (native, with a
    numpy fallback).
    """

    def __init__(self, n_tiers: int = 10):
        assert 1 <= n_tiers <= 30
        self.n_tiers = n_tiers

    def __call__(self, batch: pa.Table) -> pa.Table:
        values, offsets = list_to_numpy(batch["tokens"])
        n_rows = len(offsets) - 1
        # the tier-major out_off already offsets every (tier, row) list, so
        # each stat column is one list array over the whole stream
        tv, out_off = tier_tree(values, offsets, self.n_tiers)
        keys = ["doc_id", "source"] + [
            n for n in ("bucket",) if n in batch.column_names]
        return pa.table(
            {
                **{n: tile(batch[n], self.n_tiers) for n in keys},
                "tier": pa.array(np.repeat(
                    np.arange(1, self.n_tiers + 1, dtype=np.int8), n_rows)),
                "n_windows": pa.array(np.diff(out_off).astype(np.int32)),
                "mins": numpy_to_list(tv["wmin"], out_off, pa.int64()),
                "maxs": numpy_to_list(tv["wmax"], out_off, pa.int64()),
                "sums": numpy_to_list(tv["wsum"], out_off, pa.int64()),
                "counts": numpy_to_list(tv["wcount"].astype(np.int32),
                                        out_off, pa.int32()),
            }
        )


def explode_rollup_batch(batch: pa.Table) -> pa.Table:
    """Per-(doc, tier) list rows -> long format (one row per window):
    (doc_id, source, tier, window_idx, wmin, wmax, wsum, wcount).
    The SQL-oracle-friendly view of the rollup store."""
    mins, off = list_to_numpy(batch["mins"])
    maxs, _ = list_to_numpy(batch["maxs"])
    sums, _ = list_to_numpy(batch["sums"])
    counts, _ = list_to_numpy(batch["counts"])
    n_win = np.diff(off)
    row_of = np.repeat(np.arange(len(n_win)), n_win)
    widx = np.arange(off[-1], dtype=np.int64) - np.repeat(off[:-1], n_win)
    return pa.table(
        {
            "doc_id": batch["doc_id"].take(pa.array(row_of)),
            "source": batch["source"].take(pa.array(row_of)),
            "tier": batch["tier"].take(pa.array(row_of)),
            "window_idx": pa.array(widx),
            "wmin": pa.array(mins, type=pa.int64()),
            "wmax": pa.array(maxs, type=pa.int64()),
            "wsum": pa.array(sums, type=pa.int64()),
            "wcount": pa.array(counts.astype(np.int32), type=pa.int32()),
        }
    )


def source_partials_batch(batch: pa.Table) -> pa.Table:
    """Partial per-(source, tier) aggregates within one rollup batch —
    the combiner half of the partial+final pattern (SURVEY.md §4.2.2) that
    keeps the groupby shuffle small: one row per (source, tier) per batch.

    Emits partial_* columns that the final ``groupby(["source","tier"])``
    re-aggregates with the matching built-in AggregateFn.
    """
    import pandas as pd

    mins, off = list_to_numpy(batch["mins"])
    maxs, _ = list_to_numpy(batch["maxs"])
    sums, _ = list_to_numpy(batch["sums"])
    counts, _ = list_to_numpy(batch["counts"])
    n_win = np.diff(off)
    key = pd.DataFrame(
        {
            "source": batch["source"].to_pandas(),
            "tier": batch["tier"].to_pandas(),
        }
    )
    # per-row reductions first (vectorized), then a tiny within-batch groupby
    row_min = np.minimum.reduceat(mins, off[:-1])
    row_max = np.maximum.reduceat(maxs, off[:-1])
    row_sum = np.add.reduceat(sums, off[:-1])
    row_cnt = np.add.reduceat(counts.astype(np.int64), off[:-1])
    key["pmin"] = row_min
    key["pmax"] = row_max
    key["psum"] = row_sum
    key["pcount"] = row_cnt
    key["pwindows"] = n_win.astype(np.int64)
    g = key.groupby(["source", "tier"], as_index=False).agg(
        pmin=("pmin", "min"),
        pmax=("pmax", "max"),
        psum=("psum", "sum"),
        pcount=("pcount", "sum"),
        pwindows=("pwindows", "sum"),
    )
    return pa.Table.from_pandas(g, preserve_index=False)
