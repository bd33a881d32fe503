"""Gorilla/delta-of-delta encoder stage (SURVEY.md §2.4 ST1; north_star
storage layer; Gorilla paper VLDB'15).

``RollupEncode`` (the tail of the flagship job's encode task, and the
encoder the codec queries check) is a stateless per-batch callable that
computes the tier tree and encodes it in one step;
``decode_blocks_batch`` is its inverse.  Each encoded blob is a pure
function of its own row — no cross-partition carry-over — so partition
rewrites are byte-identical on resume (SURVEY.md §7.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.listops import list_to_numpy
from .. import oracle as oc
from .. import native
from ..state import manifest as mf


def _gather_np(src, src_off, lens, dst, dst_off):
    """Numpy fallback for native.gather(): variable-length segmented copy."""
    nz = lens > 0
    if not nz.any():
        return
    l = lens[nz]
    pos = np.arange(int(l.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(l) - l, l
    )
    dst[np.repeat(dst_off[nz], l) + pos] = src[np.repeat(src_off[nz], l) + pos]


def _frame_blob_column(n_win, w_arr, last_arr, streams):
    """Assemble the framed rollup blobs of a whole batch as ONE Arrow binary
    array — headers scatter as a (n, 28)-byte matrix, the three encoded stat
    streams splice in via a segmented gather (native memcpy loop, numpy
    fallback).  ``streams`` is three ``(buf, starts, lens)`` triples from
    :func:`oracle.dod_encode_blocks_raw`; byte-identical to the per-row
    ``oracle.encode_rollup_block`` framing.  Returns (binary array, nbytes).
    """
    n = len(n_win)
    l0, l1, l2 = (s[2] for s in streams)
    nbytes = 28 + l0 + l1 + l2
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nbytes, out=off[1:])
    total = int(off[-1])
    assert total < 2**31, "blob batch exceeds 2 GiB; lower batch_size"
    out = np.empty(total, dtype=np.uint8)
    hdr = np.empty((n, 28), dtype=np.uint8)
    hdr[:, :4] = np.frombuffer(oc._MAGIC, dtype=np.uint8)
    u = np.column_stack([n_win, w_arr, last_arr, l0, l1, l2]).astype("<u4")
    hdr[:, 4:] = u.view(np.uint8)
    out[off[:-1, None] + np.arange(28)] = hdr
    dst = off[:-1] + 28
    g = native.gather()
    for buf, starts, lens in streams:
        starts = np.ascontiguousarray(starts)
        lens = np.ascontiguousarray(lens)
        if g is not None:
            g(buf.ctypes.data, starts.ctypes.data, lens.ctypes.data,
              out.ctypes.data, np.ascontiguousarray(dst).ctypes.data, n)
        else:
            _gather_np(buf, starts, lens, out, dst)
        dst = dst + lens
    off32 = off.astype(np.int32)
    arr = pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(off32), pa.py_buffer(out)]
    )
    return arr, nbytes


class RollupEncode:
    """Fused rollup + encode stage for the flagship job.

    Computes every tier of the continuous-aggregate tree with
    :func:`stages.rollup.tier_tree` (native one-pass kernel, numpy
    fallback) and feeds its flat tier-major stat streams STRAIGHT into the
    vectorized codec — the intermediate Arrow list columns of
    ``TierRollup`` are never materialized.  Each blob is byte-identical to
    ``oracle.encode_rollup_block`` of that row's ``TierRollup`` lists, and
    decodes (:func:`decode_blocks_batch`) back to them.
    """

    def __init__(self, n_tiers: int = 10, fault_flag: str | None = None,
                 stage_dir: str | None = None):
        self.n_tiers = n_tiers
        # test hook: path of a flag file; the FIRST encode task to claim it
        # kills its own worker process mid-stage (simulated node loss).
        # Inert in production (None). The retry pytest proves the job
        # completes with byte-identical output anyway.
        self.fault_flag = fault_flag
        # shuffle-free write path: when set, each task writes its own rows
        # as per-bucket Arrow IPC slices under stage_dir and emits only
        # (bucket, stage_file) metadata rows — the encoded bytes never
        # enter the object store; manifest.stage_and_commit commits them.
        self.stage_dir = stage_dir

    def _stage_batch(self, full: pa.Table) -> pa.Table:
        """Stage this batch's rows per bucket; one metadata row per slice."""
        return mf.stage_slices(self.stage_dir, full)

    def _maybe_inject_fault(self):
        import os

        if not self.fault_flag:
            return
        try:
            # atomic claim: exactly one worker dies even with tasks racing
            os.replace(self.fault_flag, self.fault_flag + ".claimed")
        except OSError:
            return
        os._exit(1)  # hard kill — an exception would be a user error, not
        #              a worker death, and would fail the job instead

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .rollup import tier_tree

        self._maybe_inject_fault()

        values, offsets = list_to_numpy(batch["tokens"])
        n_rows = len(offsets) - 1
        # every tier's stat streams in one tier-major layout, then ALL
        # tiers of each stat in ONE codec call and one framed-blob column
        tv, out_off = tier_tree(values, offsets, self.n_tiers)
        streams = [
            oc.dod_encode_blocks_raw(tv[k], out_off)
            for k in ("wmin", "wmax", "wsum")
        ]
        n_win = np.diff(out_off)
        cnts = tv["wcount"]
        blob_arr, nbytes = _frame_blob_column(
            n_win, cnts[out_off[:-1]], cnts[out_off[1:] - 1], streams
        )
        tiers = np.repeat(np.arange(1, self.n_tiers + 1, dtype=np.int8), n_rows)
        cols = {
            "doc_id": _tile(batch["doc_id"], self.n_tiers),
            "source": _tile(batch["source"], self.n_tiers),
            "tier": pa.array(tiers),
            "n_windows": pa.array(n_win.astype(np.int32)),
            "blob": blob_arr,
            "nbytes": pa.array(nbytes),
            "bits_per_point": pa.array(
                nbytes * 8.0 / np.maximum(n_win, 1), type=pa.float64()
            ),
        }
        if "bucket" in batch.column_names:
            cols["bucket"] = _tile(batch["bucket"], self.n_tiers)
        full = pa.table(cols)
        if self.stage_dir is not None and "bucket" in full.column_names:
            return self._stage_batch(full)
        return full


def _tile(col, n: int) -> pa.ChunkedArray:
    """``col`` repeated ``n`` times end to end, zero-copy."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    return pa.chunked_array(chunks * n, type=col.type)


def decode_blocks_batch(batch: pa.Table) -> pa.Table:
    """Inverse stage: encoded blobs -> rollup list rows (the read path of
    the retention store). Round-trip with RollupEncode is the codec
    identity invariant (FIXTURES.md invariant 4)."""
    dec = oc.decode_rollup_blocks_arrow(batch["blob"])  # all 3N streams, no
    # per-blob Python objects (vectorized framing + native stream decode)
    off = dec["offsets"]
    from ..functions.listops import numpy_to_list

    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "tier": batch["tier"],
            "n_windows": batch["n_windows"],
            "mins": numpy_to_list(dec["wmin"], off, pa.int64()),
            "maxs": numpy_to_list(dec["wmax"], off, pa.int64()),
            "sums": numpy_to_list(dec["wsum"], off, pa.int64()),
            "counts": numpy_to_list(dec["wcount"], off, pa.int32()),
        }
    )
