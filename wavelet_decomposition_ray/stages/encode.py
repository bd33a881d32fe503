"""Gorilla/delta-of-delta encoder stages (SURVEY.md §2.4 ST1; north_star
storage layer; Gorilla paper VLDB'15).

Both encoders are stateless per-batch callables: ``GorillaEncoder``
encodes the (doc, tier) rollup list rows of a batch (a ``map_batches``
stage of the query side), and ``RollupEncode`` (the tail of the flagship
job's encode task) computes the tier tree and encodes it in one step.  Each
encoded blob is a pure function of its own row — no cross-partition
carry-over — so partition rewrites are byte-identical on resume
(SURVEY.md §7.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.listops import list_to_numpy
from .. import oracle as oc
from .. import native


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


class GorillaEncoder:
    """Stateless encoder: rollup list rows -> framed compressed blobs.

    Holds no state: encoding must stay a pure per-row function (resume
    invariant).
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        mins, off = list_to_numpy(batch["mins"])
        maxs, _ = list_to_numpy(batch["maxs"])
        sums, _ = list_to_numpy(batch["sums"])
        counts, _ = list_to_numpy(batch["counts"])
        # vectorized across the whole batch: one raw codec call per stat
        # stream, then one framed-blob assembly (identical bytes to per-row
        # oracle.encode_rollup_block)
        streams = [
            oc.dod_encode_blocks_raw(
                np.ascontiguousarray(s.astype(np.int64)), off
            )
            for s in (mins, maxs, sums)
        ]
        n_win = np.diff(off)
        w_arr = counts[off[:-1]]
        last_arr = counts[off[1:] - 1]
        blob_arr, nbytes = _frame_blob_column(n_win, w_arr, last_arr, streams)
        bits_per_point = np.where(n_win > 0, nbytes * 8.0 / np.maximum(n_win, 1), 0.0)
        cols = {
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "tier": batch["tier"],
            "n_windows": batch["n_windows"],
            "blob": blob_arr,
            "nbytes": pa.array(nbytes),
            "bits_per_point": pa.array(bits_per_point, type=pa.float64()),
        }
        if "bucket" in batch.column_names:
            cols["bucket"] = batch["bucket"]
        return pa.table(cols)


def slice_name(doc_ids: pa.Array) -> str:
    """Staged-slice file name: md5 of the slice's ``doc_id`` offsets
    (rebased to 0) and of the data bytes those offsets cover.  A pure
    function of the slice's doc ids, wherever the slice sits in its batch,
    so a retried task overwrites its own slices instead of duplicating
    rows."""
    import hashlib

    _, obuf, dbuf = doc_ids.buffers()
    odt = np.int64 if pa.types.is_large_string(doc_ids.type) else np.int32
    off = np.frombuffer(obuf, dtype=odt)[
        doc_ids.offset : doc_ids.offset + len(doc_ids) + 1
    ]
    sig = hashlib.md5((off - off[0]).tobytes())
    if dbuf is not None:
        sig.update(memoryview(dbuf)[int(off[0]) : int(off[-1])])
    return f"part-{sig.hexdigest()[:20]}.arrow"


class RollupEncode:
    """Fused rollup + encode stage for the flagship job.

    Computes every tier of the continuous-aggregate tree with
    :func:`stages.rollup.tier_tree` (native one-pass kernel, numpy
    fallback) and feeds its flat tier-major stat streams STRAIGHT into the
    vectorized codec — the intermediate Arrow list columns that
    TierRollup|GorillaEncoder would build and re-parse are never
    materialized.  Output rows and blob bytes are identical to
    TierRollup -> GorillaEncoder.
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
        # enter the object store; manifest.commit_bucket commits each bucket.
        self.stage_dir = stage_dir

    def _stage_batch(self, full: pa.Table) -> pa.Table:
        """Write this batch's rows as per-bucket staged IPC slices; return
        one metadata row per slice.  The batch is sorted by bucket once
        (stable, so each slice keeps its row order) and cut into one
        contiguous slice per bucket, named by :func:`slice_name`."""
        import os
        import uuid

        b = full["bucket"].to_numpy()
        order = np.argsort(b, kind="stable")
        bs = b[order]
        full = full.take(pa.array(order)).combine_chunks()
        keys, starts = np.unique(bs, return_index=True)
        ends = np.append(starts[1:], len(bs))
        out_f: list[str] = []
        for k, lo, hi in zip(keys.tolist(), starts.tolist(), ends.tolist()):
            sub = full.slice(lo, hi - lo)
            rel_dir = f"bucket={k:05d}"
            d = os.path.join(self.stage_dir, rel_dir)
            os.makedirs(d, exist_ok=True)
            name = slice_name(sub.column("doc_id").chunk(0))
            tmp = os.path.join(d, f".{name}.{uuid.uuid4().hex[:8]}.tmp")
            with pa.OSFile(tmp, "wb") as fh, pa.ipc.new_file(
                fh, sub.schema
            ) as w:
                w.write_table(sub)
            os.replace(tmp, os.path.join(d, name))
            out_f.append(f"{rel_dir}/{name}")
        return pa.table(
            {
                "bucket": pa.array(keys, type=pa.int32()),
                "stage_file": pa.array(out_f, type=pa.string()),
            }
        )

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
    the retention store). Round-trip with GorillaEncoder is the codec
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
