"""The store's production codec and its encoder stage (SURVEY.md §2.4 ST1;
north_star storage layer; delta-of-delta from the Gorilla paper, VLDB'15).

``RollupEncode`` (the tail of the flagship job's encode task, and the
encoder the codec queries check) is a stateless per-batch callable that
computes the tier tree and encodes it in one step;
``decode_blocks_batch`` is its inverse.  Each encoded blob is a pure
function of its own row — no cross-partition carry-over — so partition
rewrites are byte-identical on resume (SURVEY.md §7.3).

The codec has two implementations.  This module is the production one.
Encoding is ONE native kernel call per batch (:func:`_encode_native`):
``rollup_encode_c`` in ``native/dod.c`` folds every tier of a row, encodes
its stat streams and frames each blob straight into one output buffer, and
a segmented copy puts the blobs in column order — no tier-major stat
arrays, no per-stream scratch.  :func:`decode_blobs` reads a whole column
with the native decoder, with no per-blob Python objects.  ``oracle.py``
holds the scalar reference (``encode_rollup_block`` /
``decode_rollup_block``), which the tests pin these functions against byte
for byte.  On a host with no C compiler the stage frames and reads each
blob through that reference instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.listops import list_to_numpy, tile
from .. import oracle as oc
from .. import native
from ..state import manifest as mf

MAGIC = b"GRB2"
_STATS = {"wmin": np.int64, "wmax": np.int64, "wsum": np.int64,
          "wcount": np.int32}


def _encode_native(values, offsets, n_tiers: int, n_win):
    """The framed blobs of every (tier, row) of one batch in ONE native
    call (``rollup_encode_c``: per row, tier fold -> DoD streams -> 28-byte
    header, straight into one output buffer), then one segmented copy into
    tier-major column order.  ``n_win`` is the tier-major window counts.
    The output buffer is sized for the widest codes, 28 + 3 * (16 + 9 *
    (w - 1)) bytes per blob, but only the bytes written are touched.
    Returns (binary array, nbytes)."""
    v = np.asarray(values)
    if v.dtype != np.int32:
        v = v.astype(np.int64)
    v = np.ascontiguousarray(v)
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    n_rows = len(off) - 1
    if n_rows and (off[0] < 0 or off[-1] > len(v)):
        raise ValueError("offsets run past the values array")
    n_blobs = len(n_win)
    cap = 28 * n_blobs + 3 * int((16 + 9 * (n_win - 1)).sum())
    buf = np.empty(cap, dtype=np.uint8)
    start = np.empty(n_blobs, dtype=np.int64)
    nbytes = np.empty(n_blobs, dtype=np.int64)
    # per-row scratch: four stats x every tier of the longest row, plus the
    # row's tier starts
    n_max = int(np.diff(off).max()) if n_rows else 1
    shifts = np.arange(1, n_tiers + 1, dtype=np.int64)
    work = np.empty(4 * int((((n_max - 1) >> shifts) + 1).sum()) + n_tiers,
                    dtype=np.int64)
    native.encoder()(v.ctypes.data, off.ctypes.data, int(v.dtype == np.int64),
                     n_rows, n_tiers, work.ctypes.data, buf.ctypes.data,
                     start.ctypes.data, nbytes.ctypes.data)
    col_off = np.zeros(n_blobs + 1, dtype=np.int64)
    np.cumsum(nbytes, out=col_off[1:])
    total = int(col_off[-1])
    assert total < 2**31, "blob batch exceeds 2 GiB; lower batch_size"
    out = np.empty(total, dtype=np.uint8)
    native.gather()(buf.ctypes.data, start.ctypes.data, nbytes.ctypes.data,
                    out.ctypes.data, col_off.ctypes.data, n_blobs)
    arr = pa.Array.from_buffers(
        pa.binary(), n_blobs,
        [None, pa.py_buffer(col_off.astype(np.int32)), pa.py_buffer(out)],
    )
    return arr, nbytes


def _frame_reference(tv, out_off):
    """No-compiler path: ``oracle.encode_rollup_block`` of each block of the
    tier-major stat streams.  Returns (binary array, nbytes)."""
    blobs = [
        oc.encode_rollup_block({k: v[a:b] for k, v in tv.items()})
        for a, b in zip(out_off[:-1].tolist(), out_off[1:].tolist())
    ]
    nbytes = np.array([len(b) for b in blobs], dtype=np.int64)
    return pa.array(blobs, type=pa.binary()), nbytes


class RollupEncode:
    """Fused rollup + encode stage for the flagship job.

    One native pass per row folds every tier of the continuous-aggregate
    tree and encodes each tier's framed blob (:func:`_encode_native`); the
    tiers and the intermediate Arrow list columns of ``TierRollup`` are
    never materialized.  Each blob is byte-identical to
    ``oracle.encode_rollup_block`` of that row's ``TierRollup`` lists (the
    no-compiler path computes :func:`stages.rollup.tier_tree` and calls
    exactly that), and decodes (:func:`decode_blocks_batch`) back to
    them.
    """

    def __init__(self, n_tiers: int = 10, fault_flag: str | None = None,
                 stage_dir: str | None = None):
        # the kernel writes tier 1 unconditionally and frames counts as
        # uint32: TierRollup's range
        if not 1 <= n_tiers <= 30:
            raise ValueError(f"n_tiers must be in 1..30, got {n_tiers}")
        self.n_tiers = n_tiers
        # test hook: path of a flag file; the FIRST encode task to claim it
        # kills its own worker process mid-stage (simulated node loss).
        # Inert in production (None). The retry pytest proves the job
        # completes with byte-identical output anyway.
        self.fault_flag = fault_flag
        # shuffle-free write path: the job's task passes each encoded batch
        # to _stage_batch, which writes it as ONE staged Arrow IPC file
        # under stage_dir (a record batch per bucket) and emits only
        # (bucket, stage_file) metadata rows — the encoded bytes never
        # enter the object store; manifest.stage_and_commit commits them.
        self.stage_dir = stage_dir

    def _stage_batch(self, full: pa.Table) -> pa.Table:
        """Stage this batch's rows as one file; one metadata row per
        bucket it holds."""
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
        from .rollup import _tier_offsets, tier_tree

        self._maybe_inject_fault()

        values, offsets = list_to_numpy(batch["tokens"])
        n_rows = len(offsets) - 1
        if native.encoder() is None:
            tv, out_off = tier_tree(values, offsets, self.n_tiers)
            n_win = np.diff(out_off)
            blob_arr, nbytes = _frame_reference(tv, out_off)
        else:
            # raises on an empty row, as the tier tree does
            n_win = np.diff(_tier_offsets(offsets, self.n_tiers))
            blob_arr, nbytes = _encode_native(values, offsets, self.n_tiers,
                                              n_win)
        tiers = np.repeat(np.arange(1, self.n_tiers + 1, dtype=np.int8), n_rows)
        cols = {
            "doc_id": tile(batch["doc_id"], self.n_tiers),
            "source": tile(batch["source"], self.n_tiers),
            "tier": pa.array(tiers),
            "n_windows": pa.array(n_win.astype(np.int32)),
            "blob": blob_arr,
            "nbytes": pa.array(nbytes),
            "bits_per_point": pa.array(
                nbytes * 8.0 / np.maximum(n_win, 1), type=pa.float64()
            ),
        }
        if "bucket" in batch.column_names:
            cols["bucket"] = tile(batch["bucket"], self.n_tiers)
        return pa.table(cols)


def blob_headers(arr):
    """Check every framed blob's 28-byte header against its bytes, in
    numpy, before any stream is read: the blob is at least 28 bytes, starts
    with :data:`MAGIC`, its three streams tile it (``28 + l0 + l1 + l2``
    equals its length) and each stream has room for its ``n`` values (the
    first takes 64 bits, every later one at least 1 bit).  Any failure
    raises ``ValueError`` naming the blob.

    Returns ``(base, off, ns, ws, lasts, lens)``: the batch's bytes with a
    16-byte zero guard, each blob's offset into them (N + 1), the header's
    ``n`` / ``w`` / ``last`` (N each) and its stream byte lengths (N, 3)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    nb = len(arr)
    assert arr.null_count == 0, "store blobs are never null"
    bufs = arr.buffers()
    off_dtype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    off = np.frombuffer(bufs[1], dtype=off_dtype)[
        arr.offset : arr.offset + nb + 1
    ].astype(np.int64)
    raw = np.frombuffer(bufs[2], dtype=np.uint8)
    # a 16-byte zero guard after the last stream: the kernel's peeks read
    # up to 9 bytes past a stream's end
    lo, hi = int(off[0]), int(off[-1])
    base = np.empty(hi - lo + 16, dtype=np.uint8)
    base[: hi - lo] = raw[lo:hi]
    base[hi - lo :] = 0
    off -= lo
    size = np.diff(off)
    short = np.nonzero(size < 28)[0]
    if len(short):
        raise ValueError(f"blob {short[0]}: {size[short[0]]} bytes, "
                         "shorter than its 28-byte header")

    heads = base[off[:-1, None] + np.arange(28)]
    if not (heads[:, :4] == np.frombuffer(MAGIC, dtype=np.uint8)).all():
        raise ValueError("bad rollup block magic")
    u32 = heads[:, 4:28].copy().view("<u4").astype(np.int64)
    ns, ws, lasts = u32[:, 0], u32[:, 1], u32[:, 2]
    lens = np.ascontiguousarray(u32[:, 3:6])  # wmin, wmax, wsum bytes
    n_col = ns[:, None]
    fits = np.where(n_col == 0, lens == 0, n_col <= 8 * lens - 63)
    ok = (28 + lens.sum(axis=1) == size) & fits.all(axis=1)
    if not ok.all():
        j = int(np.argmin(ok))
        raise ValueError(f"blob {j}: header (n={ns[j]}, stream bytes "
                         f"{lens[j].tolist()}) does not match its "
                         f"{size[j]} bytes")
    return base, off, ns, ws, lasts, lens


def decode_blobs(arr) -> dict[str, np.ndarray]:
    """Decode a whole Arrow binary column of framed blobs with the native
    decoder.  Every header parses as one gather over the column's values
    buffer (:func:`blob_headers`, which raises ``ValueError`` on a header
    that does not match its blob's bytes), and the kernel reads all 3·N
    streams in place (one guarded copy of the batch's byte range, nothing
    per blob).

    Returns flat ``wmin`` / ``wmax`` / ``wsum`` (int64), ``wcount`` (int32)
    and ``offsets`` (int64, N + 1): blob j's windows are
    ``offsets[j] : offsets[j + 1]`` of each flat array.  A stream that ends
    before its header's count raises ``ValueError`` too.
    """
    base, off, ns, ws, lasts, lens = blob_headers(arr)
    nb = len(ns)
    offsets = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(ns, out=offsets[1:])
    total = int(offsets[-1])
    out = np.empty(3 * total, dtype=np.int64)
    # stream order per blob: wmin, wmax, wsum -> three output sections
    byte_off = (off[:-1, None] + 28 + np.cumsum(lens, axis=1) - lens).ravel()
    s_off = (offsets[:-1, None] + total * np.arange(3)).ravel()
    s_counts = np.repeat(ns, 3)
    bad = native.decoder()(
        base.ctypes.data, byte_off.ctypes.data, lens.ctypes.data,
        s_counts.ctypes.data, s_off.ctypes.data, 3 * nb, out.ctypes.data,
    )
    if bad >= 0:
        stat = ("wmin", "wmax", "wsum")[bad % 3]
        raise ValueError(f"blob {bad // 3}: its {stat} stream ends before "
                         f"the header's {ns[bad // 3]} values")

    wcount = np.repeat(ws, ns).astype(np.int32)
    has = ns > 0
    wcount[offsets[1:][has] - 1] = lasts[has]
    return {
        "wmin": out[:total],
        "wmax": out[total : 2 * total],
        "wsum": out[2 * total :],
        "wcount": wcount,
        "offsets": offsets,
    }


def _decode_reference(blobs) -> dict[str, np.ndarray]:
    """No-compiler path: ``oracle.decode_rollup_block`` of each blob, in
    :func:`decode_blobs`'s flat layout."""
    decs = [oc.decode_rollup_block(b) for b in blobs.to_pylist()]
    out = {
        k: np.concatenate([d[k] for d in decs] + [np.zeros(0, t)])
        for k, t in _STATS.items()
    }
    out["offsets"] = np.zeros(len(decs) + 1, dtype=np.int64)
    np.cumsum([len(d["wcount"]) for d in decs], out=out["offsets"][1:])
    return out


def decode_blocks_batch(batch: pa.Table) -> pa.Table:
    """Inverse stage: encoded blobs -> rollup list rows (the read path of
    the retention store). Round-trip with RollupEncode is the codec
    identity invariant (FIXTURES.md invariant 4)."""
    from ..functions.listops import numpy_to_list

    if native.decoder() is None:
        blob_headers(batch["blob"])  # the reference trusts its header
        dec = _decode_reference(batch["blob"])
    else:
        dec = decode_blobs(batch["blob"])
    off = dec["offsets"]
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
