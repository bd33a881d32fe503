"""Per-partition checkpoint manifest: deterministic bucket ids, atomic
partition writes, lineage + metrics rows, skip-completed resume.

Reference analog: the skip-if-exists ``.npz`` matrix cache and translation
pickle (``/root/reference/wavelet_decomposition.py:30-35``,
``calc_translations.py:136-144``) — an idempotent per-partition artifact
keyed by name (SURVEY.md §2.1 S3/S4, §4.2.4). Here: output partitions are
hash buckets of ``doc_id``; a completed bucket is recorded by an atomic
manifest JSON; resume anti-joins pending buckets against the manifest and
re-runs only the missing ones, producing byte-identical files (determinism
is guaranteed by sorting each bucket by (doc_id, tier) before writing and by
the codec being a pure per-row function).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray


def bucket_of_ids(doc_ids, n_buckets: int) -> np.ndarray:
    """Deterministic hash bucket per doc_id (crc32 — stable across runs,
    processes and nodes, unlike Python's salted hash())."""
    return np.array(
        [zlib.crc32(s.encode()) % n_buckets for s in doc_ids], dtype=np.int32
    )


def make_add_bucket(n_buckets: int, skip_buckets: frozenset[int] = frozenset()):
    """Batch fn: add the bucket column; drop rows of completed buckets.
    ``skip_buckets`` is captured by closure — it is a tiny set, shipped once
    per task, the broadcast-small-side pattern."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = bucket_of_ids(batch["doc_id"].to_pylist(), n_buckets)
        batch = batch.append_column("bucket", pa.array(b, type=pa.int32()))
        if skip_buckets:
            keep = np.array([x not in skip_buckets for x in b])
            batch = batch.filter(pa.array(keep))
        return batch

    return add_bucket


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest")


def completed_buckets(out_dir: str) -> frozenset[int]:
    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return frozenset()
    done = set()
    for f in os.listdir(mdir):
        if f.startswith("bucket-") and f.endswith(".json"):
            try:
                with open(os.path.join(mdir, f)) as fh:
                    row = json.load(fh)
                if row.get("file") is None or os.path.isfile(
                    os.path.join(out_dir, row["file"])
                ):
                    done.add(int(row["bucket"]))
            except (ValueError, KeyError, OSError):
                continue
    return frozenset(done)


def mark_empty_buckets(out_dir: str, n_buckets: int) -> None:
    """After a successful run, record buckets that own no rows (no group
    ever reached the writer) as explicitly-empty partitions, so resume
    treats them as covered rather than forever-pending."""
    have = set()
    mdir = manifest_dir(out_dir)
    if os.path.isdir(mdir):
        for f in os.listdir(mdir):
            if f.startswith("bucket-") and f.endswith(".json"):
                try:
                    have.add(int(f[len("bucket-") : -len(".json")]))
                except ValueError:
                    continue
    os.makedirs(mdir, exist_ok=True)
    for b in range(n_buckets):
        if b in have:
            continue
        row = {"bucket": b, "file": None, "n_rows": 0, "n_docs": 0,
               "doc_xor": 0, "n_windows": 0, "bytes_encoded": 0,
               "checksum": None, "elapsed_s": 0.0}
        tmp = os.path.join(mdir, f".bucket-{b:05d}.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(row, fh, sort_keys=True)
        os.replace(tmp, os.path.join(mdir, f"bucket-{b:05d}.json"))


def read_all_partials(out_dir: str):
    """Every bucket's persisted per-(source, tier) partials (written
    atomically by :func:`write_bucket_table`) as one pandas frame, read in
    one dataset scan — the input of the finalize fold.  Covers buckets
    completed by PREVIOUS runs, which a resumed run never re-executes.
    Returns None when NO partials exist (no bucket of the store has rows).

    Raises when partials exist but some non-empty manifest bucket has no
    partials file (a legacy store mixed with new buckets): folding the
    partial set would silently omit the legacy buckets from
    source_stats.parquet (ADVICE r2)."""
    import pyarrow.dataset as pads

    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return None
    have = set()
    files = []
    for f in sorted(os.listdir(mdir)):
        if f.startswith("partials-") and f.endswith(".parquet"):
            have.add(int(f[len("partials-") : -len(".parquet")]))
            files.append(os.path.join(mdir, f))
    if not files:
        return None
    need = {
        int(row["bucket"]) for row in read_manifest(out_dir)
        if row.get("file") is not None
    }
    missing = sorted(need - have)
    if missing:
        raise RuntimeError(
            f"store at {out_dir} has manifest buckets {missing} without "
            "partials files (written by a pre-partials version): "
            "source_stats would silently omit them — delete the store's "
            "source_stats/manifest and re-run, or rebuild the store"
        )
    return pads.dataset(files, format="parquet").to_table().to_pandas()


def write_source_stats(out_dir: str) -> None:
    """Fold every bucket's partials into the store's per-(source, tier)
    sink ``source_stats.parquet`` (n_docs, n_windows, nbytes), written
    atomically.  Writes nothing when no bucket has rows."""
    all_partials = read_all_partials(out_dir)
    if all_partials is None or not len(all_partials):
        return
    final = (
        all_partials.groupby(["source", "tier"], as_index=False)
        .agg(n_docs=("n_docs", "sum"), n_windows=("n_windows", "sum"),
             nbytes=("nbytes", "sum"))
        .sort_values(["source", "tier"])
    )
    tmp = os.path.join(out_dir, ".source_stats.parquet.tmp")
    pq.write_table(pa.Table.from_pandas(final, preserve_index=False), tmp)
    os.replace(tmp, os.path.join(out_dir, "source_stats.parquet"))


@ray.remote
def _summarize_unit(unit, n_buckets: int) -> pa.Table:
    """Per-bucket (bucket, count, XOR of stable doc-id hashes) of one read
    unit's ``doc_id`` column: at most one row per occupied bucket."""
    from ..functions.dedup import _stable_u64
    from ..sources.ingest import read_unit

    ids = read_unit(unit, "parquet", ["doc_id"])["doc_id"].to_pylist()
    b = bucket_of_ids(ids, n_buckets)
    h = np.array([_stable_u64(s) for s in ids], dtype=np.uint64).view(np.int64)
    order = np.argsort(b, kind="stable")
    bs, hs = b[order], h[order]
    ub, start = np.unique(bs, return_index=True)
    ends = np.append(start[1:], len(bs))
    return pa.table(
        {
            "bucket": pa.array(ub, type=pa.int32()),
            "pcnt": pa.array((ends - start).astype(np.int64)),
            "pxor": pa.array(np.bitwise_xor.reduceat(hs, start)),
        }
    )


def input_bucket_summary(input_path: str, n_buckets: int):
    """Pre-pass over ONLY the ``doc_id`` column: per-bucket doc count +
    order-independent XOR fingerprint of stable 64-bit doc-id hashes.

    One Ray task per parquet row group (the job's planner,
    :func:`..sources.ingest.plan_units`, without a row-range split: the
    ``doc_id`` column alone is cheap to decode) emits at most ``n_buckets``
    partial rows (bucket, count, XOR); the driver collects them — at most
    the unit's row count each, since every partial row covers at least one
    doc, which it checks — and folds them with one stable argsort and two
    ``reduceat`` calls.  No shuffle: the collect is O(units x buckets) tiny
    rows, never the corpus.  Returns a pandas frame (bucket, n_docs,
    doc_xor), one row per occupied bucket, sorted by bucket (empty for an
    empty input)."""
    import pandas as pd

    from ..sources.ingest import plan_units

    units = plan_units(input_path, "parquet")
    parts = ray.get([_summarize_unit.remote(u, n_buckets) for u in units])
    for u, part in zip(units, parts):
        if part.num_rows > u.stop - u.start:
            raise RuntimeError(f"{part.num_rows} summary rows from the "
                               f"{u.stop - u.start}-row unit {u}")
    b, cnt, xor = (
        np.concatenate([part[c].to_numpy() for part in parts])
        if parts else np.zeros(0, dtype=t)
        for c, t in (("bucket", np.int32), ("pcnt", np.int64), ("pxor", np.int64))
    )
    order = np.argsort(b, kind="stable")
    b, cnt, xor = b[order], cnt[order], xor[order]
    ub, start = np.unique(b, return_index=True)
    return pd.DataFrame(
        {
            "bucket": ub,
            "n_docs": np.add.reduceat(cnt, start),
            "doc_xor": np.bitwise_xor.reduceat(xor, start),
        }
    )


def stale_buckets(input_path: str, out_dir: str, n_buckets: int) -> frozenset[int]:
    """Completed buckets whose recorded doc-set fingerprint no longer
    matches the current input — docs were appended to or removed from them
    since the bucket was written (in-place token edits under an UNCHANGED
    doc_id are outside this contract: the store is an append/remove ingest
    sink keyed by doc_id).  Manifest rows written before fingerprints
    existed count as stale (safe: they just re-run)."""
    rows = {int(r["bucket"]): r for r in read_manifest(out_dir)}
    if not rows:
        return frozenset()
    summary = input_bucket_summary(input_path, n_buckets)
    cur = {
        int(b): (int(c), int(x))
        for b, c, x in zip(summary["bucket"], summary["n_docs"],
                           summary["doc_xor"])
    }
    stale = set()
    for b, r in rows.items():
        want = cur.get(b, (0, 0))
        have = (
            (int(r["n_docs"]), int(r["doc_xor"])) if "doc_xor" in r else None
        )
        if have != want:
            stale.add(b)
    return frozenset(stale)


def invalidate_buckets(out_dir: str, buckets) -> None:
    """Make stale buckets pending again.  The manifest row is removed FIRST
    (from that instant the bucket is pending and any crash leaves it
    pending), then the partials file, then the data file — refresh is
    crash-safe at every step."""
    mdir = manifest_dir(out_dir)
    for b in sorted(buckets):
        mpath = os.path.join(mdir, f"bucket-{b:05d}.json")
        rel = None
        if os.path.isfile(mpath):
            try:
                with open(mpath) as fh:
                    rel = json.load(fh).get("file")
            except (ValueError, OSError):
                rel = None
            os.remove(mpath)
        ppath = os.path.join(mdir, f"partials-{b:05d}.parquet")
        if os.path.isfile(ppath):
            os.remove(ppath)
        if rel:
            dpath = os.path.join(out_dir, rel)
            if os.path.isfile(dpath):
                os.remove(dpath)


def read_manifest(out_dir: str) -> list[dict]:
    mdir = manifest_dir(out_dir)
    rows = []
    if os.path.isdir(mdir):
        for f in sorted(os.listdir(mdir)):
            if f.startswith("bucket-") and f.endswith(".json"):
                with open(os.path.join(mdir, f)) as fh:
                    rows.append(json.load(fh))
    return rows


def write_bucket_table(out_dir: str, group: pa.Table) -> pa.Table:
    """Write ONE bucket's full rollup table as its final atomic partition
    file + manifest row + persisted partials.  Deterministic: the bucket is
    globally sorted (tier, doc_id) before writing, so the output bytes do
    not depend on how the rows arrived (shuffle order or staged-file
    layout) — resume and refresh rewrites stay byte-identical."""
    t0 = time.perf_counter()
    bucket = int(group["bucket"][0].as_py())
    # tier-FIRST sort: clusters each retention tier into contiguous
    # parquet row groups, so tier-scoped reads (the store's dominant
    # query shape — coarse tiers for long ranges) prune at the row-group
    # level via predicate pushdown instead of decoding every row. Still
    # fully deterministic (resume rewrites stay byte-identical).
    group = group.sort_by([("tier", "ascending"), ("doc_id", "ascending")])
    group = group.drop_columns(["bucket"])
    rel = f"data/bucket={bucket:05d}.parquet"
    path = os.path.join(out_dir, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # serialize in memory and hash those bytes: the checksum costs no
    # re-read of the file just written
    sink = pa.BufferOutputStream()
    pq.write_table(group, sink, row_group_size=4096)
    data = sink.getvalue()
    checksum = hashlib.md5(data).hexdigest()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)

    # per-(source, tier) partials for the driver-side final aggregate,
    # sorted by (source, tier) like a pandas groupby
    partials = (
        group.group_by(["source", "tier"])
        .aggregate([([], "count_all"), ("n_windows", "sum"),
                    ("nbytes", "sum")])
        .sort_by([("source", "ascending"), ("tier", "ascending")])
    )
    partials = pa.table(
        {
            "bucket": pa.array(np.full(partials.num_rows, bucket, dtype=np.int64)),
            "source": partials["source"],
            "tier": partials["tier"],
            "n_docs": partials["count_all"],
            "n_windows": partials["n_windows_sum"],
            "nbytes": partials["nbytes_sum"],
        }
    )

    # persist this bucket's partials next to its manifest row so a
    # RESUMED run can fold the per-(source,tier) sink across ALL buckets,
    # not just the re-run ones (skipped buckets otherwise silently drop
    # out of source_stats.parquet)
    mdir = manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    ptmp = os.path.join(mdir, f".partials-{bucket:05d}.parquet.tmp")
    pq.write_table(partials, ptmp)
    os.replace(ptmp, os.path.join(mdir, f"partials-{bucket:05d}.parquet"))

    # order-independent input fingerprint of this bucket's doc set:
    # (count, XOR of stable 64-bit doc-id hashes) — refresh compares it
    # against the same summary recomputed from the CURRENT input to
    # detect appended/removed docs in already-completed buckets
    from ..functions.dedup import _stable_u64

    ids = pc.unique(group["doc_id"]).to_pylist()
    hx = np.array([_stable_u64(s) for s in ids], dtype=np.uint64).view(
        np.int64
    )
    row = {
        "bucket": bucket,
        "file": rel,
        "n_rows": group.num_rows,
        "n_docs": len(ids),
        "doc_xor": int(np.bitwise_xor.reduce(hx)) if len(hx) else 0,
        "n_windows": int(pc.sum(partials["n_windows"]).as_py()),
        "bytes_encoded": int(pc.sum(partials["nbytes"]).as_py()),
        "checksum": checksum,
        "elapsed_s": round(time.perf_counter() - t0, 4),
    }
    mtmp = os.path.join(mdir, f".bucket-{bucket:05d}.json.tmp")
    with open(mtmp, "w") as fh:
        json.dump(row, fh, sort_keys=True)
    os.replace(mtmp, os.path.join(mdir, f"bucket-{bucket:05d}.json"))
    return partials


class BucketFinalize:
    """Commit of ONE bucket from its staged-file metadata rows
    (bucket, stage_file): called once per occupied bucket, as an
    independent task, after the encode stage has drained.

    The encode tasks already wrote every bucket's rows as per-(task, bucket)
    Arrow IPC slices under ``staging/`` (see ``RollupEncode(stage_dir=...)``)
    and emitted one tiny metadata row per slice; the driver groups those
    rows by bucket, so nothing is shuffled.  A call reads its bucket's
    staged slices, globally sorts, and writes the final partition file
    (byte-identical whatever the slice layout — :func:`write_bucket_table`
    sorts before writing), then deletes the slices.  A bucket's commit is a
    pure function of its slices, so buckets finalize in any order.

    Retry-safe: staged file names are content hashes of the slice's doc
    ids, so a re-executed encode task overwrites its own files instead of
    duplicating rows; duplicate metadata rows dedupe on the file name here,
    and a re-executed call rewrites the same bytes.
    At 100-TB scale the staged-file count is tasks x occupied buckets —
    size ``batch_size`` up and ``n_buckets`` to O(nodes) so slices stay
    megabytes, and staging lives on the job's shared store (here: the
    store's own output directory)."""

    def __init__(self, out_dir: str, stage_dir: str):
        self.out_dir = out_dir
        self.stage_dir = stage_dir

    def __call__(self, meta: pa.Table) -> pa.Table:
        files = sorted(set(meta["stage_file"].to_pylist()))
        tables = []
        for rel in files:
            with pa.OSFile(os.path.join(self.stage_dir, rel), "rb") as fh:
                tables.append(pa.ipc.open_file(fh).read_all())
        group = pa.concat_tables(tables)
        partials = write_bucket_table(self.out_dir, group)
        for rel in files:
            try:
                os.remove(os.path.join(self.stage_dir, rel))
            except OSError:
                pass
        return partials
