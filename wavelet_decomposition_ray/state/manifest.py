"""Per-partition checkpoint manifest: deterministic bucket ids, staged
files and the one commit path every store writer shares
(:func:`stage_and_commit`), atomic partition writes, skip-completed resume.

Reference analog: the skip-if-exists ``.npz`` matrix cache and translation
pickle (``/root/reference/wavelet_decomposition.py:30-35``,
``calc_translations.py:136-144``) — an idempotent per-partition artifact
keyed by name (SURVEY.md §2.1 S3/S4, §4.2.4). Here: output partitions are
hash buckets of ``doc_id``; a completed bucket is recorded by ONE atomic
manifest JSON row, its only record: the data file's checksum and counts,
the doc-set fingerprint refresh compares, and the per-(source, tier)
partials ``source_stats.parquet`` folds.  A commit is two atomic renames,
data file then manifest row, so a crash between them leaves the bucket
pending.  Resume anti-joins pending buckets against the manifest and
re-runs only the missing ones, producing byte-identical files (determinism
is guaranteed by sorting each bucket by (tier, doc_id) before writing and
by the codec being a pure per-row function).
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


def _committed(row: dict) -> bool:
    """A row records its bucket in full: an empty bucket needs no partials;
    a non-empty row without them was written by an older layout (partials
    in a sidecar file), so its bucket re-runs and rewrites the row."""
    return row.get("file") is None or "partials" in row


def completed_buckets(out_dir: str, rows=None) -> frozenset[int]:
    """Buckets whose manifest row is committed and whose data file exists.
    ``rows`` are :func:`read_manifest`'s, when the caller already holds
    them."""
    if rows is None:
        rows = read_manifest(out_dir)
    return frozenset(
        int(r["bucket"]) for r in rows
        if _committed(r) and (r.get("file") is None
                              or os.path.isfile(os.path.join(out_dir, r["file"])))
    )


def data_files(out_dir: str, rows=None) -> list[tuple[int, str]]:
    """(bucket, path) of the data file each manifest row names, in bucket
    order: the store's bytes are exactly these files.  A file under
    ``data/`` that no row names (a bucket mid-invalidation, a crash before
    its row was written, a leftover ``.tmp``) is not part of the store.
    ``rows`` are :func:`read_manifest`'s, when the caller already holds
    them; whether each file exists is left to the caller."""
    if rows is None:
        rows = read_manifest(out_dir)
    return sorted((int(r["bucket"]), os.path.join(out_dir, r["file"]))
                  for r in rows if r.get("file"))


def lineage_config(out_dir: str) -> dict:
    """The job config ``lineage.json`` records, or ``{}`` without one."""
    path = os.path.join(out_dir, "lineage.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as fh:
        return json.load(fh)["config"]


def bucket_gaps(out_dir: str, rows=None) -> tuple[int, list[int]]:
    """The store's completeness rule: its committed bucket ids must be
    exactly ``range(n)``, ``n`` the lineage's ``n_buckets``, or the
    manifest's row count for a store without ``lineage.json``.  A bucket
    counts as committed when its row is empty or names an existing data
    file, so a row of the older layout (partials in a sidecar) counts too.
    Returns ``(n, gaps)``: the ids where the committed set and
    ``range(n)`` differ, sorted; a complete store has none."""
    if rows is None:
        rows = read_manifest(out_dir)
    n = int(lineage_config(out_dir).get("n_buckets", len(rows)))
    have = {int(r["bucket"]) for r in rows if r.get("file") is None}
    have |= {b for b, p in data_files(out_dir, rows) if os.path.isfile(p)}
    return n, sorted(have ^ set(range(n)))


def unnamed_data_files(out_dir: str, rows=None) -> list[str]:
    """Store-relative paths of the files under ``data/`` that no manifest
    row names, sorted: a crash's leftover ``.tmp``, or the data file of a
    bucket whose row was removed.  Readers never see them
    (:func:`data_files`); the store fsck reports them."""
    if rows is None:
        rows = read_manifest(out_dir)
    ddir = os.path.join(out_dir, "data")
    if not os.path.isdir(ddir):
        return []
    named = {r["file"] for r in rows if r.get("file")}
    return sorted(rel for rel in (f"data/{f}" for f in os.listdir(ddir))
                  if rel not in named)


def mark_empty_buckets(out_dir: str, n_buckets: int) -> list[dict]:
    """After a successful run, record buckets that own no rows (no group
    ever reached the writer) as explicitly-empty partitions, so resume
    treats them as covered rather than forever-pending.  Returns the rows
    it writes."""
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
    written = []
    for b in range(n_buckets):
        if b in have:
            continue
        row = {"bucket": b, "file": None, "n_rows": 0, "n_docs": 0,
               "doc_xor": 0, "n_windows": 0, "bytes_encoded": 0,
               "checksum": None, "elapsed_s": 0.0}
        _write_row(mdir, row)
        written.append(row)
    return written


# the per-(source, tier) partials of a bucket and the store's fold of them
PARTIALS_SCHEMA = pa.schema([
    ("source", pa.string()), ("tier", pa.int8()), ("n_docs", pa.int64()),
    ("n_windows", pa.int64()), ("nbytes", pa.int64()),
])


def bucket_partials(table: pa.Table) -> dict:
    """Per-(source, tier) partials of one bucket's rows, sorted by
    (source, tier), as the manifest row stores them: one list per
    :data:`PARTIALS_SCHEMA` column."""
    p = (
        table.group_by(["source", "tier"])
        .aggregate([([], "count_all"), ("n_windows", "sum"), ("nbytes", "sum")])
        .sort_by([("source", "ascending"), ("tier", "ascending")])
    )
    return {"source": p["source"].to_pylist(), "tier": p["tier"].to_pylist(),
            "n_docs": p["count_all"].to_pylist(),
            "n_windows": p["n_windows_sum"].to_pylist(),
            "nbytes": p["nbytes_sum"].to_pylist()}


def _partials_of(out_dir: str, rows) -> list[tuple[int, dict]]:
    """(bucket, partials) of every non-empty row.  Raises when a non-empty
    row has none (written by an older layout): folding the rest would
    silently omit that bucket from source_stats.parquet (ADVICE r2)."""
    missing = sorted(int(r["bucket"]) for r in rows if not _committed(r))
    if missing:
        raise RuntimeError(
            f"store at {out_dir} has manifest buckets {missing} without "
            "partials (written by an older layout): source_stats would "
            "silently omit them — resume or refresh the store to rewrite "
            "them"
        )
    return [(int(r["bucket"]), r["partials"]) for r in rows
            if r.get("file") is not None]


def read_all_partials(out_dir: str):
    """Every bucket's per-(source, tier) partials, read from the manifest
    rows, as one pandas frame (bucket, source, tier, n_docs, n_windows,
    nbytes) in bucket order.  Returns None when no bucket of the store has
    rows; raises when a non-empty row has no partials."""
    parts = _partials_of(out_dir, read_manifest(out_dir))
    if not parts:
        return None
    cols = {"bucket": pa.array(
        [b for b, p in parts for _ in p["source"]], type=pa.int64())}
    for f in PARTIALS_SCHEMA:
        cols[f.name] = pa.array([v for _, p in parts for v in p[f.name]],
                                type=f.type)
    return pa.table(cols).to_pandas()


def write_source_stats(out_dir: str, rows=None) -> None:
    """Fold every bucket's partials into the store's per-(source, tier)
    sink ``source_stats.parquet`` (n_docs, n_windows, nbytes), sorted by
    (source, tier) and written atomically.  ``rows`` are the store's
    manifest rows when the caller already holds them.  Writes nothing when
    no bucket has rows."""
    if rows is None:
        rows = read_manifest(out_dir)
    parts = _partials_of(out_dir, rows)
    if not parts:
        return
    acc: dict[tuple, list[int]] = {}
    for _, p in parts:
        for s, t, d, w, n in zip(p["source"], p["tier"], p["n_docs"],
                                 p["n_windows"], p["nbytes"]):
            if s is None:  # a null source has no group, as in a groupby
                continue
            a = acc.setdefault((s, t), [0, 0, 0])
            a[0] += d
            a[1] += w
            a[2] += n
    keys = sorted(acc)
    vals = [acc[k] for k in keys]
    final = pa.table(
        [[k[0] for k in keys], [k[1] for k in keys], [v[0] for v in vals],
         [v[1] for v in vals], [v[2] for v in vals]],
        schema=PARTIALS_SCHEMA,
    )
    tmp = os.path.join(out_dir, ".source_stats.parquet.tmp")
    pq.write_table(final, tmp)
    os.replace(tmp, os.path.join(out_dir, "source_stats.parquet"))


def id_hashes(ids) -> np.ndarray:
    """Stable 64-bit hash of each doc id as int64: the first 8 bytes of the
    md5 of its utf-8 encoding, little-endian — ``dedup._stable_u64``, bit
    for bit, with one md5 per id and no per-id Python int."""
    md5 = hashlib.md5
    return np.frombuffer(
        b"".join([md5(s.encode()).digest()[:8] for s in ids]), dtype="<i8"
    ).astype(np.int64, copy=False)


def doc_fingerprint(ids) -> tuple[int, int]:
    """Order-independent fingerprint of a set of DISTINCT doc ids:
    (count, XOR of their :func:`id_hashes`), the pair a manifest row
    records as ``n_docs`` / ``doc_xor``."""
    h = id_hashes(ids)
    return len(h), int(np.bitwise_xor.reduce(h)) if len(h) else 0


@ray.remote
def _summarize_unit(unit, n_buckets: int) -> pa.Table:
    """Per-bucket (bucket, count, XOR of stable doc-id hashes) of one read
    unit's ``doc_id`` column: at most one row per occupied bucket."""
    from ..sources.ingest import read_unit

    ids = read_unit(unit, "parquet", ["doc_id"])["doc_id"].to_pylist()
    b = bucket_of_ids(ids, n_buckets)
    h = id_hashes(ids)
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


def stale_buckets(input_path: str, out_dir: str, n_buckets: int,
                  rows=None) -> frozenset[int]:
    """Completed buckets whose recorded doc-set fingerprint no longer
    matches the current input — docs were appended to or removed from them
    since the bucket was written (in-place token edits under an UNCHANGED
    doc_id are outside this contract: the store is an append/remove ingest
    sink keyed by doc_id).  Manifest rows written before fingerprints or
    in-row partials existed count as stale (safe: they just re-run).
    ``rows`` are :func:`read_manifest`'s, when the caller already holds
    them."""
    if rows is None:
        rows = read_manifest(out_dir)
    rows = {int(r["bucket"]): r for r in rows}
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
            (int(r["n_docs"]), int(r["doc_xor"]))
            if "doc_xor" in r and _committed(r) else None
        )
        if have != want:
            stale.add(b)
    return frozenset(stale)


def _sidecar(mdir: str, bucket: int) -> str:
    """The partials file an older layout kept next to a manifest row."""
    return os.path.join(mdir, f"partials-{bucket:05d}.parquet")


def invalidate_buckets(out_dir: str, buckets) -> None:
    """Make stale buckets pending again.  The manifest row is removed FIRST
    (from that instant the bucket is pending and any crash leaves it
    pending), then the data file — refresh is crash-safe at every step.
    An older layout's partials sidecar goes too."""
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
        if os.path.isfile(_sidecar(mdir, b)):
            os.remove(_sidecar(mdir, b))
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


def _write_row(mdir: str, row: dict) -> None:
    tmp = os.path.join(mdir, f".bucket-{row['bucket']:05d}.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(row, fh, sort_keys=True)
    os.replace(tmp, os.path.join(mdir, f"bucket-{row['bucket']:05d}.json"))


def write_bucket_table(out_dir: str, group: pa.Table) -> dict:
    """Write ONE bucket's full rollup table as its final atomic partition
    file, then commit it with its manifest row (counts, checksum, doc-set
    fingerprint and per-(source, tier) partials), and return that row.
    Deterministic: the bucket is globally sorted (tier, doc_id) before
    writing, so the output bytes do not depend on how the rows arrived
    (shuffle order or staged-file layout) — resume and refresh rewrites
    stay byte-identical."""
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

    # the partials let a RESUMED run fold the per-(source, tier) sink
    # across ALL buckets, not just the re-run ones; the (count, XOR)
    # fingerprint of the doc set is what refresh compares against the
    # CURRENT input to detect appended/removed docs
    partials = bucket_partials(group)
    n_docs, doc_xor = doc_fingerprint(pc.unique(group["doc_id"]).to_pylist())
    row = {
        "bucket": bucket,
        "file": rel,
        "n_rows": group.num_rows,
        "n_docs": n_docs,
        "doc_xor": doc_xor,
        "n_windows": sum(partials["n_windows"]),
        "bytes_encoded": sum(partials["nbytes"]),
        "checksum": checksum,
        "partials": partials,
        "elapsed_s": round(time.perf_counter() - t0, 4),
    }
    mdir = manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    _write_row(mdir, row)
    try:  # an older layout's sidecar: the row now holds the partials
        os.remove(_sidecar(mdir, bucket))
    except FileNotFoundError:
        pass
    return row


# ---- staged files: the one module that places, names, writes and reads
# them.  A writer task stages each batch of rows as ONE Arrow IPC file,
# sorted by destination bucket with one record batch per bucket, and
# returns one (bucket, stage_file) metadata row per bucket the file holds;
# the driver groups those rows by bucket and commits each bucket from its
# record batches.  Nothing about a staged file is durable: staging is
# cleared at the start and end of every commit phase.

# schema metadata key of a staged file: the buckets of its record batches,
# in file order, so a commit reads its own batches without a scan
_STAGED_BUCKETS = b"staged_buckets"


def stage_root(out_dir: str, staging_dir: str | None = None) -> str:
    """Where a store stages its files: ``staging_dir`` > the
    ``WDR_STAGING_DIR`` env var > ``<out_dir>/staging``.  A custom location
    is a ROOT shared by many jobs, so each store stages under a subdir
    keyed on its ``out_dir`` and concurrent jobs never clear each other's
    staged files.  Staging must be reachable by every node, like ``out_dir``."""
    custom_root = staging_dir or os.environ.get("WDR_STAGING_DIR")
    if not custom_root:
        return os.path.join(out_dir, "staging")
    key = hashlib.md5(os.path.abspath(out_dir).encode()).hexdigest()[:12]
    return os.path.join(custom_root, f"staging-{key}")


def slice_name(rows: pa.Table) -> str:
    """Staged-file name: md5 of the rows' ``doc_id`` offsets (rebased to
    0), the data bytes those offsets cover and its ``tier`` values.  A pure
    function of the (doc_id, tier) rows, wherever they sit in their batch,
    so a retried task overwrites its own file instead of duplicating rows,
    and two files holding the same docs at different tiers (a store file
    cut into several read units) never share a name."""
    doc_ids = rows.column("doc_id").chunk(0)
    _, obuf, dbuf = doc_ids.buffers()
    odt = np.int64 if pa.types.is_large_string(doc_ids.type) else np.int32
    off = np.frombuffer(obuf, dtype=odt)[
        doc_ids.offset : doc_ids.offset + len(doc_ids) + 1
    ]
    sig = hashlib.md5((off - off[0]).tobytes())
    if dbuf is not None:
        sig.update(memoryview(dbuf)[int(off[0]) : int(off[-1])])
    sig.update(rows.column("tier").chunk(0).to_numpy().tobytes())
    return f"part-{sig.hexdigest()[:20]}.arrow"


def stage_slices(stage_dir: str, table: pa.Table) -> pa.Table:
    """Write ``table``'s rows as ONE staged IPC file in ``stage_dir``;
    return one (bucket, stage_file) metadata row per bucket it holds.  The
    rows are sorted by bucket once (stable, so each bucket keeps its row
    order) and written as one record batch per bucket, in bucket order,
    with the bucket list in the schema metadata; the file is named by
    :func:`slice_name` of the sorted rows and renamed into place
    atomically."""
    import uuid

    b = table["bucket"].to_numpy()
    order = np.argsort(b, kind="stable")
    bs = b[order]
    table = table.take(pa.array(order)).combine_chunks()
    keys, starts = np.unique(bs, return_index=True)
    ends = np.append(starts[1:], len(bs))
    schema = table.schema.with_metadata({
        **(table.schema.metadata or {}),
        _STAGED_BUCKETS: " ".join(map(str, keys.tolist())),
    })
    os.makedirs(stage_dir, exist_ok=True)
    name = slice_name(table)
    tmp = os.path.join(stage_dir, f".{name}.{uuid.uuid4().hex[:8]}.tmp")
    with pa.OSFile(tmp, "wb") as fh, pa.ipc.new_file(fh, schema) as w:
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            w.write_table(table.slice(lo, hi - lo))
    os.replace(tmp, os.path.join(stage_dir, name))
    return pa.table({"bucket": pa.array(keys, type=pa.int32()),
                     "stage_file": pa.array([name] * len(keys), type=pa.string())})


def _staged_batches(path: str, buckets) -> dict[int, pa.RecordBatch]:
    """The record batches of ``buckets`` in one staged file, read without
    touching the file's other batches.  The reads are memory-mapped, so a
    batch held past the call costs page cache, not heap."""
    with pa.memory_map(path) as src:
        r = pa.ipc.open_file(src)
        meta = dict(r.schema.metadata)
        held = meta.pop(_STAGED_BUCKETS).split()
        return {b: r.get_batch(i).replace_schema_metadata(meta or None)
                for i, b in enumerate(map(int, held)) if b in buckets}


def commit_buckets(out_dir: str, stage_dir: str,
                   share: list[tuple[int, list[str]]]) -> list[dict]:
    """Commit a share of the buckets, given as (bucket, [stage_file, ...])
    pairs (paths relative to ``stage_dir``; duplicates dedupe on the name),
    and return their manifest rows.  Each staged file is opened once, for
    the share's buckets it holds; each bucket commits the concatenation of
    its record batches in file-name order.  Staged files are not deleted
    here (the commit phase clears staging), so a re-executed commit finds
    them and rewrites the same bytes."""
    want = {b for b, _ in share}
    read = {rel: _staged_batches(os.path.join(stage_dir, rel), want)
            for rel in sorted({f for _, files in share for f in files})}
    return [write_bucket_table(out_dir, pa.Table.from_batches(
                [read[rel][b] for rel in sorted(set(files))]))
            for b, files in share]


def commit_bucket(out_dir: str, stage_dir: str, bucket: int, files) -> dict:
    """Commit one bucket from the staged files holding its rows (see
    :func:`commit_buckets`) and return its manifest row."""
    return commit_buckets(out_dir, stage_dir, [(bucket, list(files))])[0]


# one finalize task: Ray re-runs it if its worker dies, and the re-run
# finds the staged files still there and rewrites the same bytes
_finalize_buckets = ray.remote(commit_buckets)


def stage_and_commit(out_dir: str, n_buckets: int, units, launch, ncpu: int,
                     staging_dir: str | None = None):
    """The commit protocol every store writer shares (the job and
    compaction).  Places and clears staging (:func:`stage_root`), runs the
    map side, ``launch(stage_dir)``: one Ray task per read unit, each
    resolving to ``(metas, n_read, ...)`` — the unit's
    :func:`stage_slices` metadata tables and its rows read.  Then:

    * **bounded collect** — a task returns at most one metadata row per
      input row (each bucket of a staged file holds >= 1 row), so the
      driver checks each task against its unit's planned row range (the
      rows it read, for a line-format file) and raises past it;
    * **commit** — the occupied buckets commit in min(``ncpu``, occupied
      buckets) :func:`_finalize_buckets` tasks, each a round-robin share
      of the sorted buckets: a task's fixed cost would outweigh a small
      bucket's commit, and more tasks than CPUs only queue;
    * clears staging and records every bucket that owns no rows as
      explicitly empty (:func:`mark_empty_buckets`).

    Returns ``(results, rows, finalize)``: the map tasks' results, the
    manifest rows written (committed, then empty) and the commit phase's
    ``metrics.json`` row (tasks, buckets committed, wall, summed commit
    seconds)."""
    import shutil

    stage_dir = stage_root(out_dir, staging_dir)
    # staged files of a crashed run are orphans: the retrying run
    # re-stages everything it needs (content-hash names make rewrites
    # idempotent), so clear staging up front rather than trust leftovers
    shutil.rmtree(stage_dir, ignore_errors=True)
    results = ray.get(launch(stage_dir))
    files_of: dict[int, list[str]] = {}
    for u, (metas, n_read, *_) in zip(units, results):
        rows = n_read if u.stop is None else u.stop - u.start
        if sum(m.num_rows for m in metas) > rows:
            raise RuntimeError(f"unit {u} returned more metadata rows than "
                               f"its {rows} input rows")
        for m in metas:
            for b, f in zip(m["bucket"].to_pylist(), m["stage_file"].to_pylist()):
                files_of.setdefault(b, []).append(f)
    shares = sorted(files_of.items())
    n_fin = min(ncpu, len(shares))
    t_fin = time.perf_counter()
    committed = [
        row for part in ray.get([
            _finalize_buckets.remote(out_dir, stage_dir, shares[k::n_fin])
            for k in range(n_fin)
        ])
        for row in part
    ]
    wall_s = time.perf_counter() - t_fin
    shutil.rmtree(stage_dir, ignore_errors=True)
    finalize = {
        "operator": "finalize",
        "tasks": n_fin,
        "buckets": len(committed),
        "wall_s": round(wall_s, 4),
        "task_wall_total_s": round(sum(r["elapsed_s"] for r in committed), 4),
    }
    return results, committed + mark_empty_buckets(out_dir, n_buckets), finalize


class BucketFinalize:
    """Commit of ONE bucket from its staged-file metadata rows
    (bucket, stage_file); returns the bucket's manifest row.  Store writers
    commit through :func:`stage_and_commit`, which calls
    :func:`commit_buckets` directly, a share of the buckets per task.

    A call reads its bucket's record batch from each staged file that
    holds it, globally sorts, and writes the final partition file
    (byte-identical whatever the staged layout — :func:`write_bucket_table`
    sorts before writing) and its manifest row.  A bucket's commit is a
    pure function of its staged rows, so buckets finalize in any order.

    Retry-safe: staged file names are content hashes of the file's
    (doc_id, tier) rows, so a re-executed writer task overwrites its own
    file instead of duplicating rows; duplicate metadata rows dedupe on
    the file name here, and a re-executed commit finds its files (staging
    is cleared only after the commit phase) and rewrites the same bytes
    and row.  The staged-file count is one file per encode batch (one per
    compaction unit), whatever ``n_buckets``; staging lives on the job's
    shared store (here: the store's own output directory)."""

    def __init__(self, out_dir: str, stage_dir: str):
        self.out_dir = out_dir
        self.stage_dir = stage_dir

    def __call__(self, meta: pa.Table) -> dict:
        return commit_bucket(self.out_dir, self.stage_dir,
                             int(meta["bucket"][0].as_py()),
                             meta["stage_file"].to_pylist())
