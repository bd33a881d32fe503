"""Store compaction: rewrite a many-bucket store into fewer, larger
partitions — the small-files problem every long-lived partitioned store
accretes (a 256-node job writes nodes x cores buckets; a year of
incremental refreshes fragments them further).

Compaction never decodes: the encoded rows regroup by the SAME
deterministic doc_id hash into the new bucket count and each new bucket
flows through :func:`manifest.write_bucket_table` — the single writer
every path shares — so the compacted store is BYTE-IDENTICAL to what a
from-scratch build at the new ``n_buckets`` would produce (the pytest
pins this), and fsck, resume, refresh and tier-pushdown reads all work
unchanged on the result.

Resumable like the build: completed destination buckets are skipped via
the manifest, so a killed compaction continues where it stopped.
"""

from __future__ import annotations

import os

from . import manifest as mf


def compact_store(src_dir: str, dst_dir: str, n_buckets: int) -> dict:
    """Rewrite ``src_dir``'s store into ``dst_dir`` with ``n_buckets``
    partitions.  Ray must be initialised by the caller."""
    import ray.data

    src_data = os.path.join(src_dir, "data")
    if not os.path.isdir(src_data):
        raise FileNotFoundError(f"no store data dir at {src_data}")
    if os.path.abspath(src_dir) == os.path.abspath(dst_dir):
        raise ValueError("compact in place is not supported; "
                         "write to a new directory and swap")
    os.makedirs(dst_dir, exist_ok=True)
    done = mf.completed_buckets(dst_dir)

    if len(done) == n_buckets:
        mf.write_source_stats(dst_dir)
        return {"buckets_written": 0, "buckets_skipped": len(done)}

    ds = ray.data.read_parquet(src_data).map_batches(
        mf.make_add_bucket(n_buckets, skip_buckets=done),
        batch_format="pyarrow",
    )

    # short-circuit BEFORE the shuffle when every occupied destination
    # bucket is already committed: a fully-filtered dataset through
    # groupby().map_groups crashes on the schemaless empty block, and the
    # resume contract only needs the remaining empties marked (ADVICE r3)
    import numpy as np
    import pyarrow as pa

    def batch_buckets(t):
        u = np.unique(t["bucket"].to_numpy(zero_copy_only=False))
        return pa.table({"bucket": pa.array(u)})

    # column-pruned pre-pass: bucket is a pure function of doc_id, so only
    # that column leaves storage; the exchange is <= batches x buckets rows
    occupied = set(
        ray.data.read_parquet(src_data, columns=["doc_id"])
        .map_batches(
            mf.make_add_bucket(n_buckets, skip_buckets=done),
            batch_format="pyarrow",
        )
        .map_batches(batch_buckets, batch_format="pyarrow")
        .to_pandas()["bucket"]
        .unique()
    )
    n_written = 0
    if occupied:

        def finalize(group):
            row = mf.write_bucket_table(dst_dir, group)
            return pa.table({"bucket": [row["bucket"]]})

        committed = ds.groupby("bucket").map_groups(
            finalize, batch_format="pyarrow"
        )
        n_written = len(set(committed.to_pandas()["bucket"]))
    # destination buckets that own no doc_ids produce no group: mark them
    # explicitly-empty exactly like a from-scratch build (ADVICE r3 —
    # without this the compacted manifest diverges from the byte-identical
    # contract and those buckets stay forever-pending for resume/refresh)
    mf.mark_empty_buckets(dst_dir, n_buckets)
    mf.write_source_stats(dst_dir)
    return {"buckets_written": n_written, "buckets_skipped": len(done)}

