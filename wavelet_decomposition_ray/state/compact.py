"""Store compaction: rewrite a many-bucket store into fewer, larger
partitions — the small-files problem every long-lived partitioned store
accretes (a 256-node job writes nodes x cores buckets; a year of
incremental refreshes fragments them further).

Compaction never decodes and runs on the job's own write path: one plain
Ray task per row group of the source's committed data files
(:func:`..sources.ingest.plan_units`) reads the stored columns, adds
the destination bucket by the SAME deterministic doc_id hash and stages
its rows as ONE file, a record batch per destination bucket;
:func:`manifest.stage_and_commit` commits every bucket
through :func:`manifest.write_bucket_table`, the single writer every path
shares.  So the compacted store is BYTE-IDENTICAL to what a from-scratch
build at the new ``n_buckets`` would produce (the pytest pins this), and
fsck, resume, refresh, tier-pushdown reads and a further compaction all
work unchanged on the result.  No Ray Data execution starts.

The source must be complete: every bucket of its ``lineage.json``
``n_buckets`` committed, or compaction raises rather than silently drop
the docs of a missing bucket.  The job and compaction both write
``lineage.json`` before their commit phase, so a store whose writer died
mid-commit is refused too.  Resumable like the build: completed
destination buckets are skipped via the manifest, so a killed compaction
continues where it stopped.
"""

from __future__ import annotations

import os

import ray

from . import manifest as mf
from .metrics import write_lineage
from ..sources.ingest import plan_units, read_unit


@ray.remote
def _stage_unit(unit, columns: list[str], add_bucket, stage_dir: str):
    """Read one unit of a source data file, add the destination bucket,
    drop completed buckets and stage the rest as one file; returns its
    metadata table and the unit's rows."""
    t = read_unit(unit, "parquet", columns)
    kept = add_bucket(t)
    return ([mf.stage_slices(stage_dir, kept)] if kept.num_rows else []), t.num_rows


def _source_files(src_dir: str) -> tuple[list[str], dict]:
    """The data files of ``src_dir``'s committed buckets and its lineage
    config.  Raises unless the store is complete
    (:func:`manifest.bucket_gaps`)."""
    rows = mf.read_manifest(src_dir)
    if not rows:
        raise FileNotFoundError(f"no store manifest at {mf.manifest_dir(src_dir)}")
    n, gaps = mf.bucket_gaps(src_dir, rows)
    if gaps:
        raise ValueError(
            f"source store {src_dir} is incomplete: its committed buckets "
            f"differ from range({n}) at {gaps}; resume it before compacting")
    files = [p for _, p in mf.data_files(src_dir, rows) if os.path.isfile(p)]
    return files, mf.lineage_config(src_dir)


def compact_store(src_dir: str, dst_dir: str, n_buckets: int) -> dict:
    """Rewrite ``src_dir``'s store into ``dst_dir`` with ``n_buckets``
    partitions.  Ray must be initialised by the caller."""
    if os.path.abspath(src_dir) == os.path.abspath(dst_dir):
        raise ValueError("compact in place is not supported; "
                         "write to a new directory and swap")
    files, config = _source_files(src_dir)
    # lineage before the commit: a compaction that dies mid-commit leaves a
    # store that a further compaction refuses as incomplete
    write_lineage(dst_dir, src_dir, {**config, "n_buckets": n_buckets})
    done = mf.completed_buckets(dst_dir)

    n_written = 0
    if len(done) < n_buckets:
        import pyarrow.parquet as pq

        ncpu = int(ray.cluster_resources().get("CPU", 1))
        units = [u for f in files for u in plan_units(f, "parquet")]
        columns = pq.read_schema(files[0]).names if files else None
        add_bucket = mf.make_add_bucket(n_buckets, done)

        def launch(stage_dir):
            return [_stage_unit.remote(u, columns, add_bucket, stage_dir)
                    for u in units]

        _, _, finalize = mf.stage_and_commit(dst_dir, n_buckets, units,
                                             launch, ncpu)
        n_written = finalize["buckets"]
    mf.write_source_stats(dst_dir)
    return {"buckets_written": n_written, "buckets_skipped": len(done)}
