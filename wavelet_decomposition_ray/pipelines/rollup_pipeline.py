"""Flagship pipeline: the end-to-end rollup + downsample + retention job.

Dataflow (SURVEY.md §4.3; every stage annotated with its reference
analog).  ``rollup_dataset`` and ``run_rollup_job`` share one per-batch
chain (``_rollup_chain``: gapfill, then the round-trip check when
``verify``) and differ only in its head and tail.  The job's write path
runs on plain Ray tasks; ``rollup_dataset`` (the read side, used by the
queries) stays a Ray Data plan:

    run_rollup_job
    plan_units (driver, parquet footers / file list)    [S1]
     -> ray.remote(_encode_unit) x units                one task per unit:
          read_unit: a row group (range) or a line file
          per batch_size slice:
            add_bucket + resume filter                  [S3/S4 cache skip]
            gapfill_batch                               [M1-M3]
            RoundTripCheck       verify only            [T1-T6 + invariant]:
              the native forward + inverse DWT kernel (numpy fallback)
              returns only a per-row verdict; raises on a mismatch,
              passes the input batch on unchanged (no DWT at all when
              verify=False)
            RollupEncode                                [A2 + ST1]: one
              native pass per row (tier fold -> DoD streams -> framed
              blob; oracle reference without a compiler)
            stage_slices: ONE staged IPC file per batch, in-task: rows
              sorted by bucket, a record batch per bucket; returns one
              (bucket, stage_file) metadata row per bucket it holds
          returns the metadata rows, its rows read and its per-layer wall
          and CPU seconds
     state.manifest.stage_and_commit (the commit protocol compaction
     shares; it launches the tasks above into its staging dir):
     -> ray.get + bounded collect       driver checks rows <= unit rows
     -> ray.remote(_finalize_buckets) x min(CPUs, occupied buckets):
          each task a round-robin share of the sorted buckets; opens
          each staged file once and reads only its buckets' record
          batches; per bucket merge them, sort, atomic data file,
          then one manifest row holding its partials    [S5/S6]
          returns the rows it committed
     -> clear staging; mark the buckets that own no rows empty
     -> driver folds the rows in hand: summary + per-(source,tier)
          partials -> source_stats.parquet             [A1/A2]

    rollup_dataset (Ray Data)
    read_parquet -> map_batches(_rollup_chain) -> map_batches(TierRollup)

The heavy tokens column never crosses the object store — a task reads its
own unit — and neither does the encoded store: each task writes each
batch of its rows as ONE staged Arrow IPC file, sorted by bucket with a
record batch per bucket.  Nothing is shuffled: the driver groups the
O(batches x buckets) metadata rows by bucket and deals the buckets out to
one finalize task per CPU — a bucket's file is a pure function of its
staged rows, so buckets commit independently and in any order, and the
bucket doubles as the resume/checkpoint granularity.  The
manifest is read once, at job start; the rows the job commits come back
from its tasks.  Every task is deterministic, so a lost one is simply
re-executed (the D-Streams recovery model).  At cluster scale the same
code runs with ``n_buckets`` sized to ~(nodes x cores); locally the
default 16 keeps partitions ~10 MB at bench scale.

No ``ray.init`` here — the caller owns the session (driver contract).
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .. import oracle as oc
from ..functions.listops import list_to_numpy
from ..stages.gapfill import gapfill_batch
from ..stages.dwt import cascade as dwt_cascade
from ..stages.rollup import TierRollup, source_partials_batch
from ..stages.encode import RollupEncode
from ..sources.ingest import Unit, plan_units, read_unit
from ..state import manifest as mf
from ..state.metrics import write_lineage

SEQ_COLUMNS = ["doc_id", "tokens", "n_tok", "source"]


def sequences_dataset(path: str, columns=None) -> "ray.data.Dataset":
    """Prune at the read: only the engine's four columns leave storage."""
    return ray.data.read_parquet(path, columns=columns or SEQ_COLUMNS)


def rollup_dataset(
    ds: "ray.data.Dataset",
    bank: str = "haar",
    n_tiers: int = 10,
    verify: bool = True,
    batch_size: int = 256,
) -> "ray.data.Dataset":
    """sequences -> per-(doc, tier) rollup list rows (not yet encoded).

    ``batch_size`` is rows per batch; with heavy-tailed ``n_tok`` keep it
    modest so a batch (rows x tokens x 8B x a few intermediates) stays well
    inside a worker heap — byte-budget thinking per SURVEY.md §4.2.1.
    """
    oc.filter_pair(bank)  # validate config up front, even with no check
    chain = functools.partial(_rollup_chain,
                              check=RoundTripCheck(bank) if verify else None)
    ds = ds.map_batches(chain, batch_format="pyarrow", batch_size=batch_size)
    return ds.map_batches(TierRollup(n_tiers), batch_format="pyarrow", batch_size=batch_size)


def _no_lap(layer: str) -> None:
    pass


def _rollup_chain(batch: pa.Table, check: "RoundTripCheck | None" = None,
                  lap=_no_lap) -> pa.Table:
    """The flagship chain on one batch, shared by ``rollup_dataset`` and
    the job: gapfill, then the round-trip check when one is given.
    ``lap(layer)`` charges the time since the previous lap to ``layer``."""
    batch = gapfill_batch(batch)
    lap("gapfill")
    if check is not None:
        check(batch)
        lap("check")
    return batch


class RoundTripCheck:
    """Fail fast when the decompose->reconstruct token-equality invariant
    breaks (BASELINE.json): a correctness gate, not a metric.  Asks
    ``stages.dwt.cascade`` for the per-row verdict only (the native
    forward + inverse kernel, numpy without a C compiler; no coefficient
    column is built) and returns the INPUT batch unchanged, so nothing
    leaves the stage — the store's bytes never depend on ``bank``."""

    def __init__(self, bank: str):
        oc.filter_pair(bank)  # validate config up front
        self.bank = bank

    def __call__(self, batch: pa.Table) -> pa.Table:
        values, offsets = list_to_numpy(batch["tokens"])
        ok = dwt_cascade(values, offsets, self.bank, coeffs=False)[2]
        if not ok.all():
            bad = batch["doc_id"].take(pa.array(np.nonzero(~ok)[0])).to_pylist()
            raise AssertionError(f"round-trip invariant violated for docs {bad[:5]}")
        return batch


MAX_SOURCES = 4096  # source labels
MAX_TIERS = 64  # tiers of one rollup
# how each per-(source, tier) partial column folds, and the stat it becomes
SOURCE_PARTIAL_AGGS = {"pmin": "min", "pmax": "max", "psum": "sum",
                       "pcount": "sum", "pwindows": "sum"}
_SOURCE_STAT_NAMES = {"pmin": "min_val", "pmax": "max_val",
                      "psum": "total_sum", "pcount": "n_points",
                      "pwindows": "n_windows"}


def fold_source_partials(partials: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-(source, tier) stats from per-batch partials
    (:data:`SOURCE_PARTIAL_AGGS` columns), folded on the driver under a
    sources x tiers row bound. ``tier`` comes back as int8, the store's
    and the SQL oracles' type."""
    from .skeletons import collect_agg

    df = collect_agg(partials, ["source", "tier"], SOURCE_PARTIAL_AGGS,
                     MAX_SOURCES * MAX_TIERS).rename(
                         columns=_SOURCE_STAT_NAMES)
    return ray.data.from_pandas(df.astype({"tier": np.int8}))


def source_tier_aggregate(rollup_ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-(source, tier) global stats via partial+final: batch-local
    combiners (one row per key per batch) then one driver fold — the
    reference's stack+calc_epn path (SURVEY.md §2.5 A1/A2)."""
    return fold_source_partials(
        rollup_ds.map_batches(source_partials_batch, batch_format="pyarrow"))


# the layers an encode task times, in chain order (metrics.json per_stage)
LAYERS = ("read", "bucket", "gapfill", "check", "encode", "stage")


class _Ledger:
    """Per-layer seconds of one task: each call charges the time since the
    previous call to the named layer, as wall seconds (``seconds``) and as
    the calling thread's CPU seconds (``cpu``, ``time.thread_time``, user
    plus system).  CPU that Arrow spends on its own thread pools (parquet
    decode, IO) is not counted in ``cpu``."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self._t = time.perf_counter()
        self._c = time.thread_time()

    def __call__(self, layer: str) -> None:
        now, cpu = time.perf_counter(), time.thread_time()
        self.seconds[layer] = self.seconds.get(layer, 0.0) + now - self._t
        self.cpu[layer] = self.cpu.get(layer, 0.0) + cpu - self._c
        self._t, self._c = now, cpu


@ray.remote
def _encode_unit(unit: Unit, input_format: str, batch_size: int, add_bucket,
                 check: RoundTripCheck | None, encode: RollupEncode):
    """The whole map side of one read unit: read it, then per
    ``batch_size`` slice the bucket column + resume filter, the chain and
    the tier tree + codec, then the staged write of the batch as one file.
    Returns the staged files' metadata rows (one table per batch that kept
    rows), the rows read and the task's :class:`_Ledger` of per-layer
    seconds.  Deterministic, so Ray's re-execution of a task whose worker
    died rewrites the same staged files."""
    lap = _Ledger()
    table = read_unit(unit, input_format)
    lap("read")
    metas = []
    for lo in range(0, table.num_rows, batch_size):
        batch = add_bucket(table.slice(lo, batch_size))
        lap("bucket")
        if batch.num_rows:
            full = encode(_rollup_chain(batch, check, lap))
            lap("encode")
            metas.append(encode._stage_batch(full))
            lap("stage")
    return metas, table.num_rows, lap


def run_rollup_job(
    input_path: str,
    out_dir: str,
    bank: str = "haar",
    n_tiers: int = 10,
    n_buckets: int = 16,
    resume: bool = True,
    verify: bool = True,
    batch_size: int | None = None,  # None -> adaptive from input row count
    fault_flag: str | None = None,
    refresh: bool = False,
    input_format: str = "parquet",
    staging_dir: str | None = None,
) -> dict:
    """Run the full job; resumable from per-bucket checkpoints.

    The store holds tier rollups of the gap-filled tokens only, so its
    bytes depend on neither ``bank`` nor ``verify``: ``bank`` selects the
    filter bank of the round-trip check (and is recorded in
    ``lineage.json``), and ``verify=False`` skips that check and with it
    the DWT.

    **Staging placement contract (multi-node):** encode tasks write one
    Arrow IPC file per batch under the staging directory and the
    finalize stage (scheduled on ANY node) reads them back, so staging
    must live on storage reachable by every node — a shared filesystem or
    object store, exactly like ``out_dir`` itself. The default,
    ``<out_dir>/staging``, inherits ``out_dir``'s reachability and is
    therefore always safe; pass ``staging_dir`` (or set the
    ``WDR_STAGING_DIR`` env var) to point staging at faster shared scratch
    (e.g. a burst buffer) when the durable store sits on slow storage.
    Staging is cleared at job start and end — nothing durable lives there.

    **Units and tasks:** :func:`..sources.ingest.plan_units` plans the
    input on the driver from metadata alone — one unit per parquet row
    group (a group over ``batch_size`` rows is cut into at most
    cluster-CPUs contiguous row ranges), one per jsonl / csv file — and
    each unit runs as ONE plain Ray task (``_encode_unit``) that reads it
    and runs the whole chain per ``batch_size`` slice.  No Ray Data
    execution starts.  A task whose worker dies is re-executed by Ray's
    task retry; staged-file names are content hashes, so the retry
    rewrites the same files.

    **Driver collect bound:** a task returns one (bucket, stage_file) row
    per (batch, bucket) the batch holds rows of, so never more rows than
    its unit's input rows — the planned row range of a parquet unit, the
    rows it read for a line-format file.  The driver checks that per task
    and raises past it.  The occupied buckets then commit in
    min(cluster CPUs, occupied buckets) Ray tasks, each a round-robin share
    of the sorted buckets.

    ``input_format`` selects the ingest reader (``parquet`` | ``jsonl`` |
    ``csv`` — see :mod:`..sources.ingest`); every format normalizes to the
    canonical sequences schema before the first transform, so the store
    bytes are identical whichever format carried the input.  The refresh
    fingerprint pre-pass reads only parquet ``doc_id`` columns and is
    parquet-only.

    ``refresh=True`` turns resume into a continuous-aggregate refresh: a
    cheap doc_id-only pre-pass fingerprints each bucket's doc set and any
    completed bucket whose input changed (appended/removed docs) is
    invalidated and re-run; unchanged buckets are still skipped.  The
    refreshed store is byte-identical to a from-scratch build on the new
    input (per-bucket determinism).

    ``n_buckets`` sizing (measured 2026-08-17/18, 32 cpus): the default 16
    is right up to ~25k rows / 26M tokens (sf0.1: 16 -> 2.98 s beats
    64 -> 3.5 s, per-slice overhead dominates); past ~8x the bench corpus
    the finalize stage's bucket-capped parallelism becomes THE bottleneck
    — at 200k rows / 216M windows, 16 buckets = 44.9 s, 32 = 19.3 s,
    64 = **15.0 s (3.0x)**; at 800k rows / 0.86B windows, 16 = 291.6 s,
    64 = 169.6 s, 128 = **73.6 s (4.0x, 11.7M pts/s — the same per-point
    rate as the sf0.1 headline, i.e. sized buckets keep the engine
    compute-bound at 33x the bench input)**.  Rule of thumb: grow
    n_buckets with data toward ~max(2 x cluster CPUs, windows / 7M) so
    finalize fills every core and each bucket stays a few M windows, and
    keep it FIXED for the life of a store —
    resume and the refresh fingerprints key on the bucket layout, so an
    adaptive default would silently invalidate incremental refresh (that
    is why this knob is explicit, not derived).  To re-bucket a finished
    store, use ``state.compact.compact_store`` (byte-identical rewrite).

    Returns a summary dict (also written to ``out_dir/metrics.json``, next
    to the per-layer rows: tasks and summed task wall and CPU seconds per
    encode-task layer, the staged write (``stage``) last, then finalize
    with its tasks, buckets committed, wall and summed commit seconds)
    with throughput and bucket counts; the
    driver-side final per-(source, tier) aggregates go to
    ``out_dir/source_stats.parquet``.
    """
    t0 = time.perf_counter()
    n_refreshed = 0
    if refresh and input_format != "parquet":
        raise ValueError(
            "refresh=True needs the parquet fingerprint pre-pass; "
            f"got input_format={input_format!r}"
        )
    # the job's one manifest read: the rows on disk, kept in step with
    # every row this job removes or writes, so the summary and the
    # source_stats fold never read the manifest again
    manifest = {int(r["bucket"]): r for r in mf.read_manifest(out_dir)}
    if resume and refresh:
        stale = mf.stale_buckets(input_path, out_dir, n_buckets,
                                 rows=manifest.values())
        if stale:
            mf.invalidate_buckets(out_dir, stale)
            for b in stale:
                del manifest[b]
        n_refreshed = len(stale)
    done = mf.completed_buckets(out_dir, manifest.values()) if resume else frozenset()
    if len(done) >= n_buckets:
        # nothing pending: no work, so no task is launched at all
        return {
            "elapsed_s": round(time.perf_counter() - t0, 3),
            "buckets_written": 0,
            "buckets_skipped": len(done),
            "buckets_refreshed": n_refreshed,
            "n_windows": int(sum(r["n_windows"] for r in manifest.values())),
            "n_windows_this_run": 0,
            "bytes_encoded": int(sum(r["bytes_encoded"] for r in manifest.values())),
            "rolled_points_per_s": 0.0,
            "bank": bank,
            "n_tiers": n_tiers,
            "n_buckets": n_buckets,
        }

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    if batch_size is None:
        if input_format == "parquet":
            # adaptive slice size: ~4 batches per CPU (enough to balance
            # stragglers) but never tiny batches (per-slice + per-staged-
            # file fixed costs dominate below ~256 rows) nor huge ones
            # (worker heap).  Row count comes from parquet FOOTERS only.
            n_in = sum(u.stop - u.start for u in plan_units(input_path, "parquet"))
            batch_size = int(min(1024, max(256, n_in // (4 * ncpu))))
        else:
            # line formats have no footer row count; a mid-band fixed size
            batch_size = 512
    units = plan_units(input_path, input_format, batch_size, ncpu)

    # PLAIN TASKS, not Ray Data and not an actor pool: every stage is a
    # stateless callable (no model/index to keep warm), so the task ships
    # the callables and runs the whole chain on its own unit.  A streaming
    # executor costs more CPU than a small job's kernels (plan, operator
    # threads, block refs; ReadParquet never fuses into the chain), and
    # pool actors are FRESH processes booted per execution that reserve
    # CPUs and ramp too slowly to fill a short job.  Worker death mid-task
    # is retried by Ray core (the fault-injection pytests cover it,
    # byte-identical output).  The encoded bytes NEVER enter the object
    # store: each task stages its own rows (RollupEncode(stage_dir=...)).
    oc.filter_pair(bank)  # validate config up front, even with no check
    add_bucket = mf.make_add_bucket(n_buckets, done)
    check = RoundTripCheck(bank) if verify else None

    def launch(stage_dir):
        encode = RollupEncode(n_tiers=n_tiers, fault_flag=fault_flag,
                              stage_dir=stage_dir)
        return [_encode_unit.remote(u, input_format, batch_size, add_bucket,
                                    check, encode)
                for u in units]

    # lineage before the commit: a store whose job dies mid-commit then
    # records its n_buckets, so compaction refuses it as incomplete
    write_lineage(out_dir, input_path,
                  {"bank": bank, "n_tiers": n_tiers, "n_buckets": n_buckets,
                   "batch_size": batch_size, "verify": verify})
    # staging placement, bounded collect, commit, staging cleanup and the
    # explicitly-empty buckets: the commit protocol compaction shares
    results, written, finalize = mf.stage_and_commit(
        out_dir, n_buckets, units, launch, ncpu, staging_dir)
    for row in written:
        manifest[int(row["bucket"])] = row

    elapsed = time.perf_counter() - t0
    manifest_rows = [manifest[b] for b in sorted(manifest)]
    n_windows = int(sum(r["n_windows"] for r in manifest_rows))
    bytes_encoded = int(sum(r["bytes_encoded"] for r in manifest_rows))
    # throughput from work actually done THIS run: resumed runs exclude
    # windows of buckets that were skipped via the manifest
    n_windows_run = int(
        sum(r["n_windows"] for r in manifest_rows if int(r["bucket"]) not in done)
    )

    # fold the partials of ALL buckets, so buckets completed by an earlier
    # run still count after a resume
    mf.write_source_stats(out_dir, manifest_rows)

    summary = {
        "elapsed_s": round(elapsed, 3),
        "buckets_written": len(manifest_rows) - len(done),
        "buckets_skipped": len(done),
        "buckets_refreshed": n_refreshed,
        "n_windows": n_windows,
        "n_windows_this_run": n_windows_run,
        "bytes_encoded": bytes_encoded,
        "rolled_points_per_s": round(n_windows_run / elapsed, 1) if elapsed > 0 else 0.0,
        "bank": bank,
        "n_tiers": n_tiers,
        "n_buckets": n_buckets,
    }
    # one row per layer the encode tasks timed (tasks that ran it, their
    # summed wall and CPU seconds), then finalize: its tasks, the buckets
    # they committed, its phase wall time and the committed rows' seconds
    ledgers = [lap for _, _, lap in results]
    per_stage = [
        {"operator": layer,
         "tasks": sum(layer in lap.seconds for lap in ledgers),
         "task_wall_total_s": round(
             sum(lap.seconds.get(layer, 0.0) for lap in ledgers), 4),
         "task_cpu_total_s": round(
             sum(lap.cpu.get(layer, 0.0) for lap in ledgers), 4)}
        for layer in LAYERS if any(layer in lap.seconds for lap in ledgers)
    ]
    per_stage.append(finalize)
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump({"summary": summary, "per_stage": per_stage}, fh, indent=1)
    return summary
