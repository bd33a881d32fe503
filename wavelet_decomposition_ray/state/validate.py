"""Store fsck: verify a finished retention store against its manifest.

Reference analog: the reference trusts its ``.npz`` caches blindly; a
production store needs the opposite — an audit that proves the bytes on
disk still are the bytes the manifest committed, and that they decode to
the row/window/doc counts the writer recorded.

Checks per manifest bucket (each bucket = one Ray task, so memory stays
bucket-bounded and the audit scales with the cluster exactly like the
write path):

* file exists and its md5 equals the manifest ``checksum`` (bit-rot,
  truncation, manual tampering);
* the parquet row count equals ``n_rows``;
* the Gorilla/DoD blobs DECODE, and the decoded window count equals
  ``n_windows`` (writer-bug canary — checksum intact but semantics wrong);
* the doc-set fingerprint (``n_docs``, xor of stable 64-bit doc-id
  hashes) matches — the same fingerprint the incremental refresh uses;
* the row's per-(source, tier) partials equal those recomputed from the
  data file (the input of ``source_stats.parquet``); a row without them
  fails.

And for the store as a whole: it is complete (the committed buckets are
``range(n_buckets)`` of its lineage, the rule compaction enforces —
:func:`manifest.bucket_gaps`), and no file under its data directory goes
unnamed by a manifest row (:func:`manifest.unnamed_data_files`).

Returns a summary dict; ``ok`` is True only when every check passes.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from . import manifest as mf


@ray.remote
def _check_bucket(out_dir: str, row: dict) -> list[str]:
    from ..stages.encode import decode_blocks_batch

    b = row["bucket"]
    errs: list[str] = []
    if row.get("file") is None:  # recorded-empty bucket
        return errs
    path = os.path.join(out_dir, row["file"])
    if not os.path.isfile(path):
        return [f"bucket {b}: file missing: {row['file']}"]
    with open(path, "rb") as fh:
        digest = hashlib.md5(fh.read()).hexdigest()
    if digest != row["checksum"]:
        return [f"bucket {b}: checksum mismatch ({digest} != "
                f"{row['checksum']})"]
    t = pq.read_table(path)
    if t.num_rows != row["n_rows"]:
        errs.append(
            f"bucket {b}: n_rows {t.num_rows} != manifest {row['n_rows']}"
        )
    try:
        dec = decode_blocks_batch(t)
        nw = int(pa.compute.sum(dec["n_windows"]).as_py() or 0)
        if nw != row["n_windows"]:
            errs.append(
                f"bucket {b}: decoded n_windows {nw} != manifest "
                f"{row['n_windows']}"
            )
    except Exception as e:
        errs.append(f"bucket {b}: decode failed: {e}")
    fp = mf.doc_fingerprint(pa.compute.unique(t["doc_id"]).to_pylist())
    if fp != (row["n_docs"], row["doc_xor"]):
        errs.append(f"bucket {b}: doc-set fingerprint mismatch")
    if "partials" not in row:
        errs.append(f"bucket {b}: partials missing from the manifest row")
    elif row["partials"] != mf.bucket_partials(t):
        errs.append(f"bucket {b}: partials do not match the data file")
    return errs


def validate_store(out_dir: str) -> dict:
    """Audit ``out_dir`` against its manifest, one Ray task per bucket."""
    rows = mf.read_manifest(out_dir)
    if not rows:
        return {"ok": False, "buckets": 0,
                "errors": ["no manifest rows found"]}
    errs = [e for part in ray.get([_check_bucket.remote(out_dir, r)
                                   for r in rows])
            for e in part]
    n, gaps = mf.bucket_gaps(out_dir, rows)
    if gaps:
        errs.append(f"store incomplete: committed buckets differ from "
                    f"range({n}) at {gaps}")
    errs += [f"{rel}: in the store's data directory but named by no "
             "manifest row" for rel in mf.unnamed_data_files(out_dir, rows)]
    return {
        "ok": not errs,
        "buckets": len(rows),
        "files": sum(1 for r in rows if r.get("file")),
        "errors": errs,
    }
