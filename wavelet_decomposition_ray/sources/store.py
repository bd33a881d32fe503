"""Public read API for the retention store.

Reference analog: the reference re-loads its cached matrices ad hoc
(`wavelet_decomposition.py:30-35`); the store here is a first-class table
and this is its one reader — the files its manifest commits, with
predicate/projection pushdown into the parquet scan and a streaming blob
decode.

``read_store(out, tiers=[3], sources=["src0"])`` returns a
``ray.data.Dataset`` of decoded rollup rows (doc_id, source, tier,
n_windows, mins/maxs/sums/counts lists).  The tier/source predicates are
pushed into ``read_parquet`` — the store files are sorted tier-first
(round-3), so a tier-scoped read prunes whole parquet row groups and
decodes ~1/n_tiers of the bytes.
"""

from __future__ import annotations

import os


def read_store(out_dir: str, tiers=None, sources=None):
    """Stream the retention store back as a decoded Dataset.

    Reads exactly the data files the manifest rows name
    (:func:`..state.manifest.data_files`), never a listing of ``data/``.
    ``tiers`` / ``sources``: optional iterables; pushed down as parquet
    filters (row-group pruning — never a post-decode filter).  Raises
    ``FileNotFoundError`` when a row's file is missing or no row names a
    file.
    """
    import pyarrow.compute as pc
    import ray.data

    from ..stages.encode import decode_blocks_batch
    from ..state.manifest import data_files

    files = data_files(out_dir)
    if not files:
        raise FileNotFoundError(f"no committed data file in the store at {out_dir}")
    for bucket, path in files:
        if not os.path.isfile(path):
            raise FileNotFoundError(
                f"bucket {bucket} of the store at {out_dir}: its committed "
                f"data file {path} is missing")
    filt = None
    if tiers is not None:
        filt = pc.field("tier").isin(list(tiers))
    if sources is not None:
        f2 = pc.field("source").isin(list(sources))
        filt = f2 if filt is None else (filt & f2)
    ds = ray.data.read_parquet([path for _, path in files], filter=filt)
    return ds.map_batches(
        decode_blocks_batch, batch_format="pyarrow", batch_size=2048
    )
