"""The three skeletons most of the query registry is built from.

- :func:`map_docs` — a per-doc token map over a sequences dataset: unpack
  the ``tokens`` list column once, answer an empty batch with the declared
  schema, and check every non-empty batch against that same schema.
- :func:`fold_by_part` — a fold over coarse ``key mod n`` partitions: one
  Ray group per partition, one vectorized pandas fold inside it, instead
  of one Ray group per key.
- :func:`keyed_agg` — the keyed fold of partial aggregates: sum / min /
  max per key through :func:`fold_by_part`.

The cardinality rule: a key sized by distinct tokens, pairs, docs, orders
or users goes through :func:`keyed_agg`. Ray Data's hash
``groupby(...).aggregate`` makes one group per key and spends its time on
micro-group plumbing there: ``bigram_code_bits``' sum over 1.2 M distinct
pairs took 121 s through it and 1.8 s through :func:`keyed_agg` (sf0.01,
one CPU, four Ray slots).
Low-cardinality keys (day, source, tier, event_type, ...) and keys
bounded by a small value domain (whole-second durations, millisecond
latencies) stay on ``groupby(...).aggregate``, where the hash aggregate
is the faster of the two. When unsure, time both:
``repurchase_interval``'s (segment, gap-in-days) key looks small but
took 9.1 s through the hash aggregate and 1.2 s through
:func:`keyed_agg`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

import ray.data

from ..functions.listops import list_to_numpy

DocFn = Callable[[pa.Table, np.ndarray, np.ndarray], pa.Table]


def doc_batch(fn: DocFn, cols: dict) -> Callable[[pa.Table], pa.Table]:
    """Batch function running ``fn(t, v, off)`` on the batch's tokens as
    int64 values ``v`` and offsets ``off``.  ``cols`` maps each output
    column to its type: a batch with no docs or no tokens, or one ``fn``
    answers with ``None``, returns that schema's empty table, and any
    other output must carry exactly that schema."""
    schema = pa.schema(cols)

    def batch(t: pa.Table) -> pa.Table:
        vals, off = list_to_numpy(t["tokens"])
        if t.num_rows == 0 or len(vals) == 0:
            return schema.empty_table()
        out = fn(t, vals.astype(np.int64), off)
        if out is None:
            return schema.empty_table()
        assert out.schema.equals(schema), (
            f"{fn.__qualname__} returned {out.schema}, declared {schema}"
        )
        return out

    return batch


def keep_docs(t: pa.Table, v: np.ndarray, off: np.ndarray,
              keep: np.ndarray) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """The batch, its token values and its offsets with only the docs
    where ``keep`` is True."""
    lens = np.diff(off)
    return (t.filter(pa.array(keep)), v[np.repeat(keep, lens)],
            np.concatenate(([0], np.cumsum(lens[keep]))))


def map_docs(ds: "ray.data.Dataset", fn: DocFn, cols: dict,
             batch_size: int = 256) -> "ray.data.Dataset":
    """The per-doc token map: :func:`doc_batch` over the sequences
    dataset ``ds``."""
    return ds.map_batches(
        doc_batch(fn, cols), batch_format="pyarrow", batch_size=batch_size
    )


def add_part(t: pa.Table, key: str, n_parts: int) -> pa.Table:
    """Append the int32 ``part`` column ``key mod n_parts`` (non-negative
    for any int64 key: NumPy's ``%`` takes the divisor's sign)."""
    k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
    return t.append_column("part", pa.array((k % n_parts).astype(np.int32)))


def fold_by_part(ds: "ray.data.Dataset", key: str, fold: Callable,
                 n_parts: int) -> "ray.data.Dataset":
    """Run the pandas ``fold`` once per coarse partition ``key mod
    n_parts``: every row of one key lands in the same call, and the
    shuffle moves ``n_parts`` groups instead of one group per key."""
    return (
        ds.map_batches(add_part, fn_args=(key, n_parts),
                       batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pandas")
    )


KEYED_AGG_PARTS = 32  # coarse parts per keyed fold


def keyed_agg(ds: "ray.data.Dataset", keys: list, aggs: dict,
              part_key: str) -> "ray.data.Dataset":
    """Fold partial aggregates per ``keys``: ``aggs`` maps each column to
    ``"sum"``, ``"min"`` or ``"max"``, and the output has the ``keys``
    columns, then the ``aggs`` columns under their own names and types.

    ``part_key`` is an integer column of ``keys``, so every row of one key
    lands in one of :data:`KEYED_AGG_PARTS` parts, and one pandas
    groupby per part folds it whole.
    For keys sized by distinct tokens, pairs, docs, orders or users; see
    the module docstring for the cardinality rule."""
    assert part_key in keys, f"part_key {part_key!r} is not one of {keys}"
    assert set(aggs.values()) <= {"sum", "min", "max"}, aggs

    def fold(df):
        return df.groupby(keys, as_index=False, sort=False).agg(aggs)

    return fold_by_part(ds, part_key, fold, KEYED_AGG_PARTS)
