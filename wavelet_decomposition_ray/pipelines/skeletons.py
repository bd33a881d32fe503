"""The six skeletons most of the query registry is built from.

- :func:`map_docs` — a per-doc token map over a sequences dataset: unpack
  the ``tokens`` list column once, answer an empty batch with the declared
  schema, and check every non-empty batch against that same schema.
- :func:`fold_by_part` — a fold over coarse partitions of a key: one Ray
  group per partition, one vectorized pandas fold inside it, instead of
  one Ray group per key. It is the package's only Ray group-by (the
  only ``map_groups``; checked in tests).
- :func:`keyed_agg` — the keyed fold of partial aggregates: sum / min /
  max per key of any type through :func:`fold_by_part`.
- :func:`collect_agg` — the same fold for a key bounded by a small
  domain: each batch reduced to one row per key on the workers, the
  partials folded on the driver under a row bound.
- :func:`collect_topk` — the driver finish of a per-key top-K: the
  per-batch top-K partials re-ranked on the driver chunk by chunk under
  a row bound.
- :func:`broadcast_dim` — the map-side key join: a small dimension
  (sorted unique keys plus payload columns) put in the object store
  once and probed inside every batch, for a foreign-key lookup
  (:meth:`BroadcastDim.lookup`) or a semi-/anti-join mask
  (:meth:`BroadcastDim.member`). Use it when one side of an equi-join
  fits on the driver: a dimension table, a filtered key set, a
  duplicates-only id list. A chain of small dimensions joins on the
  driver into one before it is broadcast, so the fact stream pays one
  probe. Range and as-of probes (``side="right"`` searches over
  breakpoints or timestamps) are not key joins and do not use it.

A wide step takes one of three shapes:

1. A partition column is never written by hand: the fold runs on the
   column the part would be computed from (a derived key, such as a
   mixed bigram key or an arrival bucket, is a column of its own).
2. A key sized by the data is never one Ray group per key: sum / min /
   max go through :func:`keyed_agg`; any other per-key fold runs inside
   :func:`fold_by_part` on that key, looping over the keys of its part.
3. A small key is never a second shuffle: the per-key finish runs in
   the same fold (one fold on the small key over per-batch partials), or
   on the driver: :func:`collect_agg` for sum / min / max,
   :func:`collect_topk` for a top-K, each holding its bounded result
   plus one chunk.

The cardinality rule, checked in code: a key sized by the data (tokens,
pairs, docs, orders, users, strings) goes through :func:`keyed_agg`; a
key bounded by a domain the query states (days, hours, sources, tiers,
event types, millisecond latencies) goes through :func:`collect_agg`
with that domain's size as ``max_rows``, and raises ``ValueError``
instead of crawling when the data is wider than stated. Ray Data's hash
aggregate is not used: per key it lost to both (``bigram_code_bits``'
sum over 1.2 M pairs took 121 s through it and 1.8 s through
:func:`keyed_agg`; a per-day count over 5 M events 2.78 s against 0.82 s
as a driver fold; one CPU, four Ray slots).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

import ray
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


def add_part(t: pa.Table, keys, n_parts: int) -> pa.Table:
    """Append the int32 ``part`` column: ``key mod n_parts`` for a single
    integer key (non-negative for any int64 key: NumPy's ``%`` takes the
    divisor's sign), else a stable 64-bit hash of the ``keys`` columns
    (pandas' fixed-seed ``hash_pandas_object``, the same in every
    process) mod ``n_parts``."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if len(keys) == 1 and pa.types.is_integer(t.schema.field(keys[0]).type):
        k = t[keys[0]].to_numpy(zero_copy_only=False).astype(np.int64)
        part = k % n_parts
    else:
        import pandas as pd

        # categorical strings hash once per distinct value, to the same
        # hash as the plain strings
        h = pd.util.hash_pandas_object(
            t.select(keys).to_pandas(strings_to_categorical=True),
            index=False).to_numpy()
        part = h % np.uint64(n_parts)
    return t.append_column("part", pa.array(part.astype(np.int32)))


KEYED_AGG_PARTS = 32  # coarse parts per fold


def fold_by_part(ds: "ray.data.Dataset", keys, fold: Callable,
                 n_parts: int = KEYED_AGG_PARTS) -> "ray.data.Dataset":
    """Run the pandas ``fold`` once per coarse partition of ``keys`` (one
    column name or a list, see :func:`add_part`): every row of one key
    lands in the same call, and the shuffle moves ``n_parts`` groups
    instead of one group per key.

    The output can hold zero-row blocks with no columns: the sort
    shuffle behind ``groupby("part").map_groups`` returns one such block
    for every partition that received no rows (8 input blocks of 5
    integer keys came back as five blocks of 160 rows and three zero-row
    blocks, and Ray Data logged its schema-mismatch warning twice),
    whatever ``fold`` returns. That is why :func:`collect` and
    :func:`collect_agg` carry the result's columns themselves."""
    return (
        ds.map_batches(add_part, fn_args=(keys, n_parts),
                       batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pandas")
    )


_OPS = {"sum", "min", "max"}


def keyed_agg(ds: "ray.data.Dataset", keys: list, aggs: dict
              ) -> "ray.data.Dataset":
    """Fold partial aggregates per ``keys`` (any column types): ``aggs``
    maps each column to ``"sum"``, ``"min"`` or ``"max"``, and the output
    has the ``keys`` columns, then the ``aggs`` columns under their own
    names and types (empty ``aggs``: the distinct keys). Every row of
    one key lands in one of :data:`KEYED_AGG_PARTS` parts
    (:func:`add_part`), and one pandas groupby per part folds it whole.
    For keys sized by the data."""
    assert set(aggs.values()) <= _OPS, aggs

    def fold(df):
        if not aggs:
            return df[keys].drop_duplicates()
        return df.groupby(keys, as_index=False, sort=False).agg(aggs)

    return fold_by_part(ds, keys, fold)


def collect(ds: "ray.data.Dataset", cols: dict) -> "pd.DataFrame":
    """``ds.to_pandas()``, with the columns ``cols`` (name -> pyarrow
    type) when ``ds`` has no rows: Ray Data drops zero-row blocks, so an
    empty fold collects to a frame with no columns at all."""
    df = ds.to_pandas()
    if len(df) == 0:
        return pa.schema(cols).empty_table().to_pandas()
    return df


def count_col(name: str) -> Callable[[pa.Table], pa.Table]:
    """Batch function appending the int64 column ``name`` of ones: a row
    count, folded as a ``"sum"``."""

    def batch(t: pa.Table) -> pa.Table:
        return t.append_column(name, pa.array(np.ones(t.num_rows, np.int64)))

    return batch


COLLECT_CHUNK_ROWS = 1 << 20  # partial rows the driver folds at once

# domain sizes callers pass as collect_agg's max_rows
MAX_DAYS = 36_600  # calendar days: a century
MAX_TYPES = 256  # event types, brands, segments, priorities, languages
# distinct values of a per-group count: k distinct counts need at least
# k(k+1)/2 rows, so 2^20 of them take 5e11 rows
MAX_COUNT_VALUES = 1 << 20


def _reduce(t: pa.Table, keys: list, aggs: dict) -> pa.Table:
    """One row per ``keys`` value of ``t``: the ``aggs`` columns folded
    under their own names, after the key columns."""
    out = t.group_by(keys, use_threads=False).aggregate(list(aggs.items()))
    return out.select([*keys, *(f"{c}_{op}" for c, op in aggs.items())]
                      ).rename_columns([*keys, *aggs])


def collect_agg(ds: "ray.data.Dataset", keys: list, aggs: dict,
                max_rows: int) -> "pd.DataFrame":
    """Fold partial aggregates per ``keys`` into one pandas frame on the
    driver: ``aggs`` maps each column to ``"sum"``, ``"min"`` or
    ``"max"``, as in :func:`keyed_agg`. The workers reduce each batch to
    one row per key; the driver folds those partials in
    :data:`COLLECT_CHUNK_ROWS`-row chunks and raises ``ValueError`` as
    soon as the result passes ``max_rows`` (the key's domain size, which
    the caller states). ``keys=[]`` folds the whole dataset into one row
    (null aggregates when it has no rows).

    The frame has the key and aggregate columns even when it has no rows:
    their types come from the first non-empty partial, else from
    ``ds.schema()``, else int64."""
    assert set(aggs.values()) <= _OPS, aggs
    keys, cols = list(keys), [*keys, *aggs]

    def reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return _reduce(t.select(cols), keys, aggs)

    def fold(parts: list) -> pa.Table:
        out = _reduce(pa.concat_tables(parts), keys, aggs)
        if out.num_rows > max_rows:
            raise ValueError(
                f"collect_agg over {keys}: more than max_rows={max_rows} "
                f"keys ({out.num_rows} so far)")
        return out

    acc, n_acc = [], 0
    for b in ds.map_batches(reduce, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        if b.num_rows == 0:
            continue
        b = b.select(cols)
        acc.append(b.cast(acc[0].schema) if acc else b)
        n_acc += b.num_rows
        if n_acc > COLLECT_CHUNK_ROWS:
            acc = [fold(acc)]
            n_acc = acc[0].num_rows
    if acc:
        return fold(acc).to_pandas()
    src = ds.schema()  # no rows: the input's types, if it has the columns
    names = getattr(src, "names", None) or []
    types = ([src.types[names.index(c)] for c in cols]
             if set(cols) <= set(names) else [pa.int64()] * len(cols))
    return _reduce(pa.schema(list(zip(cols, types))).empty_table(), keys,
                   aggs).to_pandas()


def collect_topk(ds: "ray.data.Dataset", cols: dict, topk: Callable,
                 max_rows: int) -> "pd.DataFrame":
    """Collect the per-batch top-K partials ``ds`` into one pandas frame
    on the driver: ``topk`` keeps a frame's top-K rows per key and can be
    re-applied to its own output plus more rows (``topk(concat(topk(a),
    b))`` equals ``topk(concat(a, b))``). The driver re-applies it every
    :data:`COLLECT_CHUNK_ROWS` rows, so it holds the result plus one
    chunk whatever the batch count, and raises ``ValueError`` as soon as
    the result passes ``max_rows`` (keys x K, which the caller states).
    The frame has the columns ``cols`` (name -> pyarrow type), also when
    ``ds`` has no rows."""
    import pandas as pd

    def fold(parts: list) -> "pd.DataFrame":
        out = topk(pd.concat(parts, ignore_index=True))
        if len(out) > max_rows:
            raise ValueError(
                f"collect_topk: more than max_rows={max_rows} rows "
                f"({len(out)} so far)")
        return out

    acc, n_acc = [], 0
    for b in ds.iter_batches(batch_format="pandas", batch_size=None):
        if len(b) == 0:
            continue
        acc.append(b[list(cols)])
        n_acc += len(b)
        if n_acc > COLLECT_CHUNK_ROWS:
            acc = [fold(acc)]
            n_acc = len(acc[0])
    return fold(acc or [pa.schema(cols).empty_table().to_pandas()])


_SIDES: dict = {}


def cached_get(ref, build: Callable | None = None):
    """``ray.get(ref)`` (then ``build`` of it) once per worker process:
    numpy arrays come back zero-copy, but Python objects (sets, dicts,
    object arrays) are deserialized again on every ``ray.get``. Bounded
    FIFO: a long session runs many queries through the same workers, and
    evicting the oldest entry never drops a side the running query just
    fetched."""
    key = (ref.hex(), build)
    if key not in _SIDES:
        while len(_SIDES) >= 8:
            _SIDES.pop(next(iter(_SIDES)))
        side = ray.get(ref)
        _SIDES[key] = build(side) if build else side
    return _SIDES[key]


def _keys(x) -> np.ndarray:
    """Join keys as int64 or as a numpy string array, whichever ``x``
    holds (an empty key list of unknown type is int64)."""
    if isinstance(x, (pa.Array, pa.ChunkedArray)):
        x = x.to_numpy(zero_copy_only=False)
    x = np.asarray(x)
    if x.dtype.kind in "iub" or (x.dtype.kind == "f" and len(x) == 0):
        return x.astype(np.int64, copy=False)
    if x.dtype.kind in "UO":
        return x.astype(str, copy=False)
    raise TypeError(f"join keys must be integers or strings, not {x.dtype}")


class SortedDim:
    """A dimension sorted by its unique keys, probed by binary search:
    built by :func:`sorted_dim` (local) or :func:`broadcast_dim`
    (shared with every batch). ``len()`` is its row count."""

    def __init__(self, name: str, keys: np.ndarray, cols: dict,
                 dicts: dict):
        self.name, self._keys, self._cols, self._dicts = \
            name, keys, cols, dicts

    def __len__(self) -> int:
        return len(self._keys)

    def _find(self, probe: np.ndarray) -> tuple:
        """(row index, hit mask) of each probe key."""
        keys = self._keys
        if len(keys) == 0:
            return np.zeros(len(probe), np.int64), np.zeros(len(probe), bool)
        idx = np.searchsorted(keys, probe).clip(max=len(keys) - 1)
        return idx, keys[idx] == probe

    def member(self, probe) -> np.ndarray:
        """Boolean mask: which probe keys the dimension holds (the
        semi-join; its negation is the anti-join)."""
        return self._find(_keys(probe))[1]

    def lookup(self, probe) -> dict:
        """Payload of each probe key's row, ``{column: array}`` in probe
        order (string columns decoded). A probe key the dimension does
        not hold is a broken foreign key and raises ``ValueError``."""
        probe = _keys(probe)
        idx, hit = self._find(probe)
        if not hit.all():
            bad = probe[~hit]
            raise ValueError(
                f"{len(bad)} key(s) not in dimension {self.name!r}, "
                f"first dangling key {bad[0]!r}")
        return {c: self._dicts[c][v[idx]] if c in self._dicts else v[idx]
                for c, v in self._cols.items()}


class BroadcastDim:
    """A :class:`SortedDim` put in the object store once; each worker
    fetches it once (:func:`cached_get`). Probe it inside batch
    functions with the same :meth:`member` / :meth:`lookup`."""

    def __init__(self, dim: SortedDim):
        self._n = len(dim)
        self._ref = ray.put(dim)

    def __len__(self) -> int:
        return self._n

    def member(self, probe) -> np.ndarray:
        return cached_get(self._ref).member(probe)

    def lookup(self, probe) -> dict:
        return cached_get(self._ref).lookup(probe)


def sorted_dim(keys, name: str, /, **cols) -> SortedDim:
    """Sort a dimension by ``keys`` (integers or strings; a duplicate key
    raises ``ValueError``) and dictionary-encode its string payload
    ``cols``, so it is plain numpy arrays. Every payload column has one
    row (first axis) per key. ``name`` names the dimension in a
    dangling-key error."""
    keys = _keys(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    dup = keys[1:] == keys[:-1]
    if dup.any():
        raise ValueError(f"dimension {name!r} has duplicate key "
                         f"{keys[1:][dup][0]!r}")
    enc, dicts = {}, {}
    for c, v in cols.items():
        v = np.asarray(v)
        if len(v) != len(keys):
            raise ValueError(f"dimension {name!r}: column {c!r} has "
                             f"{len(v)} rows for {len(keys)} keys")
        v = v[order]
        if v.dtype.kind in "UOS":
            dicts[c], v = np.unique(v.astype(object), return_inverse=True)
        enc[c] = v
    return SortedDim(name, keys, enc, dicts)


def broadcast_dim(keys, name: str, /, **cols) -> BroadcastDim:
    """The map-side key join's build side, on the driver:
    :func:`sorted_dim`, then one ``ray.put``."""
    return BroadcastDim(sorted_dim(keys, name, **cols))
