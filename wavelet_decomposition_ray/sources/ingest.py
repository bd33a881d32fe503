"""Multi-format ingest of the canonical sequences table
``(doc_id:string, tokens:list<int32>, n_tok:int32, source:string)``.

The reference ingests spreadsheets (``/root/reference/import_excel.py``);
the Ray-native analogs are columnar / line-delimited distributed formats.
The write path reads its input as independent *units*, each one Ray task:
:func:`plan_units` plans them on the driver from metadata alone and
:func:`read_unit` reads one inside the task.  Every format normalizes to
the IDENTICAL canonical schema, so the whole downstream pipeline (rollup,
DWT, store) is format-agnostic — a pytest runs the flagship job from each
format and pins byte-identical store output.

- Parquet is the primary format (schema round-trips exactly).  A unit is a
  row group, or a contiguous row range of a large one; the plan reads
  only the footers, which also give the input's exact row count.
- JSONL keeps ``tokens`` as a native JSON array; numbers arrive as int64
  and are cast back to the canonical int32.  A unit is one file.
- CSV cannot hold lists, so ``tokens`` travels as a space-joined string
  and is re-split on read with a VECTORIZED pandas split + flat cast (one
  explode per file — no per-row Python parsing).  A unit is one file.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np
import pyarrow as pa

FORMATS = ("parquet", "jsonl", "csv")

CANON_FIELDS = (
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
)


def _canonize(t: pa.Table) -> pa.Table:
    """Cast a (doc_id, tokens, n_tok, source) table to the canonical
    column order and types (JSON readers widen ints to int64)."""
    cols = []
    for name, typ in CANON_FIELDS:
        col = t[name]
        if col.type != typ:
            col = col.cast(typ)
        cols.append(col)
    return pa.table(dict(zip([n for n, _ in CANON_FIELDS], cols)))


def _parse_csv_tokens(t: pa.Table) -> pa.Table:
    """Vectorized 'sp-joined string' -> list<int32>: ONE pandas split per
    table, flat int cast, offsets from per-row counts — no Python loop."""
    import pandas as pd

    s = t["tokens"].to_pandas().astype(str)
    words = s.str.split()
    lens = words.str.len().fillna(0).astype(np.int64).to_numpy()
    # explode -> one C-level numeric parse over the flat word column
    # (empty token lists explode to a single NaN row each — dropped)
    flat = (
        pd.to_numeric(words.explode(ignore_index=True), errors="coerce")
        .dropna()
        .to_numpy()
        .astype(np.int32)
    )
    assert len(flat) == int(lens.sum()), "CSV tokens column parse mismatch"
    offsets = np.zeros(len(lens) + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    tokens = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat))
    out = pa.table(
        {
            "doc_id": t["doc_id"].cast(pa.string()),
            "tokens": tokens,
            "n_tok": t["n_tok"].cast(pa.int32()),
            "source": t["source"].cast(pa.string()),
        }
    )
    return out


class Unit(NamedTuple):
    """One read unit: rows ``[start, stop)`` of parquet row group
    ``row_group`` of ``path``, or (``row_group`` None) a whole line-format
    file, whose row count is unknown until it is read (``stop`` None)."""

    path: str
    row_group: int | None = None
    start: int = 0
    stop: int | None = None


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown sequences format {fmt!r}; "
                         f"one of {sorted(FORMATS)}")


def plan_units(path: str, fmt: str, batch_size: int | None = None,
               n_split: int = 1) -> list[Unit]:
    """The read units of an input, planned on the driver without reading
    any data.  Parquet: one unit per non-empty row group, from the footers;
    with a ``batch_size``, a group of more than ``batch_size`` rows is cut
    into ``min(ceil(rows / batch_size), n_split)`` contiguous row ranges,
    so a one-group file still spreads over ``n_split`` tasks (pass the
    cluster's CPUs) and no group is decoded more than ``n_split`` times.
    jsonl / csv: one unit per file."""
    _check_format(fmt)
    if fmt != "parquet":
        if not os.path.isdir(path):
            return [Unit(path)]
        return [Unit(os.path.join(d, f)) for d, _, fs in sorted(os.walk(path))
                for f in sorted(fs) if not f.startswith((".", "_"))]
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    units = []
    for f in sorted(pads.dataset(path, format="parquet").files):
        md = pq.ParquetFile(f).metadata
        for g in range(md.num_row_groups):
            rows = md.row_group(g).num_rows
            k = 1 if batch_size is None else min(-(-rows // batch_size), n_split)
            cuts = [rows * i // k for i in range(k + 1)]
            units += [Unit(f, g, lo, hi) for lo, hi in zip(cuts, cuts[1:])
                      if hi > lo]
    return units


def read_unit(unit: Unit, fmt: str, columns: list[str] | None = None) -> pa.Table:
    """Read one unit as a canonical sequences table (only ``columns``, by
    default all four).  A parquet unit decodes its row group with the
    columns pruned and slices out its row range; a line-format unit parses
    its whole file."""
    _check_format(fmt)
    columns = columns or [n for n, _ in CANON_FIELDS]
    if fmt == "parquet":
        import pyarrow.parquet as pq

        t = pq.ParquetFile(unit.path).read_row_group(unit.row_group,
                                                     columns=columns)
        return t.slice(unit.start, unit.stop - unit.start)
    # one block per file: a JSON object may never straddle two blocks, and
    # a token list can make one line megabytes long
    block = max(1 << 20, min(os.path.getsize(unit.path) + 1, 1 << 30))
    if fmt == "jsonl":
        import pyarrow.json as pajson

        t = _canonize(pajson.read_json(
            unit.path, read_options=pajson.ReadOptions(block_size=block)))
    else:
        import pyarrow.csv as pacsv

        # ids and sources stay strings even when they look numeric
        t = _parse_csv_tokens(pacsv.read_csv(
            unit.path, read_options=pacsv.ReadOptions(block_size=block),
            convert_options=pacsv.ConvertOptions(column_types={
                "doc_id": pa.string(), "tokens": pa.string(),
                "source": pa.string()})))
    return t.select(columns)


def export_sequences(parquet_path: str, out_path: str, fmt: str) -> None:
    """Test helper: rewrite a (small) parquet sequences table as JSONL or
    CSV with the documented encodings. Driver-side by design — only tests
    use it, to build fixture inputs for the non-parquet readers."""
    import pyarrow.dataset as pads

    t = pads.dataset(parquet_path).to_table()
    import json
    import os

    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    if fmt == "jsonl":
        with open(out_path, "w") as fh:
            for row in t.to_pylist():
                fh.write(json.dumps(row) + "\n")
    elif fmt == "csv":
        import csv

        with open(out_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["doc_id", "tokens", "n_tok", "source"])
            for row in t.to_pylist():
                w.writerow(
                    [row["doc_id"], " ".join(map(str, row["tokens"])),
                     row["n_tok"], row["source"]]
                )
    else:
        raise ValueError(fmt)
