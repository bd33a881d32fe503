"""Multi-format ingest: every reader yields the canonical sequences schema
and the flagship job produces BYTE-IDENTICAL store output from each format
(reference ingests spreadsheets, ``import_excel.py``; here the distributed
analogs are parquet / JSONL / CSV)."""

import glob
import hashlib
import os

import pyarrow as pa
import pytest

from wavelet_decomposition_ray import synth
from wavelet_decomposition_ray.pipelines import rollup_pipeline as rp
from wavelet_decomposition_ray.sources import ingest


@pytest.fixture(scope="module")
def seq_dir(ray_session):
    return synth.ensure_sequences("/root/testdata/sf0.001")


@pytest.fixture(scope="module")
def fixtures(seq_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest")
    paths = {"parquet": seq_dir}
    for fmt in ("jsonl", "csv"):
        p = str(root / f"seq.{fmt}")
        ingest.export_sequences(seq_dir, p, fmt)
        paths[fmt] = p
    return paths


def _canon_table(path, fmt) -> pa.Table:
    """Every read unit of the input, read as the job's tasks read it."""
    t = pa.concat_tables(ingest.read_unit(u, fmt)
                         for u in ingest.plan_units(path, fmt))
    return t.sort_by("doc_id").combine_chunks()


def test_readers_schema_and_values_identical(fixtures):
    base = None
    for fmt, path in fixtures.items():
        t = _canon_table(path, fmt)
        assert [f.name for f in t.schema] == [n for n, _ in ingest.CANON_FIELDS]
        for name, typ in ingest.CANON_FIELDS:
            assert t.schema.field(name).type == typ, (fmt, name)
        if base is None:
            base = t
        else:
            assert t.equals(base), f"{fmt} table differs from parquet"


def test_unknown_format_raises():
    with pytest.raises(ValueError, match="unknown sequences format"):
        ingest.plan_units("/tmp/x", "xml")
    with pytest.raises(ValueError, match="unknown sequences format"):
        ingest.read_unit(ingest.Unit("/tmp/x"), "xml")


def _store_hashes(out_dir):
    return {
        os.path.relpath(p, out_dir): hashlib.md5(open(p, "rb").read()).hexdigest()
        for p in sorted(glob.glob(os.path.join(out_dir, "data", "*.parquet")))
    }


def test_job_bytes_identical_across_formats(fixtures, tmp_path):
    hashes = {}
    for fmt, path in fixtures.items():
        out = str(tmp_path / fmt)
        rp.run_rollup_job(path, out, bank="haar", n_tiers=6, n_buckets=4,
                          batch_size=64, input_format=fmt)
        hashes[fmt] = _store_hashes(out)
        assert len(hashes[fmt]) == 4
    assert hashes["jsonl"] == hashes["parquet"]
    assert hashes["csv"] == hashes["parquet"]


def test_refresh_requires_parquet(fixtures, tmp_path):
    with pytest.raises(ValueError, match="refresh"):
        rp.run_rollup_job(fixtures["jsonl"], str(tmp_path / "o"),
                          refresh=True, input_format="jsonl")
