"""Incremental refresh (continuous-aggregate) semantics of the retention
store: appended/removed docs invalidate ONLY the buckets they hash into, the
refreshed store is byte-identical to a from-scratch build on the new input,
and an unchanged input refreshes nothing."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from wavelet_decomposition_ray import synth
from wavelet_decomposition_ray.functions.dedup import _stable_u64
from wavelet_decomposition_ray.pipelines import rollup_pipeline as rp
from wavelet_decomposition_ray.state import manifest as mf

SF = "/root/testdata/sf0.001"
NB = 16


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("refresh"))
    seq = synth.ensure_sequences(SF)
    tbl = pads.dataset(seq).to_table()
    ids = tbl["doc_id"].to_pylist()
    appended = sorted(i for i in ids if _stable_u64(f"t:{i}") % 20 == 0)
    assert appended and len(appended) < len(ids) // 4
    keep = pa.array([i not in set(appended) for i in ids], type=pa.bool_())
    sub = os.path.join(base, "subset")
    os.makedirs(sub)
    pq.write_table(tbl.filter(keep), os.path.join(sub, "part-0.parquet"))
    full = os.path.join(base, "full")
    os.makedirs(full)
    pq.write_table(tbl, os.path.join(full, "part-0.parquet"))
    return base, sub, full, appended


def _run(inp, out, **kw):
    return rp.run_rollup_job(
        inp, out, bank="haar", n_tiers=6, n_buckets=NB, verify=False,
        batch_size=128, **kw
    )


def _checksums(out):
    return {r["bucket"]: r["checksum"] for r in mf.read_manifest(out)}


def _stats(out):
    return (
        pq.read_table(os.path.join(out, "source_stats.parquet"))
        .to_pandas()
        .sort_values(["source", "tier"])
        .reset_index(drop=True)
    )


def test_refresh_append_rewrites_only_stale_buckets(corpus):
    base, sub, full, appended = corpus
    incr = os.path.join(base, "incr")
    scratch = os.path.join(base, "scratch")
    _run(sub, incr)
    expected_stale = set(mf.bucket_of_ids(appended, NB).tolist())
    assert 0 < len(expected_stale) < NB  # some buckets must stay untouched

    r = _run(full, incr, refresh=True)
    assert r["buckets_refreshed"] == len(expected_stale)
    assert r["buckets_written"] == len(expected_stale)

    _run(full, scratch)
    assert _checksums(incr) == _checksums(scratch)
    pd.testing.assert_frame_equal(_stats(incr), _stats(scratch))


def test_refresh_noop_on_unchanged_input(corpus):
    base, _, full, _ = corpus
    incr = os.path.join(base, "incr")  # refreshed to `full` by the test above
    r = _run(full, incr, refresh=True)
    assert r["buckets_refreshed"] == 0
    assert r["buckets_written"] == 0


def test_refresh_handles_removals(corpus):
    base, sub, full, appended = corpus
    store = os.path.join(base, "shrink")
    _run(full, store)
    expected_stale = set(mf.bucket_of_ids(appended, NB).tolist())

    r = _run(sub, store, refresh=True)
    assert r["buckets_refreshed"] == len(expected_stale)

    scratch_sub = os.path.join(base, "scratch_sub")
    _run(sub, scratch_sub)
    assert _checksums(store) == _checksums(scratch_sub)
    pd.testing.assert_frame_equal(_stats(store), _stats(scratch_sub))


def test_refresh_bucket_emptied_by_removal(corpus):
    """Removing every doc of one bucket leaves the refresh job nothing to
    encode (no metadata row survives the resume filter): the bucket must
    be recorded empty and the store must equal a from-scratch build."""
    base, _, full, _ = corpus
    tbl = pads.dataset(full).to_table()
    ids = tbl["doc_id"].to_pylist()
    buckets = mf.bucket_of_ids(ids, NB)
    victim = int(buckets[0])
    emptied = os.path.join(base, "emptied")
    os.makedirs(emptied)
    pq.write_table(tbl.filter(pa.array(buckets != victim)),
                   os.path.join(emptied, "part-0.parquet"))

    store = os.path.join(base, "emptied_store")
    _run(full, store)
    r = _run(emptied, store, refresh=True)
    assert r["buckets_refreshed"] == 1
    row = next(x for x in mf.read_manifest(store) if x["bucket"] == victim)
    assert row["file"] is None and row["n_docs"] == 0

    scratch = os.path.join(base, "emptied_scratch")
    _run(emptied, scratch)
    assert _checksums(store) == _checksums(scratch)
    pd.testing.assert_frame_equal(_stats(store), _stats(scratch))


def test_input_bucket_summary_matches_reference(ray_session, tmp_path):
    """The driver-side fold of the fingerprint pre-pass equals a pure-Python
    per-bucket (doc count, XOR of stable doc-id hashes) over a multi-file
    input with several batches per bucket and one unoccupied bucket; an
    input with zero rows summarizes to an empty frame."""
    nb = 16
    ids = [f"doc-{i:04d}" for i in range(600)]
    ids = [d for d in ids if int(mf.bucket_of_ids([d], nb)[0]) != 7]
    inp = tmp_path / "multi"
    inp.mkdir()
    for k in range(4):
        part = ids[k::4]
        pq.write_table(pa.table({"doc_id": part}), inp / f"part-{k}.parquet",
                       row_group_size=25)

    want = {}
    for d in ids:
        b = int(mf.bucket_of_ids([d], nb)[0])
        n, x = want.get(b, (0, 0))
        want[b] = (n + 1, x ^ _stable_u64(d))
    assert 7 not in want and len(want) == nb - 1

    got = mf.input_bucket_summary(str(inp), nb)
    assert list(got["bucket"]) == sorted(want)
    assert {
        int(b): (int(n), int(x) & (2**64 - 1))
        for b, n, x in zip(got["bucket"], got["n_docs"], got["doc_xor"])
    } == want

    empty = tmp_path / "empty"
    empty.mkdir()
    pq.write_table(pa.table({"doc_id": pa.array([], type=pa.string())}),
                   empty / "part-0.parquet")
    assert len(mf.input_bucket_summary(str(empty), nb)) == 0


def test_legacy_manifest_rows_count_as_stale(corpus):
    base, sub, _, _ = corpus
    store = os.path.join(base, "legacy")
    _run(sub, store)
    # strip the fingerprint from one bucket's manifest row (pre-fingerprint
    # store): refresh must treat it as stale and rewrite it
    import json

    mdir = mf.manifest_dir(store)
    target = sorted(
        f for f in os.listdir(mdir)
        if f.startswith("bucket-") and f.endswith(".json")
    )[0]
    path = os.path.join(mdir, target)
    row = json.load(open(path))
    row.pop("doc_xor")
    with open(path, "w") as fh:
        json.dump(row, fh, sort_keys=True)

    before = _checksums(store)
    r = _run(sub, store, refresh=True)
    assert r["buckets_refreshed"] == 1
    assert _checksums(store) == before  # deterministic rewrite


def _to_old_layout(store):
    """Rewrite a store into the layout that kept each bucket's partials in
    a ``partials-*.parquet`` sidecar instead of its manifest row."""
    import json

    mdir = mf.manifest_dir(store)
    for row in mf.read_manifest(store):
        if row["file"] is None:
            continue
        b = row["bucket"]
        p = row.pop("partials")
        cols = {"bucket": pa.array([b] * len(p["source"]), type=pa.int64())}
        for f in mf.PARTIALS_SCHEMA:
            cols[f.name] = pa.array(p[f.name], type=f.type)
        pq.write_table(pa.table(cols),
                       os.path.join(mdir, f"partials-{b:05d}.parquet"))
        with open(os.path.join(mdir, f"bucket-{b:05d}.json"), "w") as fh:
            json.dump(row, fh, sort_keys=True)


def _data_bytes(store):
    d = os.path.join(store, "data")
    return {f: open(os.path.join(d, f), "rb").read() for f in sorted(os.listdir(d))}


def _rows(store):
    return [{k: v for k, v in r.items() if k != "elapsed_s"}
            for r in mf.read_manifest(store)]


def test_old_layout_store_resumes_and_refreshes(corpus):
    """A store whose rows carry no partials (they sat in sidecar files) is
    pending for resume and stale for refresh: either rewrites its buckets
    byte-identically, moves the partials into the rows, deletes every
    sidecar and folds the same source_stats."""
    base, sub, full, _ = corpus
    store = os.path.join(base, "old_layout")
    _run(sub, store)
    data, rows, stats = _data_bytes(store), _rows(store), _stats(store)
    n_full = sum(r["file"] is not None for r in rows)

    _to_old_layout(store)
    assert mf.completed_buckets(store) == frozenset(
        r["bucket"] for r in rows if r["file"] is None)
    r = _run(sub, store)
    assert r["buckets_written"] == n_full
    assert _data_bytes(store) == data and _rows(store) == rows
    assert not [f for f in os.listdir(mf.manifest_dir(store))
                if f.startswith("partials-")]
    pd.testing.assert_frame_equal(_stats(store), stats)

    scratch = os.path.join(base, "old_layout_scratch")
    _run(full, scratch)
    _to_old_layout(store)
    r = _run(full, store, refresh=True)
    assert r["buckets_refreshed"] == n_full
    assert _data_bytes(store) == _data_bytes(scratch)
    assert _rows(store) == _rows(scratch)
    assert not [f for f in os.listdir(mf.manifest_dir(store))
                if f.startswith("partials-")]
    pd.testing.assert_frame_equal(_stats(store), _stats(scratch))

    # an older-layout store is complete, so it compacts: to its own bucket
    # count, the same data files and source_stats
    from wavelet_decomposition_ray.state.compact import compact_store

    _to_old_layout(scratch)
    dst = os.path.join(base, "old_layout_compacted")
    assert compact_store(scratch, dst, NB)["buckets_written"] == NB
    assert _data_bytes(dst) == _data_bytes(scratch)
    pd.testing.assert_frame_equal(_stats(dst), _stats(scratch))


def test_doc_fingerprint_matches_per_id_fold():
    """The vectorized fingerprint equals the per-id ``_stable_u64`` XOR
    fold bit for bit, so rows written before it still match; non-ASCII
    ids hash their utf-8 bytes."""
    import numpy as np

    ids = ["doc-0001", "", "ß", "日本語-doc", "emoji-\U0001F600", "e\u0301",
           "naïve", "x" * 300]
    want = 0
    for d in ids:
        want ^= _stable_u64(d)
    n, xor = mf.doc_fingerprint(ids)
    assert n == len(ids) and xor & (2**64 - 1) == want
    assert xor == int(np.array([want], dtype=np.uint64).view(np.int64)[0])
    assert mf.id_hashes(ids).view(np.uint64).tolist() == [
        _stable_u64(d) for d in ids]
    assert mf.doc_fingerprint([]) == (0, 0)


def test_refresh_commits_in_at_most_cpus_tasks(corpus):
    """A 64-bucket refresh commits its stale buckets in at most CPUs
    finalize tasks; metrics.json reports tasks and buckets apart and the
    summed commit seconds of the committed rows."""
    import json

    import ray

    base, sub, full, appended = corpus
    store = os.path.join(base, "fanout64")
    kw = dict(bank="haar", n_tiers=6, n_buckets=64, verify=False,
              batch_size=128)
    rp.run_rollup_job(sub, store, **kw)
    stale = set(mf.bucket_of_ids(appended, 64).tolist())
    assert len(stale) > int(ray.cluster_resources()["CPU"])

    r = rp.run_rollup_job(full, store, refresh=True, **kw)
    assert r["buckets_refreshed"] == r["buckets_written"] == len(stale)
    fin = json.load(open(os.path.join(store, "metrics.json")))["per_stage"][-1]
    assert fin["operator"] == "finalize"
    assert fin["tasks"] == int(ray.cluster_resources()["CPU"])
    assert fin["buckets"] == len(stale)
    after = mf.read_manifest(store)
    assert fin["task_wall_total_s"] == pytest.approx(
        sum(x["elapsed_s"] for x in after if x["bucket"] in stale), abs=1e-3)


def test_validate_store_detects_corruption(ray_session, tmp_path):
    """The store fsck passes on a fresh store, then catches every
    corruption class: flipped bytes (checksum), partials in a manifest row
    that differ from the data file or are missing, and a missing data
    file."""
    import json
    import os
    import shutil

    from wavelet_decomposition_ray.pipelines import rollup_pipeline as rp
    from wavelet_decomposition_ray.state import manifest as mf
    from wavelet_decomposition_ray.state.validate import validate_store
    from wavelet_decomposition_ray import synth

    seq = synth.ensure_sequences("/root/testdata/sf0.001")
    out = str(tmp_path / "store")
    rp.run_rollup_job(seq, out, bank="haar", n_tiers=6, n_buckets=4,
                      batch_size=64, verify=False)

    ok = validate_store(out)
    assert ok["ok"], ok["errors"]
    assert ok["buckets"] == 4

    rows = [r for r in mf.read_manifest(out) if r.get("file")]
    victim = os.path.join(out, rows[0]["file"])

    # 1) bit-rot: flip one byte mid-file
    orig = open(victim, "rb").read()
    bad = bytearray(orig)
    bad[len(bad) // 2] ^= 0xFF
    open(victim, "wb").write(bytes(bad))
    res = validate_store(out)
    assert not res["ok"] and any("checksum" in e for e in res["errors"])
    open(victim, "wb").write(orig)

    # 2) partials in the manifest row: tampered, then missing
    mpath = os.path.join(mf.manifest_dir(out),
                         f"bucket-{rows[0]['bucket']:05d}.json")
    row_bytes = open(mpath, "rb").read()
    tampered = json.loads(row_bytes)
    tampered["partials"]["n_windows"][0] += 1
    for bad_row in (tampered, {k: v for k, v in tampered.items()
                               if k != "partials"}):
        with open(mpath, "w") as fh:
            json.dump(bad_row, fh, sort_keys=True)
        res = validate_store(out)
        assert not res["ok"] and any("partials" in e for e in res["errors"])
    open(mpath, "wb").write(row_bytes)

    # 3) missing data file
    shutil.move(victim, victim + ".bak")
    res = validate_store(out)
    assert not res["ok"] and any("missing" in e for e in res["errors"])
    shutil.move(victim + ".bak", victim)

    assert validate_store(out)["ok"]


def test_validate_store_reports_incomplete_store(small_store, tmp_path):
    """fsck checks the store as a whole, not only the rows it finds: with
    bucket 2's manifest row removed (lineage ``n_buckets`` 4) and a
    ``bucket=00003.parquet.tmp`` copy of bucket 1 left under ``data/``,
    it reports ``ok: False`` with the missing bucket and both files no row
    names."""
    import shutil

    from wavelet_decomposition_ray.state.validate import validate_store

    clean, _ = small_store
    out = str(tmp_path / "store")
    shutil.copytree(clean, out)
    rows = {r["bucket"]: r for r in mf.read_manifest(out)}
    os.remove(os.path.join(mf.manifest_dir(out), "bucket-00002.json"))
    shutil.copy(os.path.join(out, rows[1]["file"]),
                os.path.join(out, "data", "bucket=00003.parquet.tmp"))

    res = validate_store(out)
    assert not res["ok"]
    assert res["buckets"] == 3
    errs = res["errors"]
    assert any("incomplete" in e and "range(4) at [2]" in e for e in errs), errs
    unnamed = sorted(e.split(":")[0] for e in errs if "named by no" in e)
    assert unnamed == [rows[2]["file"], "data/bucket=00003.parquet.tmp"], errs
    assert len(errs) == 3, errs


def test_read_store_api(ray_session, tmp_path):
    """sources.store.read_store: decoded rows carry every tier and the
    rollup lists, and tier/source predicates prune correctly."""
    from wavelet_decomposition_ray import synth
    from wavelet_decomposition_ray.pipelines import rollup_pipeline as rp
    from wavelet_decomposition_ray.sources.store import read_store

    seq = synth.ensure_sequences("/root/testdata/sf0.001")
    out = str(tmp_path / "store")
    rp.run_rollup_job(seq, out, bank="haar", n_tiers=6, n_buckets=4,
                      batch_size=64, verify=False)

    full = read_store(out).to_pandas()
    assert set(full["tier"].unique()) == set(range(1, 7))
    assert {"mins", "maxs", "sums", "counts"} <= set(full.columns)

    t3 = read_store(out, tiers=[3]).to_pandas()
    assert (t3["tier"] == 3).all()
    assert len(t3) == (full["tier"] == 3).sum()

    src = sorted(full["source"].unique())[0]
    sub = read_store(out, tiers=[2, 3], sources=[src]).to_pandas()
    assert set(sub["tier"].unique()) <= {2, 3}
    assert (sub["source"] == src).all()


@pytest.fixture(scope="module")
def small_store(ray_session, tmp_path_factory):
    """A 4-bucket store and its decoded rows, read while it is clean."""
    from wavelet_decomposition_ray.sources.store import read_store

    out = _build(synth.ensure_sequences(SF),
                 str(tmp_path_factory.mktemp("reader") / "store"), 4)
    return out, read_store(out).to_pandas()


@pytest.mark.parametrize("state", ["row_removed", "tmp_leftover", "file_missing"])
def test_read_store_reads_only_committed_files(small_store, tmp_path, state):
    """read_store reads exactly the files the manifest commits, in each
    state a crash or a refresh can leave under ``data/``:

    * ``row_removed``: bucket 2's row is gone and its data file is not —
      the state between the two removals of ``invalidate_buckets``, and
      after a crash between the data rename and the row write of
      ``write_bucket_table``;
    * ``tmp_leftover``: a ``data/bucket=00003.parquet.tmp`` copy of bucket
      1, what a crash before ``os.replace`` leaves;
    * ``file_missing``: bucket 2's row names a file that is gone, which
      raises ``FileNotFoundError`` naming the bucket.

    In the first two, the rows read are exactly the committed rows: their
    count is the sum of the committed ``n_rows`` and their doc ids are the
    clean store's ids of the committed buckets."""
    import shutil

    from wavelet_decomposition_ray.sources.store import read_store

    clean, full = small_store
    out = str(tmp_path / "store")
    shutil.copytree(clean, out)
    rows = {r["bucket"]: r for r in mf.read_manifest(out)}
    assert rows[1]["file"] and rows[2]["file"]
    if state == "row_removed":
        os.remove(os.path.join(mf.manifest_dir(out), "bucket-00002.json"))
        del rows[2]
    elif state == "tmp_leftover":
        shutil.copy(os.path.join(out, rows[1]["file"]),
                    os.path.join(out, "data", "bucket=00003.parquet.tmp"))
    else:
        os.remove(os.path.join(out, rows[2]["file"]))
        with pytest.raises(FileNotFoundError, match="bucket 2 "):
            read_store(out)
        return

    got = read_store(out).to_pandas()
    assert len(got) == sum(r["n_rows"] for r in rows.values())
    ids = full["doc_id"].drop_duplicates()
    committed = ids[pd.Series(mf.bucket_of_ids(ids.tolist(), 4), index=ids.index)
                    .isin(list(rows))]
    assert set(got["doc_id"]) == set(committed)


def test_only_the_store_reader_opens_data_dir():
    """No module of the package, nothing in ``jobs/`` and not ``bench.py``
    opens a store's ``data/`` directory: none of them spells a path under
    ``data/`` (a ``"data"`` path segment or a ``"data/..."`` string), save
    ``state/manifest.py``, which names each bucket's file as it writes it.
    So every reader reads the store through ``sources/store.read_store``,
    which takes its file list from the manifest rows.  ``perfbench/`` is
    left out: it is the benchmark's own harness, and its traced run reads
    ``data/`` on purpose, as the reference ``read_store`` is checked
    against."""
    import ast

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pkg = os.path.join(root, "wavelet_decomposition_ray")
    paths = [os.path.join(root, "bench.py")]
    paths += [os.path.join(root, "jobs", f)
              for f in sorted(os.listdir(os.path.join(root, "jobs")))]
    paths += [os.path.join(d, f) for d, _, fs in os.walk(pkg) for f in fs]
    writer = os.path.join(pkg, "state", "manifest.py")
    spelled = []
    for path in paths:
        if not path.endswith(".py") or path == writer:
            continue
        with open(path) as f:
            tree = ast.parse(f.read())
        spelled += [f"{os.path.relpath(path, root)}:{n.lineno}"
                    for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and (n.value == "data" or n.value.startswith("data/"))]
    assert not spelled, spelled


def test_compact_store_byte_identical_to_fresh_build(ray_session, tmp_path):
    """Compacting a 16-bucket store to 4 buckets must produce byte-for-
    byte the files a from-scratch 4-bucket build writes, pass fsck, and
    answer source_stats identically; a rerun skips everything."""
    import hashlib
    import os

    from wavelet_decomposition_ray import synth
    from wavelet_decomposition_ray.pipelines import rollup_pipeline as rp
    from wavelet_decomposition_ray.state.compact import compact_store
    from wavelet_decomposition_ray.state.validate import validate_store

    seq = synth.ensure_sequences("/root/testdata/sf0.001")
    many = str(tmp_path / "many")
    rp.run_rollup_job(seq, many, bank="haar", n_tiers=6, n_buckets=16,
                      batch_size=64, verify=False)
    fresh = str(tmp_path / "fresh4")
    rp.run_rollup_job(seq, fresh, bank="haar", n_tiers=6, n_buckets=4,
                      batch_size=64, verify=False)

    dst = str(tmp_path / "compacted")
    s1 = compact_store(many, dst, n_buckets=4)
    assert s1["buckets_written"] == 4

    def hashes(root):
        out = {}
        d = os.path.join(root, "data")
        for f in sorted(os.listdir(d)):
            with open(os.path.join(d, f), "rb") as fh:
                out[f] = hashlib.md5(fh.read()).hexdigest()
        return out

    assert hashes(dst) == hashes(fresh)
    assert validate_store(dst)["ok"]

    s2 = compact_store(many, dst, n_buckets=4)
    assert s2 == {"buckets_written": 0, "buckets_skipped": 4}


def test_compact_store_marks_empty_buckets_and_writes_source_stats(
    ray_session, tmp_path
):
    """ADVICE r3: compaction into a bucket count where some destination
    buckets own no doc_ids must (a) mark those buckets explicitly empty so
    the manifest matches a from-scratch build and resume short-circuits,
    (b) fold the partials into source_stats.parquet, and (c) a rerun over
    the complete store must skip cleanly (no empty-dataset shuffle crash)."""
    import os

    import pandas as pd

    from wavelet_decomposition_ray import synth
    from wavelet_decomposition_ray.pipelines import rollup_pipeline as rp
    from wavelet_decomposition_ray.state import manifest as mf
    from wavelet_decomposition_ray.state.compact import compact_store

    seq = synth.ensure_sequences("/root/testdata/sf0.001")
    src = str(tmp_path / "src")
    rp.run_rollup_job(seq, src, bank="haar", n_tiers=4, n_buckets=4,
                      batch_size=64, verify=False)

    # 64 destination buckets over a tiny corpus -> some buckets are empty
    dst = str(tmp_path / "wide")
    compact_store(src, dst, n_buckets=64)
    assert mf.completed_buckets(dst) == frozenset(range(64))

    fresh = str(tmp_path / "fresh64")
    rp.run_rollup_job(seq, fresh, bank="haar", n_tiers=4, n_buckets=64,
                      batch_size=64, verify=False)
    a = pd.read_parquet(os.path.join(dst, "source_stats.parquet"))
    b = pd.read_parquet(os.path.join(fresh, "source_stats.parquet"))
    pd.testing.assert_frame_equal(a, b)

    # rerun over the complete store: pure skip, and source_stats survives
    s = compact_store(src, dst, n_buckets=64)
    assert s["buckets_written"] == 0 and s["buckets_skipped"] == 64
    assert os.path.isfile(os.path.join(dst, "source_stats.parquet"))


def _data_hashes(root):
    import hashlib

    d = os.path.join(root, "data")
    return {f: hashlib.md5(open(os.path.join(d, f), "rb").read()).hexdigest()
            for f in sorted(os.listdir(d))}


def _build(seq, out, n_buckets, n_tiers=6):
    rp.run_rollup_job(seq, out, bank="haar", n_tiers=n_tiers,
                      n_buckets=n_buckets, batch_size=64, verify=False)
    return out


def test_compact_store_refuses_incomplete_source(ray_session, tmp_path):
    """A source missing a committed bucket (its manifest row, or the row
    and its data file) is refused instead of compacted without that
    bucket's docs, with or without lineage.json.  A compacted store records
    its own lineage: it compacts again to the original's bytes, and losing
    its LAST bucket's row (invisible without lineage) is refused too."""
    import json
    import shutil

    from wavelet_decomposition_ray.state.compact import compact_store

    seq = synth.ensure_sequences(SF)
    src = _build(seq, str(tmp_path / "src"), NB)
    row = mf.read_manifest(src)[5]
    assert row["bucket"] == 5 and row["file"]
    for drop_file in (False, True):
        bad = str(tmp_path / f"bad{int(drop_file)}")
        shutil.copytree(src, bad)
        os.remove(os.path.join(mf.manifest_dir(bad), "bucket-00005.json"))
        if drop_file:
            os.remove(os.path.join(bad, row["file"]))
        with pytest.raises(ValueError, match=r"incomplete.*\[5\]"):
            compact_store(bad, str(tmp_path / f"dst{int(drop_file)}"), 4)
        os.remove(os.path.join(bad, "lineage.json"))
        with pytest.raises(ValueError, match="incomplete"):
            compact_store(bad, str(tmp_path / f"dst{int(drop_file)}"), 4)

    four = str(tmp_path / "four")
    compact_store(src, four, 4)
    with open(os.path.join(four, "lineage.json")) as fh:
        assert json.load(fh)["config"]["n_buckets"] == 4
    back = str(tmp_path / "back")
    assert compact_store(four, back, NB)["buckets_written"] == NB
    assert _data_hashes(back) == _data_hashes(src)
    os.remove(os.path.join(mf.manifest_dir(four), "bucket-00003.json"))
    with pytest.raises(ValueError, match=r"incomplete.*\[3\]"):
        compact_store(four, str(tmp_path / "again"), NB)


def test_compact_store_resumes_after_crash_between_renames(ray_session, tmp_path):
    """A compaction killed between write_bucket_table's two renames (data
    file in place, manifest row not) and one killed before both: the rerun
    commits exactly those buckets, byte-identical to a from-scratch build,
    and the store passes fsck."""
    from wavelet_decomposition_ray.state.compact import compact_store
    from wavelet_decomposition_ray.state.validate import validate_store

    seq = synth.ensure_sequences(SF)
    src = _build(seq, str(tmp_path / "src"), NB)
    fresh = _build(seq, str(tmp_path / "fresh"), 4)
    dst = str(tmp_path / "dst")
    compact_store(src, dst, 4)
    rows = {r["bucket"]: r for r in mf.read_manifest(dst)}
    for b in (1, 2):
        os.remove(os.path.join(mf.manifest_dir(dst), f"bucket-{b:05d}.json"))
    os.remove(os.path.join(dst, rows[2]["file"]))
    assert mf.completed_buckets(dst) == frozenset({0, 3})

    s = compact_store(src, dst, 4)
    assert s == {"buckets_written": 2, "buckets_skipped": 2}
    assert _data_hashes(dst) == _data_hashes(fresh)
    res = validate_store(dst)
    assert res["ok"], res["errors"]
    pd.testing.assert_frame_equal(
        pd.read_parquet(os.path.join(dst, "source_stats.parquet")),
        pd.read_parquet(os.path.join(fresh, "source_stats.parquet")))


def test_compact_store_refuses_a_store_whose_writer_died(
        ray_session, tmp_path, monkeypatch):
    """A job, or a compaction, that dies mid-commit leaves only a prefix of
    its buckets committed.  Both write ``lineage.json`` before committing,
    so a later compaction knows the bucket count and refuses the store
    instead of taking the prefix for a complete smaller store."""
    from wavelet_decomposition_ray.state.compact import compact_store

    real = mf.stage_and_commit

    def dies_after_four(out_dir, n_buckets, *a, **kw):
        real(out_dir, n_buckets, *a, **kw)
        for r in mf.read_manifest(out_dir):
            if r["bucket"] >= 4:
                if r["file"]:
                    os.remove(os.path.join(out_dir, r["file"]))
                os.remove(os.path.join(mf.manifest_dir(out_dir),
                                       f"bucket-{r['bucket']:05d}.json"))
        raise RuntimeError("writer died")

    seq = synth.ensure_sequences(SF)
    src = _build(seq, str(tmp_path / "src"), NB)
    monkeypatch.setattr(mf, "stage_and_commit", dies_after_four)
    died = {"job": str(tmp_path / "job"), "compact": str(tmp_path / "compact")}
    with pytest.raises(RuntimeError, match="writer died"):
        _build(seq, died["job"], NB)
    with pytest.raises(RuntimeError, match="writer died"):
        compact_store(src, died["compact"], 8)
    monkeypatch.setattr(mf, "stage_and_commit", real)
    for name, store in died.items():
        assert mf.completed_buckets(store) == frozenset(range(4)), name
        with pytest.raises(ValueError, match=r"incomplete.*\[4, 5, "):
            compact_store(store, str(tmp_path / f"{name}-dst"), 2)
