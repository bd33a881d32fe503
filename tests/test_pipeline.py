"""End-to-end flagship pipeline under Ray: engine output vs oracle,
kill-and-rerun resume with byte-identical results (FIXTURES.md F4),
per-source aggregates vs a pandas recomputation."""

import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from wavelet_decomposition_ray import oracle as oc, synth
from wavelet_decomposition_ray.functions.listops import list_to_numpy
from wavelet_decomposition_ray.pipelines import rollup_pipeline as rp
from wavelet_decomposition_ray.state import manifest as mf


@pytest.fixture(scope="module")
def seq_dir(ray_session):
    return synth.ensure_sequences("/root/testdata/sf0.001")


def _encode_row(out_dir, verify):
    """The ``encode`` row of the per-layer ledger in ``metrics.json``,
    after checking the ledger's rows: one per layer of the encode tasks, in
    chain order with a ``check`` row exactly when ``verify`` and the staged
    write last, then ``finalize``."""
    with open(os.path.join(out_dir, "metrics.json")) as fh:
        per_stage = json.load(fh)["per_stage"]
    layers = (["read", "bucket", "gapfill"] + ["check"] * verify
              + ["encode", "stage"])
    assert [s["operator"] for s in per_stage] == layers + ["finalize"]
    return per_stage[layers.index("encode")]


def _file_hashes(out_dir):
    return {
        os.path.relpath(p, out_dir): hashlib.md5(open(p, "rb").read()).hexdigest()
        for p in sorted(glob.glob(os.path.join(out_dir, "data", "*.parquet")))
    }


def test_full_job_and_resume(seq_dir, tmp_path):
    out = str(tmp_path / "run1")
    summary = rp.run_rollup_job(seq_dir, out, bank="haar", n_tiers=8, n_buckets=8,
                                batch_size=64)
    assert summary["buckets_written"] == 8
    assert summary["n_windows"] > 0
    assert os.path.isfile(os.path.join(out, "metrics.json"))
    assert os.path.isfile(os.path.join(out, "source_stats.parquet"))
    hashes1 = _file_hashes(out)
    assert len(hashes1) == 8
    stats1 = pq.read_table(os.path.join(out, "source_stats.parquet")).to_pandas()

    # oracle check: decode a bucket and compare a doc's tier against oracle
    tbl = pq.read_table(os.path.join(out, "data", "bucket=00000.parquet"))
    seq = pq.read_table(seq_dir)
    id_to_row = {d: i for i, d in enumerate(seq["doc_id"].to_pylist())}
    svals, soff = list_to_numpy(seq["tokens"])
    checked = 0
    for j in range(0, tbl.num_rows, 29):
        doc = tbl["doc_id"][j].as_py()
        tier = int(tbl["tier"][j].as_py())
        blob = tbl["blob"][j].as_py()
        dec = oc.decode_rollup_block(blob)
        i = id_to_row[doc]
        toks = svals[soff[i] : soff[i + 1]]
        want = oc.rollup_tier(toks, 1 << tier)
        for k in ("wmin", "wmax", "wsum", "wcount"):
            np.testing.assert_array_equal(dec[k], want[k], err_msg=f"{doc} t{tier} {k}")
        checked += 1
    assert checked > 3

    # resume: delete buckets {2,5} outputs + manifests, rerun, byte-identical
    for b in (2, 5):
        os.remove(os.path.join(out, "data", f"bucket={b:05d}.parquet"))
        os.remove(os.path.join(out, "manifest", f"bucket-{b:05d}.json"))
    assert mf.completed_buckets(out) == frozenset({0, 1, 3, 4, 6, 7})
    summary2 = rp.run_rollup_job(seq_dir, out, bank="haar", n_tiers=8, n_buckets=8,
                                 batch_size=64)
    assert summary2["buckets_skipped"] == 6
    assert summary2["buckets_written"] == 2
    hashes2 = _file_hashes(out)
    assert hashes1 == hashes2, "resume output is not byte-identical"

    # per-(source, tier) sink must fold across ALL buckets after a resume,
    # not just the two re-run ones (round-2 fix of the ADVICE medium finding)
    import pandas as pd

    stats2 = pq.read_table(os.path.join(out, "source_stats.parquet")).to_pandas()
    pd.testing.assert_frame_equal(
        stats1.reset_index(drop=True), stats2.reset_index(drop=True)
    )
    assert stats2["n_windows"].sum() == summary["n_windows"]

    # manifest checksums match the files on disk
    for row in mf.read_manifest(out):
        with open(os.path.join(out, row["file"]), "rb") as fh:
            assert hashlib.md5(fh.read()).hexdigest() == row["checksum"]


def test_full_job_survives_actor_death(seq_dir, tmp_path):
    """Mid-job encoder-actor loss (simulated node failure: the first
    RollupEncode task to claim the flag file hard-kills its worker) must be
    retried transparently — the job completes and every output byte equals
    a clean run's (the stage is a pure per-row function, so the retry is
    deterministic)."""
    clean = str(tmp_path / "clean")
    rp.run_rollup_job(seq_dir, clean, bank="haar", n_tiers=8, n_buckets=8,
                      batch_size=64, verify=False)

    flag = str(tmp_path / "kill-one-encoder")
    open(flag, "w").close()
    out = str(tmp_path / "faulted")
    summary = rp.run_rollup_job(
        seq_dir, out, bank="haar", n_tiers=8, n_buckets=8, batch_size=64,
        verify=False, fault_flag=flag,
    )
    assert not os.path.exists(flag), "fault was never injected"
    assert os.path.exists(flag + ".claimed"), "fault was never injected"
    assert summary["buckets_written"] == 8
    assert _file_hashes(out) == _file_hashes(clean)
    # sf0.001 is one 205-row group: at batch_size=64 it splits into
    # min(ceil(205 / 64), 4 CPUs) = 4 row ranges, one encode task each
    assert _encode_row(out, verify=False)["tasks"] == 4

    # the store's bytes do not depend on the round-trip check
    verified = str(tmp_path / "verified")
    rp.run_rollup_job(seq_dir, verified, bank="haar", n_tiers=8, n_buckets=8,
                      batch_size=64, verify=True)
    assert _file_hashes(verified) == _file_hashes(clean)


def test_source_tier_aggregate_matches_pandas(seq_dir, ray_session):
    ds = rp.sequences_dataset(seq_dir)
    rolled = rp.rollup_dataset(ds, bank="haar", n_tiers=4, verify=False, batch_size=64)
    agg = rp.source_tier_aggregate(rolled).to_pandas()

    # pandas/numpy recomputation from raw
    seq = pq.read_table(seq_dir)
    svals, soff = list_to_numpy(seq["tokens"])
    rows = []
    for i, (d, s) in enumerate(zip(seq["doc_id"].to_pylist(), seq["source"].to_pylist())):
        toks = svals[soff[i] : soff[i + 1]]
        for t in range(1, 5):
            r = oc.rollup_tier(toks, 1 << t)
            rows.append((s, t, r["wmin"].min(), r["wmax"].max(), r["wsum"].sum(),
                         r["wcount"].sum(), len(r["wmin"])))
    import pandas as pd

    want = (
        pd.DataFrame(rows, columns=["source", "tier", "min_val", "max_val",
                                    "total_sum", "n_points", "n_windows"])
        .groupby(["source", "tier"], as_index=False)
        .agg(min_val=("min_val", "min"), max_val=("max_val", "max"),
             total_sum=("total_sum", "sum"), n_points=("n_points", "sum"),
             n_windows=("n_windows", "sum"))
    )
    got = agg.sort_values(["source", "tier"]).reset_index(drop=True)
    want = want.sort_values(["source", "tier"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["source", "tier", "min_val", "max_val", "total_sum", "n_points", "n_windows"]].astype(
            {"tier": "int64", "min_val": "int64", "max_val": "int64",
             "total_sum": "int64", "n_points": "int64", "n_windows": "int64"}
        ),
        want.astype({"tier": "int64", "min_val": "int64", "max_val": "int64",
                     "total_sum": "int64", "n_points": "int64", "n_windows": "int64"}),
    )


def test_db4_job_smoke(seq_dir, tmp_path):
    out = str(tmp_path / "db4")
    summary = rp.run_rollup_job(seq_dir, out, bank="db4", n_tiers=4, n_buckets=4,
                                batch_size=64)
    assert summary["buckets_written"] == 4
    assert summary["n_windows"] > 0


def test_metrics_and_lineage_written(seq_dir, tmp_path):
    import json

    out = str(tmp_path / "metrics")
    rp.run_rollup_job(seq_dir, out, bank="haar", n_tiers=4, n_buckets=4,
                      batch_size=64)
    m = json.load(open(os.path.join(out, "metrics.json")))
    assert m["summary"]["n_windows"] > 0
    # every encode task times each layer it ran: 4 tasks (the 205-row
    # group cut into 4 ranges at batch_size=64), each layer took time
    assert _encode_row(out, verify=True)["tasks"] == 4
    for s in m["per_stage"][:-1]:
        assert s["tasks"] == 4 and s["task_wall_total_s"] > 0, s
        # and each layer's CPU seconds on the task's own thread
        assert s["task_cpu_total_s"] > 0, s
    # finalize reports its own last row: min(4 CPUs, 4 buckets) tasks, the
    # buckets they committed and the committed rows' seconds
    fin = m["per_stage"][-1]
    assert fin["operator"] == "finalize"
    assert fin["tasks"] == 4
    assert fin["buckets"] == m["summary"]["buckets_written"]
    assert fin["task_wall_total_s"] == pytest.approx(
        sum(r["elapsed_s"] for r in mf.read_manifest(out)), abs=1e-3)
    lin = json.load(open(os.path.join(out, "lineage.json")))
    assert lin["config"]["bank"] == "haar"
    assert len(lin["input_files"]) >= 1


def test_row_group_split_plan_and_bytes(ray_session, tmp_path):
    """A large row group is cut into row ranges, one task each: a 2,000-row
    table as ONE row group runs as min(ceil(2000 / 256), 4 CPUs) = 4 encode
    tasks, the same table in 500-row groups as 4 x min(2, 4) = 8 tasks,
    and the two stores have the same bytes."""
    rng = np.random.default_rng(7)
    lens = rng.integers(1, 300, 2000)
    table = pa.table({
        "doc_id": [f"doc-{i:05d}" for i in range(2000)],
        "tokens": pa.array([rng.integers(0, 1000, n).tolist() for n in lens],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array(lens, type=pa.int32()),
        "source": [f"s{i % 3}" for i in range(2000)],
    })
    tasks, hashes = {}, {}
    for name, group_rows in (("one_group", 2000), ("groups_of_500", 500)):
        inp = tmp_path / name
        inp.mkdir()
        pq.write_table(table, inp / "part-0.parquet", row_group_size=group_rows)
        out = str(tmp_path / f"store_{name}")
        rp.run_rollup_job(str(inp), out, bank="haar", n_tiers=6, n_buckets=8,
                          batch_size=256, verify=False)
        tasks[name] = _encode_row(out, verify=False)["tasks"]
        hashes[name] = _file_hashes(out)
    assert tasks == {"one_group": 4, "groups_of_500": 8}
    assert len(hashes["one_group"]) == 8
    assert hashes["one_group"] == hashes["groups_of_500"]


def test_staged_write_retry_idempotent(tmp_path):
    """A re-executed encode task must overwrite its own staged file
    (content-hash name), and BucketFinalize must dedupe duplicate metadata
    rows — together, a task retry can never duplicate rows in the store.
    A re-executed commit finds its staged file still there and rewrites
    the same bytes and row."""
    from wavelet_decomposition_ray.stages.encode import RollupEncode

    stage = str(tmp_path / "staging")
    out = str(tmp_path / "store")
    rng = np.random.default_rng(5)
    docs = [f"doc{i:03d}" for i in range(12)]
    toks = [rng.integers(0, 100, 32).astype(np.int64) for _ in docs]
    batch = pa.table(
        {
            "doc_id": pa.array(docs),
            "source": pa.array(["s"] * len(docs)),
            "tokens": pa.array([t.tolist() for t in toks]),
            "bucket": pa.array(
                mf.bucket_of_ids(docs, 4), type=pa.int32()
            ),
        }
    )
    enc = RollupEncode(n_tiers=3, stage_dir=stage)
    meta1 = enc._stage_batch(enc(batch))
    retry = RollupEncode(n_tiers=3, stage_dir=stage)  # "retried task"
    meta2 = retry._stage_batch(retry(batch))
    assert meta1.to_pylist() == meta2.to_pylist()  # same name, overwritten
    assert meta1.num_rows > 1
    # one staged file for the batch, retried or not
    assert os.listdir(stage) == [meta1["stage_file"][0].as_py()]

    # finalize one bucket with DUPLICATED metadata rows
    dup = pa.concat_tables([meta1, meta2])
    b0 = dup.filter(pa.compute.equal(dup["bucket"], dup["bucket"][0]))
    row = mf.BucketFinalize(out, stage)(b0)
    assert row == json.load(
        open(
            glob.glob(os.path.join(out, "manifest", "bucket-*.json"))[0]
        )
    )
    n_docs_b0 = sum(
        1 for d in docs if mf.bucket_of_ids([d], 4)[0] == b0["bucket"][0].as_py()
    )
    assert row["n_docs"] == n_docs_b0
    assert row["n_rows"] == n_docs_b0 * 3  # 3 tiers per doc, no duplicates
    # a re-executed commit (its staged file still there) returns the same
    # row and leaves the bucket's bytes unchanged
    data = open(os.path.join(out, row["file"]), "rb").read()
    again = mf.BucketFinalize(out, stage)(b0)
    assert {**again, "elapsed_s": 0} == {**row, "elapsed_s": 0}
    assert open(os.path.join(out, row["file"]), "rb").read() == data


def test_job_stages_at_most_one_file_per_batch(seq_dir, tmp_path, monkeypatch):
    """The map side of a job stages one file per encode batch: after the
    map phase, staging holds exactly one file per batch of every unit, and
    a batch's metadata rows (one per bucket it holds) all name its file."""
    seen = {}
    real = mf.stage_and_commit

    def counting(out_dir, n_buckets, units, launch, ncpu, staging_dir=None):
        def launch_and_count(stage_dir):
            refs = launch(stage_dir)
            results = ray.get(refs)
            seen["batches"] = sum(-(-(u.stop - u.start) // 64) for u in units)
            seen["files"] = sorted(os.listdir(stage_dir))
            seen["metas"] = [m for metas, *_ in results for m in metas]
            return refs
        return real(out_dir, n_buckets, units, launch_and_count, ncpu,
                    staging_dir)

    monkeypatch.setattr(mf, "stage_and_commit", counting)
    out = str(tmp_path / "store")
    rp.run_rollup_job(seq_dir, out, bank="haar", n_tiers=4, n_buckets=8,
                      batch_size=64, verify=False)
    assert len(seen["files"]) == len(seen["metas"]) == seen["batches"]
    for m in seen["metas"]:
        assert m.num_rows > 1 and len(set(m["stage_file"].to_pylist())) == 1
    named = {m["stage_file"][0].as_py() for m in seen["metas"]}
    assert named == set(seen["files"])


def test_many_buckets_with_actor_death_and_resume(seq_dir, tmp_path):
    """The multi-node regime in miniature (VERDICT r2 stretch): n_buckets
    (64) >> CPUs (4), an encoder worker hard-killed mid-job, then a rerun
    over the finished store. The faulted run must be byte-identical to a
    clean 64-bucket run, and the rerun must short-circuit (nothing
    pending) while leaving every byte untouched."""
    clean = str(tmp_path / "clean64")
    rp.run_rollup_job(seq_dir, clean, bank="haar", n_tiers=8, n_buckets=64,
                      batch_size=64, verify=False)

    flag = str(tmp_path / "kill64")
    open(flag, "w").close()
    out = str(tmp_path / "faulted64")
    summary = rp.run_rollup_job(
        seq_dir, out, bank="haar", n_tiers=8, n_buckets=64, batch_size=64,
        verify=False, fault_flag=flag,
    )
    assert os.path.exists(flag + ".claimed"), "fault was never injected"
    assert summary["buckets_written"] == 64
    assert _file_hashes(out) == _file_hashes(clean)
    assert _encode_row(out, verify=False)["tasks"] == 4

    before = _file_hashes(out)
    summary2 = rp.run_rollup_job(
        seq_dir, out, bank="haar", n_tiers=8, n_buckets=64, batch_size=64,
        verify=False,
    )
    assert summary2["buckets_written"] == 0
    assert summary2["buckets_skipped"] == 64
    assert summary2.keys() == summary.keys()
    assert summary2["n_windows_this_run"] == 0
    assert _file_hashes(out) == before


def test_custom_staging_dir_byte_identical(seq_dir, tmp_path):
    """Staging placement contract (VERDICT r3 #8): pointing staging at a
    separate scratch root (arg or WDR_STAGING_DIR) yields a byte-identical
    store, stages under a per-store subdir of the root (concurrent jobs
    sharing the root never collide), and leaves the root clean."""
    default = str(tmp_path / "default")
    rp.run_rollup_job(seq_dir, default, bank="haar", n_tiers=6, n_buckets=4,
                      batch_size=64, verify=False)

    scratch = str(tmp_path / "scratch_root")
    custom = str(tmp_path / "custom")
    rp.run_rollup_job(seq_dir, custom, bank="haar", n_tiers=6, n_buckets=4,
                      batch_size=64, verify=False, staging_dir=scratch)
    assert _file_hashes(custom) == _file_hashes(default)
    assert not os.path.isdir(os.path.join(custom, "staging"))
    # staging cleared at job end; the per-store subdir may remain as an
    # empty husk at most
    leftovers = [
        f for d in glob.glob(os.path.join(scratch, "staging-*"))
        for f in os.listdir(d)
    ] if os.path.isdir(scratch) else []
    assert leftovers == []

    # env-var route
    env_out = str(tmp_path / "env_run")
    os.environ["WDR_STAGING_DIR"] = scratch
    try:
        rp.run_rollup_job(seq_dir, env_out, bank="haar", n_tiers=6,
                          n_buckets=4, batch_size=64, verify=False)
    finally:
        del os.environ["WDR_STAGING_DIR"]
    assert _file_hashes(env_out) == _file_hashes(default)
