"""jobs/run_rollup.py end-to-end: fresh process, own Ray session, resume."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args):
    env = dict(os.environ, PYTHONPATH=REPO)
    return subprocess.run(
        [sys.executable, os.path.join(REPO, "jobs", "run_rollup.py"), *args],
        env=env, capture_output=True, text=True, timeout=240,
    )


def test_cli_job_and_resume(tmp_path):
    from wavelet_decomposition_ray import synth

    seq = synth.ensure_sequences("/root/testdata/sf0.001")
    out = str(tmp_path / "cli")
    r = _run(["--input", seq, "--out", out, "--buckets", "4",
              "--num-cpus", "4", "--tiers", "4"])
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["buckets_written"] == 4
    r2 = _run(["--input", seq, "--out", out, "--buckets", "4",
               "--num-cpus", "4", "--tiers", "4"])
    summary2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert summary2["buckets_skipped"] == 4
    assert summary2["buckets_written"] == 0


def test_cli_refresh_flag(tmp_path):
    from wavelet_decomposition_ray import synth

    seq = synth.ensure_sequences("/root/testdata/sf0.001")
    out = str(tmp_path / "cli_refresh")
    r = _run(["--input", seq, "--out", out, "--buckets", "4",
              "--num-cpus", "4", "--tiers", "4"])
    assert r.returncode == 0, r.stderr[-2000:]
    r2 = _run(["--input", seq, "--out", out, "--buckets", "4",
               "--num-cpus", "4", "--tiers", "4", "--refresh"])
    assert r2.returncode == 0, r2.stderr[-2000:]
    summary2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert summary2["buckets_refreshed"] == 0  # unchanged input
    assert summary2["buckets_written"] == 0


def test_cli_rejects_bad_bank():
    r = _run(["--input", "/x", "--out", "/tmp/never", "--bank", "nope"])
    assert r.returncode != 0
    assert "invalid choice" in r.stderr


def test_materialize_query_lifecycle(ray_session, tmp_path):
    """materialize_query writes partitioned output + _SUCCESS atomically,
    skips completed targets, clears crashed-run orphans, and agrees with a
    direct run of the query."""
    import json

    import pyarrow.parquet as pq

    from wavelet_decomposition_ray.pipelines import data_queries as dq
    from wavelet_decomposition_ray.pipelines.materialize import (
        is_complete,
        materialize_query,
    )

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "views" / "hll")
    import os
    import subprocess

    # orphan from a CRASHED previous run (its pid is provably dead: a
    # reaped child) must be cleared; the tmp dir of a LIVE concurrent
    # materializer (pid 1 always exists) must be left alone (ADVICE r3);
    # a FRESH foreign-host tmp dir (shared filesystem, pid unprobeable
    # locally) must also survive; a STALE one must be cleared
    import socket

    child = subprocess.Popen(["true"])
    child.wait()
    host = socket.gethostname()
    orphan = str(tmp_path / "views" / f"hll.tmp-{host}-{child.pid}")
    live = str(tmp_path / "views" / "hll.tmp-1")  # legacy bare-pid format
    foreign = str(tmp_path / "views" / "hll.tmp-otherhost-123")
    foreign_stale = str(tmp_path / "views" / "hll.tmp-otherhost-456")
    for d in (orphan, live, foreign, foreign_stale):
        os.makedirs(d)
    old = 1  # epoch: far past the staleness cutoff
    os.utime(foreign_stale, (old, old))
    meta = materialize_query("hll_users", sf, out)
    assert is_complete(out) and not os.path.isdir(orphan)
    assert os.path.isdir(live), "live sibling tmp dir must not be rmtree'd"
    assert os.path.isdir(foreign), "fresh foreign-host tmp must survive"
    assert not os.path.isdir(foreign_stale), "stale foreign tmp must clear"

    direct = dq.q_hll_users(sf).to_pandas()
    files = [f for f in os.listdir(out) if f.endswith(".parquet")]
    assert files, "no parquet partitions written"
    got = sum(pq.read_metadata(os.path.join(out, f)).num_rows for f in files)
    assert got == meta["n_rows"] == len(direct)

    # a rerun must skip (identical manifest, no rewrite): poison the dir
    # mtimes by reading the manifest before and after
    with open(os.path.join(out, "_SUCCESS")) as f:
        before = json.load(f)
    again = materialize_query("hll_users", sf, out)
    assert again == before

    # jsonl format on a pandas-returning query (driver-side top-k finish)
    out2 = str(tmp_path / "views" / "vocab")
    meta2 = materialize_query("vocab_top20", sf, out2, fmt="jsonl")
    assert meta2["n_rows"] > 0 and is_complete(out2)

    # a pyarrow.Table-returning query writes one part file in every format
    import pyarrow as pa

    from wavelet_decomposition_ray.pipelines import queries as cq

    direct3 = cq.q_arrival_dispersion(sf)
    assert isinstance(direct3, pa.Table)
    for fmt in ("parquet", "jsonl", "csv"):
        out3 = str(tmp_path / "views" / f"dispersion_{fmt}")
        meta3 = materialize_query("arrival_dispersion", sf, out3, fmt=fmt)
        parts = [f for f in os.listdir(out3) if not f.startswith("_")]
        assert parts == [f"part-0.{fmt}"] and is_complete(out3)
        assert meta3["n_rows"] == direct3.num_rows > 0
