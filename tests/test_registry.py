"""Driver-contract registry consistency."""

import __ray_entry__ as m


def test_registry_shape():
    qs = m.queries()
    sqls = m.oracle_sql()
    assert set(sqls) <= set(qs)
    assert len(qs) >= 30
    assert len(sqls) >= 20
    for name, fn in qs.items():
        assert callable(fn), name
    for name, sql in sqls.items():
        assert isinstance(sql, str) and sql.strip().upper().startswith(("SELECT", "WITH")), name


def test_every_oracle_sql_plans_in_duckdb():
    """EXPLAIN every registered oracle against the testdata views — catches
    SQL bitrot (renamed columns, typos) without running the queries."""
    import duckdb

    con = duckdb.connect()
    sf = "/root/testdata/sf0.001"
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"):
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM"
            f" read_parquet('{sf}/{t}.parquet')"
        )
    # core-engine oracles read the synth sequences parquet directly; make
    # sure it exists (queries() materializes it idempotently)
    m.queries()
    for name, sql in m.oracle_sql().items():
        try:
            con.sql(f"EXPLAIN {sql}")
        except Exception as e:  # pragma: no cover
            raise AssertionError(f"oracle SQL for {name!r} fails to plan: {e}")


def test_first_50_samples_both_families():
    """The driver's correctness gate checks the first 50 registry entries:
    the priority block must exist, stay exactly 50 long, and mix core-engine
    and data-pipeline queries (VERDICT r3 #1)."""
    from wavelet_decomposition_ray.pipelines.data_queries import DATA_QUERIES
    from wavelet_decomposition_ray.pipelines.queries import CORE_QUERIES

    first = list(m._registry())[:50]
    assert first == m._PRIORITY
    assert len(set(first)) == 50
    n_core = sum(1 for n in first if n in CORE_QUERIES)
    n_data = sum(1 for n in first if n in DATA_QUERIES)
    assert n_core >= 20 and n_data >= 10, (n_core, n_data)


def test_registry_has_no_duplicate_names_across_modules():
    from wavelet_decomposition_ray.pipelines.data_queries import DATA_QUERIES
    from wavelet_decomposition_ray.pipelines.queries import CORE_QUERIES

    dup = set(CORE_QUERIES) & set(DATA_QUERIES)
    assert not dup, f"query names defined in both modules: {dup}"


def test_queries_md_lists_every_registry_name():
    """QUERIES.md (generated by jobs/gen_query_docs.py) must name every
    registry query — regenerate it when adding queries."""
    import os

    from wavelet_decomposition_ray.pipelines.data_queries import DATA_QUERIES
    from wavelet_decomposition_ray.pipelines.queries import CORE_QUERIES

    path = os.path.join(os.path.dirname(__file__), "..", "QUERIES.md")
    text = open(path).read()
    missing = [n for n in {**CORE_QUERIES, **DATA_QUERIES}
               if f"`{n}`" not in text]
    assert not missing, f"QUERIES.md stale; regenerate. Missing: {missing}"


def test_entry_contract(ray_session):
    """entry() — the driver's first smoke check — must run on sf0.001 and
    return a non-empty result with the stable flagship schema."""
    res = m.entry()
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    assert len(df) > 0
    assert {"source", "tier", "min_val", "max_val", "total_sum",
            "n_points"} <= set(df.columns)
    assert (df["n_points"] > 0).all()


def test_sweep_artifact_covers_the_registry():
    """SWEEP_r5.json, the last full run of jobs/sweep_oracle.py, sweeps
    exactly the registered queries, and every one of them matched."""
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "SWEEP_r5.json")
    with open(path) as f:
        sweep = json.load(f)
    assert sorted(sweep["queries"]) == sorted(m.queries())
    assert sweep["passed"] == sweep["total"] == len(sweep["queries"])
    assert sweep["failed"] == []


# the queries that ran on a fixed actor pool or behind Dataset.join
ONE_SLOT_QUERIES = (
    "lang_id", "token_count_bpe", "tfdf_top3", "bloom_prescreen",
    "length_rank", "boilerplate_3gram", "source_report", "langid_confusion",
    "clean_text", "dedup_minhash", "simhash_pairs",
)


def test_former_actor_queries_run_exact_on_one_ray_slot():
    """On one Ray slot, ``sweep_oracle --only`` finishes every query
    that ran on an actor pool or a ``Dataset.join``, and each matches
    its oracle exactly. A pool of two actors never gets its slots there,
    and the sweep hung until it was killed."""
    import json
    import os
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "RAY_GRAFT_CPUS": "1",
           "PYTHONPATH": os.pathsep.join(
               [root, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen(
        [sys.executable, os.path.join(root, "jobs", "sweep_oracle.py"),
         "--only", ",".join(ONE_SLOT_QUERIES)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the sweep and its Ray node
        proc.communicate()
        raise AssertionError("sweep on one Ray slot still running at 300 s")
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["failed"] == [], out
    assert summary["total"] == summary["exact_checked"] == \
        summary["passed"] == len(ONE_SLOT_QUERIES), out
    assert proc.returncode == 0
