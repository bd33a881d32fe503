"""Full-registry EXACT value sweep: run EVERY queries() entry at sf0.01 and
compare values against its oracle_sql() via DuckDB (VERDICT r4 #1 — restores
external-grade evidence to the queries outside the driver's 50-row gate).

The comparison mirrors the driver's gate: columns sorted by name, rows
sorted by all columns, dtype-kind compatibility enforced, integer columns
compared exactly, float columns at atol=1e-9. Queries without an oracle SQL
get the driver's weaker rows-only check. Each query records
``engine_sec`` (the registry callable run to a pandas frame) and, when it
has an oracle, ``oracle_sec`` (the DuckDB run) apart. One untimed
warm-up job starts every Ray worker first (``warmup_sec`` in the summary),
so the first query is not charged for worker start-up.

Usage:
    PYTHONPATH=/root/repo python jobs/sweep_oracle.py [--sf /root/testdata/sf0.01]
Writes SWEEP_r5.json next to the repo root and prints one JSON summary line.
``--only a,b`` runs just those queries, in that order, and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(res):
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _compare(got, want) -> str | None:
    """None if exact match, else a short reason."""
    import numpy as np

    got, want = _canon(got), _canon(want)
    if list(got.columns) != list(want.columns):
        return f"columns {list(got.columns)} vs {list(want.columns)}"
    if len(got) != len(want):
        return f"rows {len(got)} vs {len(want)}"
    for c in got.columns:
        a, b = got[c].to_numpy(), want[c].to_numpy()
        kinds = {a.dtype.kind, b.dtype.kind}
        if kinds & {"i", "u"} and kinds & {"f", "O"}:
            return f"{c}: dtype kind {a.dtype} vs {b.dtype}"
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            if not np.allclose(a.astype(float), b.astype(float),
                               rtol=0, atol=1e-9, equal_nan=True):
                return f"{c}: float values differ"
        elif not (a == b).all():
            return f"{c}: {int((a != b).sum())} value mismatches"
    return None


def _warm_up(n_cpus: int) -> float:
    """Start one Ray worker per CPU slot, each importing the query
    modules, and run the operators most queries use once (a pandas
    ``map_batches``, a ``collect_agg`` driver fold, a ``fold_by_part``
    fold): the start-up every query would otherwise charge to whichever
    runs first. Returns its seconds."""
    import ray.data

    from wavelet_decomposition_ray.pipelines.skeletons import (collect_agg,
                                                                fold_by_part)

    def touch(df):
        import wavelet_decomposition_ray.pipelines.queries  # noqa: F401

        time.sleep(0.5)  # overlap the tasks, so each gets its own worker
        return df.assign(k=df["id"] % 7, x=1)[["k", "x"]]

    def fold(df):
        return df.groupby("k", as_index=False)["x"].sum()

    t0 = time.time()
    ds = ray.data.range(1024 * n_cpus, override_num_blocks=n_cpus) \
        .map_batches(touch, batch_format="pandas").materialize()
    collect_agg(ds, ["k"], {"x": "sum"}, 7)
    fold_by_part(ds, "k", fold).to_pandas()
    return round(time.time() - t0, 2)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "SWEEP_r5.json"))
    ap.add_argument("--only", default=None,
                    help="comma-separated query names; skips artifact write")
    args = ap.parse_args()

    import duckdb

    import ray

    n_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "16"))
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=n_cpus, include_dashboard=False)
    import __ray_entry__ as em

    qs, sqls = em.queries(), em.oracle_sql()
    if args.only:
        keep = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = set(keep) - set(qs)
        if unknown:
            raise SystemExit(f"--only names not in registry: {sorted(unknown)}")
        qs = {n: qs[n] for n in keep}
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(args.sf, f"{t}.parquet")
        if os.path.isfile(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    warmup_sec = _warm_up(n_cpus)
    results: dict[str, dict] = {}
    t_start = time.time()
    for name, fn in qs.items():
        t0 = time.time()
        rec: dict = {"mode": "exact" if name in sqls else "rows_only"}
        try:
            got = _to_pandas(fn(args.sf))
            rec["engine_sec"] = round(time.time() - t0, 2)
            rec["rows"] = int(len(got))
            if name in sqls:
                t1 = time.time()
                want = con.sql(sqls[name]).df()
                rec["oracle_sec"] = round(time.time() - t1, 2)
                reason = _compare(got, want)
                rec["match"] = reason is None
                if reason:
                    rec["reason"] = reason
            else:
                rec["match"] = len(got) > 0
        except Exception as e:  # a crash is a failure, not an abort
            rec["match"] = False
            rec["reason"] = f"{type(e).__name__}: {e}"[:300]
        results[name] = rec
        tag = "ok" if rec["match"] else "FAIL"
        print(f"  [{tag}] {name} ({rec['mode']}, "
              f"engine {rec.get('engine_sec')}s, "
              f"oracle {rec.get('oracle_sec')}s)", flush=True)

    n_exact = sum(1 for r in results.values() if r["mode"] == "exact")
    n_pass = sum(1 for r in results.values() if r["match"])
    summary = {
        "sf": args.sf,
        "total": len(results),
        "exact_checked": n_exact,
        "passed": n_pass,
        "failed": sorted(n for n, r in results.items() if not r["match"]),
        "wall_sec": round(time.time() - t_start, 1),
        "warmup_sec": warmup_sec,
        "queries": results,
    }
    if not args.only:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
    print(json.dumps({k: summary[k] for k in
                      ("sf", "total", "exact_checked", "passed", "failed",
                       "wall_sec", "warmup_sec")}))
    ray.shutdown()
    return 0 if n_pass == len(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
