"""Benchmark harness: runs the headline rollup+retention pipeline over the
synthesized sequences table for $GRAFT_SF_DIR (default /root/testdata/sf0.1)
and prints ONE JSON line.

    python bench.py              # headline at RAY_GRAFT_CPUS (default 32)
    python bench.py --scaling    # same job at 8 and 32 CPUs in fresh
                                 # processes -> scaling efficiency (the
                                 # sandbox proxy for N vs 4N nodes)

Owns its Ray session (the driver contract forbids ray.init only inside
__ray_entry__ / library code).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def _headline(sf_dir: str, ncpus: int) -> dict:
    import ray

    from wavelet_decomposition_ray import synth
    from wavelet_decomposition_ray.pipelines import rollup_pipeline as rp

    seq = synth.ensure_sequences(sf_dir)

    ray.init(
        address="local",
        num_cpus=ncpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    import pyarrow.dataset as pads

    n_tokens = 0
    n_rows = 0
    for frag in pads.dataset(seq).get_fragments():
        # untimed metadata pass doubles as page-cache warmup
        n_rows += frag.count_rows()
    import pyarrow.compute as pc

    tbl = pads.dataset(seq).to_table(columns=["n_tok"])
    n_tokens = int(pc.sum(tbl["n_tok"]).as_py())

    out = f"/tmp/graft_bench/cpus{ncpus}"
    shutil.rmtree(out, ignore_errors=True)

    # warmup: a tiny run of the same pipeline so worker processes exist and
    # have imported numpy/pyarrow/the engine before the timed section
    # (measures compute + shuffle, not cold-start — ray_guide.md)
    warm_seq = synth.ensure_sequences("/root/testdata/sf0.001")
    warm_out = f"/tmp/graft_bench/warmup{ncpus}"
    shutil.rmtree(warm_out, ignore_errors=True)
    rp.run_rollup_job(warm_seq, warm_out, bank="haar", n_tiers=4, n_buckets=8,
                      resume=False, verify=False)

    # best-of-3 inside one session: this shared host shows minute-scale
    # background-load swings of 1.5-2x (measured 2026-08-17); the repeats
    # are back-to-back so they see similar conditions, and ALL times are
    # reported (value = best, job_runs = all) — no silent selection
    job_times = []
    for rep in range(3):
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        summary = rp.run_rollup_job(
            seq,
            out,
            bank="haar",
            n_tiers=10,
            # library defaults: n_buckets=16 (finalize parallelism ~ CPUs,
            # one staged file per encode batch), batch_size adaptive
            # from the input row count. At cluster scale n_buckets rises
            # with nodes x cores (pipeline docstring).
            resume=False,
            verify=True,
        )
        job_times.append(time.perf_counter() - t0)
    t_job = min(job_times)

    # read path: scan the retention store and decode every block
    from wavelet_decomposition_ray.sources.store import read_store

    dec_times = []
    for rep in range(3):
        t1 = time.perf_counter()
        n_dec = read_store(out).count()
        dec_times.append(time.perf_counter() - t1)
    t_decode = min(dec_times)

    # data-pipeline legs over the driver testdata tables at the same sf:
    # the corpus-cleaning capstone (docs) and the three-table Q3 join
    # (600k-row lineitem at sf0.1) — best-of-2, warm session
    data_legs = {}
    try:
        from wavelet_decomposition_ray.pipelines import data_queries as dq
        from wavelet_decomposition_ray.pipelines import queries as cq

        for name, fn in (("corpus_clean", dq.q_corpus_clean),
                         ("top_orders_q3", cq.q_top_orders_q3)):
            ts = []
            for rep in range(2):
                t2 = time.perf_counter()
                res = fn(sf_dir)
                if hasattr(res, "count"):
                    res.count()
                ts.append(time.perf_counter() - t2)
            data_legs[name] = round(min(ts), 3)
    except Exception as e:  # data tables absent in exotic setups
        data_legs["error"] = str(e)

    ray.shutdown()

    return {
        "metric": "rollup_retention_job_seconds",
        "value": round(t_job, 3),
        "unit": "sec",
        "queries": {
            "rollup_job": round(t_job, 3),
            "decode_scan": round(t_decode, 3),
            **data_legs,
        },
        "job_runs": [round(x, 3) for x in job_times],
        "decode_runs": [round(x, 3) for x in dec_times],
        "sf": float(os.path.basename(os.path.normpath(sf_dir)).replace("sf", "") or 0.1),
        "num_cpus": ncpus,
        "n_rows": n_rows,
        "n_tokens": n_tokens,
        "n_windows": summary["n_windows"],
        "bytes_encoded": summary["bytes_encoded"],
        "decoded_rows": n_dec,
        "rolled_points_per_s": round(summary["n_windows"] / t_job, 1),
        "tokens_per_s": round(n_tokens / t_job, 1),
    }


def _run_fresh(ncpus: int, sf_dir: str | None = None) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpus))
    if sf_dir:
        env["GRAFT_SF_DIR"] = sf_dir
    cmd = [sys.executable, os.path.abspath(__file__)]
    if shutil.which("taskset"):
        # bind the whole process tree so num_cpus=N really means N cores
        # (Ray's logical CPUs don't stop helper actors spilling onto others)
        cmd = ["taskset", "-c", f"0-{ncpus - 1}"] + cmd
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _hardware_ceiling(lo: int, hi: int) -> float:
    """Best-case lo->hi scaling this host can deliver to an embarrassingly
    parallel pure-CPU burn (no shared state, no memory pressure). Our job's
    efficiency is bounded above by this number."""
    import tempfile

    code = (
        "import multiprocessing as mp, time, sys\n"
        "def burn(_):\n"
        "    x = 0\n"
        "    for i in range(20_000_000): x += i*i\n"
        "    return x\n"
        "if __name__ == '__main__':\n"
        "    n = int(sys.argv[1])\n"
        "    with mp.Pool(n) as p:\n"
        "        t0 = time.perf_counter(); p.map(burn, range(n*3))\n"
        "        print(time.perf_counter() - t0)\n"
    )
    with tempfile.NamedTemporaryFile("w", suffix=".py", delete=False) as f:
        f.write(code)
        path = f.name
    rates = {}
    for n in (lo, hi):
        cmd = [sys.executable, path, str(n)]
        if shutil.which("taskset"):
            cmd = ["taskset", "-c", f"0-{n - 1}"] + cmd
        wall = min(
            float(subprocess.run(cmd, capture_output=True, text=True).stdout.strip())
            for _ in range(2)
        )
        rates[n] = n * 3 / wall
    return (rates[hi] / rates[lo]) / (hi / lo)


def main():
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    if "--scaling" in sys.argv:
        # the sandbox proxy for N vs 4N nodes (BASELINE.md): same job, fresh
        # CPU-pinned processes, a 4x-sf0.1 input so the ~4 s fixed Ray
        # startup cost doesn't masquerade as poor scaling. The pair is 4 vs
        # 16 because this host measurably cannot deliver 32 independent
        # cores even to an embarrassingly-parallel pure-CPU burn (see
        # BASELINE.md "hardware ceiling"); the ceiling is measured and
        # reported alongside so the efficiency is interpretable.
        lo, hi = 4, 16
        scale_dir = os.environ.get("GRAFT_SCALING_SF_DIR", "/root/testdata/sf0.4")
        r_lo = min((_run_fresh(lo, scale_dir) for _ in range(2)),
                   key=lambda r: r["value"])
        r_hi = min((_run_fresh(hi, scale_dir) for _ in range(2)),
                   key=lambda r: r["value"])
        eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
        ceiling = _hardware_ceiling(lo, hi)
        print(
            json.dumps(
                {
                    "metric": f"scaling_efficiency_{lo}_to_{hi}",
                    "value": round(eff, 3),
                    "unit": "ratio",
                    f"sec_{lo}": r_lo["value"],
                    f"sec_{hi}": r_hi["value"],
                    f"points_per_s_{lo}": r_lo["rolled_points_per_s"],
                    f"points_per_s_{hi}": r_hi["rolled_points_per_s"],
                    f"tokens_per_s_{lo}": r_lo["tokens_per_s"],
                    f"tokens_per_s_{hi}": r_hi["tokens_per_s"],
                    "hardware_ceiling": round(ceiling, 3),
                    "efficiency_vs_ceiling": round(eff / ceiling, 3) if ceiling else None,
                    "sf": r_hi["sf"],
                }
            )
        )
        return
    ncpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    print(json.dumps(_headline(sf_dir, ncpus)))


if __name__ == "__main__":
    main()
