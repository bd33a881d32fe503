"""Scale-stress for the two fallback paths the small gate never exercises
(VERDICT r3 #7): the DISTRIBUTED connected-components (pair list past
MAX_DRIVER_PAIRS, so the driver union-find guard actually trips) and
SimHash near-dup at its occupancy cap (a template-spam bucket bigger than
the cap must drop loudly while normal dup mass is still found).

Prints one JSON line; results are recorded in BASELINE.md.

Run: python jobs/stress_scale.py  (owns its Ray session)
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def cc_stress() -> dict:
    """6.0M edges (50k template-spam cliques of 16) through
    propagate_min_labels — past the 5M driver guard for real. Every
    clique's label must be its min id."""
    from wavelet_decomposition_ray.functions import components as cc

    import ray.data

    k, n_comp = 16, 50_000
    base = np.arange(n_comp, dtype=np.int64) * 1000
    i, j = np.triu_indices(k, 1)
    a = (base[:, None] + i[None, :]).ravel()
    b = (base[:, None] + j[None, :]).ravel()
    assert len(a) > cc.MAX_DRIVER_PAIRS, "stress must exceed the guard"
    pairs = ray.data.from_arrow(
        pa.table({"doc_a": pa.array(a), "doc_b": pa.array(b)})
    ).repartition(64)

    t0 = time.perf_counter()
    lab = cc.propagate_min_labels(pairs)
    df = lab.to_pandas()
    wall = time.perf_counter() - t0

    assert len(df) == n_comp * k, len(df)
    node = df["node"].to_numpy()
    want = (node // 1000) * 1000
    assert (df["label"].to_numpy() == want).all(), "wrong component labels"
    return {"edges": int(len(a)), "nodes": int(n_comp * k),
            "wall_s": round(wall, 1)}


N_DOCS = 1_000_000
N_HOT, N_TMPL, N_COPY = 10_000, 100, 50


def _build_corpus(tmp: str) -> None:
    """1M-doc template-spam corpus: one 10k-copy viral template, 100 x 50
    normal duplicate clusters, word-diverse tail."""
    n, n_hot, n_tmpl, n_copy = N_DOCS, N_HOT, N_TMPL, N_COPY
    texts = np.empty(n, dtype=object)
    texts[:n_hot] = "viral template body shared by far too many documents"
    for t in range(n_tmpl):
        s = f"normal template {t} with stable words forming one cluster"
        texts[n_hot + t * n_copy : n_hot + (t + 1) * n_copy] = s
    tail = n_hot + n_tmpl * n_copy
    ids = np.arange(n, dtype=np.int64)
    # the tail must be word-DIVERSE (every word unique to its doc): docs
    # that merely permute a shared vocabulary land near each other in
    # simhash space, band buckets blow past the cap corpus-wide, and the
    # candidate set explodes to billions of non-dup pairs — the first cut
    # of this stress did exactly that
    texts[tail:] = [
        f"u{i}a u{i}b u{i}c u{i}d u{i}e u{i}f u{i}g u{i}h"
        for i in range(tail, n)
    ]
    n_chars = np.array([len(t) for t in texts], dtype=np.int64)
    pq.write_table(
        pa.table({"doc_id": pa.array(ids), "text": pa.array(texts),
                  "n_chars": pa.array(n_chars)}),
        os.path.join(tmp, "documents.parquet"),
    )


def simhash_stress(tmp: str) -> dict:
    """1M docs with (a) one 10k-copy template whose band buckets exceed the
    occupancy cap (must drop, loudly, without collapsing the run) and
    (b) 100 templates x 50 copies of normal duplicate mass (must all be
    found: identical texts => hamming 0)."""
    from wavelet_decomposition_ray.pipelines import data_queries as dq

    n, n_hot, n_tmpl, n_copy = N_DOCS, N_HOT, N_TMPL, N_COPY
    _build_corpus(tmp)

    t0 = time.perf_counter()
    pairs = dq.q_simhash_pairs(tmp).to_pandas()
    wall = time.perf_counter() - t0

    # normal templates: every within-template pair found at hamming 0
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    want_per_tmpl = n_copy * (n_copy - 1) // 2
    n_found_tmpl = 0
    for t in range(n_tmpl):
        lo = n_hot + t * n_copy
        members = range(lo, lo + n_copy)
        n_found_tmpl += sum(
            1 for x in members for y in members
            if x < y and (x, y) in found
        )
    recall = n_found_tmpl / (n_tmpl * want_per_tmpl)
    # hot template: its buckets exceed the cap in every band, so its pairs
    # are (loudly) dropped — none of the 10k-clique should appear
    hot_pairs = int(((pairs["doc_a"] < n_hot) & (pairs["doc_b"] < n_hot)).sum())
    assert recall == 1.0, f"template recall {recall}"
    assert hot_pairs == 0, f"{hot_pairs} hot-bucket pairs leaked past the cap"
    return {"docs": n, "pairs": int(len(pairs)),
            "template_recall": recall, "hot_pairs_dropped": True,
            "wall_s": round(wall, 1)}


def corpus_clean_stress(tmp: str) -> dict:
    """corpus_clean on the same 1M-doc corpus: one streaming pass with the
    dropped-duplicate broadcast (10k+5k planted duplicate surplus) and the
    length-histogram md5 prune — the round-4 scale path end to end."""
    from wavelet_decomposition_ray.pipelines import data_queries as dq

    # timed section = the pipeline exactly as a user runs it (the dedup
    # extraction happens INSIDE q_corpus_clean — timing a standalone
    # _dropped_dup_ids too would double-count that pass)
    t0 = time.perf_counter()
    n_rows = dq.q_corpus_clean(tmp).count()
    wall = time.perf_counter() - t0
    # untimed exactness check of the dedup side: duplicate surplus =
    # 10k hot copies - 1 survivor + 100 x (50 - 1) normals
    dropped = dq._dropped_dup_ids(tmp)
    assert len(dropped) == (N_HOT - 1) + N_TMPL * (N_COPY - 1), len(dropped)
    # survivors: 985,101 post-dedup, then ~5% holdout + ~1/97 decontam
    # side + quality/contamination predicates -> a tight band, so a
    # filter regression that drops or keeps 10k+ extra docs fails here
    assert 900_000 < n_rows < 940_000, n_rows
    return {"docs": N_DOCS, "dropped_dups": int(len(dropped)),
            "clean_rows": int(n_rows), "wall_s": round(wall, 1)}


N_VECS = 1_000_000
VEC_DIM = 64
VEC_CLUSTERS = 32


def _build_embeddings(
    tmp: str,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """1M deterministic synthetic vectors (32-cluster Gaussian mixture,
    float32, the testdata embeddings schema) written as one parquet with
    small row groups so the vec_id pushdown filters actually prune.
    Generated in 100k chunks to bound driver memory; returns the exact
    top-1000 ground truth for vec 0 (ids, true cosines) accumulated
    during generation — no second full read."""
    rng = np.random.default_rng(7)
    centers = rng.standard_normal((VEC_CLUSTERS, VEC_DIM))
    path = os.path.join(tmp, "embeddings.parquet")
    schema = pa.schema(
        [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float32()))]
    )
    chunk = 100_000
    q = None
    best_ids = np.empty(0, dtype=np.int64)
    best_cos = np.empty(0, dtype=np.float64)
    hist = np.zeros(4000, dtype=np.int64)  # corpus cos distribution vs q
    with pq.ParquetWriter(path, schema) as w:
        for lo in range(0, N_VECS, chunk):
            n = min(chunk, N_VECS - lo)
            assign = rng.integers(0, VEC_CLUSTERS, n)
            vecs = (centers[assign]
                    + 0.3 * rng.standard_normal((n, VEC_DIM))).astype(
                        np.float32)
            if q is None:
                q = vecs[0].astype(np.float64)  # the query everybody uses
            # ground truth vs the float32 values actually written
            v64 = vecs.astype(np.float64)
            cs = (v64 @ q) / (
                np.linalg.norm(v64, axis=1) * np.linalg.norm(q))
            hist += np.histogram(cs, bins=4000, range=(-1.0, 1.0))[0]
            ids = np.arange(lo, lo + n, dtype=np.int64)
            best_ids = np.concatenate([best_ids, ids])
            best_cos = np.concatenate([best_cos, cs])
            if len(best_cos) > 1000:
                keep = np.argpartition(-best_cos, 1000)[:1000]
                best_ids, best_cos = best_ids[keep], best_cos[keep]
            off = np.arange(n + 1, dtype=np.int32) * VEC_DIM
            col = pa.ListArray.from_arrays(
                pa.array(off), pa.array(vecs.ravel(), type=pa.float32())
            )
            w.write_table(
                pa.table({"vec_id": ids, "embedding": col}, schema=schema),
                row_group_size=25_000,
            )
    # the engine emits cos_sim rounded to 6 decimals and tie-breaks by
    # vec_id asc — use the identical ordering so the exactness assert
    # cannot trip on a sub-1e-6 tie
    order = np.lexsort((best_ids, -np.round(best_cos, 6)))
    return best_ids[order], best_cos[order], hist, q


def ann_stress(tmp: str) -> dict:
    """ann_ivf + ann_pq at 1M vectors (VERDICT r4 #7): proves the IVF
    probe-escalation stays EXACT past test scale (set-equal to the brute
    scan) and that the one-byte-per-subspace PQ/ADC scan returns genuinely
    near vectors, with recall vs brute force and wall times recorded."""
    from wavelet_decomposition_ray.pipelines import data_queries as dq

    truth_ids, truth_cos, hist, q = _build_embeddings(tmp)

    t0 = time.perf_counter()
    knn = dq.q_knn_cosine(tmp).to_pandas()
    wall_knn = time.perf_counter() - t0
    # brute engine path vs numpy ground truth (same float64 cosine)
    assert list(knn["vec_id"]) == list(truth_ids[:10]), "brute scan wrong"

    t0 = time.perf_counter()
    ivf = dq.q_ann_ivf(tmp)
    wall_ivf = time.perf_counter() - t0
    assert list(ivf["vec_id"]) == list(knn["vec_id"]), (
        "IVF probe escalation lost exactness at 1M"
    )

    t0 = time.perf_counter()
    pq_top = dq.q_ann_pq(tmp)
    wall_pq = time.perf_counter() - t0
    assert len(pq_top) == dq.PQ_NN_K
    pq_ids = [int(i) for i in pq_top["vec_id"].to_numpy()]
    recall_pq = len(set(pq_ids) & set(knn["vec_id"])) / len(knn)
    # quality bar robust to the coarse sampled codebook (16 centroids per
    # subspace): every PQ answer must be a genuinely NEAR vector — its
    # true cosine must rank inside the corpus's top PQ_NEAR_FRAC. True
    # cosines of the 10 returned ids come from a pushed-down row read;
    # their percentile ranks from the histogram accumulated at build time.
    import pyarrow.compute as pc_

    import ray.data

    rows = ray.data.read_parquet(
        os.path.join(tmp, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filter=pc_.field("vec_id").isin(pq_ids),
    ).take_all()
    qn = q / np.linalg.norm(q)
    true_cos = {}
    for r in rows:
        v = np.asarray(r["embedding"], dtype=np.float64)
        true_cos[int(r["vec_id"])] = float(v @ qn / np.linalg.norm(v))
    pq_true_cos = np.array([true_cos[i] for i in pq_ids])
    # rank(c) = fraction of the corpus with cosine >= c (histogram tail)
    total = hist.sum()
    tail = np.concatenate([np.cumsum(hist[::-1])[::-1][1:], [0]])
    bins = np.clip(((pq_true_cos + 1.0) / 2.0 * 4000).astype(int), 0, 3999)
    pq_ranks = tail[bins] / total
    PQ_NEAR_FRAC = 0.05  # top 5% of 1M — far beyond chance (E[random]=0.5)
    assert pq_ranks.max() <= PQ_NEAR_FRAC, (
        f"PQ returned a non-near vector: worst rank {pq_ranks.max():.4f}"
    )
    # PQ shortlist + exact re-rank (the full IVFADC search shape): the
    # ADC scan only generates candidates; the exact fixed-point L2
    # re-rank of the top-C shortlist does the ranking
    t0 = time.perf_counter()
    rr_top = dq.q_ann_pq_rerank(tmp)
    wall_rr = time.perf_counter() - t0
    rr_ids = [int(i) for i in rr_top["vec_id"].to_numpy()]
    recall_rr = len(set(rr_ids) & set(knn["vec_id"])) / len(knn)
    # the claim the re-rank CAN make at 1M: it equals the brute-force
    # quantized-L2 top-10 (its own metric) exactly. These stress vectors
    # are deliberately UNnormalized, so cosine recall (recall_rr above)
    # additionally measures the L2-vs-cosine metric gap; on a normalized
    # corpus the two coincide.
    from wavelet_decomposition_ray.functions import similarity as sim

    tbl = pq.read_table(
        os.path.join(tmp, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    ids_all = tbl["vec_id"].to_numpy()
    flat = np.asarray(tbl["embedding"].combine_chunks().values,
                      dtype=np.float64)
    qq = sim.pq_quantize(q[None, :])[0]
    d2_all = np.empty(len(ids_all), dtype=np.int64)
    for lo in range(0, len(ids_all), 100_000):
        Qc = sim.pq_quantize(
            flat[lo * VEC_DIM : (lo + 100_000) * VEC_DIM].reshape(-1, VEC_DIM)
        )
        d2_all[lo : lo + len(Qc)] = ((Qc - qq) ** 2).sum(axis=1)
    want = ids_all[np.lexsort((ids_all, d2_all))[: dq.PQ_NN_K]]
    rr_l2_exact = rr_ids == [int(i) for i in want]
    assert rr_l2_exact, (rr_ids, list(want))

    return {
        "vectors": N_VECS, "dim": VEC_DIM,
        "knn_brute_wall_s": round(wall_knn, 1),
        "ivf_wall_s": round(wall_ivf, 1), "ivf_exact": True,
        "pq_wall_s": round(wall_pq, 1),
        "pq_recall_at_10": recall_pq,
        "pq_rerank_wall_s": round(wall_rr, 1),
        "pq_rerank_shortlist": max(
            dq.PQ_RERANK_FLOOR, int(np.floor(N_VECS * dq.PQ_RERANK_FRAC))
        ),
        "pq_rerank_recall_at_10": recall_rr,
        "pq_rerank_exact_for_its_l2_metric": rr_l2_exact,
        "pq_min_true_cos": round(float(pq_true_cos.min()), 4),
        "pq_worst_rank_frac": round(float(pq_ranks.max()), 5),
        "true_cos_rank1000": round(float(truth_cos[-1]), 4),
    }


N_CLIPS = 200_000
CLIP_FRAMES = 16
CLIP_H, CLIP_W = 8, 8


def video_stress(tmp: str) -> dict:
    """200k real AVI containers through the decode path: build
    deterministic greyscale clips (16 frames of 8x8, seeded per id) as
    full RIFF 'AVI ' payloads in parquet, then stream them through
    MediaFeatures (pure-numpy container parse + DIB unfilter) and verify
    EVERY clip's decoded pixel sum against the expected value stored at
    build time — per-row exactness at 200k scale, plus decode throughput."""
    import ray.data
    from wavelet_decomposition_ray.functions import avi
    from wavelet_decomposition_ray.functions import multimodal as mm

    vdir = os.path.join(tmp, "clips")

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        payloads = []
        exp = np.empty(len(ids), dtype=np.int64)
        for j, i in enumerate(ids):
            rng = np.random.default_rng(int(i))
            frames = rng.integers(
                0, 256, (CLIP_FRAMES, CLIP_H, CLIP_W), dtype=np.uint8
            )
            payloads.append(avi.encode_avi(frames, fps=25))
            exp[j] = 3 * int(frames.sum(dtype=np.int64))  # grey -> RGB
        return pa.table(
            {
                "doc_id": pa.array([str(i) for i in ids]),
                "payload": pa.array(payloads, type=pa.binary()),
                "media_type": pa.array(["video/avi"] * len(ids)),
                "exp_sum": pa.array(exp),
            }
        )

    (
        ray.data.range(N_CLIPS)
        .map_batches(build, batch_format="pyarrow", batch_size=2048)
        .write_parquet(vdir)
    )

    mf = mm.MediaFeatures()

    def decode_verify(t: pa.Table) -> pa.Table:
        f = mf(t.select(["doc_id", "payload", "media_type"]))
        got = f["sum_byte"].to_numpy()
        exp = t["exp_sum"].to_numpy()
        if not (got == exp).all():
            raise AssertionError("decoded pixel sum mismatch")
        return pa.table(
            {
                "n": pa.array([len(exp)], type=pa.int64()),
                "pix": pa.array(
                    [int(f["n_bytes"].to_numpy().sum())], type=pa.int64()
                ),
            }
        )

    t0 = time.perf_counter()
    agg = (
        ray.data.read_parquet(vdir)
        .map_batches(decode_verify, batch_format="pyarrow", batch_size=512)
        .sum(["n", "pix"])
    )
    wall = time.perf_counter() - t0
    assert agg["sum(n)"] == N_CLIPS, agg
    want_pix = N_CLIPS * CLIP_FRAMES * CLIP_H * CLIP_W * 3
    assert agg["sum(pix)"] == want_pix, agg
    return {
        "clips": N_CLIPS,
        "frames": N_CLIPS * CLIP_FRAMES,
        "decode_wall_s": round(wall, 1),
        "clips_per_s": round(N_CLIPS / wall),
        "decoded_mb_per_s": round(want_pix / wall / 1e6, 1),
        "all_sums_exact": True,
    }


SEQDUP_BG = 1_000_000   # background sequences (random shapes)
SEQDUP_ORIG = 5_000     # hot-bucket originals (one shared SAX word)
SEQDUP_VARIED = 1_000   # originals that also get a dist-4 near-copy


def seqdup_stress(tmp: str) -> dict:
    """Sequence near-dup at 1M docs with a 10x-over-cap hot bucket: 1M
    random 64-token sequences plus a planted family of SEQDUP_ORIG
    originals (means 26*t*[1..1], all below the global first quartile,
    so they share SAX word 'aaaaaaaa' — a ~11k-doc bucket vs cap 512,
    forcing the sorted-neighborhood path). Each original has one exact
    copy (dist 0) and the first SEQDUP_VARIED get a +1-on-four-coords
    near-copy (dist 4); distinct originals are 208 apart in L1 (> TH
    200), so the EXACT expected pair set is 5k + 2k pairs. Verifies the
    full pair set and reports wall time."""
    import ray.data
    from wavelet_decomposition_ray.pipelines import queries as cq

    sdir = os.path.join(tmp, "seqs")
    os.makedirs(sdir)
    SEG = 8  # tokens per PAA segment at 64 tokens / SAX_W=8

    def build_bg(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        rng = np.random.default_rng(int(ids[0]) + 77)
        means = rng.integers(0, 1 << 20, (len(ids), cq.SAX_W))
        toks = np.repeat(means, SEG, axis=1).astype(np.int32)
        off = np.arange(len(ids) + 1, dtype=np.int64) * (cq.SAX_W * SEG)
        return pa.table({
            "doc_id": pa.array([f"bg{int(i):07d}" for i in ids]),
            "tokens": pa.ListArray.from_arrays(off, pa.array(toks.ravel())),
        })

    t0 = time.perf_counter()
    (ray.data.range(SEQDUP_BG)
        .map_batches(build_bg, batch_format="pyarrow", batch_size=4096)
        .write_parquet(sdir))

    # planted hot family: mean_t = 26*t on every coordinate (<= 150k,
    # safely under the global first quartile), copies + near-copies
    rows_id, rows_tok = [], []
    for t in range(SEQDUP_ORIG):
        m = np.full(cq.SAX_W, 26 * t, dtype=np.int32)
        toks = np.repeat(m, SEG)
        rows_id += [f"hot{t:05d}a", f"hot{t:05d}b"]
        rows_tok += [toks, toks.copy()]
        if t < SEQDUP_VARIED:
            m2 = m.copy()
            m2[:4] += 1
            rows_id.append(f"hot{t:05d}c")
            rows_tok.append(np.repeat(m2, SEG))
    flat = np.concatenate(rows_tok)
    off = np.concatenate(([0], np.cumsum([len(x) for x in rows_tok])))
    pq.write_table(pa.table({
        "doc_id": pa.array(rows_id),
        "tokens": pa.ListArray.from_arrays(
            pa.array(off, type=pa.int64()), pa.array(flat)),
    }), os.path.join(sdir, "hot.parquet"))
    build_s = time.perf_counter() - t0

    ds = ray.data.read_parquet(sdir, columns=["doc_id", "tokens"])
    t0 = time.perf_counter()
    df = cq.seq_neardup_pairs(ds).to_pandas()
    wall = time.perf_counter() - t0

    got = {(r.doc_a, r.doc_b, int(r.dist)) for r in df.itertuples()}
    want = set()
    for t in range(SEQDUP_ORIG):
        want.add((f"hot{t:05d}a", f"hot{t:05d}b", 0))
        if t < SEQDUP_VARIED:
            want.add((f"hot{t:05d}a", f"hot{t:05d}c", 4))
            want.add((f"hot{t:05d}b", f"hot{t:05d}c", 4))
    assert want <= got, f"missing {len(want - got)} planted pairs"
    extra = got - want
    assert len(extra) <= 16, f"{len(extra)} unexpected pairs"  # bg noise
    assert all(d <= cq.SEQ_NEARDUP_TH for _, _, d in got)
    return {"docs": SEQDUP_BG + len(rows_id),
            "hot_bucket": 2 * SEQDUP_ORIG + SEQDUP_VARIED,
            "pairs_found": len(got), "planted": len(want),
            "build_s": round(build_s, 1), "wall_s": round(wall, 1)}


def rollup_stress(tmp: str) -> dict:
    """The flagship at ~33x the bench corpus: synth sf4.0 (800k
    sequences, ~0.86B tokens — same generator, same length/skew mix),
    one full 10-tier rollup + Gorilla encode + staged write + manifest
    commit, with the in-pipeline reconstruction invariant ON, then a
    decode-scan over every written block. Proves the adaptive
    batch-size / staged-write / metadata-commit design holds an order
    of magnitude past the bench input on this host (the 100-TB design
    point scales by nodes, not per-node input)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from wavelet_decomposition_ray import synth
    from wavelet_decomposition_ray.pipelines import rollup_pipeline as rp
    from wavelet_decomposition_ray.sources.store import read_store

    t0 = time.time()
    seq = synth.ensure_sequences("sf4.0", root=tmp)
    gen_s = time.time() - t0
    tbl = pads.dataset(seq).to_table(columns=["n_tok"])
    n_rows = tbl.num_rows
    n_tokens = int(pc.sum(tbl["n_tok"]).as_py())
    out_dir = os.path.join(tmp, "rollup_out")
    t1 = time.time()
    # n_buckets sized per the run_rollup_job docstring rule (~max(2 x
    # CPUs, windows/7M) = 128 at 0.86B windows): the small-store default
    # 16 caps finalize parallelism at half the host and measured 4x
    # slower (291.6 s vs 73.6 s); 64 measured 169.6 s
    summary = rp.run_rollup_job(
        seq, out_dir, bank="haar", n_tiers=10, n_buckets=128,
        resume=False, verify=True
    )
    job_s = time.time() - t1
    t2 = time.time()
    n_dec = read_store(out_dir).count()
    dec_s = time.time() - t2
    return {
        "n_rows": n_rows,
        "n_tokens": n_tokens,
        "gen_s": round(gen_s, 1),
        "job_s": round(job_s, 1),
        "n_windows": summary["n_windows"],
        "rolled_points_per_s": round(summary["n_windows"] / job_s, 1),
        "tokens_per_s": round(n_tokens / job_s, 1),
        "bytes_encoded": summary["bytes_encoded"],
        "decode_scan_s": round(dec_s, 1),
        "decoded_rows": n_dec,
    }


def engagement_stress(tmp: str) -> dict:
    """The round-5 engagement/prefix family at 20M events / 200k users /
    90 days: dau_mau's per-user interval merge, peak_concurrency's
    bucketed sweep line, watermark_pick's distributed lateness prefix and
    the per-user first/last-day folds of user_lifespan_hist and
    churn_split all run on ~2000x the gate's event count, with exact
    invariants checked (mau >= dau every day; new-user total == distinct
    users; lateness percentiles monotone and inside the planted jitter
    bound; lifespan-histogram total == distinct users; churn halves
    partition the users around the data's own midpoint day).
    Proves the bucket-prefix/driver-seed pattern stays bucket-sized, not
    event-sized, as the stream grows."""
    import ray.data as rd
    from wavelet_decomposition_ray.pipelines import queries as cq

    n_ev, n_users, days = 20_000_000, 200_000, 90
    day_us = 86_400_000_000
    rng = np.random.default_rng(7)
    span = days * day_us
    base = np.sort(rng.integers(5_000_000, span, n_ev, dtype=np.int64))
    jitter = rng.integers(0, 5_000_000, n_ev, dtype=np.int64)
    ts = base - jitter  # arrival order = event_id; event-time jitters back
    uid = (rng.pareto(1.2, n_ev) * 50).astype(np.int64) % n_users
    ev_dir = os.path.join(tmp, "events_big")
    os.makedirs(ev_dir)
    shard = 2_000_000
    for s in range(0, n_ev, shard):
        e = min(s + shard, n_ev)
        pq.write_table(
            pa.table({
                "event_id": pa.array(np.arange(s, e, dtype=np.int64)),
                "ts": pa.array(ts[s:e], type=pa.timestamp("us")),
                "user_id": pa.array(uid[s:e]),
                "event_type": pa.array(["click"] * (e - s)),
                "value": pa.array(np.ones(e - s)),
                "props": pa.array(["{}"] * (e - s)),
            }),
            os.path.join(ev_dir, f"part-{s//shard:03d}.parquet"),
        )
    # the queries read f"{sf_dir}/events.parquet"; point a symlink at the
    # sharded dir (read_parquet handles directories)
    os.symlink(ev_dir, os.path.join(tmp, "events.parquet"))

    t0 = time.time()
    dm = cq.q_dau_mau(tmp).to_pandas()
    dm_s = time.time() - t0
    assert (dm["mau"].to_numpy() >= dm["dau"].to_numpy()).all()
    assert len(dm) == days

    t1 = time.time()
    nr = cq.q_new_vs_returning(tmp).to_pandas()
    nr_s = time.time() - t1
    assert int(nr["new_users"].sum()) == len(np.unique(uid))

    t2 = time.time()
    pk = cq.q_peak_concurrency(tmp).to_pandas().iloc[0]
    pk_s = time.time() - t2
    assert int(pk["peak"]) >= int(dm["dau"].max()) // days  # sanity floor

    t3 = time.time()
    wm = cq.q_watermark_pick(tmp).to_pandas().iloc[0]
    wm_s = time.time() - t3
    assert (int(wm["n_events"]) == n_ev
            and 0 <= int(wm["p50_ms"]) <= int(wm["p99_ms"])
            <= int(wm["p999_ms"]) <= int(wm["max_ms"]) <= 5_000)

    n_users = int(len(np.unique(uid)))
    t4 = time.time()
    ls = cq.q_user_lifespan_hist(tmp).to_pandas()
    ls_s = time.time() - t4
    assert int(ls["n_users"].sum()) == n_users
    assert 0 <= int(ls["span_days"].min()) <= int(ls["span_days"].max()) < days

    t5 = time.time()
    ch = cq.q_churn_split(tmp).to_pandas().iloc[0]
    ch_s = time.time() - t5
    day = ts // day_us
    assert int(ch["mid_day"]) == (int(day.min()) + int(day.max()) + 1) // 2
    assert int(ch["n_first"]) + int(ch["new_users"]) == n_users
    assert int(ch["retained"]) + int(ch["churned"]) == int(ch["n_first"])
    assert int(ch["retained"]) + int(ch["new_users"]) == int(ch["n_second"])
    return {
        "n_events": n_ev, "n_users": n_users,
        "days": days,
        "dau_mau_s": round(dm_s, 1), "new_vs_returning_s": round(nr_s, 1),
        "peak_concurrency_s": round(pk_s, 1),
        "peak": int(pk["peak"]),
        "watermark_pick_s": round(wm_s, 1),
        "p999_lateness_ms": int(wm["p999_ms"]),
        "user_lifespan_hist_s": round(ls_s, 1),
        "churn_split_s": round(ch_s, 1),
    }


def main():
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    out = {}
    only = os.environ.get("STRESS_ONLY", "")
    assert only in ("", "simhash", "clean", "cc", "ann", "video",
                    "seqdup", "rollup", "engagement"), (
        f"STRESS_ONLY={only!r}: valid values are "
        "simhash|clean|cc|ann|video|seqdup|rollup|engagement "
        "(or unset for all) — refusing to silently run nothing"
    )
    if only == "rollup":
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp5:
            out["rollup_860m_tokens"] = rollup_stress(tmp5)
        print(json.dumps(out))
        ray.shutdown()
        return
    with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
        if only in ("", "simhash"):
            out["simhash_1m_docs"] = simhash_stress(tmp)
        if only in ("", "clean"):
            if only == "clean":  # corpus not built by the simhash leg
                _build_corpus(tmp)
            out["corpus_clean_1m_docs"] = corpus_clean_stress(tmp)
    if only in ("", "ann"):
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp2:
            out["ann_1m_vectors"] = ann_stress(tmp2)
    if only in ("", "video"):
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp3:
            out["video_200k_clips"] = video_stress(tmp3)
    if only in ("", "seqdup"):
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp4:
            out["seqdup_1m_docs"] = seqdup_stress(tmp4)
    if only in ("", "engagement"):
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp6:
            out["engagement_20m_events"] = engagement_stress(tmp6)
    if only in ("", "cc"):
        out["cc_6m_edges"] = cc_stress()
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
