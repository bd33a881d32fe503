"""Similarity search over the ``embeddings`` table (list<float> column).

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (``ray.put`` once, read by the batch function — the
broadcast-small-side pattern; nothing is shuffled). Scale path: LSH-bucketed
ANN (random hyperplanes), where only same-bucket candidates are scored —
the groupby key is a small int, exactly the shape that survives 10^12 rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def embedding_matrix(batch: pa.Table) -> np.ndarray:
    """Zero-copy list<float> -> (n, dim) float32 matrix (rows equal-length)."""
    from .listops import list_to_numpy

    vals, off = list_to_numpy(batch["embedding"])
    dims = np.diff(off)
    dim = int(dims[0]) if len(dims) else 0
    assert (dims == dim).all(), "ragged embedding column"
    return vals.reshape(len(dims), dim)


def normalize_rows(m: np.ndarray) -> np.ndarray:
    m = m.astype(np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class CosineTopK:
    """Batch function: per batch, cosine of every row against the
    broadcast query matrix; emits (vec_id, query_id, cos_sim) candidates.

    ``queries_ref`` may be a ``ray.ObjectRef`` (fetched once, in
    ``__init__``) or a plain ndarray for local use.
    """

    def __init__(self, queries_ref, query_ids=None):
        try:
            import ray

            if isinstance(queries_ref, ray.ObjectRef):
                queries_ref = ray.get(queries_ref)
        except Exception:
            pass
        self.q = normalize_rows(np.asarray(queries_ref))
        self.query_ids = (
            np.asarray(query_ids) if query_ids is not None else np.arange(len(self.q))
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = normalize_rows(embedding_matrix(batch))
        sims = m @ self.q.T  # (batch, n_queries)
        n, nq = sims.shape
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(vec_ids, nq)),
                "query_id": pa.array(np.tile(self.query_ids, n)),
                "cos_sim": pa.array(np.round(sims.ravel(), 6)),
            }
        )


def hyperplane_codes(m: np.ndarray, n_planes: int = 12, seed: int = 11) -> np.ndarray:
    """Random-hyperplane LSH bucket codes (deterministic planes)."""
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((m.shape[1], n_planes))
    bits = (np.asarray(m, dtype=np.float64) @ planes) > 0
    codes = np.zeros(len(m), dtype=np.int64)
    for j in range(n_planes):
        codes |= bits[:, j].astype(np.int64) << j
    return codes


def lsh_code_batch(batch: pa.Table, n_planes: int = 12, seed: int = 11) -> pa.Table:
    m = embedding_matrix(batch)
    return batch.append_column(
        "lsh_bucket", pa.array(hyperplane_codes(m, n_planes, seed))
    )


def pairs_within_group(group, threshold: float):
    """Exact cosine over one LSH bucket's rows, emit pairs >= τ."""
    import pandas as pd

    m = normalize_rows(np.stack(group["embedding"].to_numpy()))
    ids = group["vec_id"].to_numpy()
    sims = m @ m.T
    iu = np.triu_indices(len(ids), k=1)
    keep = sims[iu] >= threshold
    ia, ib = ids[iu[0][keep]], ids[iu[1][keep]]
    # canonical vec_a < vec_b: group-row order is NOT contracted across
    # bands, so a pair found in several bands must carry one orientation
    # for the downstream (vec_a, vec_b) keyed fold to merge it into one row
    return pd.DataFrame(
        {
            "vec_a": np.minimum(ia, ib),
            "vec_b": np.maximum(ia, ib),
            "cos_sim": np.round(sims[iu][keep], 6),
        }
    )


class IvfIndex:
    """IVF coarse quantizer: k-means centroids trained once (deterministic
    seed + fixed iterations — no wall-clock, no randomness at query time).

    Scale path: centroids are tiny and broadcast (``ray.put``); assignment is
    a matmul per batch; queries search only the ``n_probe`` nearest lists,
    which is the partition-pruning shape that survives 10^12 vectors
    (list id is the groupby/partition key).
    """

    def __init__(self, n_lists: int = 16, n_iter: int = 10, seed: int = 3):
        self.n_lists = n_lists
        self.n_iter = n_iter
        self.seed = seed
        self.centroids = None

    def train(self, sample: np.ndarray) -> "IvfIndex":
        x = normalize_rows(np.asarray(sample, dtype=np.float64))
        rng = np.random.default_rng(self.seed)
        idx = rng.choice(len(x), size=min(self.n_lists, len(x)), replace=False)
        c = x[np.sort(idx)].copy()
        for _ in range(self.n_iter):
            assign = np.argmax(x @ c.T, axis=1)
            for j in range(len(c)):
                members = x[assign == j]
                if len(members):
                    c[j] = members.mean(axis=0)
            c = normalize_rows(c)
        self.centroids = c
        return self

    def assign(self, m: np.ndarray) -> np.ndarray:
        return np.argmax(normalize_rows(m) @ self.centroids.T, axis=1).astype(np.int32)

    def probe_lists(self, query: np.ndarray, n_probe: int) -> np.ndarray:
        sims = self.centroids @ normalize_rows(query[None, :])[0]
        return np.argsort(-sims, kind="stable")[:n_probe].astype(np.int32)


def ivf_assign_batch(batch: "pa.Table", index_ref) -> "pa.Table":
    """map_batches fn: add the IVF list id (the ANN partition key)."""
    try:
        import ray

        if isinstance(index_ref, ray.ObjectRef):
            index_ref = ray.get(index_ref)
    except Exception:
        pass
    m = embedding_matrix(batch)
    return batch.append_column("ivf_list", pa.array(index_ref.assign(m)))


# ---- product quantization (Jégou, Douze, Schmid, TPAMI 2011) ------------
# The memory-side ANN complement to IVF: vectors compress to one byte per
# subspace, queries scan codes with an additive distance table (ADC).
# Codebook here = the quantized first-PQ_K training vectors per subspace
# (the sampled-codebook baseline) and everything runs in fixed-point
# integers, so encode + ADC are bit-exact against a pure-SQL twin.

PQ_QSCALE = 1 << 20   # same fixed-point grid as kmeans_assign/embed_gram
PQ_K = 16             # centroids per subspace (one nibble per code)
PQ_M = 8              # subspaces (64-dim -> 8 dims each)


def pq_quantize(m: np.ndarray) -> np.ndarray:
    """float matrix -> fixed-point int64 (floor(x * 2^20 + 0.5))."""
    return np.floor(np.asarray(m, dtype=np.float64) * PQ_QSCALE + 0.5).astype(
        np.int64
    )


def pq_encode(qm: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """(n, d) int64 vectors + (PQ_K, d) int64 codebook -> (n, PQ_M) uint8
    codes: per subspace, argmin squared L2 (ties -> smallest index, which
    np.argmin and the SQL row_number twin both produce)."""
    n, d = qm.shape
    sub = d // PQ_M
    codes = np.empty((n, PQ_M), dtype=np.uint8)
    for m in range(PQ_M):
        x = qm[:, m * sub : (m + 1) * sub]          # (n, sub)
        c = codebook[:, m * sub : (m + 1) * sub]    # (K, sub)
        # (n, K) integer squared distances via expansion (values bounded:
        # |q| < 2^24 -> d2 < 2^49 * sub < 2^52, int64-safe)
        d2 = (
            (x * x).sum(axis=1)[:, None]
            - 2 * (x @ c.T)
            + (c * c).sum(axis=1)[None, :]
        )
        codes[:, m] = np.argmin(d2, axis=1)
    return codes


def pq_adc_table(q: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Query ADC table: (PQ_M, PQ_K) integer squared distances from the
    query's subvectors to every centroid."""
    d = len(q)
    sub = d // PQ_M
    out = np.empty((PQ_M, PQ_K), dtype=np.int64)
    for m in range(PQ_M):
        diff = codebook[:, m * sub : (m + 1) * sub] - q[m * sub : (m + 1) * sub]
        out[m] = (diff * diff).sum(axis=1)
    return out


def brute_force_topk(mat: np.ndarray, ids: np.ndarray, query: np.ndarray, k: int):
    """Single-process reference for tests: top-k by (cos desc, id asc)."""
    sims = normalize_rows(mat) @ normalize_rows(query[None, :])[0]
    order = np.lexsort((ids, -sims))[:k]
    return ids[order], sims[order]
