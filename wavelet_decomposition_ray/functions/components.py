"""Connected components over a verified-duplicate pair list — survivor
selection for dedup: every component keeps its min doc_id.

The pair list is the OUTPUT of the bucketed near-dup search, which is
bounded by buckets x cap^2 — orders of magnitude smaller than the corpus —
so a driver-side union-find behind an explicit size guard is the fast path.
When a pathological corpus (template spam) pushes the verified pair list
over the guard, :func:`propagate_min_labels` runs the same computation
DISTRIBUTED: iterative min-label propagation (each node takes the min label
over itself and its neighbours) plus pointer jumping (label <- label(label),
halving path lengths), so convergence is O(log diameter) rounds rather than
O(diameter). All wide steps are ``skeletons.fold_by_part`` pandas folds
over coarse partitions (never one Ray group per node — the micro-group
trap, and never Acero joins — they crash on the empty hash partitions
converged label tables produce).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

MAX_DRIVER_PAIRS = 5_000_000
_CC_PARTS = 16  # fold_by_part parts of each label-propagation fold


def _snap(ds):
    """Materialize AND detach from the plan/stats lineage: a loop of
    materialized datasets otherwise chains every prior round's execution
    stats into each new plan, and per-round wall time grows ~3x per round
    with CONSTANT data (measured on a 400-chain: 0.3 s -> 23 s by round
    5). Rebuilding from the materialized block refs is zero-copy (blocks
    stay in the object store) and resets the chain."""
    import ray.data

    return ray.data.from_arrow_refs(ds.materialize().to_arrow_refs())


def _fold_min_label(ds):
    """(node, label) rows -> per-node min label, via coarse partitions of
    ``node`` with ONE pandas groupby per partition."""
    from ..pipelines.skeletons import fold_by_part

    def fold(df):
        out = df.groupby("node", as_index=False)["label"].min()
        out["label"] = out["label"].astype(np.int64)
        return out

    return fold_by_part(ds, "node", fold, _CC_PARTS)


def _keyed_lookup(req_ds, svc_ds):
    """Distributed lookup without Acero: requests (key, val=requester) meet
    services (key, val=answer, one row per key) inside coarse partitions
    of ``key``; ONE pandas merge per partition emits
    (node=requester, label=answer). Dataset.join hash-partitions by key and
    crashes on the empty (schemaless) partitions that converged label
    tables produce — partition folds never see empty groups."""
    from ..pipelines.skeletons import fold_by_part

    def tag(side):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {"key": t["key"], "val": t["val"],
                 "side": pa.array(np.full(t.num_rows, side, dtype=np.int8))}
            )

        return f

    both = req_ds.map_batches(tag(1), batch_format="pyarrow").union(
        svc_ds.map_batches(tag(0), batch_format="pyarrow")
    )

    def fold(df):
        svc = df[df["side"] == 0][["key", "val"]].rename(columns={"val": "label"})
        req = df[df["side"] == 1][["key", "val"]].rename(columns={"val": "node"})
        out = req.merge(svc, on="key")[["node", "label"]]
        out["node"] = out["node"].astype(np.int64)
        out["label"] = out["label"].astype(np.int64)
        return out

    return fold_by_part(both, "key", fold, _CC_PARTS)


def _label_sum(labels) -> int:
    """Sum of the label column (labels only decrease, so an unchanged sum
    is the fixpoint)."""
    from ..pipelines.skeletons import collect_agg

    return int(collect_agg(labels, [], {"label": "sum"}, 1)["label"].iloc[0])


def propagate_min_labels(pairs_ds, max_iters: int = 64):
    """Distributed min-label connected components over a pairs Dataset
    (``doc_a``/``doc_b`` int64 edges). Returns a Dataset of
    (node, label = component min doc_id); labels match
    :func:`union_find_min_labels` exactly (pytest-pinned).

    Per round: (1) neighbour propagation — each edge ships its source's
    current label to its destination, new label = min over self +
    neighbours; (2) pointer jump — label <- label(label), halving pointer
    chains so chains/stars converge in O(log diameter) rounds. Every wide
    step is a coarse-partition pandas fold (:func:`_keyed_lookup`); the
    label dataset is materialized per round (node-sized, far smaller than
    the corpus) so lineage does not grow; convergence = label sum
    unchanged (labels only decrease, so equality is a fixpoint).

    Measured: 200k edges / 150k nodes incl. 50 chains of 1000 -> exact
    union-find labels in ~19 s at 16 cpus. The driver union-find does the
    same in 0.4 s — this path is strictly for pair lists too large to
    collect (> MAX_DRIVER_PAIRS), where per-round cost is dominated by the
    edge-sized lookup shuffle, i.e. O(E/cluster) per round, O(log D)
    rounds."""
    import ray

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"key": pa.array(np.concatenate([a, b])),
             "val": pa.array(np.concatenate([b, a]))}
        )

    # edges as lookup REQUESTS keyed by src: (key=src, val=dst)
    edges = _snap(pairs_ds.map_batches(both_dirs, batch_format="pyarrow"))

    def init_labels(t: pa.Table) -> pa.Table:
        n = np.unique(t["key"].to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(n), "label": pa.array(n)})

    labels = _snap(_fold_min_label(
        edges.map_batches(init_labels, batch_format="pyarrow")
    ))
    prev_sum = _label_sum(labels)

    def as_svc(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["node"], "val": t["label"]})

    def as_jump_req(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["label"], "val": t["node"]})

    # label blocks kept per round: few, and at most one per two CPUs
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    np_ = max(2, min(8, ncpu // 2))
    for _ in range(max_iters):
        svc = labels.map_batches(as_svc, batch_format="pyarrow")
        # (1) neighbour min: edge (src, dst) ships label(src) to node dst.
        # NB each shuffle runs in its OWN materialized plan (two chained
        # shuffle groupbys in one plan deadlock a small cluster — the
        # pool-sizing landmine, SURVEY.md §4.2.3), and the label table is
        # REPARTITIONED each round: a fold's sort shuffle emits roughly
        # one output block per input block, so without the coalesce the
        # block count compounds ~4x per round (measured 6 -> 426 by round
        # 3) and scheduling cost, not data, dominates.
        msgs = _snap(_keyed_lookup(edges, svc))
        labels = _snap(_fold_min_label(msgs.union(labels)).repartition(np_))
        # (2) pointer jump: label <- label(label)
        svc = labels.map_batches(as_svc, batch_format="pyarrow")
        req = labels.map_batches(as_jump_req, batch_format="pyarrow")
        jumped = _snap(_keyed_lookup(req, svc))
        labels = _snap(_fold_min_label(jumped).repartition(np_))
        cur_sum = _label_sum(labels)
        if cur_sum == prev_sum:
            return labels
        prev_sum = cur_sum
    raise RuntimeError(
        f"connected components did not converge in {max_iters} rounds"
    )


def union_find_min_labels(doc_a: np.ndarray, doc_b: np.ndarray) -> dict[int, int]:
    """Union-find over edges (a, b); returns {doc_id: component_min} for
    every doc that appears in an edge."""
    if len(doc_a) > MAX_DRIVER_PAIRS:
        raise ValueError(
            f"pair list has {len(doc_a)} edges > driver guard "
            f"{MAX_DRIVER_PAIRS}; run the groupby label-propagation path"
        )
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(doc_a.tolist(), doc_b.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {d: find(d) for d in set(doc_a.tolist()) | set(doc_b.tolist())}
