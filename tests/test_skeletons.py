"""The query registry's shared skeletons: the per-doc token map's batch
function (Ray-free) and the coarse-partition fold."""

import numpy as np
import pyarrow as pa
import pytest

from wavelet_decomposition_ray.pipelines import skeletons as sk

COLS = {"doc_id": pa.string(), "n": pa.int64()}


def _batch(lists):
    return pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(lists))], pa.string()),
        "tokens": pa.array(lists, pa.list_(pa.int32())),
    })


def _lengths(t, v, off):
    assert v.dtype == np.int64
    return pa.table({"doc_id": t["doc_id"], "n": pa.array(np.diff(off))})


@pytest.mark.parametrize("lists", [[], [[], []]],
                         ids=["no_rows", "all_docs_empty"])
def test_doc_batch_empty_batch_returns_declared_schema(lists):
    def never(t, v, off):
        raise AssertionError("fn must not run on an empty batch")

    out = sk.doc_batch(never, COLS)(_batch(lists))
    assert out.num_rows == 0
    assert out.schema.equals(pa.schema(COLS))


def test_doc_batch_runs_fn_on_int64_tokens():
    out = sk.doc_batch(_lengths, COLS)(_batch([[1, 2, 3], [], [7]]))
    assert out["n"].to_pylist() == [3, 0, 1]
    assert sk.doc_batch(lambda t, v, off: None, COLS)(
        _batch([[1]])).schema.equals(pa.schema(COLS))


def test_doc_batch_rejects_output_types_that_differ():
    def int32_n(t, v, off):
        return pa.table({"doc_id": t["doc_id"],
                         "n": pa.array(np.diff(off).astype(np.int32))})

    with pytest.raises(AssertionError, match="declared"):
        sk.doc_batch(int32_n, COLS)(_batch([[1, 2]]))


def test_add_part_puts_negative_keys_where_the_user_part_did():
    u = np.array([-(1 << 40), -33, -32, -1, 0, 1, 31, 32, 1 << 40],
                 dtype=np.int64)
    part = sk.add_part(pa.table({"user_id": u}), "user_id", 32)["part"]
    assert part.type == pa.int32()
    # the per-user event folds' former part column
    assert part.to_pylist() == (((u % 32) + 32) % 32).tolist()


def test_fold_by_part_sees_each_key_whole(ray_session):
    import ray.data

    keys = np.repeat(np.arange(-20, 20, dtype=np.int64), 3)
    ds = ray.data.from_arrow(
        pa.table({"k": keys, "x": np.ones(len(keys), np.int64)})
    ).repartition(4)

    def fold(df):
        return df.groupby("k", as_index=False)["x"].sum()

    out = sk.fold_by_part(ds, "k", fold, 8).to_pandas()
    assert sorted(out["k"]) == list(range(-20, 20))
    assert (out["x"] == 3).all()
