"""The query registry's shared skeletons: the per-doc token map's batch
function (Ray-free), the coarse-partition fold and the keyed fold."""

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


def _blocks(table, n_blocks=4):
    import ray.data

    return ray.data.from_arrow(table).repartition(n_blocks)


def test_keyed_agg_folds_each_key_whole_across_parts(ray_session):
    rng = np.random.default_rng(7)
    n = 4000
    t = pa.table({
        "src": pa.array(rng.choice(["a", "b", "c"], n)),
        "tok": rng.integers(-50, 50, n).astype(np.int64),
        "c": rng.integers(0, 1000, n).astype(np.int64),
        "lo": rng.integers(-(1 << 62), 1 << 62, n).astype(np.int64),
        "hi": rng.integers(-(1 << 62), 1 << 62, n).astype(np.int64),
    })
    out = sk.keyed_agg(_blocks(t, 8), ["src", "tok"],
                       {"c": "sum", "lo": "min", "hi": "max"}, "tok"
                       ).to_pandas()
    want = t.to_pandas().groupby(["src", "tok"], as_index=False).agg(
        {"c": "sum", "lo": "min", "hi": "max"})
    assert list(out.columns) == ["src", "tok", "c", "lo", "hi"]
    # one row per key: no key was split between two parts
    assert not out.duplicated(["src", "tok"]).any()
    got = out.sort_values(["src", "tok"]).reset_index(drop=True)
    assert got.equals(want)
    assert all(got[c].dtype == np.int64 for c in ("tok", "c", "lo", "hi"))


def test_keyed_agg_parts_negative_and_near_int64_limit_keys(ray_session):
    big = np.iinfo(np.int64)
    keys = np.array([big.min, big.min + 1, -(1 << 40), -33, -1, 0, 1, 31,
                     big.max - 1, big.max], dtype=np.int64)
    t = pa.table({"k": np.repeat(keys, 3),
                  "x": np.tile(np.array([1, 2, 4], np.int64), len(keys)),
                  "y": np.arange(3 * len(keys), dtype=np.int64)})
    out = sk.keyed_agg(_blocks(t), ["k"],
                       {"x": "sum", "y": "max"}, "k").to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == sorted(keys.tolist())
    assert (out["x"] == 7).all()
    assert out["y"].tolist() == [3 * i + 2 for i in range(len(keys))]
    assert out["x"].dtype == out["y"].dtype == np.int64


def test_keyed_agg_rejects_a_part_key_outside_the_keys():
    with pytest.raises(AssertionError, match="part_key"):
        sk.keyed_agg(None, ["src", "tok"], {"c": "sum"}, "c")
    with pytest.raises(AssertionError):
        sk.keyed_agg(None, ["tok"], {"c": "mean"}, "tok")


def test_keyed_agg_of_an_empty_dataset_has_no_rows(ray_session):
    import ray.data

    empty = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "x": pa.array([], pa.int64())}))
    assert len(sk.keyed_agg(empty, ["k"], {"x": "sum"}, "k").to_pandas()) == 0
