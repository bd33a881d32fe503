"""The query registry's shared skeletons: the per-doc token map's batch
function (Ray-free), the coarse-partition fold, the keyed fold and the
broadcast dimension."""

import os
import re

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

    cols = {"k": pa.int64(), "x": pa.int64()}
    empty = ray.data.from_arrow(pa.schema(cols).empty_table())
    out = sk.keyed_agg(empty, ["k"], {"x": "sum"}, "k")
    assert len(out.to_pandas()) == 0
    # Ray Data collects the zero-row fold without columns; collect keeps
    # the key and aggregate columns and their types
    df = sk.collect(out, cols)
    assert len(df) == 0 and list(df.columns) == ["k", "x"]
    assert (df["k"].dtype, df["x"].dtype) == (np.int64, np.int64)


def test_broadcast_dim_lookup_and_member(ray_session):
    dim = sk.broadcast_dim(np.array([30, 10, 20]), "part",
                           size=np.array([3, 1, 2]))
    assert len(dim) == 3
    assert dim.lookup(pa.array([20, 30, 20]))["size"].tolist() == [2, 3, 2]
    assert dim.member(np.array([5, 10, 25, 30, 40])).tolist() == [
        False, True, False, True, False]


def test_broadcast_dim_dangling_key_raises(ray_session):
    dim = sk.broadcast_dim([1, 2, 4], "customer", seg=["a", "b", "c"])
    with pytest.raises(ValueError, match=r"'customer'.*dangling key 3"):
        dim.lookup([2, 3, 9])
    # past the last key too: no clamped neighbour row
    with pytest.raises(ValueError, match="dangling key 9"):
        dim.lookup([9])


def test_broadcast_dim_duplicate_keys_raise():
    # raised on the driver, before anything is put in the object store
    with pytest.raises(ValueError, match=r"'orders' has duplicate key 7"):
        sk.broadcast_dim([7, 3, 7], "orders")
    with pytest.raises(ValueError, match="duplicate key 'x'"):
        sk.sorted_dim(["x", "y", "x"], "types")


def test_broadcast_dim_empty(ray_session):
    dim = sk.broadcast_dim(np.empty(0, np.int64), "none",
                           v=np.empty(0, np.int64))
    assert len(dim) == 0
    m = dim.member(np.array([1, 2, 3]))
    assert m.dtype == bool and m.tolist() == [False] * 3
    assert len(dim.lookup(np.empty(0, np.int64))["v"]) == 0
    # a non-empty dimension answers zero probes with zero rows as well
    full = sk.broadcast_dim([1], "one", v=["a"])
    assert len(full.lookup(np.empty(0, np.int64))["v"]) == 0
    assert len(full.member(np.empty(0, np.int64))) == 0


def test_broadcast_dim_string_keys_and_payloads_round_trip(ray_session):
    keys = np.array(["view", "click", "buy", "cart"], dtype=object)
    names = np.array(["V", "C", "B", "C"], dtype=object)
    dim = sk.broadcast_dim(keys, "event types", name=names,
                           n=np.arange(8).reshape(4, 2))
    probe = pa.chunked_array([["buy", "view"], ["cart", "buy"]])
    got = dim.lookup(probe)
    assert got["name"].tolist() == ["B", "V", "C", "B"]
    assert all(type(x) is str for x in got["name"])
    assert got["n"].tolist() == [[4, 5], [0, 1], [6, 7], [4, 5]]
    assert dim.member(["buy", "bu", "buyer", "zzz", "click"]).tolist() == [
        True, False, False, False, True]


_QUERY_MODULES = ("queries.py", "data_queries.py")


@pytest.mark.parametrize("module", _QUERY_MODULES)
def test_query_modules_join_only_through_broadcast_dim(module):
    """Key joins go through ``broadcast_dim``: no foreign-key ``assert``
    (``python -O`` strips it, and a dangling key then takes its
    neighbour's row) and no hand-clamped ``searchsorted`` probe."""
    path = os.path.join(os.path.dirname(sk.__file__), module)
    src = open(path).read()
    banned = [r"assert[^\n]*\\?\n?[^\n]*(dangling|violates[^\n]*FK)",
              r"np\.minimum\(np\.searchsorted\(",
              r"idx\[idx >= len\("]
    for pat in banned:
        hit = re.search(pat, src)
        assert hit is None, f"{module}: {hit.group(0)!r}"
