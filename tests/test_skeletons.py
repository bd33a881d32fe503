"""The query registry's shared skeletons: the per-doc token map's batch
function (Ray-free), the coarse-partition fold, the keyed fold, the
driver fold under a row bound and the broadcast dimension."""

import os
import re
import subprocess
import sys

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
                       {"c": "sum", "lo": "min", "hi": "max"}).to_pandas()
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
                       {"x": "sum", "y": "max"}).to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == sorted(keys.tolist())
    assert (out["x"] == 7).all()
    assert out["y"].tolist() == [3 * i + 2 for i in range(len(keys))]
    assert out["x"].dtype == out["y"].dtype == np.int64


def test_keyed_agg_rejects_an_unknown_aggregate():
    with pytest.raises(AssertionError):
        sk.keyed_agg(None, ["tok"], {"c": "mean"})
    with pytest.raises(AssertionError):
        sk.collect_agg(None, ["tok"], {"c": "count"}, 1)


@pytest.mark.parametrize("keys", [["w"], ["w", "n"]],
                         ids=["string_key", "two_column_key"])
def test_keyed_agg_folds_string_and_two_column_keys_whole(ray_session,
                                                         keys):
    rng = np.random.default_rng(3)
    n = 3000
    t = pa.table({
        "w": pa.array(rng.choice(["a", "bb", "ccc", "", "zürich"], n)),
        "n": rng.integers(-3, 3, n).astype(np.int64),
        "c": rng.integers(0, 100, n).astype(np.int64),
    })
    out = sk.keyed_agg(_blocks(t, 8), keys, {"c": "sum"}).to_pandas()
    assert not out.duplicated(keys).any()
    want = t.to_pandas().groupby(keys, as_index=False)["c"].sum()
    got = out.sort_values(keys).reset_index(drop=True)
    assert got.equals(want.sort_values(keys).reset_index(drop=True))


def test_add_part_hashes_a_string_key_the_same_in_every_process():
    t = pa.table({"w": ["the", "ray", "rollup", "", "zürich"]})
    pinned = [10, 12, 1, 21, 6]
    assert sk.add_part(t, "w", 32)["part"].to_pylist() == pinned
    # a fresh interpreter with another str-hash seed gives the same parts
    code = ("import pyarrow as pa; "
            "from wavelet_decomposition_ray.pipelines import skeletons; "
            "print(skeletons.add_part(pa.table({'w': ['the', 'ray', "
            "'rollup', '', 'zürich']}), 'w', 32)['part'].to_pylist())")
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str(pinned)
    two = pa.table({"a": [1, 2, -3], "b": ["x", "y", "x"]})
    assert sk.add_part(two, ["a", "b"], 32)["part"].to_pylist() == [17, 3, 3]


def test_collect_agg_matches_pandas_across_blocks(ray_session):
    rng = np.random.default_rng(11)
    n = 5000
    t = pa.table({
        "day": rng.integers(0, 30, n).astype(np.int64),
        "et": pa.array(rng.choice(["view", "click", "buy"], n)),
        "c": rng.integers(0, 100, n).astype(np.int64),
        "lo": rng.integers(-(1 << 62), 1 << 62, n).astype(np.int64),
        "hi": rng.random(n),
    })
    aggs = {"c": "sum", "lo": "min", "hi": "max"}
    out = sk.collect_agg(_blocks(t, 8), ["day", "et"], aggs, 90)
    want = t.to_pandas().groupby(["day", "et"], as_index=False).agg(aggs)
    got = out.sort_values(["day", "et"]).reset_index(drop=True)
    assert list(out.columns) == ["day", "et", "c", "lo", "hi"]
    assert got.equals(want)


def test_collect_agg_raises_one_row_past_the_bound(ray_session):
    t = pa.table({"k": np.arange(100, dtype=np.int64) % 10,
                  "x": np.ones(100, np.int64)})
    assert len(sk.collect_agg(_blocks(t), ["k"], {"x": "sum"}, 10)) == 10
    with pytest.raises(ValueError, match="max_rows=9"):
        sk.collect_agg(_blocks(t), ["k"], {"x": "sum"}, 9)


def test_collect_agg_of_an_empty_dataset_keeps_its_columns(ray_session):
    import ray.data

    cols = {"k": pa.string(), "x": pa.int64(), "f": pa.float64()}
    empty = ray.data.from_arrow(pa.schema(cols).empty_table())
    df = sk.collect_agg(empty, ["k"], {"x": "sum", "f": "max"}, 5)
    assert len(df) == 0 and list(df.columns) == ["k", "x", "f"]
    assert (df["k"].dtype, df["x"].dtype, df["f"].dtype) == (
        object, np.int64, np.float64)


def test_collect_agg_without_keys_gives_one_row(ray_session):
    t = pa.table({"x": np.arange(10, dtype=np.int64),
                  "y": np.arange(10, dtype=np.int64)})
    df = sk.collect_agg(_blocks(t), [], {"x": "sum", "y": "max"}, 1)
    assert df.to_dict("records") == [{"x": 45, "y": 9}]


def _top3(df):
    return (df.sort_values(["k", "v", "id"], ascending=[True, False, True],
                           kind="mergesort")
            .groupby("k", sort=False).head(3).reset_index(drop=True))


def test_collect_topk_refolds_chunk_by_chunk(ray_session, monkeypatch):
    rng = np.random.default_rng(5)
    n = 800
    t = pa.table({"id": np.arange(n, dtype=np.int64),
                  "k": rng.integers(0, 5, n).astype(np.int64),
                  "v": rng.integers(0, 50, n).astype(np.int64)})
    seen = []

    def top3(df):
        seen.append(len(df))
        return _top3(df)

    monkeypatch.setattr(sk, "COLLECT_CHUNK_ROWS", 150)
    cols = {"id": pa.int64(), "k": pa.int64(), "v": pa.int64()}
    got = sk.collect_topk(_blocks(t, 8), cols, top3, 15)
    assert got.equals(_top3(t.to_pandas()))
    # refolded as it went: no call held the whole input
    assert len(seen) > 1 and max(seen) < n
    with pytest.raises(ValueError, match="max_rows=14"):
        sk.collect_topk(_blocks(t, 8), cols, _top3, 14)


def test_collect_topk_of_an_empty_dataset_keeps_its_columns(ray_session):
    import ray.data

    cols = {"id": pa.int64(), "k": pa.int64(), "v": pa.int64()}
    empty = ray.data.from_arrow(pa.schema(cols).empty_table())
    df = sk.collect_topk(empty, cols, _top3, 15)
    assert len(df) == 0 and list(df.columns) == ["id", "k", "v"]
    assert df["v"].dtype == np.int64


def test_keyed_agg_of_an_empty_dataset_has_no_rows(ray_session):
    import ray.data

    cols = {"k": pa.int64(), "x": pa.int64()}
    empty = ray.data.from_arrow(pa.schema(cols).empty_table())
    out = sk.keyed_agg(empty, ["k"], {"x": "sum"})
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
_PIPELINES = os.path.dirname(sk.__file__)
_FUNCTIONS = os.path.join(os.path.dirname(_PIPELINES), "functions")
_FUNCTION_MODULES = tuple(sorted(
    f for f in os.listdir(_FUNCTIONS) if f.endswith(".py")))
_SCANNED = (*_QUERY_MODULES, "rollup_pipeline.py", *_FUNCTION_MODULES)


def _source(module: str) -> str:
    """Source of a ``pipelines/`` module, else of a ``functions/`` one."""
    path = os.path.join(_PIPELINES, module)
    if not os.path.exists(path):
        path = os.path.join(_FUNCTIONS, module)
    return open(path).read()


@pytest.mark.parametrize("module", _SCANNED)
def test_query_modules_aggregate_only_through_the_skeletons(module):
    """No Ray Data hash aggregate: no ``ray.data.aggregate`` import, no
    ``Dataset.aggregate(...)`` of aggregate functions, no
    ``groupby(...).count()``, no ``.sum([...])`` and no ``.sum("col")``
    (``Dataset.sum`` of a column)."""
    src = _source(module)
    banned = [r"ray\.data\.aggregate",
              r"\.aggregate\(\s*\*?\[?\s*"
              r"(Sum|Min|Max|Count|Mean|Std|AggregateFn)\b",
              r"\.groupby\([^()]*\)\s*\.(count\(\)|sum\(\s*\")",
              r"\.sum\(\s*[\[\"']"]
    for pat in banned:
        hit = re.search(pat, src)
        assert hit is None, f"{module}: {hit.group(0)!r}"


def test_package_groups_only_through_fold_by_part():
    """``skeletons.fold_by_part`` is the package's only Ray group-by: no
    ``.map_groups(`` and no ``num_partitions=`` in the query modules, the
    flagship pipeline or ``functions/``, and one ``.map_groups(`` in
    ``skeletons.py``, inside ``fold_by_part``."""
    hits = [f"{module}:{src.count(chr(10), 0, m.start()) + 1}: {m.group(0)}"
            for module in _SCANNED for src in [_source(module)]
            for m in re.finditer(r"\.map_groups\(|num_partitions=", src)]
    assert hits == [], hits
    sk_src = _source("skeletons.py")
    assert sk_src.count(".map_groups(") == 1
    fold = sk_src[sk_src.index("def fold_by_part("):]
    fold = fold[:fold.index("\ndef ")]
    assert ".map_groups(" in fold and "num_partitions=" not in sk_src


@pytest.mark.parametrize("module", _QUERY_MODULES)
def test_query_modules_join_only_through_broadcast_dim(module):
    """Key joins go through ``broadcast_dim``: no foreign-key ``assert``
    (``python -O`` strips it, and a dangling key then takes its
    neighbour's row) and no hand-clamped ``searchsorted`` probe."""
    src = _source(module)
    banned = [r"assert[^\n]*\\?\n?[^\n]*(dangling|violates[^\n]*FK)",
              r"np\.minimum\(np\.searchsorted\(",
              r"idx\[idx >= len\("]
    for pat in banned:
        hit = re.search(pat, src)
        assert hit is None, f"{module}: {hit.group(0)!r}"


_ROOT = os.path.dirname(os.path.dirname(_PIPELINES))
_JOB_SCRIPTS = tuple(sorted(
    f"jobs/{f}" for f in os.listdir(os.path.join(_ROOT, "jobs"))
    if f.endswith(".py")))


@pytest.mark.parametrize(
    "module", (*_SCANNED, "skeletons.py", "materialize.py", *_JOB_SCRIPTS))
def test_no_actor_pool_and_no_dataset_join(module):
    """Every step is a plain Ray task: no ``concurrency=`` /
    ``compute=`` / ``fn_constructor_args`` / ``fn_constructor_kwargs``
    (an actor pool; Ray rejects a class passed to ``map_batches``
    without ``concurrency``, so no class either) and no
    ``Dataset.join`` (its hash-shuffle aggregators are actors too)."""
    src = (open(os.path.join(_ROOT, module)).read()
           if module.startswith("jobs/") else _source(module))
    banned = [r"\b(concurrency|compute)\s*=",
              r"fn_constructor_(args|kwargs)",
              r"\.join\(\s*\w+\s*,\s*[\"'](inner|left|right|outer)"]
    for pat in banned:
        hit = re.search(pat, src)
        assert hit is None, f"{module}: {hit.group(0)!r}"
