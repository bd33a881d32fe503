"""Property-based tests (FIXTURES.md invariants 1/3/4): round-trip token
equality for arbitrary lengths/values, aggregate-tree consistency, codec
identity — hypothesis-generated inputs rather than fixed seeds."""

import struct

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from wavelet_decomposition_ray import native
from wavelet_decomposition_ray import oracle as oc
from wavelet_decomposition_ray.stages import encode as es

needs_native = pytest.mark.skipif(
    native.decoder() is None, reason="no C compiler on this host"
)

tokens_st = st.lists(st.integers(0, (1 << 20) - 1), min_size=1, max_size=400)
int64_st = st.lists(
    st.integers(-(1 << 63), (1 << 63) - 1), min_size=0, max_size=200
)


@settings(max_examples=60, deadline=None)
@given(tokens_st)
def test_roundtrip_property(toks):
    t = np.array(toks, dtype=np.int32)
    for bank in oc.BANKS:
        assert np.array_equal(oc.roundtrip_tokens(t, bank), t)


@settings(max_examples=60, deadline=None)
@given(tokens_st)
def test_aggregate_tree_property(toks):
    t = np.array(toks, dtype=np.int32)
    direct = oc.rollup_all_tiers(t, 6)
    tree = oc.rollup_tree(t, 6)
    for tier in direct:
        for k in direct[tier]:
            np.testing.assert_array_equal(tree[tier][k], direct[tier][k])


@settings(max_examples=80, deadline=None)
@given(int64_st)
def test_dod_codec_property(vals):
    v = np.array(vals, dtype=np.int64)
    assert np.array_equal(oc.dod_decode(oc.dod_encode(v), len(v)), v)


@settings(max_examples=40, deadline=None)
@given(tokens_st)
def test_rollup_block_codec_property(toks):
    t = np.array(toks, dtype=np.int32)
    tier = oc.rollup_tier(t, 4)
    back = oc.decode_rollup_block(oc.encode_rollup_block(tier))
    for k in tier:
        np.testing.assert_array_equal(back[k], tier[k])


@needs_native
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1,
                 max_size=120),
        min_size=1,
        max_size=24,
    )
)
def test_dod_decode_streams_property(blocks):
    """The native decoder == the input for any stream mix: each block frames
    as one blob (min = the block, max = it reversed, sum = it negated,
    which wraps at int64 min) and the whole column decodes at once."""
    tiers = []
    for b in blocks:
        v = np.array(b, dtype=np.int64)
        tiers.append({"wmin": v, "wmax": v[::-1], "wsum": -v,
                      "wcount": np.ones(len(v), dtype=np.int32)})
    arr = pa.array([oc.encode_rollup_block(t) for t in tiers], pa.binary())
    dec = es.decode_blobs(arr)
    off = dec["offsets"]
    for j, tier in enumerate(tiers):
        for k, v in tier.items():
            np.testing.assert_array_equal(dec[k][off[j]:off[j + 1]], v)


@needs_native
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1,
                 max_size=80),
        min_size=1,
        max_size=12,
    )
)
def test_dod_encode_blocks_matches_scalar_property(blocks):
    """The native encoder's streams are byte-identical to the scalar
    reference for every block: each block is a row of
    ``np.repeat(block, 2)`` int64 tokens, so its tier-1 min and max
    streams are the block itself."""
    vals = [np.array(b, dtype=np.int64) for b in blocks]
    batch = pa.table({
        "doc_id": [f"d{i}" for i in range(len(vals))],
        "source": ["s"] * len(vals),
        "tokens": pa.array([np.repeat(v, 2) for v in vals],
                           type=pa.list_(pa.int64())),
    })
    blobs = es.RollupEncode(n_tiers=1)(batch)["blob"].to_pylist()
    for j, v in enumerate(vals):
        want = oc.dod_encode(v)
        l0, l1, _ = struct.unpack_from("<3I", blobs[j], 16)
        assert blobs[j][28:28 + l0] == want, j
        assert blobs[j][28 + l0:28 + l0 + l1] == want, j


def _row_tokens(length, kind, seed, dtype):
    """One row of ``length`` tokens aimed at one corner of the codec:
    full-range values (sums wrap, 64-bit escape codes), alternating dtype
    extremes, a small-step walk or a constant."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    if kind == "full":
        return rng.integers(info.min, info.max, length, dtype=dtype,
                            endpoint=True)
    if kind == "extremes":
        return rng.choice(np.array([info.min, info.max], dtype=dtype), length)
    if kind == "walk":
        return np.cumsum(rng.integers(-40, 41, length)).astype(dtype)
    return np.full(length, info.max, dtype=dtype)


_row_len_st = st.one_of(
    st.integers(1, 40),
    st.builds(lambda k, d: max(1, 2**k + d), st.integers(1, 9),
              st.sampled_from([-1, 0, 1])),
)


@needs_native
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([np.int32, np.int64]),
    st.integers(1, 30),
    st.lists(
        st.tuples(_row_len_st,
                  st.sampled_from(["full", "extremes", "walk", "const"]),
                  st.integers(0, 2**32 - 1)),
        max_size=6,
    ),
)
def test_rollup_encode_matches_oracle_property(dtype, n_tiers, rows):
    """RollupEncode's fused kernel == the per-row scalar reference: blob
    (tier t, row r) is ``oracle.encode_rollup_block(oracle.rollup_tier(
    row, 2**t))``, in tier-major order, for int32 and int64 tokens, rows of
    length 1 and 2**k +- 1, every tier count 1..30 and extreme values (a
    batch with no rows too)."""
    toks = [_row_tokens(n, kind, seed, dtype) for n, kind, seed in rows]
    batch = pa.table({
        "doc_id": [f"d{i}" for i in range(len(toks))],
        "source": ["s"] * len(toks),
        "tokens": pa.array(toks, type=pa.list_(pa.from_numpy_dtype(dtype))),
    })
    enc = es.RollupEncode(n_tiers=n_tiers)(batch)
    want = [oc.encode_rollup_block(oc.rollup_tier(t, 1 << tier))
            for tier in range(1, n_tiers + 1) for t in toks]
    assert enc["blob"].to_pylist() == want
    assert enc["nbytes"].to_pylist() == [len(b) for b in want]
    assert enc["n_windows"].to_pylist() == [
        -(-len(t) // (1 << tier)) for tier in range(1, n_tiers + 1)
        for t in toks]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(max_size=300), max_size=12))
def test_rolling_hash_vectorized_property(texts):
    """Vectorized Rabin-Karp == the scalar Horner loop on arbitrary
    unicode batches (empties, surrogrates-excluded text, mixed lengths)."""
    from wavelet_decomposition_ray.functions.text import rolling_hashes

    MOD, BASE = (1 << 61) - 1, 257

    def scalar(t):
        h = 0
        for b in t.encode():
            h = (h * BASE + b) % MOD
        return h

    assert rolling_hashes(texts).tolist() == [scalar(t) for t in texts]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
        min_size=1, max_size=8,
    )
)
def test_sliding_w8_batch_property(rows):
    """The concatenated-view + boundary-mask sliding window equals the
    per-row reference on ragged batches (incl. rows shorter than W)."""
    import pyarrow as pa

    from wavelet_decomposition_ray.pipelines.queries import q_sliding_w8

    # reuse the inner batch fn via a fake table (no Ray needed)
    slide = None
    import wavelet_decomposition_ray.pipelines.queries as qmod

    # rebuild the same batch fn q_sliding_w8 uses
    W = 8
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(rows))]),
            "tokens": pa.array(rows, type=pa.list_(pa.int64())),
        }
    )
    from wavelet_decomposition_ray.functions.listops import list_to_numpy

    vals, off = list_to_numpy(t["tokens"])
    v64 = vals.astype(np.int64)
    lens = np.diff(off)
    doc_of = np.repeat(np.arange(len(lens)), lens)
    n = len(v64)
    want = []
    for r, row in enumerate(rows):
        x = np.asarray(row, dtype=np.int64)
        for p in range(W - 1, len(x)):
            w = x[p - W + 1 : p + 1]
            want.append((f"d{r}", p, int(w.min()), int(w.max()), int(w.sum())))
    if n >= W:
        idx = np.nonzero(doc_of[: n - W + 1] == doc_of[W - 1 :])[0]
        win = np.lib.stride_tricks.sliding_window_view(v64, W)[idx]
        d = doc_of[idx]
        got = list(
            zip(
                [f"d{i}" for i in d],
                (idx - off[d] + W - 1).tolist(),
                win.min(axis=1).tolist(),
                win.max(axis=1).tolist(),
                win.sum(axis=1).tolist(),
            )
        )
    else:
        got = []
    assert sorted(got) == sorted(want)


def test_langid_packed_scorer_matches_literal_counts():
    """The one-pass packed-trigram LangId equals per-gram literal
    (non-overlapping) substring counting with alphabetical argmax —
    including empty/short docs, non-ascii text, shared grams (en/fr 'ion'),
    and score ties."""
    import pyarrow as pa

    from wavelet_decomposition_ray.functions.text import LangId

    texts = [
        "", "ab", "the and ing", "THE AND ING of ion",
        "que los ado nte que", "der die und ein sch cht",
        "thé überión ionion", "ионион", "xyzxyzxyz",
        "ion ion ion",  # en/fr shared gram -> tie, alphabetical pick
        "a" * 50, " th of ng  de ",
    ]
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
        }
    )
    got = LangId()(batch).to_pandas()

    langs = sorted(LangId.PROFILES)
    for i, t in enumerate(texts):
        lt = t.lower()
        scores = [
            sum(lt.count(g) for g in LangId.PROFILES[lang]) for lang in langs
        ]
        best = max(range(len(langs)), key=lambda j: (scores[j], -j))
        assert got.loc[i, "pred_lang"] == langs[best], t
        assert got.loc[i, "lang_score"] == scores[best], t


def test_cusum_segmented_cummin_matches_scalar():
    """The offset-trick segmented cusum must equal the scalar recurrence
    s_k = max(0, s_{k-1} + d_k) on random multi-doc batches, including
    all-negative and all-positive drift docs."""
    import numpy as np

    from wavelet_decomposition_ray.pipelines import queries as cq

    rng = np.random.default_rng(11)
    lens = [1, 2, 8, 64, 257]
    tokens = [
        rng.integers(0, 7303, size=n).astype(np.int32) for n in lens
    ] + [np.zeros(16, np.int32), np.full(16, 7302, np.int32)]
    vals = np.concatenate(tokens).astype(np.int64)
    off = np.concatenate(([0], np.cumsum([len(x) for x in tokens])))
    n_docs = len(tokens)
    BIG = np.int64(1) << 40
    n = np.diff(off)
    seg = np.repeat(np.arange(n_docs, dtype=np.int64), n)
    d = vals - cq.CUSUM_K
    g = np.cumsum(d)
    base = np.concatenate(([0], g[off[1:-1] - 1]))
    p = g - base[seg]
    q = p - seg * BIG
    run = np.minimum(np.minimum.accumulate(q) + seg * BIG, 0)
    s = p - run

    # scalar reference
    for i, x in enumerate(tokens):
        sk = 0
        ref = []
        for v in x.astype(np.int64):
            sk = max(0, sk + int(v) - cq.CUSUM_K)
            ref.append(sk)
        got = s[off[i]:off[i + 1]]
        assert np.array_equal(got, np.array(ref, dtype=np.int64)), i


def test_m4_selection_matches_bruteforce():
    """M4 per-bucket first/last/min/max selection (with smallest-pos tie
    breaks) must match a scalar reference on random and degenerate docs."""
    import numpy as np

    from wavelet_decomposition_ray.pipelines import queries as cq

    rng = np.random.default_rng(5)
    docs = [rng.integers(0, 7303, size=n).astype(np.int64)
            for n in (1, 2, 63, 64, 65, 500)]
    docs.append(np.full(100, 7, dtype=np.int64))  # all-equal: tie storm

    B = cq.M4_BUCKETS
    for v in docs:
        n = len(v)
        bucket = np.arange(n) * B // n
        expect = set()
        for bk in np.unique(bucket):
            idx = np.flatnonzero(bucket == bk)
            expect.add(idx[0])
            expect.add(idx[-1])
            expect.add(idx[np.argmin(v[idx])])   # argmin = first of ties
            expect.add(idx[np.argmax(v[idx])])
        # vectorized path, single-doc batch
        pos = np.arange(n, dtype=np.int64)
        pmask = (1 << cq._M4_POSBITS) - 1
        key = bucket
        starts = np.flatnonzero(np.diff(key, prepend=key[0] - 1))
        ends = np.concatenate((starts[1:], [n])) - 1
        kmin = v * (1 << cq._M4_POSBITS) + pos
        kmax = v * (1 << cq._M4_POSBITS) + (pmask - pos)
        got = set(pos[starts]) | set(pos[ends])
        got |= set(np.minimum.reduceat(kmin, starts) & pmask)
        got |= set(pmask - (np.maximum.reduceat(kmax, starts) & pmask))
        assert got == expect, n


def test_lttb_vectorized_matches_scalar():
    """The across-docs-vectorized LTTB selection must equal the scalar
    reference recurrence (floor-map bucketing, smallest-pos tie break) on
    random docs, constant docs, and the n <= T pass-through."""
    import numpy as np
    import pyarrow as pa

    from wavelet_decomposition_ray.pipelines import queries as cq

    T = cq.LTTB_T

    def ref(y):
        n = len(y)
        y = [int(x) for x in y]
        if n <= T:
            return list(range(n))
        def s(k):
            return -((-k * (n - 2)) // (T - 2)) + 1
        sel = [0]
        a = (0, y[0])
        for k in range(T - 2):
            lo, hi = s(k), s(k + 1)
            if k < T - 3:
                ns, ne = s(k + 1), s(k + 2)
                c, sx, sy = ne - ns, sum(range(ns, ne)), sum(y[ns:ne])
            else:
                c, sx, sy = 1, n - 1, y[n - 1]
            best = None
            for p in range(lo, hi):
                a2 = abs((a[0] * c - sx) * (y[p] - a[1])
                         - (a[0] - p) * (a[1] * c - sy))
                if best is None or a2 > best[0]:
                    best = (a2, p)
            sel.append(best[1])
            a = (best[1], y[best[1]])
        sel.append(n - 1)
        return sel

    rng = np.random.default_rng(17)
    docs = [rng.integers(0, 7303, size=int(n)).astype(np.int64)
            for n in (8, 31, 32, 33, 100, 1000)]
    docs.append(np.full(200, 5, dtype=np.int64))  # constant: all ties
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(docs))]),
            "tokens": pa.array([d.tolist() for d in docs],
                               type=pa.list_(pa.int32())),
        }
    )
    out = cq._lttb_batch(t)
    df = out.to_pandas()
    for i, d in enumerate(docs):
        got = sorted(df[df["doc_id"] == f"d{i}"]["pos"].tolist())
        assert got == sorted(ref(d)), (i, len(d))


_docs_st = st.lists(
    st.lists(st.integers(0, 7302), min_size=1, max_size=40),
    min_size=1, max_size=8,
)


@given(_docs_st)
@settings(max_examples=60, deadline=None)
def test_cusum_offset_trick_hypothesis(docs):
    """Segmented-cummin CUSUM == scalar recurrence on arbitrary ragged
    batches (hypothesis)."""
    import numpy as np

    from wavelet_decomposition_ray.pipelines import queries as cq

    vals = np.array([v for d in docs for v in d], dtype=np.int64)
    off = np.concatenate(([0], np.cumsum([len(d) for d in docs])))
    n_docs = len(docs)
    BIG = np.int64(1) << 40
    seg = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(off))
    d = vals - cq.CUSUM_K
    g = np.cumsum(d)
    base = np.concatenate(([0], g[off[1:-1] - 1]))
    p = g - base[seg]
    run = np.minimum(np.minimum.accumulate(p - seg * BIG) + seg * BIG, 0)
    s = p - run

    i = 0
    for doc in docs:
        sk = 0
        for v in doc:
            sk = max(0, sk + v - cq.CUSUM_K)
            assert s[i] == sk
            i += 1


@given(_docs_st)
@settings(max_examples=60, deadline=None)
def test_m4_packed_extremes_hypothesis(docs):
    """M4 packed-key reduceat argmin/argmax with smallest-pos ties ==
    per-bucket scalar scan on arbitrary ragged batches (hypothesis)."""
    import numpy as np

    from wavelet_decomposition_ray.pipelines import queries as cq

    B = cq.M4_BUCKETS
    pmask = (1 << cq._M4_POSBITS) - 1
    for doc in docs:
        v = np.array(doc, dtype=np.int64)
        n = len(v)
        pos = np.arange(n, dtype=np.int64)
        bucket = pos * B // n
        starts = np.flatnonzero(np.diff(bucket, prepend=bucket[0] - 1))
        kmin = v * (1 << cq._M4_POSBITS) + pos
        kmax = v * (1 << cq._M4_POSBITS) + (pmask - pos)
        got_min = np.minimum.reduceat(kmin, starts) & pmask
        got_max = pmask - (np.maximum.reduceat(kmax, starts) & pmask)
        for bi, s0 in enumerate(starts):
            e0 = starts[bi + 1] if bi + 1 < len(starts) else n
            seg = v[s0:e0]
            assert got_min[bi] == s0 + int(np.argmin(seg))
            assert got_max[bi] == s0 + int(np.argmax(seg))


_pow2_or_any = st.one_of(st.sampled_from([1 << i for i in range(10)]),
                         st.integers(1, 600))
_cascade_rows_st = st.lists(
    st.tuples(_pow2_or_any,
              st.sampled_from(["int32", "extreme", "small", "huge"]),
              st.integers(0, (1 << 32) - 1)),
    min_size=1, max_size=5,
)


def _cascade_rows(rows):
    """(length, kind, seed) specs -> one flat batch: uniform over the whole
    int32 range, only the extremes (and 0, -1), or tiny tokens.  A "huge"
    row (int64 past 2**53, where float64 loses the tokens and the verdict
    turns False) makes the batch int64."""
    parts = []
    for n, kind, seed in rows:
        rng = np.random.default_rng(seed)
        if kind == "int32":
            v = rng.integers(-(1 << 31), 1 << 31, n)
        elif kind == "extreme":
            v = rng.choice([-(1 << 31), (1 << 31) - 1, 0, -1], n)
        elif kind == "small":
            v = rng.integers(0, 4, n)
        else:
            v = rng.integers(-(1 << 62), 1 << 62, n)
        parts.append(v)
    off = np.concatenate(([0], np.cumsum([len(p) for p in parts])))
    vals = np.concatenate(parts)
    huge = any(kind == "huge" for _, kind, _ in rows)
    return vals.astype(np.int64 if huge else np.int32), off


@settings(max_examples=60, deadline=None)
@given(_cascade_rows_st)
def test_dwt_cascade_native_matches_numpy_property(rows):
    """The native DWT cascade == the numpy fallback bit for bit: the
    serialized coefficients, rt_ok and rt_max_err, for every bank, on int32
    and int64 tokens."""
    from unittest import mock

    import pytest

    from wavelet_decomposition_ray import native
    from wavelet_decomposition_ray.stages import dwt

    if native.dwt_cascade() is None:
        pytest.skip("no C compiler: the native cascade is not built")
    vals, off = _cascade_rows(rows)
    for bank in oc.BANKS:
        got = dwt.cascade(vals, off, bank)
        with mock.patch.object(native, "dwt_cascade", lambda: None):
            want = dwt.cascade(vals, off, bank)
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[0].view(np.uint64),
                                      want[0].view(np.uint64))
        np.testing.assert_array_equal(got[2], want[2])
        np.testing.assert_array_equal(got[3].view(np.uint64),
                                      want[3].view(np.uint64))
