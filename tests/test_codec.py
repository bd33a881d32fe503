"""Gorilla XOR + delta-of-delta codec: round-trip identity on adversarial
and random streams; block framing determinism (FIXTURES.md invariant 4)."""

import numpy as np
import pytest

from wavelet_decomposition_ray import oracle as oc


@pytest.mark.parametrize(
    "vals",
    [
        [],
        [0.0],
        [1.5, 1.5, 1.5],
        [0.0, -0.0, 1e300, -1e300, 5e-324, np.pi],
        [float(x) for x in range(100)],
    ],
)
def test_gorilla_roundtrip_cases(vals):
    v = np.array(vals, dtype=np.float64)
    enc = oc.gorilla_encode(v)
    dec = oc.gorilla_decode(enc, len(v))
    np.testing.assert_array_equal(dec.view(np.uint64), v.view(np.uint64))


def test_gorilla_roundtrip_random():
    rng = np.random.default_rng(11)
    for n in (1, 2, 17, 1000):
        v = rng.normal(scale=1e6, size=n)
        v[rng.random(n) < 0.3] = v[0]  # repeats exercise the '0' branch
        dec = oc.gorilla_decode(oc.gorilla_encode(v), n)
        np.testing.assert_array_equal(dec, v)


def test_gorilla_compresses_smooth_series():
    t = np.arange(4096)
    v = np.float64(100.0) + 0 * t  # constant
    enc = oc.gorilla_encode(v)
    assert len(enc) * 8 / len(v) < 2.0  # ~1 bit/point on constants


@pytest.mark.parametrize(
    "vals",
    [
        [],
        [0],
        [5, 5, 5, 5],
        [0, 1, 3, 6, 10],
        [2**62, -(2**62), 0, 1],
        [-(2**63), 2**63 - 1],
    ],
)
def test_dod_roundtrip_cases(vals):
    v = np.array(vals, dtype=np.int64)
    dec = oc.dod_decode(oc.dod_encode(v), len(v))
    np.testing.assert_array_equal(dec, v)


def test_dod_roundtrip_random():
    rng = np.random.default_rng(13)
    for n in (1, 2, 100, 5000):
        v = np.cumsum(rng.integers(-1000, 1000, size=n)).astype(np.int64)
        dec = oc.dod_decode(oc.dod_encode(v), n)
        np.testing.assert_array_equal(dec, v)


def test_dod_compresses_regular_series():
    v = np.arange(0, 10_000, 8, dtype=np.int64)  # constant delta -> dod=0
    enc = oc.dod_encode(v)
    assert len(enc) * 8 / len(v) < 1.2


def test_rollup_block_roundtrip_and_determinism():
    rng = np.random.default_rng(5)
    t = rng.integers(0, 1 << 20, size=1000).astype(np.int32)
    tier = oc.rollup_tier(t, 8)
    blob1 = oc.encode_rollup_block(tier)
    blob2 = oc.encode_rollup_block(tier)
    assert blob1 == blob2  # pure function of input (resume invariant)
    back = oc.decode_rollup_block(blob1)
    for k in tier:
        np.testing.assert_array_equal(back[k], tier[k], err_msg=k)
    # actually compresses vs raw 8-byte-per-value encoding
    raw = 4 * 8 * len(tier["wmin"])
    assert len(blob1) < raw


def test_dod_decode_streams_matches_scalar():
    """Wavefront multi-stream decoder vs the scalar reference, across
    bucket kinds, extreme int64 values, and the scalar-tail path (a few
    streams far longer than the lane-threshold cutoff)."""
    rng = np.random.default_rng(11)
    streams, counts, refs = [], [], []
    for t in range(200):
        n = int(rng.integers(1, 300))
        kind = t % 5
        if kind == 0:
            v = np.cumsum(rng.integers(-5, 6, n)).astype(np.int64)
        elif kind == 1:
            v = rng.integers(-(2**62), 2**62, n).astype(np.int64)
        elif kind == 2:
            v = np.full(n, -3, dtype=np.int64)
        elif kind == 3:
            v = rng.integers(-3000, 3000, n).astype(np.int64) * rng.integers(
                0, 2**33, n
            )
        else:
            v = np.array(
                [np.iinfo(np.int64).min, np.iinfo(np.int64).max] * (n // 2 + 1)
            )[:n].astype(np.int64)
        streams.append(oc.dod_encode(v))
        counts.append(n)
        refs.append(v)
    # long tails to force the scalar continuation
    for _ in range(3):
        v = np.cumsum(rng.integers(-9, 10, 4000)).astype(np.int64)
        streams.append(oc.dod_encode(v))
        counts.append(len(v))
        refs.append(v)
    counts = np.array(counts, dtype=np.int64)
    off = np.concatenate([[0], np.cumsum(counts)])
    out = np.empty(off[-1], dtype=np.int64)
    oc.dod_decode_streams(streams, counts, out, off[:-1])
    for s, want in enumerate(refs):
        np.testing.assert_array_equal(out[off[s] : off[s + 1]], want,
                                      err_msg=f"stream {s}")


def test_decode_rollup_blocks_matches_single():
    rng = np.random.default_rng(12)
    blobs, tiers = [], []
    for d in range(40):
        t = rng.integers(0, 1 << 16, size=int(rng.integers(5, 500))).astype(
            np.int64
        )
        tier = oc.rollup_tier(t, 1 << (d % 6 + 1))
        tiers.append(tier)
        blobs.append(oc.encode_rollup_block(tier))
    dec = oc.decode_rollup_blocks(blobs)
    off = dec["offsets"]
    for j, tier in enumerate(tiers):
        for k in ("wmin", "wmax", "wsum", "wcount"):
            np.testing.assert_array_equal(
                dec[k][off[j] : off[j + 1]], tier[k], err_msg=f"blob {j} {k}"
            )


def _random_blobs(seed, n_docs):
    rng = np.random.default_rng(seed)
    blobs, tiers = [], []
    for d in range(n_docs):
        t = rng.integers(-(1 << 40), 1 << 40, size=int(rng.integers(1, 200))).astype(np.int64)
        tier = oc.rollup_tier(t, 1 << (d % 5 + 1))
        tiers.append(tier)
        blobs.append(oc.encode_rollup_block(tier))
    return blobs, tiers


def test_every_native_kernel_loads_with_a_compiler():
    """native._load is all-or-nothing: one compile error or missing symbol
    drops every kernel to its numpy fallback, which runs several times
    slower while every other test still passes.  With a C compiler on
    PATH, every kernel in _SIGS must load."""
    import shutil

    from wavelet_decomposition_ray import native

    if not any(shutil.which(c) for c in ("cc", "gcc", "clang")):
        pytest.skip("no C compiler on PATH")
    assert sorted(native._load()) == sorted(native._SIGS)


def test_native_decoder_matches_wavefront(monkeypatch):
    """The C scalar decoder and the pure-numpy wavefront are the SAME
    function bit-for-bit: run dod_decode_streams once per path on identical
    adversarial streams and compare the raw output buffers."""
    from wavelet_decomposition_ray import native

    if native.decoder() is None:
        pytest.skip("no C compiler on this host")
    rng = np.random.default_rng(31)
    streams, counts = [], []
    for t in range(150):
        n = int(rng.integers(1, 400))
        if t % 4 == 0:
            v = np.cumsum(rng.integers(-3, 4, n)).astype(np.int64)
        elif t % 4 == 1:
            v = rng.integers(-(2**62), 2**62, n).astype(np.int64)
        elif t % 4 == 2:
            v = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max] * (n // 2 + 1))[:n].astype(np.int64)
        else:
            v = rng.integers(-2000, 2000, n).astype(np.int64) * rng.integers(0, 2**40, n)
        streams.append(oc.dod_encode(v))
        counts.append(n)
    counts = np.array(counts, dtype=np.int64)
    off = np.concatenate([[0], np.cumsum(counts)])
    out_native = np.empty(off[-1], dtype=np.int64)
    oc.dod_decode_streams(streams, counts, out_native, off[:-1])

    out_wave = np.empty(off[-1], dtype=np.int64)
    monkeypatch.setattr(native, "decoder", lambda: None)
    oc.dod_decode_streams(streams, counts, out_wave, off[:-1])
    np.testing.assert_array_equal(out_native, out_wave)


@pytest.mark.parametrize("large", [False, True])
def test_decode_rollup_blocks_arrow_matches_list(large):
    """Arrow zero-object fast path == list path, for binary AND
    large_binary columns, including a sliced (non-zero offset) array."""
    import pyarrow as pa

    blobs, _ = _random_blobs(17, 60)
    typ = pa.large_binary() if large else pa.binary()
    arr = pa.array(blobs, type=typ)
    want = oc.decode_rollup_blocks(blobs)
    got = oc.decode_rollup_blocks_arrow(arr)
    for k in ("wmin", "wmax", "wsum", "wcount", "offsets"):
        np.testing.assert_array_equal(got[k], want[k], err_msg=k)

    # sliced array: non-zero arr.offset exercises the offset arithmetic
    sl = arr.slice(13, 30)
    want_sl = oc.decode_rollup_blocks(blobs[13:43])
    got_sl = oc.decode_rollup_blocks_arrow(sl)
    for k in ("wmin", "wmax", "wsum", "wcount", "offsets"):
        np.testing.assert_array_equal(got_sl[k], want_sl[k], err_msg=f"slice {k}")


def test_decode_rollup_blocks_arrow_chunked_and_empty():
    import pyarrow as pa

    blobs, _ = _random_blobs(23, 20)
    ca = pa.chunked_array([pa.array(blobs[:7], type=pa.binary()),
                           pa.array(blobs[7:], type=pa.binary())])
    want = oc.decode_rollup_blocks(blobs)
    got = oc.decode_rollup_blocks_arrow(ca)
    for k in ("wmin", "wmax", "wsum", "wcount", "offsets"):
        np.testing.assert_array_equal(got[k], want[k], err_msg=k)

    empty = oc.decode_rollup_blocks_arrow(pa.array([], type=pa.binary()))
    assert len(empty["offsets"]) == 1 and empty["offsets"][0] == 0


def test_encode_blocks_raw_native_matches_numpy(monkeypatch):
    """dod_encode_blocks_raw: native C path == numpy fallback path, on
    adversarial blocks (empty, len-1, extreme int64, wraparound dods)."""
    from wavelet_decomposition_ray import native

    if native.encoder() is None:
        pytest.skip("no C compiler on this host")
    rng = np.random.default_rng(41)
    vals = []
    for t in range(120):
        n = int(rng.integers(0, 300))
        if t % 4 == 0:
            v = np.cumsum(rng.integers(-3, 4, n)).astype(np.int64)
        elif t % 4 == 1:
            v = rng.integers(-(2**62), 2**62, n).astype(np.int64)
        elif t % 4 == 2:
            v = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max] * (n // 2 + 1))[:n].astype(np.int64)
        else:
            v = rng.integers(-2000, 2000, n).astype(np.int64) * rng.integers(0, 2**40, n)
        vals.append(v)
    flat = np.concatenate(vals)
    off = np.concatenate([[0], np.cumsum([len(v) for v in vals])]).astype(np.int64)

    def to_list(triple):
        buf, starts, lens = triple
        mv = memoryview(buf)
        return [bytes(mv[int(s): int(s) + int(l)]) for s, l in zip(starts, lens)]

    got_native = to_list(oc.dod_encode_blocks_raw(flat, off))
    monkeypatch.setattr(native, "encoder", lambda: None)
    got_numpy = to_list(oc.dod_encode_blocks_raw(flat, off))
    assert got_native == got_numpy
    # and both equal the scalar reference
    want = [oc.dod_encode_py(v) for v in vals]
    assert got_native == want


def test_frame_blob_column_matches_scalar_framing():
    """_frame_blob_column == per-row encode_rollup_block, and the numpy
    gather fallback == the native gather."""
    from wavelet_decomposition_ray import native
    from wavelet_decomposition_ray.stages import encode as es

    rng = np.random.default_rng(53)
    tiers = []
    for d in range(40):
        t = rng.integers(-(1 << 40), 1 << 40, int(rng.integers(1, 150))).astype(np.int64)
        tiers.append(oc.rollup_tier(t, 1 << (d % 4 + 1)))
    want = [oc.encode_rollup_block(tv) for tv in tiers]
    n_win = np.array([len(tv["wmin"]) for tv in tiers], np.int64)
    w_arr = np.array([tv["wcount"][0] for tv in tiers], np.int64)
    last_arr = np.array([tv["wcount"][-1] for tv in tiers], np.int64)
    offs = np.concatenate([[0], np.cumsum(n_win)]).astype(np.int64)
    streams = [
        oc.dod_encode_blocks_raw(
            np.concatenate([tv[k].astype(np.int64) for tv in tiers]), offs
        )
        for k in ("wmin", "wmax", "wsum")
    ]
    arr, nbytes = es._frame_blob_column(n_win, w_arr, last_arr, streams)
    assert arr.to_pylist() == want
    np.testing.assert_array_equal(nbytes, [len(b) for b in want])

    # numpy gather fallback produces the same column
    out2 = np.empty(int(nbytes.sum()), dtype=np.uint8)
    off2 = np.zeros(len(nbytes) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=off2[1:])
    # reuse the private fallback directly on one stream triple layout
    buf, starts, lens = streams[0]
    dst = off2[:-1] + 28
    chk = np.zeros(int(nbytes.sum()), dtype=np.uint8)
    es._gather_np(buf, starts, lens, chk, dst)
    g = native.gather()
    if g is not None:
        chk2 = np.zeros_like(chk)
        g(buf.ctypes.data, np.ascontiguousarray(starts).ctypes.data,
          np.ascontiguousarray(lens).ctypes.data, chk2.ctypes.data,
          np.ascontiguousarray(dst).ctypes.data, len(lens))
        np.testing.assert_array_equal(chk, chk2)
