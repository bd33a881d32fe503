"""Delta-of-delta codec: round-trip identity on adversarial and random
streams; block framing determinism (FIXTURES.md invariant 4).  The codec
has two implementations, the native production codec in ``stages/encode``
and the scalar reference in ``oracle``; the tests below pin them to the
same bytes and values."""

import ast
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from wavelet_decomposition_ray import native
from wavelet_decomposition_ray import oracle as oc
from wavelet_decomposition_ray.stages import encode as es

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
needs_native = pytest.mark.skipif(
    native.decoder() is None, reason="no C compiler on this host"
)


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


def _adversarial(rng, kind, n):
    """An int64 stream of length ``n`` aimed at one corner of the codec:
    small steps, full-range values, a constant, wide dods, or alternating
    int64 extremes (every dod wraps)."""
    if kind == 0:
        return np.cumsum(rng.integers(-5, 6, n)).astype(np.int64)
    if kind == 1:
        return rng.integers(-(2**62), 2**62, n).astype(np.int64)
    if kind == 2:
        return np.full(n, -3, dtype=np.int64)
    if kind == 3:
        return rng.integers(-3000, 3000, n).astype(np.int64) * rng.integers(
            0, 2**40, n
        )
    ext = [np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    return np.array(ext * (n // 2 + 1))[:n].astype(np.int64)


def _reference(blobs):
    """The oracle's per-blob decode, in ``decode_blobs``'s flat layout."""
    return es._decode_reference(pa.array(blobs, type=pa.binary()))


def _assert_same(got, want, msg=""):
    for k in ("wmin", "wmax", "wsum", "wcount", "offsets"):
        np.testing.assert_array_equal(got[k], want[k], err_msg=f"{msg}{k}")


@needs_native
def test_dod_decode_streams_matches_scalar():
    """The native stream decoder == the scalar reference, across bucket
    kinds, extreme int64 values and a few streams far longer than the
    rest.  Each blob frames three adversarial streams of one length."""
    rng = np.random.default_rng(11)
    lengths = [int(rng.integers(1, 400)) for _ in range(200)] + [4000] * 3
    blobs, tiers = [], []
    for t, n in enumerate(lengths):
        tier = {
            k: _adversarial(rng, (t + j) % 5, n)
            for j, k in enumerate(("wmin", "wmax", "wsum"))
        }
        tier["wcount"] = np.full(n, 4, dtype=np.int32)
        tier["wcount"][-1] = 1 + t % 4
        tiers.append(tier)
        blobs.append(oc.encode_rollup_block(tier))
    got = es.decode_blobs(pa.array(blobs, type=pa.binary()))
    _assert_same(got, _reference(blobs))
    off = got["offsets"]
    for j, tier in enumerate(tiers):
        for k, v in tier.items():
            np.testing.assert_array_equal(got[k][off[j]:off[j + 1]], v,
                                          err_msg=f"blob {j} {k}")


@needs_native
def test_native_decoder_matches_wavefront(monkeypatch):
    """The native decoder and the no-compiler fallback of
    ``decode_blocks_batch`` are the same function bit for bit: decode
    identical adversarial streams once per path and compare the raw output
    buffers.  (The fallback was once a numpy wavefront decoder; it is now
    ``oracle.decode_rollup_block`` per blob.)"""
    rng = np.random.default_rng(31)
    blobs = []
    for t in range(150):
        n = int(rng.integers(1, 400))
        tier = {
            k: _adversarial(rng, (t + j) % 5, n)
            for j, k in enumerate(("wmin", "wmax", "wsum"))
        }
        tier["wcount"] = np.full(n, 2, dtype=np.int32)
        blobs.append(oc.encode_rollup_block(tier))
    batch = pa.table({
        "doc_id": [f"d{i}" for i in range(len(blobs))],
        "source": ["s"] * len(blobs),
        "tier": pa.array([1] * len(blobs), type=pa.int32()),
        "n_windows": pa.array([0] * len(blobs), type=pa.int32()),
        "blob": pa.array(blobs, type=pa.binary()),
    })
    out_native = es.decode_blocks_batch(batch)

    monkeypatch.setattr(native, "decoder", lambda: None)
    out_fallback = es.decode_blocks_batch(batch)
    assert out_native.equals(out_fallback)


@needs_native
def test_decode_rollup_blocks_matches_single():
    """One batch decode of many token rollups == each blob's own tier."""
    rng = np.random.default_rng(12)
    blobs, tiers = [], []
    for d in range(40):
        t = rng.integers(0, 1 << 16, size=int(rng.integers(5, 500))).astype(
            np.int64
        )
        tier = oc.rollup_tier(t, 1 << (d % 6 + 1))
        tiers.append(tier)
        blobs.append(oc.encode_rollup_block(tier))
    dec = es.decode_blobs(pa.array(blobs, type=pa.binary()))
    off = dec["offsets"]
    for j, tier in enumerate(tiers):
        for k in ("wmin", "wmax", "wsum", "wcount"):
            np.testing.assert_array_equal(
                dec[k][off[j] : off[j + 1]], tier[k], err_msg=f"blob {j} {k}"
            )


def _random_blobs(seed, n_docs):
    rng = np.random.default_rng(seed)
    blobs = []
    for d in range(n_docs):
        t = rng.integers(-(1 << 40), 1 << 40, size=int(rng.integers(1, 200))).astype(np.int64)
        blobs.append(oc.encode_rollup_block(oc.rollup_tier(t, 1 << (d % 5 + 1))))
    return blobs


def test_every_native_kernel_loads_with_a_compiler():
    """native._load is all-or-nothing: one compile error or missing symbol
    drops every kernel to its fallback, which runs several times slower
    while every other test still passes.  With a C compiler on PATH, every
    kernel in _SIGS must load."""
    import shutil

    if not any(shutil.which(c) for c in ("cc", "gcc", "clang")):
        pytest.skip("no C compiler on PATH")
    assert sorted(native._load()) == sorted(native._SIGS)


def test_sigs_name_every_exported_kernel():
    """``native._SIGS`` lists exactly the non-static functions ``dod.c``
    defines: a signature whose symbol is gone would make ``_load`` drop
    every kernel (all-or-nothing), and an exported kernel without one
    could never be called.  With a compiler, every handle loads."""
    with open(os.path.join(ROOT, "wavelet_decomposition_ray", "native",
                           "dod.c")) as f:
        src = f.read()
    # macros that expand to a static storage class count as static
    static = {"static"} | set(re.findall(r"^#define\s+(\w+)\s+static\b",
                                         src, re.M))
    defined = set()
    for m in re.finditer(r"^([A-Za-z_][\w \t*]*?)\b(\w+)\s*\([^;]*?\)\s*\{",
                         src, re.M | re.S):
        if not static & set(re.findall(r"\w+", m.group(1))):
            defined.add(m.group(2))
    assert defined == set(native._SIGS)
    import shutil

    if any(shutil.which(c) for c in ("cc", "gcc", "clang")):
        for name in ("encoder", "decoder", "gather", "tier_tree",
                     "dwt_cascade"):
            assert getattr(native, name)() is not None, name


def test_cached_library_loads_without_compiler(monkeypatch):
    """A worker with the library already built but no compiler on PATH
    loads every kernel from the cache instead of running the fallbacks."""
    import shutil

    if not native._load():
        pytest.skip("no C compiler on this host")
    monkeypatch.setattr(shutil, "which", lambda *_: None)
    monkeypatch.setattr(native, "_tried", False)
    monkeypatch.setattr(native, "_fns", None)
    assert sorted(native._load()) == sorted(native._SIGS)


@needs_native
@pytest.mark.parametrize("large", [False, True])
def test_decode_rollup_blocks_arrow_matches_list(large):
    """The native Arrow decoder == the oracle's per-blob decode, for binary
    AND large_binary columns, including a sliced (non-zero offset) array."""
    blobs = _random_blobs(17, 60)
    typ = pa.large_binary() if large else pa.binary()
    arr = pa.array(blobs, type=typ)
    _assert_same(es.decode_blobs(arr), _reference(blobs))

    # sliced array: non-zero arr.offset exercises the offset arithmetic
    _assert_same(es.decode_blobs(arr.slice(13, 30)), _reference(blobs[13:43]),
                 "slice ")


@needs_native
def test_decode_rollup_blocks_arrow_chunked_and_empty():
    blobs = _random_blobs(23, 20)
    ca = pa.chunked_array([pa.array(blobs[:7], type=pa.binary()),
                           pa.array(blobs[7:], type=pa.binary())])
    _assert_same(es.decode_blobs(ca), _reference(blobs))

    empty = es.decode_blobs(pa.array([], type=pa.binary()))
    _assert_same(empty, _reference([]))
    assert len(empty["offsets"]) == 1 and empty["offsets"][0] == 0


def _tier1_streams(blocks):
    """Encode each int64 block as a row of ``np.repeat(block, 2)`` tokens
    through ``RollupEncode(n_tiers=1)``: tier-1 ``wmin`` and ``wmax`` are
    then the block itself.  Returns each blob's (wmin, wmax) stream bytes
    and the blobs."""
    toks = [np.repeat(np.asarray(b, dtype=np.int64), 2) for b in blocks]
    batch = pa.table({
        "doc_id": [f"d{i}" for i in range(len(toks))],
        "source": ["s"] * len(toks),
        "tokens": pa.array(toks, type=pa.list_(pa.int64())),
    })
    blobs = es.RollupEncode(n_tiers=1)(batch)["blob"].to_pylist()
    streams = []
    for blob in blobs:
        l0, l1, _ = struct.unpack_from("<3I", blob, 16)
        streams.append((blob[28:28 + l0], blob[28 + l0:28 + l0 + l1]))
    return streams, blobs


@needs_native
def test_encode_streams_matches_scalar():
    """The native encoder's streams == oracle.dod_encode for every block,
    on adversarial blocks (len-1, extreme int64, wraparound dods, 32-bit
    dods), each fed through RollupEncode as tier-1 min and max."""
    rng = np.random.default_rng(41)
    vals = [_adversarial(rng, t % 5, int(rng.integers(1, 300)))
            for t in range(120)]
    vals.append(np.array([-(2**63)], np.int64))
    vals.append(np.cumsum(rng.integers(-(2**30), 2**30, 257)))
    streams, blobs = _tier1_streams(vals)
    for j, v in enumerate(vals):
        want = oc.dod_encode(v)
        assert streams[j] == (want, want), j
        tokens = np.repeat(v, 2)
        assert blobs[j] == oc.encode_rollup_block(oc.rollup_tier(tokens, 2)), j


@needs_native
def test_no_compiler_path_matches_native(monkeypatch):
    """With the codec kernels gone, RollupEncode frames every block with
    oracle.encode_rollup_block and decode_blocks_batch reads it back with
    oracle.decode_rollup_block: same bytes, same tables."""
    rng = np.random.default_rng(61)
    n = 40
    toks = [rng.integers(0, 1 << 20, int(rng.integers(1, 700))).astype(np.int32)
            for _ in range(n)]
    batch = pa.table({
        "doc_id": [f"d{i}" for i in range(n)],
        "source": [f"s{i % 3}" for i in range(n)],
        "tokens": pa.array(toks, type=pa.list_(pa.int32())),
    })
    enc = es.RollupEncode(n_tiers=6)(batch)
    dec = es.decode_blocks_batch(enc)
    for name in ("encoder", "decoder", "gather"):
        monkeypatch.setattr(native, name, lambda: None)
    enc_ref = es.RollupEncode(n_tiers=6)(batch)
    assert enc_ref.equals(enc)
    assert es.decode_blocks_batch(enc).equals(dec)


_CORRUPT = """
import struct
import numpy as np
import pyarrow as pa
from wavelet_decomposition_ray import native
from wavelet_decomposition_ray import oracle as oc
from wavelet_decomposition_ray.stages.encode import decode_blocks_batch

tok = np.random.default_rng(3).integers(0, 1 << 20, 64)
good = oc.encode_rollup_block(oc.rollup_tier(tok, 2))
lens = struct.unpack_from("<3I", good, 16)

def patch(fmt, at, *vals):
    b = bytearray(good)
    struct.pack_into(fmt, b, at, *vals)
    return bytes(b)

cases = {
    "huge n": patch("<I", 4, 50_000_000),
    # n passes the per-stream bound, but the streams hold only 32 values
    "n past the codes": patch("<I", 4, min(8 * l - 63 for l in lens)),
    "stream length": patch("<I", 16, lens[0] + 100),
    "truncated": good[:-5],
    "short": good[:20],
}
# the native reader, then the no-compiler path (the oracle's reference)
for path in ("native", "reference"):
    if path == "reference":
        native.decoder = lambda: None
    for name, blob in cases.items():
        t = pa.table({"doc_id": ["d"], "source": ["s"],
                      "tier": pa.array([1], pa.int8()),
                      "n_windows": pa.array([32], pa.int32()),
                      "blob": pa.array([blob], pa.binary())})
        try:
            decode_blocks_batch(t)
        except ValueError as e:
            print(path, name, "->", e)
            continue
        raise SystemExit(f"{path} {name}: no ValueError")
print("all raised")
"""


def test_corrupt_blob_header_raises():
    """A blob whose header overstates its count or its stream lengths
    raises ValueError instead of reading past the batch (which used to
    kill the process with SIGSEGV, so it runs in a child process), on the
    native reader and on the no-compiler path alike."""
    r = subprocess.run(
        [sys.executable, "-c", _CORRUPT], cwd=ROOT, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": ROOT},
    )
    assert r.returncode == 0, (r.returncode, r.stdout, r.stderr[-2000:])
    assert r.stdout.rstrip().endswith("all raised"), r.stdout


def test_oracle_is_independent_of_native():
    """The oracle is the codec's independent reference: it imports nothing
    from ``native``, and ``stages/encode.py`` is the only package module
    outside ``native/`` that calls the codec kernels."""
    pkg = os.path.join(ROOT, "wavelet_decomposition_ray")
    with open(os.path.join(pkg, "oracle.py")) as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("native" in n.split(".") for n in names), (
            f"oracle.py:{node.lineno} imports native"
        )

    kernels = {"encoder", "decoder", "gather"}
    allowed = {os.path.join(pkg, "stages", "encode.py")}
    callers = []
    for dirpath, _, files in os.walk(pkg):
        if os.path.basename(dirpath) == "native":
            continue
        for fname in files:
            path = os.path.join(dirpath, fname)
            if not fname.endswith(".py") or path in allowed:
                continue
            with open(path) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                fn = node.func if isinstance(node, ast.Call) else None
                if (isinstance(fn, ast.Attribute) and fn.attr in kernels
                        and "native" in ast.unparse(fn.value)):
                    callers.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    assert not callers, callers
