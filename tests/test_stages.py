"""Engine stage batch-fns vs the NumPy oracle, on real synth batches.
These run on plain pyarrow Tables — no Ray session needed (the fns are what
``map_batches`` executes verbatim)."""

import numpy as np
import pyarrow as pa
import pytest

from wavelet_decomposition_ray import oracle as oc, synth
from wavelet_decomposition_ray.functions.listops import (
    list_to_numpy,
    next_pow2_arr,
    numpy_to_list,
    tumble_starts,
)
from wavelet_decomposition_ray.stages.dwt import DwtTransform, InverseDwt
from wavelet_decomposition_ray.stages.gapfill import gapfill_batch, make_resample_batch, normalize_batch
from wavelet_decomposition_ray.stages.rollup import (
    STAT_NAMES,
    TierRollup,
    explode_rollup_batch,
    tier_tree,
)
from wavelet_decomposition_ray.stages.encode import RollupEncode, decode_blocks_batch
from wavelet_decomposition_ray.state.manifest import (
    bucket_of_ids,
    commit_bucket,
    slice_name,
    stage_slices,
    write_bucket_table,
)


@pytest.fixture(scope="module")
def batch():
    return synth.generate_table(120)


def _tokens(batch, i):
    vals, off = list_to_numpy(batch["tokens"])
    return vals[off[i] : off[i + 1]]


def test_listops_roundtrip(batch):
    vals, off = list_to_numpy(batch["tokens"])
    assert off[0] == 0 and off[-1] == len(vals)
    rebuilt = numpy_to_list(vals, off, pa.int32())
    assert rebuilt.equals(batch["tokens"].combine_chunks())
    # sliced column still normalizes correctly
    sl = batch.slice(10, 20)["tokens"]
    v2, o2 = list_to_numpy(sl)
    assert o2[0] == 0 and o2[-1] == len(v2)
    np.testing.assert_array_equal(v2[: o2[1]], _tokens(batch, 10))


def test_next_pow2_arr():
    lens = np.array([1, 2, 3, 255, 256, 257, 1024, 65536, 65537])
    want = np.array([oc.next_pow2(int(x)) for x in lens])
    np.testing.assert_array_equal(next_pow2_arr(lens), want)


def test_tumble_starts_matches_per_row():
    off = np.array([0, 5, 6, 70])
    vals = np.arange(70)
    starts, new_off, counts = tumble_starts(off, 8)
    assert new_off.tolist() == [0, 1, 2, 10]
    s = np.add.reduceat(vals, starts)
    for r in range(3):
        row = vals[off[r] : off[r + 1]]
        want = oc.rollup_tier(row, 8)
        np.testing.assert_array_equal(s[new_off[r] : new_off[r + 1]], want["wsum"])
        np.testing.assert_array_equal(counts[new_off[r] : new_off[r + 1]], want["wcount"])


@pytest.mark.parametrize("bank", oc.BANKS)
def test_dwt_stage_matches_oracle(batch, bank):
    out = DwtTransform(bank)(batch)
    cvals, coff = list_to_numpy(out["coeffs"])
    rt_ok = out["rt_ok"].to_numpy(zero_copy_only=False)
    assert rt_ok.all(), "round-trip invariant failed in stage"
    assert out["rt_max_err"].to_numpy(zero_copy_only=False).max() < 0.5
    for i in range(0, batch.num_rows, 17):
        toks = _tokens(batch, i)
        want = oc.dwt_flat(toks, bank)
        got = cvals[coff[i] : coff[i + 1]]
        np.testing.assert_allclose(got, want, atol=1e-9, err_msg=f"row {i}")


@pytest.mark.parametrize("bank", oc.BANKS)
def test_inverse_dwt_stage(batch, bank):
    fwd = DwtTransform(bank)(batch)
    rec = InverseDwt(bank)(fwd)
    rvals, roff = list_to_numpy(rec["reconstructed"])
    tvals, toff = list_to_numpy(batch["tokens"])
    np.testing.assert_array_equal(np.rint(rvals).astype(np.int32), tvals)
    np.testing.assert_array_equal(np.diff(roff), np.diff(toff))


def test_bandpass_stage_matches_oracle(batch):
    fwd = DwtTransform("haar")(batch)
    bp = InverseDwt("haar", keep_levels=[0, 1], keep_offset=True)(fwd)
    rvals, roff = list_to_numpy(bp["reconstructed"])
    for i in (0, 7, 42):
        toks = _tokens(batch, i)
        flat = oc.dwt_flat(toks, "haar")
        want = oc.bandpass_reconstruct(flat, len(toks), [0, 1], "haar", keep_offset=True)
        np.testing.assert_allclose(rvals[roff[i] : roff[i + 1]], want, atol=1e-9)


def test_roundtrip_verify_stage(batch):
    """Full reconstruction: DwtTransform without verify, then InverseDwt
    with every level kept, gives back the tokens exactly."""
    fwd = DwtTransform("db4", verify=False)(batch)
    assert "rt_ok" not in fwd.column_names
    rec = InverseDwt("db4")(fwd)
    rvals, roff = list_to_numpy(rec["reconstructed"])
    tvals, toff = list_to_numpy(batch["tokens"])
    np.testing.assert_array_equal(np.diff(roff), np.diff(toff))
    np.testing.assert_array_equal(np.rint(rvals), tvals)
    assert np.abs(rvals - tvals).max() < 0.5


def test_rollup_stage_matches_oracle(batch):
    out = TierRollup(10)(batch)
    assert out.num_rows == batch.num_rows * 10
    mins, moff = list_to_numpy(out["mins"])
    sums, _ = list_to_numpy(out["sums"])
    counts, _ = list_to_numpy(out["counts"])
    tiers = out["tier"].to_numpy(zero_copy_only=False)
    docs = out["doc_id"].to_pylist()
    id_to_row = {d: i for i, d in enumerate(batch["doc_id"].to_pylist())}
    for j in range(0, out.num_rows, 37):
        toks = _tokens(batch, id_to_row[docs[j]])
        want = oc.rollup_tier(toks, 1 << int(tiers[j]))
        np.testing.assert_array_equal(mins[moff[j] : moff[j + 1]], want["wmin"])
        np.testing.assert_array_equal(sums[moff[j] : moff[j + 1]], want["wsum"])
        np.testing.assert_array_equal(counts[moff[j] : moff[j + 1]], want["wcount"])


def _tree_case(dtype):
    """Rows of length 1, 2, odd, 2**k and 2**k +- 1, plus int32 extremes."""
    rng = np.random.default_rng(7)
    lens = [1, 2, 3, 5, 31, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025]
    lo, hi = np.iinfo(np.int32).min, np.iinfo(np.int32).max
    rows = [rng.integers(lo, hi, n, endpoint=True) for n in lens]
    rows += [np.full(33, hi), np.full(17, lo), np.array([lo, hi] * 40)]
    off = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    return np.concatenate(rows).astype(dtype), off, rows


@pytest.mark.parametrize("n_tiers", [1, 10, 30])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_tier_tree_native_matches_numpy_and_oracle(monkeypatch, n_tiers, dtype):
    """tier_tree: native kernel == numpy reduceat fallback, and both equal
    oracle.rollup_tree row by row in the tier-major stream layout."""
    from wavelet_decomposition_ray import native

    vals, off, rows = _tree_case(dtype)
    got, toff = tier_tree(vals, off, n_tiers)
    monkeypatch.setattr(native, "tier_tree", lambda: None)
    fallback, toff2 = tier_tree(vals, off, n_tiers)
    np.testing.assert_array_equal(toff, toff2)
    for k in STAT_NAMES:
        assert got[k].dtype == np.int64
        np.testing.assert_array_equal(got[k], fallback[k], err_msg=k)
    n = len(rows)
    for r, toks in enumerate(rows):
        want = oc.rollup_tree(toks, n_tiers)
        for t in range(1, n_tiers + 1):
            a, b = toff[(t - 1) * n + r], toff[(t - 1) * n + r + 1]
            for k in STAT_NAMES:
                np.testing.assert_array_equal(got[k][a:b], want[t][k],
                                              err_msg=f"row {r} tier {t} {k}")


def test_tier_tree_rejects_empty_rows():
    with pytest.raises(ValueError):
        tier_tree(np.arange(3, dtype=np.int32), np.array([0, 3, 3]), 2)


def _oracle_blobs(rolled: pa.Table) -> list[bytes]:
    """Per-row ``oracle.encode_rollup_block`` of TierRollup's list rows."""
    stats = {k: list_to_numpy(rolled[c])
             for k, c in zip(STAT_NAMES, ("mins", "maxs", "sums", "counts"))}
    return [
        oc.encode_rollup_block({k: v[o[r]:o[r + 1]] for k, (v, o) in stats.items()})
        for r in range(rolled.num_rows)
    ]


def test_rollup_encode_matches_rollup_then_encoder(batch, monkeypatch):
    """RollupEncode (the fused native kernel, and the no-compiler path
    through tier_tree and the oracle's framing) == TierRollup's rows, each
    blob byte for byte the per-row oracle encoding of its lists."""
    from wavelet_decomposition_ray import native

    rolled = TierRollup(6)(batch)
    want = _oracle_blobs(rolled)
    got = RollupEncode(n_tiers=6)(batch)
    monkeypatch.setattr(native, "encoder", lambda: None)
    got_np = RollupEncode(n_tiers=6)(batch)
    for enc in (got, got_np):
        for c in ("doc_id", "source", "tier", "n_windows"):
            assert enc[c].to_pylist() == rolled[c].to_pylist(), c
        assert enc["blob"].to_pylist() == want
        assert enc["nbytes"].to_pylist() == [len(b) for b in want]


@pytest.mark.parametrize("fused", [True, False])
def test_rollup_encode_empty_batch_and_empty_row(fused, monkeypatch):
    """A batch with no rows encodes to an empty table of the usual columns,
    and a row with no tokens or a tier count outside 1..30 raises
    ValueError, on the fused native kernel and on the no-compiler path
    alike."""
    from wavelet_decomposition_ray import native

    if not fused:
        monkeypatch.setattr(native, "encoder", lambda: None)
    typ = pa.list_(pa.int32())
    none = pa.table({"doc_id": pa.array([], pa.string()),
                     "source": pa.array([], pa.string()),
                     "tokens": pa.array([], typ)})
    out = RollupEncode(n_tiers=3)(none)
    assert out.num_rows == 0
    assert out.column_names == ["doc_id", "source", "tier", "n_windows",
                                "blob", "nbytes", "bits_per_point"]
    assert out["blob"].type == pa.binary()
    empty = pa.table({"doc_id": ["a", "b"], "source": ["s", "s"],
                      "tokens": pa.array([[1, 2, 3], []], typ)})
    with pytest.raises(ValueError):
        RollupEncode(n_tiers=3)(empty)
    for bad in (0, 31):
        with pytest.raises(ValueError):
            RollupEncode(n_tiers=bad)


def test_slice_name_depends_only_on_doc_ids_and_tiers():
    """A staged file's name is a function of its (doc_id, tier) rows
    alone: the same rows cut from different batches or offsets name alike;
    other docs, or the same docs at other tiers, do not."""
    def rows(docs, tiers=None):
        tiers = [1] * len(docs) if tiers is None else tiers
        return pa.table({"doc_id": docs, "tier": pa.array(tiers, pa.int8())})

    docs = ["a1", "bb22", "ccc333", "d4"]
    direct = slice_name(rows(docs))
    assert slice_name(rows(["zz"] + docs + ["y"]).slice(1, 4)) == direct
    assert slice_name(pa.table({
        "doc_id": pa.chunked_array([["q", "r"] + docs]).combine_chunks(),
        "tier": pa.array([1] * 6, pa.int8())}).slice(2, 4)) == direct
    big = rows([f"x{i}" for i in range(50)] + docs)
    assert slice_name(big.slice(50)) == direct
    assert slice_name(rows(docs[:3])) != direct
    assert slice_name(rows(["a1b", "b22", "ccc333", "d4"])) != direct
    assert slice_name(rows(["a1", "bb22", "ccc333", "d5"])) != direct
    assert slice_name(rows(docs, [2] * 4)) != direct
    assert slice_name(rows(docs, [1, 1, 1, 2])) != direct


def test_slices_of_same_docs_at_other_tiers_keep_their_rows(tmp_path):
    """Two writer tasks that stage the SAME docs of one bucket at
    different tiers (two read units of one store file) get two slices, and
    the bucket commits every row of both."""
    docs = [f"d{i}" for i in range(5)]

    def unit(tier):
        return pa.table({"doc_id": docs, "bucket": pa.array([3] * 5, pa.int32()),
                         "tier": pa.array([tier] * 5, pa.int8()),
                         "source": ["s"] * 5, "n_windows": [1] * 5,
                         "nbytes": [2] * 5})

    stage = str(tmp_path / "staging")
    metas = [stage_slices(stage, unit(t)) for t in (1, 2)]
    files = [f for m in metas for f in m["stage_file"].to_pylist()]
    assert len(set(files)) == 2
    row = commit_bucket(str(tmp_path / "store"), stage, 3, files)
    assert row["n_rows"] == 10 and row["partials"]["tier"] == [1, 2]


def test_one_staged_file_per_call_commits_like_its_rows(batch, tmp_path):
    """One ``stage_slices`` call over k buckets leaves exactly one file in
    staging, holding k record batches in bucket order; every metadata row
    names that file; and committing each bucket from it gives the same
    data bytes and manifest row (but ``elapsed_s``) as writing that
    bucket's rows directly."""
    import os

    full = RollupEncode(n_tiers=3)(batch.append_column(
        "bucket", pa.array(bucket_of_ids(batch["doc_id"].to_pylist(), 8),
                           pa.int32())))
    stage = str(tmp_path / "staging")
    meta = stage_slices(stage, full)
    keys = sorted(set(full["bucket"].to_pylist()))
    assert len(keys) > 1
    (name,) = os.listdir(stage)
    assert meta["bucket"].to_pylist() == keys
    assert meta["stage_file"].to_pylist() == [name] * len(keys)
    with pa.OSFile(os.path.join(stage, name), "rb") as fh:
        reader = pa.ipc.open_file(fh)
        assert reader.num_record_batches == len(keys)
        assert [set(reader.get_batch(i)["bucket"].to_pylist())
                for i in range(len(keys))] == [{k} for k in keys]

    staged, direct = str(tmp_path / "staged"), str(tmp_path / "direct")
    for k in keys:
        got = commit_bucket(staged, stage, k, [name])
        want = write_bucket_table(direct, full.filter(
            pa.compute.equal(full["bucket"], k)))
        assert {**got, "elapsed_s": 0} == {**want, "elapsed_s": 0}
        with open(os.path.join(staged, got["file"]), "rb") as a, \
                open(os.path.join(direct, want["file"]), "rb") as b:
            assert a.read() == b.read()


def test_explode_rollup(batch):
    out = TierRollup(3)(batch)
    long = explode_rollup_batch(out)
    n_win = out["n_windows"].to_numpy(zero_copy_only=False)
    assert long.num_rows == int(n_win.sum())
    # spot-check row 0 tier 1 window 0
    toks = _tokens(batch, 0)
    first = long.slice(0, 1).to_pydict()
    assert first["wmin"][0] == int(min(toks[:2]))
    assert first["window_idx"][0] == 0


def test_encoder_roundtrip(batch, monkeypatch):
    """RollupEncode's blobs decode to TierRollup's lists and equal the
    per-row oracle encoding, with and without the fused native kernel;
    the encoding is deterministic (resume invariant)."""
    from wavelet_decomposition_ray import native

    rolled = TierRollup(5)(batch)
    want = _oracle_blobs(rolled)
    enc = RollupEncode(n_tiers=5)(batch)
    assert enc["nbytes"].to_numpy(zero_copy_only=False).sum() > 0
    assert enc["blob"].to_pylist() == want
    dec = decode_blocks_batch(enc)
    for col in ("mins", "maxs", "sums", "counts"):
        a, ao = list_to_numpy(rolled[col])
        b, bo = list_to_numpy(dec[col])
        np.testing.assert_array_equal(a, b, err_msg=col)
        np.testing.assert_array_equal(ao, bo)
    # deterministic encoding (resume invariant)
    assert RollupEncode(n_tiers=5)(batch)["blob"].to_pylist() == want
    monkeypatch.setattr(native, "encoder", lambda: None)
    assert RollupEncode(n_tiers=5)(batch)["blob"].to_pylist() == want


def test_gapfill_stage():
    toks = pa.array([[10, -1, 30], [1, 2, 3]], type=pa.list_(pa.int32()))
    t = pa.table({"doc_id": ["a", "b"], "tokens": toks, "source": ["s", "s"]})
    out = gapfill_batch(t)
    got = out["tokens"].to_pylist()
    assert got[0] == [10, 20, 30] and got[1] == [1, 2, 3]
    assert out["n_filled"].to_pylist() == [1, 0]


def test_gapfill_passthrough_gap_free(batch):
    out = gapfill_batch(batch)
    assert out["tokens"].combine_chunks().equals(batch["tokens"].combine_chunks())


def test_resample_stage_matches_oracle(batch):
    out = make_resample_batch(64)(batch)
    rvals, roff = list_to_numpy(out["resampled"])
    assert (np.diff(roff) == 64).all()
    for i in (0, 11, 63):
        toks = _tokens(batch, i)
        want = oc.resample_linear(toks, 64)
        np.testing.assert_allclose(rvals[roff[i] : roff[i + 1]], want, atol=1e-9)


def test_normalize_stage_matches_oracle(batch):
    out = normalize_batch(batch)
    nvals, noff = list_to_numpy(out["normalized"])
    for i in (0, 5):
        toks = _tokens(batch, i)
        want = oc.normalize_mean(toks)
        np.testing.assert_allclose(nvals[noff[i] : noff[i + 1]], want)


def _buffer_addresses(table):
    return [
        [b.address if b is not None else None for b in chunk.buffers()]
        for col in table.columns
        for chunk in col.chunks
    ]


@pytest.mark.parametrize("bank", ["haar", "db4"])
def test_roundtrip_check_passes_input_through(batch, bank):
    """The check emits no coefficient or invariant column: what leaves the
    stage is the input batch itself, same columns and same buffers."""
    from wavelet_decomposition_ray.pipelines.rollup_pipeline import RoundTripCheck

    filled = gapfill_batch(batch)
    out = RoundTripCheck(bank)(filled)
    assert out.column_names == filled.column_names
    assert _buffer_addresses(out) == _buffer_addresses(filled)


def test_roundtrip_check_names_the_broken_row(batch, monkeypatch):
    """A reconstruction that misses one row's tokens fails the stage with
    an AssertionError naming that row's doc_id, and only that one.  Pinned
    to the numpy fallback, the path whose inverse this test perturbs."""
    from wavelet_decomposition_ray import native
    from wavelet_decomposition_ray.pipelines.rollup_pipeline import RoundTripCheck

    monkeypatch.setattr(native, "dwt_cascade", lambda: None)
    bad = 17
    padded = next_pow2_arr(np.diff(list_to_numpy(batch["tokens"])[1]))
    p = int(padded[bad])
    j = int(np.searchsorted(np.nonzero(padded == p)[0], bad))  # row in group
    real = oc.idwt_pyramid

    def perturbed(levels, bank="haar"):
        rec = real(levels, bank)
        if rec.shape[1] == p:
            rec[j, 0] += 1.0
        return rec

    monkeypatch.setattr(oc, "idwt_pyramid", perturbed)
    doc = batch["doc_id"][bad].as_py()
    with pytest.raises(AssertionError) as err:
        RoundTripCheck("haar")(batch)
    assert str(err.value) == f"round-trip invariant violated for docs {[doc]}"


def test_roundtrip_check_native_names_the_broken_row(batch, monkeypatch):
    """The native kernel's verdict: taps scaled by 1 + 1e-9 keep every
    ordinary row (tokens < 7000) within rint of its tokens, but push one
    row of 2**30 tokens out.  The AssertionError names that row only."""
    from wavelet_decomposition_ray import native
    from wavelet_decomposition_ray.pipelines.rollup_pipeline import RoundTripCheck

    kernel = native.dwt_cascade()
    if kernel is None:
        pytest.skip("no C compiler: the native cascade is not built")
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(native, "dwt_cascade", lambda: counted)
    bad = 17
    vals, off = list_to_numpy(batch["tokens"])
    vals = vals.copy()
    vals[off[bad] : off[bad + 1]] = 1 << 30
    broken = batch.set_column(batch.schema.get_field_index("tokens"), "tokens",
                              numpy_to_list(vals, off, pa.int32()))
    RoundTripCheck("haar")(broken)  # exact taps: the big row passes too
    real = oc.filter_pair
    monkeypatch.setattr(oc, "filter_pair",
                        lambda bank: tuple(t * (1 + 1e-9) for t in real(bank)))
    doc = batch["doc_id"][bad].as_py()
    with pytest.raises(AssertionError) as err:
        RoundTripCheck("haar")(broken)
    assert str(err.value) == f"round-trip invariant violated for docs {[doc]}"
    assert len(calls) == 2


@pytest.mark.parametrize("kernel", ["native", "numpy"])
def test_dwt_cascade_verdict_at_a_half(monkeypatch, kernel):
    """rt_max_err == 0.5 exactly: rint decides the tie.  With taps lo =
    (1, 0.5), hi = 0 the row (x0, 1) comes back as (x0 + 0.5, 0.5 x0 +
    0.25): x0 = 1 rounds up to 2 (fails), x0 = 2 rounds down to 2 (ok)."""
    from wavelet_decomposition_ray import native
    from wavelet_decomposition_ray.stages.dwt import cascade

    if kernel == "numpy":
        monkeypatch.setattr(native, "dwt_cascade", lambda: None)
    elif native.dwt_cascade() is None:
        pytest.skip("no C compiler: the native cascade is not built")
    monkeypatch.setattr(oc, "filter_pair",
                        lambda bank: (np.array([1.0, 0.5]), np.zeros(2)))
    vals = np.array([1, 1, 2, 1], dtype=np.int32)
    _, _, ok, err = cascade(vals, np.array([0, 2, 4]), "haar", coeffs=False)
    assert ok.tolist() == [False, True]
    assert err.tolist() == [0.5, 0.5]
