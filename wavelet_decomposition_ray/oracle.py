"""Single-process NumPy oracle: the executable restatement of the reference
semantics (jus6du/wavelet_decomposition) that every Ray stage is tested against.

This module has NO Ray dependency. It defines, once, the engine's fixed
conventions:

* **Transform**: orthonormal *periodized* Mallat pyramid DWT. The reference
  realizes its multi-resolution transform as a damped LSQR solve against a
  23360x23423 dictionary of circularly-translated square/sine wavelets
  (``/root/reference/wavelet_decomposition.py:17-95,103-192,195-199``). With an
  orthonormal bank the solve degenerates to the analysis filter cascade: O(n)
  per row and exactly invertible. ``haar`` is the analog of the reference's
  "square" shape, ``db4`` (8-tap Daubechies) of its "sine" shape. Circular
  wavelet supports in the reference (``calc_translations.py:12-18``) map to
  periodized (mod-N) convolution here.
* **Coefficient serialization**: levels finest-first, values reversed within
  each level — the reference's convention established at
  ``wavelet_decomposition.py:260-292`` (row order reversed and each row
  reversed at ``:290``); the approximation ("offset",
  ``wavelet_decomposition.py:42,271``) comes last.
* **Normalization**: the reference ships with column normalization *disabled*
  (``wavelet_decomposition.py:50-51,93`` commented out), so its magnitudes are
  not orthonormal-DWT magnitudes. Per SURVEY.md §2.8 we fix the orthonormal
  Mallat convention and state it here rather than chase unnormalized
  damped-LSQR magnitudes.
* **Rollups**: tumbling windows of width ``2**t`` for tier t (finest tier
  t=1), min/max/sum/count, last window partial; tiers form a continuous
  aggregate tree (tier t+1 is an exact fold of tier t). Analog of the
  reference's 15-scale ladder / per-scale statistics (``calc_EPN.py:3-43``).
* **Codec**: delta-of-delta for the int64 rollup streams (Facebook Gorilla
  paper, VLDB'15), framed per (doc, tier) block so encoding is a pure
  function of its input partition (resumability). The functions here are the
  scalar reference; the store's production codec is ``stages/encode.py``
  (native C kernels), which must write and read the same bytes. Hosts with
  no C compiler encode and decode through these functions.
"""

from __future__ import annotations

import numpy as np

# --------------------------------------------------------------------------
# Filter banks
# --------------------------------------------------------------------------

SQRT2 = np.sqrt(2.0)

# Reconstruction (synthesis) low-pass filters, orthonormal.
_REC_LO = {
    # Haar — the orthonormal version of the reference's "square" +-1 wavelets
    # (generate_square_wl_matrix, wavelet_decomposition.py:17-95).
    "haar": np.array([1.0, 1.0]) / SQRT2,
    # Daubechies-4 (8 taps) — the smooth analog of the reference's "sine"
    # shape (generate_sine_wl_matrix, wavelet_decomposition.py:103-192).
    "db4": np.array(
        [
            0.23037781330885523,
            0.7148465705525415,
            0.6308807679295904,
            -0.02798376941698385,
            -0.18703481171888114,
            0.030841381835986965,
            0.032883011666982945,
            -0.010597401784997278,
        ]
    ),
}

BANKS = tuple(sorted(_REC_LO))


def filter_pair(bank: str) -> tuple[np.ndarray, np.ndarray]:
    """Return (rec_lo, rec_hi) for an orthonormal bank.

    rec_hi is the quadrature mirror: hi[m] = (-1)**m * lo[K-1-m].
    """
    try:
        lo = _REC_LO[bank]
    except KeyError:
        raise ValueError(f"unknown filter bank {bank!r}; expected one of {BANKS}")
    k = len(lo)
    signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    hi = signs * lo[::-1]
    return lo, hi


# --------------------------------------------------------------------------
# Padding
# --------------------------------------------------------------------------

def next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    n = max(int(n), 1)
    return 1 << (n - 1).bit_length()


def pad_pow2(x: np.ndarray) -> np.ndarray:
    """Zero-pad a 1-D array to the next power-of-two length.

    The reference sidesteps non-dyadic lengths by resampling to 64/day and
    truncating to 365 days (import_excel.py:39-52); the engine instead
    zero-pads, records ``n_tok``, and trims after reconstruction.
    """
    n = len(x)
    m = next_pow2(n)
    if m == n:
        return np.asarray(x, dtype=np.float64)
    out = np.zeros(m, dtype=np.float64)
    out[:n] = x
    return out


# --------------------------------------------------------------------------
# Periodized orthonormal DWT (Mallat pyramid)
# --------------------------------------------------------------------------

def _analysis_step(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One analysis level on rows of a 2-D array (R, N), N even.

    a[k] = sum_m lo[m] * x[(2k+m) mod N]   (inner product with the periodized
    d[k] = sum_m hi[m] * x[(2k+m) mod N]    orthonormal basis functions)

    The bulk of each tap is a strided slice (no index-array gather); only the
    <= (K-1)/2 windows whose support wraps past N need the modular fix-up.
    """
    r, n = x.shape
    half = n // 2
    a = np.zeros((r, half))
    d = np.zeros((r, half))
    for m in range(len(lo)):
        valid = max(0, min(half, (n - m + 1) // 2))  # windows with 2k+m < n
        if valid > 0:
            col = x[:, m : m + 2 * valid : 2]
            a[:, :valid] += lo[m] * col
            d[:, :valid] += hi[m] * col
        for k in range(valid, half):  # wrapped tail (at most a few columns)
            col = x[:, (2 * k + m) % n]
            a[:, k] += lo[m] * col
            d[:, k] += hi[m] * col
    return a, d


def _synthesis_step(a: np.ndarray, d: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Inverse of :func:`_analysis_step` (transpose of the orthonormal map)."""
    r, half = a.shape
    n = half * 2
    x = np.zeros((r, n))
    for m in range(len(lo)):
        valid = max(0, min(half, (n - m + 1) // 2))
        if valid > 0:
            x[:, m : m + 2 * valid : 2] += lo[m] * a[:, :valid] + hi[m] * d[:, :valid]
        for k in range(valid, half):
            x[:, (2 * k + m) % n] += lo[m] * a[:, k] + hi[m] * d[:, k]
    return x


def dwt_pyramid(x: np.ndarray, bank: str = "haar") -> list[np.ndarray]:
    """Full Mallat pyramid on rows of a 2-D array (R, N), N a power of two.

    Returns levels **finest-first**: ``[D1 (N/2), D2 (N/4), ..., DJ (1),
    AJ (1)]``. Total coefficients per row == N. For N == 1 returns ``[A0]``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[1]
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of two; pad first")
    lo, hi = filter_pair(bank)
    details = []
    cur = x
    while cur.shape[1] >= 2:
        cur, d = _analysis_step(cur, lo, hi)
        details.append(d)
    details.append(cur)  # AJ, shape (R, 1)
    return details


def idwt_pyramid(levels: list[np.ndarray], bank: str = "haar") -> np.ndarray:
    """Inverse of :func:`dwt_pyramid` (levels finest-first, AJ last)."""
    lo, hi = filter_pair(bank)
    cur = np.atleast_2d(levels[-1])
    for d in levels[-2::-1]:
        cur = _synthesis_step(cur, np.atleast_2d(d), lo, hi)
    return cur


def level_lengths(n: int) -> list[int]:
    """Coefficient count per serialized level for padded length n (pow2).

    Finest-first details then the approximation: [n/2, n/4, ..., 1, 1].
    """
    out = []
    while n >= 2:
        n //= 2
        out.append(n)
    out.append(1)
    return out


def serialize_pyramid(levels: list[np.ndarray]) -> np.ndarray:
    """Flatten one row's pyramid to the engine's on-disk convention.

    Levels finest-first, **values reversed within each level** — the
    reference's serialization fixed at ``wavelet_decomposition.py:290``
    (``row.reverse()`` on both the row order and each row).
    """
    return np.concatenate([np.asarray(lvl, dtype=np.float64).ravel()[::-1] for lvl in levels])


def deserialize_pyramid(flat: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`serialize_pyramid` for one row."""
    flat = np.asarray(flat, dtype=np.float64)
    lens = level_lengths(len(flat))
    out = []
    pos = 0
    for ln in lens:
        out.append(flat[pos : pos + ln][::-1].copy())
        pos += ln
    return out


def dwt_flat(tokens: np.ndarray, bank: str = "haar") -> np.ndarray:
    """tokens (1-D int/float) -> serialized coefficient vector (len = pow2 pad)."""
    x = pad_pow2(np.asarray(tokens, dtype=np.float64))
    return serialize_pyramid([lvl[0] for lvl in dwt_pyramid(x[None, :], bank)])


def idwt_flat(flat: np.ndarray, n_tok: int, bank: str = "haar") -> np.ndarray:
    """Serialized coefficients -> reconstructed signal trimmed to n_tok."""
    levels = deserialize_pyramid(flat)
    return idwt_pyramid([l[None, :] for l in levels], bank)[0, :n_tok]


def roundtrip_tokens(tokens: np.ndarray, bank: str = "haar") -> np.ndarray:
    """decompose -> reconstruct -> rint -> int32. The per-row invariant
    (BASELINE.json) is ``roundtrip_tokens(t) == t`` elementwise."""
    rec = idwt_flat(dwt_flat(tokens, bank), len(tokens), bank)
    return np.rint(rec).astype(np.int32)


def bandpass_reconstruct(
    flat: np.ndarray, n_tok: int, keep_levels: list[int], bank: str = "haar",
    keep_offset: bool = False,
) -> np.ndarray:
    """Reconstruct from a subset of levels, zeroing the rest.

    Analog of the reference's ``reconstruct(reconstructed_time_scales,
    add_offset)`` (wavelet_decomposition.py:385-434): scale masking (M7) +
    inverse transform (T6). ``keep_levels`` are finest-first indices
    (0 = finest detail); ``keep_offset`` keeps the approximation (the
    reference's ``add_offset``).
    """
    levels = deserialize_pyramid(flat)
    keep = set(int(k) for k in keep_levels)
    n_detail = len(levels) - 1
    masked = []
    for i, lvl in enumerate(levels):
        is_offset = i == n_detail
        if (is_offset and keep_offset) or (not is_offset and i in keep):
            masked.append(lvl)
        else:
            masked.append(np.zeros_like(lvl))
    return idwt_pyramid([l[None, :] for l in masked], bank)[0, :n_tok]


# --------------------------------------------------------------------------
# Gap-fill / resample (reference ingest: import_excel.py:39-52)
# --------------------------------------------------------------------------

GAP_SENTINEL = -1  # tokens are non-negative (FIXTURES.md F1); -1 marks a gap


def gapfill_interp(tokens: np.ndarray) -> np.ndarray:
    """Linear-interpolate gap sentinels; edges take the nearest valid value.

    Analog of the reference's interpolation at ingest
    (``import_excel.py:48-52``). Returns int32 (rint of the interpolant).
    """
    t = np.asarray(tokens)
    bad = t == GAP_SENTINEL
    if not bad.any():
        return t.astype(np.int32, copy=False)
    good = ~bad
    if not good.any():
        return np.zeros_like(t, dtype=np.int32)
    idx = np.arange(len(t))
    filled = np.interp(idx, idx[good], t[good].astype(np.float64))
    return np.rint(filled).astype(np.int32)


def resample_linear(tokens: np.ndarray, new_len: int) -> np.ndarray:
    """Resample a sequence to ``new_len`` points by linear interpolation on
    the unit interval — the reference's 48->64 samples/day regrid
    (``import_excel.py:48-52``: ``np.interp(new_grid, old_grid, data)``).
    Grids are ``(i+1)/len`` as in the reference. Returns float64.
    """
    t = np.asarray(tokens, dtype=np.float64)
    old = np.arange(1, len(t) + 1) / len(t)
    new = np.arange(1, new_len + 1) / new_len
    return np.interp(new, old, t)


def normalize_mean(tokens: np.ndarray) -> np.ndarray:
    """x / mean(x) — the reference's per-year unit-mean normalization
    (``import_excel.py:43``). Returns float64; zero-mean rows pass through."""
    t = np.asarray(tokens, dtype=np.float64)
    m = t.mean()
    return t / m if m != 0 else t.copy()


# --------------------------------------------------------------------------
# Tiered tumbling rollups + continuous-aggregate tree
# --------------------------------------------------------------------------

def rollup_tier(tokens: np.ndarray, w: int) -> dict[str, np.ndarray]:
    """Tumbling min/max/sum/count at window width w over one row.

    Windows start at position 0; the last window may be partial. Sums in
    int64. Analog of the reference's per-scale statistics ladder
    (``calc_EPN.py:3-43``; tutorial cell 6 time_scales).
    """
    t = np.asarray(tokens)
    n = len(t)
    if n == 0:
        z64 = np.zeros(0, dtype=np.int64)
        return {"wmin": z64, "wmax": z64, "wsum": z64,
                "wcount": np.zeros(0, dtype=np.int32)}
    starts = np.arange(0, n, w)
    t64 = t.astype(np.int64)
    counts = np.diff(np.append(starts, n)).astype(np.int32)
    return {
        "wmin": np.minimum.reduceat(t64, starts),
        "wmax": np.maximum.reduceat(t64, starts),
        "wsum": np.add.reduceat(t64, starts),
        "wcount": counts,
    }


def rollup_all_tiers(tokens: np.ndarray, n_tiers: int = 10) -> dict[int, dict[str, np.ndarray]]:
    """All tiers t=1..n_tiers (w = 2**t), each computed directly from raw."""
    return {t: rollup_tier(tokens, 1 << t) for t in range(1, n_tiers + 1)}


def fold_tier(tier: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Tier t+1 from tier t by pairwise combine — the continuous-aggregate
    tree step. Exact: dyadic tumbling windows nest perfectly."""
    n = len(tier["wmin"])
    if n == 0:
        return {k: v.copy() for k, v in tier.items()}
    starts = np.arange(0, n, 2)
    return {
        "wmin": np.minimum.reduceat(tier["wmin"], starts),
        "wmax": np.maximum.reduceat(tier["wmax"], starts),
        "wsum": np.add.reduceat(tier["wsum"], starts),
        "wcount": np.add.reduceat(tier["wcount"].astype(np.int64), starts).astype(np.int32),
    }


def rollup_tree(tokens: np.ndarray, n_tiers: int = 10) -> dict[int, dict[str, np.ndarray]]:
    """All tiers via the aggregate tree: tier 1 from raw, tier t+1 folded
    from tier t. Must equal :func:`rollup_all_tiers` exactly (invariant 3,
    FIXTURES.md)."""
    out = {1: rollup_tier(tokens, 2)}
    for t in range(2, n_tiers + 1):
        out[t] = fold_tier(out[t - 1])
    return out


# --------------------------------------------------------------------------
# EPN-style order statistics (calc_EPN.py:3-43)
# --------------------------------------------------------------------------

def epn_order_stat(values: np.ndarray, satisfaction: float) -> float:
    """The reference's quantile rule: sort ascending, take index
    ``ceil(s * n / 100) - 1`` (``calc_EPN.py:23-24,32-33``)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    if n == 0:
        return float("nan")
    k = int(np.ceil(satisfaction * n / 100.0)) - 1
    return float(v[max(k, 0)])


def epn_stats(
    coeff_abs: np.ndarray,
    satisfactions=(80.0, 95.0, 99.0, 100.0),
    veclength: float = 1.0,
    load_factor: float = 1.0,
    n_years: float = 1.0,
    sine: bool = False,
) -> dict[str, list[float]]:
    """Per-scale storage statistics per ``calc_EPN.py:12-42``:

    pmax = q * load_factor; emax = pmax * veclength / 2 (* 2/pi for sine);
    n    = sum(min(|b|, q)) / q / n_years;  uf = 100 * n * veclength / (365*24);
    serv = emax * n.
    """
    a = np.abs(np.asarray(coeff_abs, dtype=np.float64))
    out = {k: [] for k in ("pmax", "emax", "n", "uf", "serv")}
    for s in satisfactions:
        q = epn_order_stat(a, s)
        pmax = q * load_factor
        emax = pmax * veclength / 2.0 * ((2.0 / np.pi) if sine else 1.0)
        ncyc = float(np.minimum(a, q).sum() / q / n_years) if q > 0 else 0.0
        uf = 100.0 * ncyc * veclength / (365.0 * 24.0)
        out["pmax"].append(pmax)
        out["emax"].append(emax)
        out["n"].append(ncyc)
        out["uf"].append(uf)
        out["serv"].append(emax * ncyc)
    return out


# --------------------------------------------------------------------------
# Delta-of-delta codec (int64): the scalar reference of stages/encode.py
# --------------------------------------------------------------------------

class _BitWriter:
    __slots__ = ("buf", "acc", "nbits")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, nbits: int):
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.nbits += nbits
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def getvalue(self) -> bytes:
        if self.nbits:
            pad = 8 - self.nbits
            return bytes(self.buf) + bytes([(self.acc << pad) & 0xFF])
        return bytes(self.buf)


def _dods_of(v: np.ndarray) -> np.ndarray:
    deltas = np.diff(v)
    dods = np.empty(len(deltas), dtype=np.int64)
    if len(deltas):
        dods[0] = deltas[0]
        dods[1:] = np.diff(deltas)
    return dods


def dod_encode(values: np.ndarray) -> bytes:
    """Delta-of-delta compression of an int64 stream (Gorilla paper §4.1.1,
    widened buckets for general int64 data).

    Layout: first value raw 64b; then per delta-of-delta: '0' for 0;
    '10'+7b for [-63..64]; '110'+12b for [-2047..2048]; '1110'+32b;
    '1111'+64b raw (offset encoding within bucket as in the paper).
    Each stream pads with zero bits to a byte boundary.
    """
    v = np.asarray(values, dtype=np.int64)
    w = _BitWriter()
    if len(v) == 0:
        return w.getvalue()
    w.write(int(v[0]) & ((1 << 64) - 1), 64)
    if len(v) == 1:
        return w.getvalue()
    write = w.write
    for d in _dods_of(v).tolist():
        if d == 0:
            write(0, 1)
        elif -63 <= d <= 64:
            write(2, 2)
            write(d + 63, 7)
        elif -2047 <= d <= 2048:
            write(6, 3)
            write(d + 2047, 12)
        elif -(1 << 31) + 1 <= d <= (1 << 31):
            write(14, 4)
            write(d + (1 << 31) - 1, 32)
        else:
            write(15, 4)
            write(d & ((1 << 64) - 1), 64)
    return w.getvalue()


def dod_decode(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`dod_encode`.

    The stream is viewed as 64-bit big-endian words; every field
    is extracted with a constant-cost two-word peek (no per-bit loop), and
    the 4-bit control prefix is classified in one peek.  Raises
    ``ValueError`` when the cursor passes the stream's end before ``count``
    values are read.
    """
    out = np.empty(count, dtype=np.int64)
    if count == 0:
        return out
    # pad to a whole number of words + two guard words: a 2-word peek of a
    # 64-bit payload may start just past the stream's end
    n_words = (len(data) + 7) // 8 + 2
    end = 8 * len(data)
    words = np.frombuffer(data.ljust(n_words * 8, b"\0"), dtype=">u8").astype(
        np.uint64
    ).tolist()

    mask64 = (1 << 64) - 1

    def peek(pos: int, nbits: int) -> int:
        w, b = pos >> 6, pos & 63
        chunk = ((words[w] << b) | (words[w + 1] >> (64 - b))) & mask64 if b else words[w]
        return chunk >> (64 - nbits)

    first = peek(0, 64)
    pos = 64
    if pos > end:
        raise ValueError(f"DoD stream of {len(data)} bytes ends before "
                         "its first value")
    if first >= 1 << 63:
        first -= 1 << 64
    out[0] = first
    delta = 0
    cur = first & mask64
    wrap = 1 << 63
    full = 1 << 64
    for i in range(1, count):
        # one two-word load gives every field except the 64-bit payload
        w = pos >> 6
        b = pos & 63
        chunk = (((words[w] << b) | (words[w + 1] >> (64 - b))) & mask64) if b else words[w]
        top4 = chunk >> 60
        if top4 < 8:  # '0'
            pos += 1
            dod = 0
        elif top4 < 12:  # '10' + 7
            dod = ((chunk >> 55) & 0x7F) - 63
            pos += 9
        elif top4 < 14:  # '110' + 12
            dod = ((chunk >> 49) & 0xFFF) - 2047
            pos += 15
        elif top4 == 14:  # '1110' + 32
            dod = ((chunk >> 28) & 0xFFFFFFFF) - ((1 << 31) - 1)
            pos += 36
        else:  # '1111' + 64
            dod = peek(pos + 4, 64)
            pos += 68
            if dod >= wrap:
                dod -= full
        if pos > end:
            raise ValueError(f"DoD stream of {len(data)} bytes ends before "
                             f"value {i} of {count}")
        # int64 wraparound semantics (encode computes deltas with numpy int64)
        delta = (delta + dod) & mask64
        cur = (cur + delta) & mask64
        out[i] = cur - full if cur >= wrap else cur
    return out


# ------------- block framing: one rollup tier of one doc -------------------

_MAGIC = b"GRB2"


def encode_rollup_block(tier: dict[str, np.ndarray], w: int | None = None) -> bytes:
    """Encode one (doc, tier) rollup block: DoD for the int64 min/max/sum
    streams. The count stream of a tumbling rollup is fully determined by
    (n_windows, window_width, last_count), so only those three scalars are
    framed — a free 25% codec saving. Pure function of the block (no
    cross-partition state) so rewrites are byte-identical on resume."""
    import struct

    counts = np.asarray(tier["wcount"], dtype=np.int64)
    n = len(counts)
    if w is None:
        w = int(counts[0]) if n else 0
    last = int(counts[-1]) if n else 0
    streams = [
        dod_encode(tier["wmin"]),
        dod_encode(tier["wmax"]),
        dod_encode(tier["wsum"]),
    ]
    head = (
        _MAGIC
        + struct.pack("<III", n, int(w), last)
        + struct.pack("<3I", *(len(s) for s in streams))
    )
    return head + b"".join(streams)


def decode_rollup_block(blob: bytes) -> dict[str, np.ndarray]:
    import struct

    assert blob[:4] == _MAGIC, "bad rollup block magic"
    n, w, last = struct.unpack_from("<III", blob, 4)
    lens = struct.unpack_from("<3I", blob, 16)
    pos = 28
    parts = []
    for ln in lens:
        parts.append(blob[pos : pos + ln])
        pos += ln
    counts = np.full(n, w, dtype=np.int32)
    if n:
        counts[-1] = last
    return {
        "wmin": dod_decode(parts[0], n),
        "wmax": dod_decode(parts[1], n),
        "wsum": dod_decode(parts[2], n),
        "wcount": counts,
    }
