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
* **Codec**: Gorilla XOR for float64 streams and delta-of-delta for int64
  streams (Facebook Gorilla paper, VLDB'15), framed per (doc, tier) block so
  encoding is a pure function of its input partition (resumability).
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
# Gorilla XOR codec (float64) and delta-of-delta codec (int64)
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


class _BitReader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0  # bit position

    def read(self, nbits: int) -> int:
        out = 0
        pos = self.pos
        data = self.data
        for _ in range(nbits):
            byte = data[pos >> 3]
            out = (out << 1) | ((byte >> (7 - (pos & 7))) & 1)
            pos += 1
        self.pos = pos
        return out


def gorilla_encode(values: np.ndarray) -> bytes:
    """Gorilla XOR compression of a float64 stream (Gorilla paper §4.1.2).

    First value raw 64 bits; then per value: '0' if xor==0; else '1' +
    ('0' reuse previous leading/meaningful window | '1' + 5b leading + 6b
    (meaningful-1)) + meaningful bits. No header: caller frames the count.
    """
    v = np.asarray(values, dtype=np.float64)
    bits = v.view(np.uint64)
    w = _BitWriter()
    if len(v) == 0:
        return w.getvalue()
    w.write(int(bits[0]), 64)
    lead, mean_len = -1, 0  # current meaningful-bit window (initially invalid)
    xors = np.bitwise_xor(bits[1:], bits[:-1])
    write = w.write
    for x in xors.tolist():
        if x == 0:
            write(0, 1)
        else:
            lz = 64 - x.bit_length()
            if lz > 31:
                lz = 31
            tz = (x & -x).bit_length() - 1
            if lead >= 0 and lz >= lead and tz >= 64 - lead - mean_len:
                # meaningful bits fall inside the previous window: reuse it
                write(2, 2)  # '10'
                write(x >> (64 - lead - mean_len), mean_len)
            else:
                lead, mean_len = lz, 64 - lz - tz
                write(3, 2)  # '11'
                write(lead, 5)
                write(mean_len - 1, 6)
                write(x >> tz, mean_len)
    return w.getvalue()


def gorilla_decode(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`gorilla_encode`."""
    out = np.empty(count, dtype=np.uint64)
    if count == 0:
        return out.view(np.float64)
    r = _BitReader(data)
    cur = r.read(64)
    out[0] = cur
    lead, mean_len = 0, 0
    for i in range(1, count):
        if r.read(1):
            if r.read(1):
                lead = r.read(5)
                mean_len = r.read(6) + 1
            m = r.read(mean_len)
            cur ^= m << (64 - lead - mean_len)
        out[i] = cur
    return out.view(np.float64)


def _dods_of(v: np.ndarray) -> np.ndarray:
    deltas = np.diff(v)
    dods = np.empty(len(deltas), dtype=np.int64)
    if len(deltas):
        dods[0] = deltas[0]
        dods[1:] = np.diff(deltas)
    return dods


def dod_encode_py(values: np.ndarray) -> bytes:
    """Scalar reference implementation of :func:`dod_encode` (kept as the
    readable spec; the vectorized version must match it byte-for-byte)."""
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


def dod_encode(values: np.ndarray) -> bytes:
    """Delta-of-delta compression of an int64 stream (Gorilla paper §4.1.1,
    widened buckets for general int64 data).

    Layout: first value raw 64b; then per delta-of-delta: '0' for 0;
    '10'+7b for [-63..64]; '110'+12b for [-2047..2048]; '1110'+32b;
    '1111'+64b raw (offset encoding within bucket as in the paper).
    Delegates to the vectorized block encoder with a single block.
    """
    v = np.asarray(values, dtype=np.int64)
    if len(v) == 0:
        return b""
    return dod_encode_blocks(v, np.array([0, len(v)], dtype=np.int64))[0]


def dod_decode(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`dod_encode`.

    Fast path: the stream is viewed as 64-bit big-endian words; every field
    is extracted with a constant-cost two-word peek (no per-bit loop), and
    the 4-bit control prefix is classified in one peek.
    """
    out = np.empty(count, dtype=np.int64)
    if count == 0:
        return out
    # pad to a whole number of words + one guard word for the 2-word peek
    n_words = (len(data) + 7) // 8 + 1
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
        # int64 wraparound semantics (encode computes deltas with numpy int64)
        delta = (delta + dod) & mask64
        cur = (cur + delta) & mask64
        out[i] = cur - full if cur >= wrap else cur
    return out


# LUTs indexed by the 4-bit control prefix of a two-word peek: bucket
# advance (bits), payload shift, payload mask, payload bias. Prefixes 0-7
# all mean the single '0' control bit; 8-11 '10'; 12-13 '110'; 14 '1110';
# 15 '1111' (64-bit payload — handled out of band, it may straddle the peek).
_DOD_ADV = np.array([1] * 8 + [9] * 4 + [15] * 2 + [36, 68], dtype=np.int64)
_DOD_SH = np.array([60] * 8 + [55] * 4 + [49] * 2 + [28, 0], dtype=np.uint64)
_DOD_MSK = np.array(
    [0] * 8 + [0x7F] * 4 + [0xFFF] * 2 + [0xFFFFFFFF, 0], dtype=np.uint64
)
_DOD_BIAS = np.array(
    [0] * 8 + [63] * 4 + [2047] * 2 + [(1 << 31) - 1, 0], dtype=np.uint64
)
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _peek_chunks(words: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vector two-word peek: 64 bits starting at bit ``b`` of word ``w``.
    Left shift via the pow2 multiply (uint64 << array is pathologically slow
    in this numpy build); the b==0 lane of the second term self-cancels
    because (x >> 1) >> 63 == 0."""
    one = np.uint64(1)
    return (words[w] * _POW2[b]) | ((words[w + 1] >> one) >> (np.uint64(63) - b))


def dod_decode_streams(
    streams: list[bytes], counts, out: np.ndarray, out_off: np.ndarray,
    min_lanes: int = 48,
) -> None:
    """Decode MANY independent DoD streams at once into ``out`` (int64),
    stream s landing at ``out[out_off[s] : out_off[s] + counts[s]]``.

    The per-value bit cursor is sequential WITHIN a stream, so vectorization
    runs ACROSS streams (wavefront): step i decodes value i of every stream
    still active, as one batch of vector ops on the streams sorted by length
    (active lanes are then always a prefix). When fewer than ``min_lanes``
    streams remain (a few very long tails), each finishes on the scalar
    peek loop — the wavefront's per-step fixed cost would dominate there.

    Matches :func:`dod_decode` bit-for-bit, including int64 wraparound.

    When the native decoder is available (see ``native/``), each stream
    decodes scalar in C instead (~40x the wavefront's per-value rate); the
    numpy wavefront below is the reference semantics and the no-compiler
    fallback — a property test pins the two bit-for-bit.
    """
    counts = np.asarray(counts, dtype=np.int64)
    nz = counts > 0
    if not nz.any():
        return
    from . import native as _native

    fn = _native.decoder()
    if fn is not None:
        idx = np.nonzero(nz)[0]
        lens = np.array([len(streams[int(s)]) for s in idx], dtype=np.int64)
        buf = b"".join(streams[int(s)] for s in idx) + b"\0" * 16
        base = np.frombuffer(buf, dtype=np.uint8)
        byte_off = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(lens[:-1], out=byte_off[1:])
        cnts = np.ascontiguousarray(counts[idx])
        oo = np.ascontiguousarray(np.asarray(out_off, dtype=np.int64)[idx])
        assert out.dtype == np.int64 and out.flags.c_contiguous
        fn(base.ctypes.data, byte_off.ctypes.data, cnts.ctypes.data,
           oo.ctypes.data, len(idx), out.ctypes.data)
        return
    idx_nz = np.nonzero(nz)[0]
    order = idx_nz[np.argsort(-counts[idx_nz], kind="stable")]
    cnt = counts[order]

    # one padded buffer: each stream rounded up to whole words + one zero
    # guard word so the two-word peek never crosses into the next stream
    pads = [(-len(streams[s])) % 8 + 8 for s in order]
    buf = b"".join(
        streams[s] + b"\0" * p for s, p in zip(order.tolist(), pads)
    )
    words = np.frombuffer(buf, dtype=">u8").astype(np.uint64)
    nw = np.array(
        [(len(streams[s]) + p) // 8 for s, p in zip(order.tolist(), pads)],
        dtype=np.int64,
    )
    gbase = np.concatenate([[0], np.cumsum(nw[:-1])])
    oo = out_off[order]

    # value 0: raw 64 bits at stream start (pos == 0 → chunk is word 0)
    cur = words[gbase].copy()
    out[oo] = cur.view(np.int64)
    delta = np.zeros(len(order), dtype=np.uint64)
    pos = np.full(len(order), 64, dtype=np.int64)

    max_n = int(cnt[0])
    one = np.uint64(1)
    for i in range(1, max_n):
        k = int(np.searchsorted(-cnt, -i - 1, side="right"))  # lanes with cnt > i
        if k < min_lanes:
            break
        p = pos[:k]
        w = (p >> 6) + gbase[:k]
        b = (p & 63).astype(np.uint64)
        chunk = _peek_chunks(words, w, b)
        top4 = (chunk >> np.uint64(60)).astype(np.intp)
        dod = ((chunk >> _DOD_SH[top4]) & _DOD_MSK[top4]) - _DOD_BIAS[top4]
        c4 = top4 == 15
        if c4.any():
            j = np.nonzero(c4)[0]
            p4 = p[j] + 4
            dod[j] = _peek_chunks(
                words, (p4 >> 6) + gbase[:k][j], (p4 & 63).astype(np.uint64)
            )
        delta[:k] += dod
        cur[:k] += delta[:k]
        out[oo[:k] + i] = cur[:k].view(np.int64)
        pos[:k] = p + _DOD_ADV[top4]
    else:
        return

    # scalar tail: finish the few longest streams from their saved state.
    # Convert ONLY each tail lane's word range to a Python list — a whole-
    # buffer tolist() put O(total decoded bytes) on the read hot path
    # (ADVICE r2)
    k_tail = int(np.searchsorted(-cnt, -i - 1, side="right"))
    for lane in range(k_tail):
        wl = words[gbase[lane] : gbase[lane] + nw[lane]].tolist()
        _dod_scalar_continue(
            wl, 0, int(pos[lane]), int(cur[lane]),
            int(delta[lane]), out, int(oo[lane]), i, int(cnt[lane]),
        )


def _dod_scalar_continue(
    words, gbase, pos, cur, delta, out, out_base, i0, count
):
    """Resume one stream's scalar decode at value index ``i0`` from saved
    (pos, cur, delta) wavefront state. Same loop body as :func:`dod_decode`
    but addressing the shared padded word buffer at ``gbase``."""
    mask64 = (1 << 64) - 1
    wrap, full = 1 << 63, 1 << 64
    for i in range(i0, count):
        w = gbase + (pos >> 6)
        b = pos & 63
        chunk = (
            (((words[w] << b) | (words[w + 1] >> (64 - b))) & mask64)
            if b
            else words[w]
        )
        top4 = chunk >> 60
        if top4 < 8:
            pos += 1
            dod = 0
        elif top4 < 12:
            dod = ((chunk >> 55) & 0x7F) - 63
            pos += 9
        elif top4 < 14:
            dod = ((chunk >> 49) & 0xFFF) - 2047
            pos += 15
        elif top4 == 14:
            dod = ((chunk >> 28) & 0xFFFFFFFF) - ((1 << 31) - 1)
            pos += 36
        else:
            p4 = pos + 4
            w4 = gbase + (p4 >> 6)
            b4 = p4 & 63
            dod = (
                (((words[w4] << b4) | (words[w4 + 1] >> (64 - b4))) & mask64)
                if b4
                else words[w4]
            )
            pos += 68
        delta = (delta + dod) & mask64
        cur = (cur + delta) & mask64
        out[out_base + i] = cur - full if cur >= wrap else cur


def _pack_codes(vals: np.ndarray, lens: np.ndarray) -> bytes:
    """Pack variable-length bit codes (MSB-first) into bytes, vectorized.

    ``vals[i]`` holds the low ``lens[i]`` bits of code i (lens in [0, 64]).
    Total bit length must be a multiple of 8 (caller adds pad codes).

    Strategy: each code lands in at most two 64-bit words. Per-word
    contributions have disjoint bits, so OR == ADD, and per-word sums of a
    word-sorted contribution stream are exact cumsum differences at
    word-boundary indices (mod 2^64) — no sorting, no per-bit expansion.
    """
    lens = np.asarray(lens, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.uint64)
    total_bits = int(lens.sum())
    assert total_bits % 8 == 0, "caller must pad each block to a byte boundary"
    if total_bits == 0:
        return b""
    nz = lens > 0
    vals, lens = vals[nz], lens[nz]
    starts = np.cumsum(lens) - lens
    word = starts >> 6
    bit_in = starts & 63
    n_words = (total_bits + 63) // 64

    # NB: uint64 left shift by an array is pathologically slow in this numpy
    # build; multiply by a power-of-two lookup instead (identical mod 2^64)
    pow2 = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    end_over = bit_in + lens - 64           # >0 where the code spills
    # branch-free: left-shift by max(-end_over, 0), right-shift by
    # max(end_over, 0) — exactly one of the two is a no-op per lane, which
    # replaces four boolean fancy-index passes with two dense ones
    contrib_main = (vals * pow2[np.maximum(-end_over, 0)]) >> np.maximum(
        end_over, 0
    ).astype(np.uint64)

    spill = end_over > 0
    w_spill = word[spill] + 1
    contrib_spill = vals[spill] * pow2[64 - end_over[spill]]

    def accumulate(words_arr, contribs):
        # per-word sums of a word-sorted contribution stream are exact
        # cumsum differences at word-boundary indices; boundaries come from
        # an O(n) bincount rather than per-word binary searches
        s = np.zeros(len(contribs) + 1, dtype=np.uint64)
        np.cumsum(contribs, out=s[1:])
        bounds = np.zeros(n_words + 1, dtype=np.int64)
        np.cumsum(np.bincount(words_arr, minlength=n_words), out=bounds[1:])
        return s[bounds[1:]] - s[bounds[:-1]]

    out = accumulate(word, contrib_main)
    if spill.any():
        out |= accumulate(w_spill, contrib_spill)
    return out.astype(">u8").tobytes()[: total_bits // 8]


def dod_encode_blocks(values: np.ndarray, offsets: np.ndarray) -> list[bytes]:
    """Vectorized :func:`dod_encode` of MANY blocks at once.

    ``values`` is the flat int64 concatenation of all blocks; ``offsets``
    delimit blocks (offsets[i]..offsets[i+1]). Returns one byte-identical
    blob per block (each padded to a byte boundary, like dod_encode).
    Removes both the per-value Python loop and the per-block call overhead —
    this is the encoder's hot path for rollup stat streams.
    """
    v = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
    offsets = np.asarray(offsets, dtype=np.int64)
    n_blocks = len(offsets) - 1
    if n_blocks == 0:
        return []
    lens_b = np.diff(offsets)
    if (lens_b == 0).any():
        # rare path: fall back per block to keep semantics for empties
        return [dod_encode_py(v[offsets[i] : offsets[i + 1]]) for i in range(n_blocks)]
    n = len(v)

    # per-block delta-of-deltas, computed globally
    m_b = lens_b - 1                       # dods per block
    deltas_g = np.diff(v)                  # length n-1; block-crossing entries invalid
    mask = np.ones(max(n - 1, 0), dtype=bool)
    mask[offsets[1:-1] - 1] = False        # drop the cross-block deltas
    bd = deltas_g[mask]                    # per-block deltas, concatenated
    d_off = np.concatenate([[0], np.cumsum(m_b)])
    prev = np.empty_like(bd)
    if len(bd):
        prev[1:] = bd[:-1]
        prev[d_off[:-1][m_b > 0]] = 0      # first delta of each block: dod = delta
    d = bd - prev

    # bucket classification (same as dod_encode). Control and payload are
    # MERGED into one code per dod (val = ctrl << pay_len | payload) — the
    # emitted bit stream is identical, but _pack_codes sees HALF the codes,
    # which halves its cumsum/searchsorted/gather work (this is the encode
    # hot spot). The '1111'+64b bucket cannot merge (68 bits > one word);
    # its rare lanes keep the two-slot layout.
    ctrl_val = np.zeros(len(d), dtype=np.uint64)
    ctrl_len = np.zeros(len(d), dtype=np.int64)
    pay_val = np.zeros(len(d), dtype=np.uint64)
    pay_len = np.zeros(len(d), dtype=np.int64)
    b0 = d == 0
    b1 = ~b0 & (d >= -63) & (d <= 64)
    b2 = ~b0 & ~b1 & (d >= -2047) & (d <= 2048)
    b3 = ~b0 & ~b1 & ~b2 & (d >= -(1 << 31) + 1) & (d <= (1 << 31))
    b4 = ~(b0 | b1 | b2 | b3)
    ctrl_len[b0] = 1
    ctrl_val[b1] = (np.uint64(2 << 7)) | (d[b1] + 63).astype(np.uint64)
    ctrl_len[b1] = 9
    ctrl_val[b2] = (np.uint64(6 << 12)) | (d[b2] + 2047).astype(np.uint64)
    ctrl_len[b2] = 15
    ctrl_val[b3] = (np.uint64(14 << 32)) | (d[b3] + ((1 << 31) - 1)).astype(
        np.uint64
    )
    ctrl_len[b3] = 36
    ctrl_val[b4] = 15
    ctrl_len[b4] = 4
    pay_val[b4] = np.ascontiguousarray(d[b4]).view(np.uint64)
    pay_len[b4] = 64

    # code slots per block: [header][ctrl,payload]*m [pad]
    slots_b = 2 * m_b + 2
    code_off = np.concatenate([[0], np.cumsum(slots_b)])
    total_codes = int(code_off[-1])
    vals_c = np.zeros(total_codes, dtype=np.uint64)
    lens_c = np.zeros(total_codes, dtype=np.int64)
    vals_c[code_off[:-1]] = v[offsets[:-1]].view(np.uint64) if v.dtype == np.int64 else 0
    lens_c[code_off[:-1]] = 64
    block_of = np.repeat(np.arange(n_blocks), m_b)
    local_k = np.arange(len(d), dtype=np.int64) - d_off[block_of]
    pos_ctrl = code_off[block_of] + 1 + 2 * local_k
    vals_c[pos_ctrl] = ctrl_val
    lens_c[pos_ctrl] = ctrl_len
    vals_c[pos_ctrl + 1] = pay_val
    lens_c[pos_ctrl + 1] = pay_len

    # per-block bit totals -> pad codes (zero bits to the byte boundary)
    sums = np.concatenate([[0], np.cumsum(lens_c)])
    bits_b = sums[code_off[1:] - 1] - sums[code_off[:-1]]  # excludes pad slot
    pad = (8 - (bits_b & 7)) & 7
    lens_c[code_off[1:] - 1] = pad

    packed = _pack_codes(vals_c, lens_c)
    byte_b = ((bits_b + pad) // 8).astype(np.int64)
    byte_off = np.concatenate([[0], np.cumsum(byte_b)])
    return [packed[byte_off[i] : byte_off[i + 1]] for i in range(n_blocks)]


def dod_encode_blocks_raw(
    values: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`dod_encode_blocks` without the per-block ``bytes`` objects:
    returns ``(buf, starts, lens)`` — block i's encoded bytes are
    ``buf[starts[i] : starts[i] + lens[i]]`` (uint8).  With the native
    encoder (``native/``), each stream encodes scalar in C directly into a
    capacity-sized buffer — no Python objects anywhere; otherwise the
    vectorized numpy encoder runs and the list result is flattened.  The
    encoder stages frame blobs straight from this form via one segmented
    gather, so the hot path never touches per-row Python."""
    v = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
    off = np.ascontiguousarray(np.asarray(offsets, dtype=np.int64))
    n_blocks = len(off) - 1
    if n_blocks <= 0:
        z = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=np.uint8), z, z
    from . import native as _native

    fn = _native.encoder()
    if fn is not None:
        m = np.maximum(np.diff(off) - 1, 0)
        cap_off = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(16 + 9 * m, out=cap_off[1:])
        buf = np.empty(int(cap_off[-1]), dtype=np.uint8)
        lens = np.empty(n_blocks, dtype=np.int64)
        fn(v.ctypes.data, off.ctypes.data, n_blocks, buf.ctypes.data,
           cap_off.ctypes.data, lens.ctypes.data)
        return buf, cap_off[:-1], lens
    blobs = dod_encode_blocks(v, off)
    lens = np.fromiter((len(b) for b in blobs), np.int64, n_blocks)
    starts = np.zeros(n_blocks, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    return np.frombuffer(b"".join(blobs), dtype=np.uint8), starts, lens


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


def decode_rollup_blocks(blobs: list[bytes]) -> dict[str, np.ndarray]:
    """Batch inverse of :func:`encode_rollup_block` over MANY blobs.

    Returns flat arrays ``wmin``/``wmax``/``wsum`` (int64), ``wcount``
    (int32) and ``offsets`` (int64, len(blobs)+1): blob j's windows occupy
    ``offsets[j]:offsets[j+1]`` of each flat array. All 3·len(blobs) DoD
    streams decode in ONE :func:`dod_decode_streams` wavefront — this is
    the store's read-path hot loop (VERDICT r1 "What's wrong #2").
    """
    import struct

    nb = len(blobs)
    ns = np.empty(nb, dtype=np.int64)
    ws = np.empty(nb, dtype=np.int64)
    lasts = np.empty(nb, dtype=np.int64)
    streams: list[bytes] = []
    for j, blob in enumerate(blobs):
        assert blob[:4] == _MAGIC, "bad rollup block magic"
        n, w, last = struct.unpack_from("<III", blob, 4)
        l0, l1, l2 = struct.unpack_from("<3I", blob, 16)
        ns[j], ws[j], lasts[j] = n, w, last
        p = 28
        streams.append(blob[p : p + l0])
        streams.append(blob[p + l0 : p + l0 + l1])
        streams.append(blob[p + l0 + l1 : p + l0 + l1 + l2])

    offsets = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(ns, out=offsets[1:])
    total = int(offsets[-1])
    # stream order per blob: wmin, wmax, wsum -> three interleaved layouts
    # mapped onto one output buffer of 3 sections
    out = np.empty(3 * total, dtype=np.int64)
    s_counts = np.repeat(ns, 3)
    s_off = np.empty(3 * nb, dtype=np.int64)
    s_off[0::3] = offsets[:-1]
    s_off[1::3] = total + offsets[:-1]
    s_off[2::3] = 2 * total + offsets[:-1]
    dod_decode_streams(streams, s_counts, out, s_off)

    wcount = np.repeat(ws, ns).astype(np.int32)
    last_idx = offsets[1:][ns > 0] - 1
    wcount[last_idx] = lasts[ns > 0]
    return {
        "wmin": out[:total],
        "wmax": out[total : 2 * total],
        "wsum": out[2 * total :],
        "wcount": wcount,
        "offsets": offsets,
    }


def decode_rollup_blocks_arrow(arr) -> dict[str, np.ndarray]:
    """:func:`decode_rollup_blocks` taken straight from an Arrow binary
    column — NO per-blob Python objects: the frame headers of every blob
    parse as one fancy-indexed gather over the column's flat values buffer,
    stream byte offsets come out arithmetically, and the native decoder
    reads the streams in place (one small guarded copy of the batch buffer,
    nothing per-row).  Falls back to the list path when the native decoder
    is unavailable."""
    import pyarrow as _pa

    if isinstance(arr, _pa.ChunkedArray):
        arr = arr.combine_chunks()
    from . import native as _native

    fn = _native.decoder()
    nb = len(arr)
    if fn is None or nb == 0:
        return decode_rollup_blocks(arr.to_pylist())
    assert arr.null_count == 0, "store blobs are never null"
    bufs = arr.buffers()
    off_dtype = np.int64 if _pa.types.is_large_binary(arr.type) else np.int32
    off32 = np.frombuffer(bufs[1], dtype=off_dtype)[
        arr.offset : arr.offset + nb + 1
    ].astype(np.int64)
    raw = np.frombuffer(bufs[2], dtype=np.uint8)
    # guarded copy of just this batch's value range (a few MB — the native
    # peek may read up to 9 bytes past the final stream's last code)
    lo, hi = int(off32[0]), int(off32[-1])
    base = np.empty(hi - lo + 16, dtype=np.uint8)
    base[: hi - lo] = raw[lo:hi]
    base[hi - lo :] = 0
    off = off32 - lo

    heads = base[off[:-1, None] + np.arange(28)]
    assert (
        heads[:, :4] == np.frombuffer(_MAGIC, dtype=np.uint8)
    ).all(), "bad rollup block magic"
    u32 = heads[:, 4:28].copy().view("<u4")  # n, w, last, l0, l1, l2
    ns = u32[:, 0].astype(np.int64)
    ws = u32[:, 1].astype(np.int64)
    lasts = u32[:, 2].astype(np.int64)
    s0 = off[:-1] + 28
    s1 = s0 + u32[:, 3]
    s2 = s1 + u32[:, 4]

    offsets = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(ns, out=offsets[1:])
    total = int(offsets[-1])
    out = np.empty(3 * total, dtype=np.int64)
    byte_off = np.empty(3 * nb, dtype=np.int64)
    byte_off[0::3], byte_off[1::3], byte_off[2::3] = s0, s1, s2
    s_counts = np.repeat(ns, 3)
    s_off = np.empty(3 * nb, dtype=np.int64)
    s_off[0::3] = offsets[:-1]
    s_off[1::3] = total + offsets[:-1]
    s_off[2::3] = 2 * total + offsets[:-1]
    fn(base.ctypes.data, byte_off.ctypes.data, s_counts.ctypes.data,
       s_off.ctypes.data, 3 * nb, out.ctypes.data)

    wcount = np.repeat(ws, ns).astype(np.int32)
    last_idx = offsets[1:][ns > 0] - 1
    wcount[last_idx] = lasts[ns > 0]
    return {
        "wmin": out[:total],
        "wmax": out[total : 2 * total],
        "wsum": out[2 * total :],
        "wcount": wcount,
        "offsets": offsets,
    }
