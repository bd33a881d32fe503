/* Native kernels of the store: the delta-of-delta stream decoder, the
 * one-pass rollup tier tree, the fused tier tree + DoD encoder + blob
 * framing, and the DWT cascade.  The codec kernels are C twins of the
 * Python reference (oracle.py dod_encode / dod_decode /
 * encode_rollup_block).  Bit-exact: uint64 arithmetic is the same mod-2^64
 * semantics the Python reference uses, and words are big-endian in the
 * stream buffer (bswap on load).
 *
 * Compiled at import time by native/__init__.py with plain `cc -O2
 * -shared -fPIC` and called through ctypes from stages/ — no Python
 * headers, no build system.  Hosts with no compiler encode and decode
 * through the scalar reference in oracle.py instead.  One stream decodes
 * at a few ns/value here, which makes the store's read path
 * compute-trivial relative to parquet IO.
 *
 * Decoder layout contract: streams live anywhere in one shared byte
 * buffer, stream s starting at byte byte_off[s] and byte_len[s] bytes
 * long; decoded values land at out[out_off[s] .. out_off[s] + counts[s]).
 * The caller guarantees at least 16 readable bytes past every stream's end
 * (inter-stream bytes count; only the physical end of the buffer needs a
 * guard).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

static inline uint64_t bswap64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_bswap64(x);
#else
    x = ((x & 0x00000000FFFFFFFFULL) << 32) | (x >> 32);
    x = ((x & 0x0000FFFF0000FFFFULL) << 16) | ((x >> 16) & 0x0000FFFF0000FFFFULL);
    x = ((x & 0x00FF00FF00FF00FFULL) << 8) | ((x >> 8) & 0x00FF00FF00FF00FFULL);
    return x;
#endif
}

/* 64-bit peek starting at bit `pos` of a big-endian BYTE stream.  Byte
 * addressing (not word) so streams can start at any offset of a shared
 * buffer — e.g. directly inside an Arrow binary column's values buffer.
 * Reads at most 9 bytes starting at pos/8; the caller guarantees 9
 * readable bytes past each stream's last code (padding, the next stream's
 * bytes, or an explicit guard at the very end of the buffer). */
static inline uint64_t peek(const uint8_t *base, int64_t pos) {
    int64_t byte = pos >> 3;
    int b = (int)(pos & 7);
    uint64_t hi;
    memcpy(&hi, base + byte, 8);
    hi = bswap64(hi);
    if (b == 0)
        return hi;
    return (hi << b) | ((uint64_t)base[byte + 8] >> (8 - b));
}

/* Decode one stream of `len` bytes.  Returns 0 if the bit cursor passes
 * 8*len (a corrupt header claims more values than the stream holds), else
 * 1.  One compare per value bounds every read: a cursor at most 8*len
 * peeks at most 9 bytes past the stream's end, inside the 16-byte guard. */
static int decode_one(const uint8_t *base, int64_t len, int64_t count,
                      int64_t *out) {
    if (count <= 0)
        return 1;
    const int64_t end = 8 * len;
    uint64_t cur = peek(base, 0);
    uint64_t delta = 0;
    int64_t pos = 64;
    out[0] = (int64_t)cur;
    for (int64_t i = 1; i < count; i++) {
        if (pos > end)
            return 0;
        uint64_t chunk = peek(base, pos);
        uint64_t top4 = chunk >> 60;
        uint64_t dod;
        if (top4 < 8) { /* '0' */
            dod = 0;
            pos += 1;
        } else if (top4 < 12) { /* '10' + 7 */
            dod = ((chunk >> 55) & 0x7F) - 63;
            pos += 9;
        } else if (top4 < 14) { /* '110' + 12 */
            dod = ((chunk >> 49) & 0xFFF) - 2047;
            pos += 15;
        } else if (top4 == 14) { /* '1110' + 32 */
            dod = ((chunk >> 28) & 0xFFFFFFFFULL) - ((1ULL << 31) - 1);
            pos += 36;
        } else { /* '1111' + raw 64 */
            dod = peek(base, pos + 4);
            pos += 68;
        }
        delta += dod;
        cur += delta;
        out[i] = (int64_t)cur;
    }
    return pos <= end;
}

/* Decode every stream; returns -1, or the index of the first stream whose
 * cursor ran past its byte length (decoding stops there). */
int64_t dod_decode_streams_c(const uint8_t *base, const int64_t *byte_off,
                             const int64_t *byte_len, const int64_t *counts,
                             const int64_t *out_off, int64_t n_streams,
                             int64_t *out) {
    for (int64_t s = 0; s < n_streams; s++)
        if (!decode_one(base + byte_off[s], byte_len[s], counts[s],
                        out + out_off[s]))
            return s;
    return -1;
}

/* ---------------- encoder: exact C twin of oracle.dod_encode ------------- */

typedef struct { uint8_t *p; uint64_t acc; int nbits; } BW;

/* MSB-first bit writer that stores 32 bits at a time.  n <= 32 and fewer
 * than 32 bits are pending between calls, so acc never overflows; wider
 * codes are written as several calls.  Bits above the pending ones are
 * stale and never stored. */
static inline void bw_put(BW *w, uint64_t v, int n) {
    w->acc = (w->acc << n) | (v & ((1ULL << n) - 1));
    w->nbits += n;
    if (w->nbits >= 32) {
        w->nbits -= 32;
        uint32_t word = (uint32_t)(w->acc >> w->nbits);
        w->p[0] = (uint8_t)(word >> 24);
        w->p[1] = (uint8_t)(word >> 16);
        w->p[2] = (uint8_t)(word >> 8);
        w->p[3] = (uint8_t)word;
        w->p += 4;
    }
}

/* Store the pending bits, zero padded to a byte boundary. */
static inline void bw_flush(BW *w) {
    while (w->nbits >= 8) {
        w->nbits -= 8;
        *w->p++ = (uint8_t)(w->acc >> w->nbits);
    }
    if (w->nbits > 0)
        *w->p++ = (uint8_t)(w->acc << (8 - w->nbits));
    w->nbits = 0;
}

/* Encode v[0 .. n) at out; returns the byte length, at most
 * 16 + 9 * (n - 1) for n >= 1. */
static int64_t encode_one(const int64_t *v, int64_t n, uint8_t *out) {
    if (n <= 0)
        return 0;
    BW w = {out, 0, 0};
    uint64_t first = (uint64_t)v[0];
    bw_put(&w, first >> 32, 32);
    bw_put(&w, first & 0xFFFFFFFFULL, 32);
    uint64_t prev_delta = 0;
    for (int64_t i = 1; i < n; i++) {
        /* mod-2^64 arithmetic == numpy int64 wraparound semantics */
        uint64_t delta = (uint64_t)v[i] - (uint64_t)v[i - 1];
        uint64_t ud = delta - prev_delta;
        prev_delta = delta;
        int64_t d = (int64_t)ud;
        if (ud + 2047 <= 4095) { /* -2047 <= d <= 2048 */
            /* '0', '10' + 7 or '110' + 12, selected without a branch:
             * the two short codes are about equally common on real
             * series, so a branch between them mispredicts half the time */
            int short7 = ud + 63 <= 127; /* -63 <= d <= 64 */
            uint64_t code = short7 ? (2ULL << 7) | (ud + 63)
                                   : (6ULL << 12) | (ud + 2047);
            int len = short7 ? 9 : 15;
            bw_put(&w, ud == 0 ? 0 : code, ud == 0 ? 1 : len);
        } else if (d >= -(1LL << 31) + 1 && d <= (1LL << 31)) {
            bw_put(&w, 14, 4);
            bw_put(&w, (uint64_t)(d + (1LL << 31) - 1), 32);
        } else {
            bw_put(&w, 15, 4);
            bw_put(&w, ud >> 32, 32);
            bw_put(&w, ud & 0xFFFFFFFFULL, 32);
        }
    }
    bw_flush(&w);
    return (int64_t)(w.p - out);
}

/* Variable-length segmented memcpy: segment s is src[src_off[s] ..
 * src_off[s]+lens[s]) -> dst[dst_off[s] ..).  Used to put framed blobs in
 * their final column order without per-row Python. */
void gather_segments_c(const uint8_t *src, const int64_t *src_off,
                       const int64_t *lens, uint8_t *dst,
                       const int64_t *dst_off, int64_t n) {
    for (int64_t s = 0; s < n; s++)
        memcpy(dst + dst_off[s], src + src_off[s], (size_t)lens[s]);
}

/* ---------------- tier tree: all dyadic rollup tiers in one pass -------- */

/* Min/max/sum/count of every tumbling window at widths 2, 4, ...,
 * 2^n_tiers of one row of n >= 1 raw tokens (v32 or v64, the other NULL).
 * Tier 1 folds raw pairs; tier t folds pairs of tier t-1 windows, already
 * in the output (exact: dyadic windows nest).  Tier t's ceil(n / 2^t)
 * windows land at index at[(t-1) * stride] of each stat array.  Sums wrap
 * mod 2^64, matching numpy int64 adds. */
static void fold_row(const int32_t *v32, const int64_t *v64, int64_t n,
                     int64_t n_tiers, const int64_t *at, int64_t stride,
                     int64_t *wmin, int64_t *wmax, int64_t *wsum,
                     int64_t *wcnt) {
    int64_t o = at[0];
    for (int64_t i = 0; i < n; i += 2, o++) {
        int64_t a = v64 ? v64[i] : (int64_t)v32[i];
        int64_t mn = a, mx = a, c = 1;
        uint64_t s = (uint64_t)a;
        if (i + 1 < n) {
            int64_t b = v64 ? v64[i + 1] : (int64_t)v32[i + 1];
            mn = b < a ? b : a;
            mx = b > a ? b : a;
            s += (uint64_t)b;
            c = 2;
        }
        wmin[o] = mn;
        wmax[o] = mx;
        wsum[o] = (int64_t)s;
        wcnt[o] = c;
    }
    int64_t np = (n + 1) / 2;
    for (int64_t t = 1; t < n_tiers; t++, np = (np + 1) / 2) {
        int64_t p = at[(t - 1) * stride];
        o = at[t * stride];
        for (int64_t i = 0; i < np; i += 2, o++) {
            int64_t j = p + i;
            if (i + 1 < np) {
                wmin[o] = wmin[j + 1] < wmin[j] ? wmin[j + 1] : wmin[j];
                wmax[o] = wmax[j + 1] > wmax[j] ? wmax[j + 1] : wmax[j];
                wsum[o] = (int64_t)((uint64_t)wsum[j] + (uint64_t)wsum[j + 1]);
                wcnt[o] = wcnt[j] + wcnt[j + 1];
            } else {
                wmin[o] = wmin[j];
                wmax[o] = wmax[j];
                wsum[o] = wsum[j];
                wcnt[o] = wcnt[j];
            }
        }
    }
}

/* Every tier of n_rows rows of raw tokens (row r is vals[val_off[r] ..
 * val_off[r+1]), int32 when is64 == 0, else int64, never empty) in the
 * tier-major stream layout: (tier t, row r) owns windows
 * out_off[(t-1)*n_rows + r] .. out_off[(t-1)*n_rows + r + 1), and the
 * caller sizes out_off from ceil(len / 2^t). */
void tier_tree_c(const void *vals, const int64_t *val_off, int64_t is64,
                 int64_t n_rows, int64_t n_tiers, const int64_t *out_off,
                 int64_t *wmin, int64_t *wmax, int64_t *wsum, int64_t *wcnt) {
    const int32_t *v32 = (const int32_t *)vals;
    const int64_t *v64 = (const int64_t *)vals;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t lo = val_off[r];
        fold_row(is64 ? NULL : v32 + lo, is64 ? v64 + lo : NULL,
                 val_off[r + 1] - lo, n_tiers, out_off + r, n_rows,
                 wmin, wmax, wsum, wcnt);
    }
}

/* ---------------- fused rollup + encode: one pass per row -------------- */

static inline void put_le32(uint8_t *p, uint64_t x) {
    p[0] = (uint8_t)x;
    p[1] = (uint8_t)(x >> 8);
    p[2] = (uint8_t)(x >> 16);
    p[3] = (uint8_t)(x >> 24);
}

/* The framed GRB2 blob of every (tier, row) of one batch, each equal to
 * oracle.encode_rollup_block of that row's tier.  Per row, fold_row
 * writes all tiers into work (4 * S int64 for the four stats, S =
 * sum_t ceil(n_max / 2^t) over the batch's longest row, then n_tiers
 * int64 of tier starts); then each tier's 28-byte header (magic, n, first
 * count, last count, three stream lengths, little-endian uint32) and its
 * wmin / wmax / wsum DoD streams go straight to out at a compact cursor,
 * blobs in row-major order.  Blob (tier t, row r) starts at
 * blob_start[(t-1)*n_rows + r] and is blob_len[...] bytes long; out
 * needs 28 + 3 * (16 + 9 * (w - 1)) bytes for a blob of w windows. */
void rollup_encode_c(const void *vals, const int64_t *val_off, int64_t is64,
                     int64_t n_rows, int64_t n_tiers, int64_t *work,
                     uint8_t *out, int64_t *blob_start, int64_t *blob_len) {
    const int32_t *v32 = (const int32_t *)vals;
    const int64_t *v64 = (const int64_t *)vals;
    int64_t n_max = 0;
    for (int64_t r = 0; r < n_rows; r++)
        if (val_off[r + 1] - val_off[r] > n_max)
            n_max = val_off[r + 1] - val_off[r];
    int64_t S = 0;
    for (int64_t t = 1; t <= n_tiers; t++)
        S += ((n_max - 1) >> t) + 1;
    int64_t *wmin = work, *wmax = work + S, *wsum = work + 2 * S,
            *wcnt = work + 3 * S, *at = work + 4 * S;
    int64_t cur = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t lo = val_off[r], n = val_off[r + 1] - lo;
        at[0] = 0;
        for (int64_t t = 1; t < n_tiers; t++)
            at[t] = at[t - 1] + ((n - 1) >> t) + 1;
        fold_row(is64 ? NULL : v32 + lo, is64 ? v64 + lo : NULL, n, n_tiers,
                 at, 1, wmin, wmax, wsum, wcnt);
        for (int64_t t = 0; t < n_tiers; t++) {
            int64_t a = at[t], w = ((n - 1) >> (t + 1)) + 1;
            uint8_t *blob = out + cur;
            int64_t l0 = encode_one(wmin + a, w, blob + 28);
            int64_t l1 = encode_one(wmax + a, w, blob + 28 + l0);
            int64_t l2 = encode_one(wsum + a, w, blob + 28 + l0 + l1);
            memcpy(blob, "GRB2", 4);
            put_le32(blob + 4, (uint64_t)w);
            put_le32(blob + 8, (uint64_t)wcnt[a]);
            put_le32(blob + 12, (uint64_t)wcnt[a + w - 1]);
            put_le32(blob + 16, (uint64_t)l0);
            put_le32(blob + 20, (uint64_t)l1);
            put_le32(blob + 24, (uint64_t)l2);
            blob_start[t * n_rows + r] = cur;
            blob_len[t * n_rows + r] = 28 + l0 + l1 + l2;
            cur += 28 + l0 + l1 + l2;
        }
    }
}

/* ---------------- DWT: one periodized Mallat cascade per row ------------- */

/* Bit-identical twin of the numpy path (oracle._analysis_step /
 * _synthesis_step).  Those accumulate every output element over the taps
 * m = 0, 1, ..., K-1 in ascending order, starting from 0.0, each product
 * rounded on its own (numpy never fuses a multiply into an add).  The
 * loops below keep exactly that per-element order — they gather where
 * numpy scatters — so FMA contraction must stay off: a fused multiply-add
 * rounds once where numpy rounds twice.  The pragma sits in the source
 * because the library's cache key hashes this file, not the compile line. */
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

/* Always inlined, so the K == 2 and K == 8 calls below get unrolled taps. */
#if defined(__GNUC__) || defined(__clang__)
#define DWT_INLINE static inline __attribute__((always_inline))
#else
#define DWT_INLINE static inline
#endif

/* One analysis level over x[0..n), n even: a[k] = sum_m lo[m] x[(2k+m) mod n]
 * and d[k] likewise with hi, taps ascending. */
DWT_INLINE void dwt_analysis(const double *x, int64_t n, const double *lo,
                             const double *hi, int64_t K, double *a,
                             double *d) {
    int64_t half = n / 2;
    for (int64_t k = 0; k < half; k++) {
        int64_t b = 2 * k;
        double sa = 0.0, sd = 0.0;
        if (b + K <= n) {
            for (int64_t m = 0; m < K; m++) {
                sa += lo[m] * x[b + m];
                sd += hi[m] * x[b + m];
            }
        } else {
            for (int64_t m = 0; m < K; m++) {
                double v = x[(b + m) % n];
                sa += lo[m] * v;
                sd += hi[m] * v;
            }
        }
        a[k] = sa;
        d[k] = sd;
    }
}

/* One synthesis level (a, d of length half -> x of length n = 2*half), the
 * analysis map's transpose: x[i] sums lo[m] a[k] + hi[m] d[k] over the
 * taps m with 2k + m == i (mod n), ascending.  As n and K are even (every
 * orthonormal bank is), x[2j] takes the even taps m = 2t with k = j - t,
 * and x[2j+1] the odd taps m = 2t+1 with the same k (mod half). */
DWT_INLINE void dwt_synthesis(const double *a, const double *d, int64_t half,
                              const double *lo, const double *hi, int64_t K,
                              double *x) {
    for (int64_t j = 0; j < half; j++) {
        double se = 0.0, so = 0.0;
        if (j >= K / 2 - 1) {
            for (int64_t m = 0; m < K; m += 2) {
                int64_t k = j - m / 2;
                se += lo[m] * a[k] + hi[m] * d[k];
                so += lo[m + 1] * a[k] + hi[m + 1] * d[k];
            }
        } else {
            for (int64_t m = 0; m < K; m += 2) {
                int64_t k = ((j - m / 2) % half + half) % half;
                se += lo[m] * a[k] + hi[m] * d[k];
                so += lo[m + 1] * a[k] + hi[m + 1] * d[k];
            }
        }
        x[2 * j] = se;
        x[2 * j + 1] = so;
    }
}

/* rint(v) in the default round-to-nearest-even mode, inline: below 2^52,
 * adding and subtracting 2^52 rounds to an integer, ties to even; from
 * 2^52 up, and for inf and NaN, v already is its own rint. */
static inline double rint_even(double v) {
    const double big = 4503599627370496.0; /* 2^52 */
    if (v >= 0.0)
        return v < big ? (v + big) - big : v;
    return v > -big ? -((-v + big) - big) : v;
}

/* Forward then (optionally) inverse DWT of every row of one batch of
 * integer tokens: row r is vals[val_off[r] .. val_off[r+1]), int32 when
 * is64 == 0, else int64, zero-padded to p = the next power of two (>= 1).
 * With lo/hi the K-tap orthonormal bank:
 *   - coeffs != NULL: the row's p coefficients land at coeffs[coeff_off[r]
 *     ..), finest level first, each level reversed (the oracle's
 *     serialization);
 *   - rt_ok != NULL: the cascade runs back up, rt_err[r] = max |rec - x|
 *     and rt_ok[r] = all(rint(rec) == x), both over the padded row.
 * work holds 4 * (largest p) doubles of scratch. */
void dwt_cascade_c(const void *vals, const int64_t *val_off, int64_t is64,
                   int64_t n_rows, const double *lo, const double *hi,
                   int64_t K, double *coeffs, const int64_t *coeff_off,
                   uint8_t *rt_ok, double *rt_err, double *work) {
    const int32_t *v32 = (const int32_t *)vals;
    const int64_t *v64 = (const int64_t *)vals;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t o = val_off[r], n = val_off[r + 1] - o;
        int64_t p = 1;
        while (p < n)
            p <<= 1;
        double *x = work, *lev = work + p, *w0 = work + 2 * p, *w1 = work + 3 * p;
        for (int64_t i = 0; i < n; i++)
            x[i] = is64 ? (double)v64[o + i] : (double)v32[o + i];
        for (int64_t i = n; i < p; i++)
            x[i] = 0.0;
        /* analysis: D1 at lev[0 .. p/2), D2 next, ..., AJ at lev[p-1] */
        const double *cur = x;
        for (int64_t len = p, pos = 0; len >= 2; len >>= 1) {
            double *a = (cur == w0) ? w1 : w0;
            if (K == 2)
                dwt_analysis(cur, len, lo, hi, 2, a, lev + pos);
            else if (K == 8)
                dwt_analysis(cur, len, lo, hi, 8, a, lev + pos);
            else
                dwt_analysis(cur, len, lo, hi, K, a, lev + pos);
            pos += len >> 1;
            cur = a;
        }
        lev[p - 1] = cur[0];
        if (coeffs != NULL) {
            double *out = coeffs + coeff_off[r];
            for (int64_t s = 0, ln = p > 1 ? p >> 1 : 1; s < p;
                 s += ln, ln = ln > 1 ? ln >> 1 : 1)
                for (int64_t j = 0; j < ln; j++)
                    out[s + j] = lev[s + ln - 1 - j];
        }
        if (rt_ok == NULL)
            continue;
        /* synthesis: coarsest level first (detail of length half sits at
         * lev[p - 2*half]), back up to p values */
        const double *rec = lev + p - 1;
        for (int64_t half = 1; half < p; half <<= 1) {
            double *y = (rec == w0) ? w1 : w0;
            if (K == 2)
                dwt_synthesis(rec, lev + p - 2 * half, half, lo, hi, 2, y);
            else if (K == 8)
                dwt_synthesis(rec, lev + p - 2 * half, half, lo, hi, 8, y);
            else
                dwt_synthesis(rec, lev + p - 2 * half, half, lo, hi, K, y);
            rec = y;
        }
        double err = 0.0;
        for (int64_t i = 0; i < p; i++) {
            double e = fabs(rec[i] - x[i]);
            err = (e > err || e != e) ? e : err; /* NaN sticks, as in numpy */
        }
        /* x is integral, and a rounded |rec - x| is >, == or < 0.5 at least
         * as the exact one is, so err decides rint(rec) == x everywhere
         * unless it is exactly 0.5: only then look for a tie rint rounds
         * the wrong way */
        uint8_t ok = err < 0.5;
        if (err == 0.5) {
            ok = 1;
            for (int64_t i = 0; i < p; i++)
                if (rint_even(rec[i]) != x[i])
                    ok = 0;
        }
        rt_ok[r] = ok;
        rt_err[r] = err;
    }
}
