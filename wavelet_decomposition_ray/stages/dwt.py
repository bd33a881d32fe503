"""Mallat-pyramid DWT stage: stateless batch transforms over zero-copy Arrow.

Replaces the reference's damped-LSQR solve against a 23360x23423 wavelet
dictionary (``/root/reference/wavelet_decomposition.py:195-199``) with the
O(n) orthonormal filter-bank cascade (SURVEY.md §2.3 T1-T6). Rows are padded
to the next power of two.

:func:`cascade` is the one forward path, shared by :class:`DwtTransform`
(serialized coefficients, plus the invariant columns when ``verify``) and
the job's round-trip check (the verdict only, no coefficient column).  It
runs the native kernel (``native/dod.c`` ``dwt_cascade_c``: per row, pad in
scratch, analysis, then synthesis) and falls back to the numpy pyramid —
rows grouped by padded length and transformed as 2-D arrays — only when
no C compiler exists.  Both give the same bits.

The round-trip verdict is the invariant BASELINE.json mandates:
decompose -> reconstruct -> rint must equal the input tokens exactly
(``rt_ok``), with ``rt_max_err`` = max |rec - x| over the padded row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import native
from ..functions.listops import list_to_numpy, next_pow2_arr, numpy_to_list
from .. import oracle as oc


def _pad_grouped(values: np.ndarray, offsets: np.ndarray, padded: np.ndarray):
    """Group batch rows by padded (pow2) length.

    Yields (row_indices, X) where X is the (len(rows), P) float64 matrix of
    zero-padded rows.
    """
    lens = np.diff(offsets)
    for p in np.unique(padded):
        rows = np.nonzero(padded == p)[0]
        x = np.zeros((len(rows), p), dtype=np.float64)
        for j, r in enumerate(rows):
            n = lens[r]
            x[j, :n] = values[offsets[r] : offsets[r] + n]
        yield rows, x


def _cascade_np(values, offsets, padded, out_off, bank, coeffs, rt_ok, rt_err):
    """Numpy fallback of ``dwt_cascade_c``: fills whichever of ``coeffs``
    and ``rt_ok``/``rt_err`` is not None."""
    for rows, x in _pad_grouped(values, offsets, padded):
        levels = oc.dwt_pyramid(x, bank)
        if coeffs is not None:
            # serialize: finest-first, reversed within level (oracle conv.)
            ser = np.concatenate([lvl[:, ::-1] for lvl in levels], axis=1)
            for j, r in enumerate(rows):
                coeffs[out_off[r] : out_off[r + 1]] = ser[j]
        if rt_ok is not None:
            rec = oc.idwt_pyramid(levels, bank)
            rt_err[rows] = np.abs(rec - x).max(axis=1)
            rt_ok[rows] = (np.rint(rec) == x).all(axis=1)


def cascade(values: np.ndarray, offsets: np.ndarray, bank: str,
            coeffs: bool = True, verify: bool = True):
    """Forward DWT of every row of one flat ``(values, offsets)`` batch.

    ``values`` are integer tokens.  Returns ``(coeffs_flat, coeff_off,
    rt_ok, rt_err)``: the serialized coefficients (levels finest-first,
    reversed within level — the oracle serialization) at ``coeff_off``, or
    None when ``coeffs`` is off; and the per-row round-trip verdict and max
    error, or None when ``verify`` is off.  The taps come from
    ``oracle.filter_pair`` on every call.
    """
    if values.dtype.kind not in "iu":
        raise TypeError(f"tokens must be integers, got {values.dtype}")
    lo, hi = oc.filter_pair(bank)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    n_rows = len(offsets) - 1
    padded = next_pow2_arr(np.diff(offsets))
    coeff_off = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(padded, out=coeff_off[1:])
    flat = np.empty(coeff_off[-1], dtype=np.float64) if coeffs else None
    rt_ok = np.ones(n_rows, dtype=bool) if verify else None
    rt_err = np.zeros(n_rows, dtype=np.float64) if verify else None
    fn = native.dwt_cascade()
    if fn is None:
        _cascade_np(values, offsets, padded, coeff_off, bank, flat, rt_ok, rt_err)
    elif n_rows:
        v = np.ascontiguousarray(values if values.dtype == np.int32
                                 else values.astype(np.int64))
        if offsets[0] < 0 or offsets[-1] > len(v):
            raise ValueError("offsets run past the values array")
        lo = np.ascontiguousarray(lo, dtype=np.float64)
        hi = np.ascontiguousarray(hi, dtype=np.float64)
        if len(lo) % 2 or len(hi) != len(lo):
            raise ValueError("the kernel takes an even number of taps")
        work = np.empty(4 * int(padded.max()), dtype=np.float64)
        fn(v.ctypes.data, offsets.ctypes.data, int(v.dtype == np.int64),
           n_rows, lo.ctypes.data, hi.ctypes.data, len(lo),
           flat.ctypes.data if coeffs else None,
           coeff_off.ctypes.data, rt_ok.ctypes.data if verify else None,
           rt_err.ctypes.data if verify else None, work.ctypes.data)
    return flat, coeff_off, rt_ok, rt_err


class DwtTransform:
    """Callable batch transform: tokens -> serialized pyramid coefficients.

    Output adds ``coeffs: list<float64>`` (levels finest-first, reversed
    within level — the oracle serialization) and, when ``verify`` is on, the
    round-trip invariant columns. Used as a plain function for stateless
    tasks; it holds only immutable config so tasks and actors both work.
    """

    def __init__(self, bank: str = "haar", verify: bool = True,
                 keep_tokens: bool = True):
        oc.filter_pair(bank)  # validate config up front (SURVEY.md §2.8)
        self.bank = bank
        self.verify = verify
        self.keep_tokens = keep_tokens

    def __call__(self, batch: pa.Table) -> pa.Table:
        values, offsets = list_to_numpy(batch["tokens"])
        flat, coeff_off, rt_ok, rt_err = cascade(values, offsets, self.bank,
                                                 verify=self.verify)
        cols = {}
        for name in batch.column_names:
            if name == "tokens" and not self.keep_tokens:
                continue
            cols[name] = batch[name]
        cols["coeffs"] = numpy_to_list(flat, coeff_off, pa.float64())
        if self.verify:
            cols["rt_ok"] = pa.array(rt_ok)
            cols["rt_max_err"] = pa.array(rt_err, type=pa.float64())
        return pa.table(cols)


class InverseDwt:
    """Batch transform: serialized coefficients -> reconstructed tokens.

    ``keep_levels``/``keep_offset`` give the band-pass query path — the
    reference's ``reconstruct(reconstructed_time_scales, add_offset)``
    (wavelet_decomposition.py:385-434, scale masking at :405-416).
    ``None`` keeps every level (full reconstruction).
    """

    def __init__(self, bank: str = "haar", keep_levels=None, keep_offset: bool = True):
        oc.filter_pair(bank)
        self.bank = bank
        self.keep_levels = None if keep_levels is None else set(int(k) for k in keep_levels)
        self.keep_offset = keep_offset

    def __call__(self, batch: pa.Table) -> pa.Table:
        values, offsets = list_to_numpy(batch["coeffs"])
        n_tok = batch["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offsets)  # padded pow2 lengths
        n_rows = len(lens)
        out_off = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(n_tok, out=out_off[1:])
        out_flat = np.empty(out_off[-1], dtype=np.float64)

        for p in np.unique(lens):
            rows = np.nonzero(lens == p)[0]
            flat = np.empty((len(rows), p), dtype=np.float64)
            for j, r in enumerate(rows):
                flat[j] = values[offsets[r] : offsets[r] + p]
            # deserialize: finest-first reversed-within-level -> level arrays
            lvl_lens = oc.level_lengths(int(p))
            levels = []
            pos = 0
            for ln in lvl_lens:
                levels.append(flat[:, pos : pos + ln][:, ::-1])
                pos += ln
            if self.keep_levels is not None:
                n_detail = len(levels) - 1
                for i in range(n_detail):
                    if i not in self.keep_levels:
                        levels[i] = np.zeros_like(levels[i])
                if not self.keep_offset:
                    levels[-1] = np.zeros_like(levels[-1])
            rec = oc.idwt_pyramid(levels, self.bank)
            for j, r in enumerate(rows):
                out_flat[out_off[r] : out_off[r + 1]] = rec[j, : n_tok[r]]

        cols = {"doc_id": batch["doc_id"]}
        if "source" in batch.column_names:
            cols["source"] = batch["source"]
        if "tokens" in batch.column_names:
            # pass-through for downstream identity checks (band-pass oracle)
            cols["tokens"] = batch["tokens"]
        cols["reconstructed"] = numpy_to_list(out_flat, out_off, pa.float64())
        return pa.table(cols)
