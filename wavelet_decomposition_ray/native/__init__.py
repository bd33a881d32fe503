"""Build-on-first-import ctypes loader for the native DoD codec, the
one-pass rollup tier tree and the DWT cascade.

No pip, no Python headers: ``dod.c`` is plain C compiled once with the
system compiler into a shared library cached next to the source (atomic
rename, so concurrent Ray workers race safely).  Every caller must handle
a handle of None — machines without a C compiler fall back to a Python
path (property tests pin C == Python bit-for-bit):

- ``encoder()``: the fused encode kernel — per row, every rollup tier
  folded, delta-of-delta encoded and framed as its ``GRB2`` blob in one
  pass; ``decoder()``: the DoD stream decoder; ``gather()``: a segmented
  copy that puts the blobs in column order.  Called only from
  ``stages/encode.py``; fallback the scalar reference codec in
  ``oracle.py``, one block at a time;
- ``tier_tree()``: the rollup tiers as flat streams (``TierRollup`` and the
  encoder's fallback), fallback the reduceat ladder in
  ``stages/rollup.py``;
- ``dwt_cascade()``: forward + inverse DWT with the round-trip verdict,
  fallback the grouped numpy pyramid in ``stages/dwt.py``.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile

_DIR = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_DIR, "dod.c")

_fns: dict | None = None
_tried = False


def _lib_path() -> str:
    """Cache key = content hash of dod.c (ADVICE r3: mtime comparison let a
    checkout/copy with an older mtime silently load a stale library whose
    symbols existed but whose semantics changed)."""
    import hashlib

    with open(_SRC, "rb") as f:
        digest = hashlib.md5(f.read()).hexdigest()[:12]
    return os.path.join(_DIR, f"libdod-{digest}.so")


def _compile() -> str | None:
    lib = _lib_path()
    if os.path.isfile(lib):
        return lib  # a worker without a compiler still loads a built library
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return None
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=_DIR)
    os.close(fd)
    try:
        r = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, _SRC],
            capture_output=True, timeout=120,
        )
        if r.returncode != 0:
            return None
        os.replace(tmp, lib)  # atomic: concurrent builders all win
        # best-effort sweep of superseded caches (old content hashes and
        # the legacy mtime-keyed libdod.so) so dod.c edits don't accrete
        # stale .so files in the source tree
        for f in os.listdir(_DIR):
            if (f.endswith(".so") and f.startswith("libdod")
                    and os.path.join(_DIR, f) != lib):
                try:
                    os.remove(os.path.join(_DIR, f))
                except OSError:
                    pass
        return lib
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass


_SIGS = {
    # base, byte_off, byte_len, counts, out_off, n_streams, out
    "dod_decode_streams_c": [ctypes.c_void_p] * 5 + [ctypes.c_int64, ctypes.c_void_p],
    # vals, val_off, is64, n_rows, n_tiers, work, out, blob_start, blob_len
    "rollup_encode_c": [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 3
    + [ctypes.c_void_p] * 4,
    # src, src_off, lens, dst, dst_off, n
    "gather_segments_c": [ctypes.c_void_p] * 5 + [ctypes.c_int64],
    # vals, val_off, is64, n_rows, n_tiers, out_off, wmin, wmax, wsum, wcnt
    "tier_tree_c": [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 3
    + [ctypes.c_void_p] * 5,
    # vals, val_off, is64, n_rows, lo, hi, n_taps, coeffs, coeff_off,
    # rt_ok, rt_err, work
    "dwt_cascade_c": [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2
    + [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p] * 5,
}
# kernels that return a value; every other kernel returns void
_RESTYPES = {"dod_decode_streams_c": ctypes.c_int64}


def _load() -> dict:
    global _fns, _tried
    if _tried:
        return _fns or {}
    _tried = True
    _fns = {}
    path = _compile()
    if path is None:
        return _fns
    try:
        lib = ctypes.CDLL(path)
        for name, argtypes in _SIGS.items():
            fn = getattr(lib, name)
            fn.restype = _RESTYPES.get(name)
            fn.argtypes = argtypes
            _fns[name] = fn
    except (OSError, AttributeError):
        # stale .so missing a newer symbol, or load failure: all-or-nothing
        _fns = {}
    return _fns


def decoder():
    """ctypes handle of ``dod_decode_streams_c`` or None (no compiler)."""
    return _load().get("dod_decode_streams_c")


def encoder():
    """ctypes handle of ``rollup_encode_c`` or None (no compiler)."""
    return _load().get("rollup_encode_c")


def gather():
    """ctypes handle of ``gather_segments_c`` or None (no compiler)."""
    return _load().get("gather_segments_c")


def tier_tree():
    """ctypes handle of ``tier_tree_c`` or None (no compiler)."""
    return _load().get("tier_tree_c")


def dwt_cascade():
    """ctypes handle of ``dwt_cascade_c`` or None (no compiler)."""
    return _load().get("dwt_cascade_c")
