"""Multimodal column plumbing: opaque ``binary`` payloads with typed
metadata, decode / feature-extract / frame-sample as callable batch
functions.

``image/png`` payloads are decoded for REAL (``functions.png``: pure
zlib+numpy per the PNG spec, PIL fast path when installed), as are
``audio/wav`` payloads (``functions.wav``: RIFF/PCM parse, pure numpy)
and ``video/avi`` payloads (``functions.avi``: RIFF 'AVI ' container with
uncompressed 24-bit DIB frames, pure numpy). Compressed video codecs are
absent from this container, so those media types raise a clearly-marked
NotImplementedError; everything Ray-side — schema, zero-copy binary
batches, batch signature, batch sizing, output layout — is identical for
every media type.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

PAYLOAD_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("payload", pa.binary()),
        ("media_type", pa.string()),
        ("n_bytes", pa.int64()),
    ]
)


def text_to_payload_batch(batch: pa.Table) -> pa.Table:
    """Deterministic fake media: utf-8 bytes of ``text`` as the opaque
    binary payload (stands in for jpeg/wav blobs in this sandbox)."""
    payloads = [t.encode() for t in batch["text"].to_pylist()]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "payload": pa.array(payloads, type=pa.binary()),
            "media_type": pa.array(["text/fake"] * len(payloads)),
            "n_bytes": pa.array(np.array([len(p) for p in payloads], dtype=np.int64)),
        }
    )


def _decode_payload(payload: bytes, media_type: str) -> np.ndarray:
    """Decode a payload to a flat uint8 sample stream.

    ``image/png`` is a REAL decode (``functions.png`` — full spec-level
    parse/inflate/unfilter, PIL fast path when installed), flattened to the
    raster pixel stream so every downstream stage (features, resize, frame
    sampling) is media-agnostic; ``audio/wav`` likewise (``functions.wav``
    — RIFF/PCM parse), flattened to the interleaved sample stream.
    ``text/fake`` returns the byte array (the deterministic stand-in).
    ``video/avi`` is a REAL decode too (``functions.avi`` — uncompressed
    24-bit DIB frames in the RIFF 'AVI ' container), flattened frame-major
    to the RGB pixel stream. Compressed video types (mp4/h264/vp9) raise
    NotImplementedError — swap in pyav on a cluster that has it.
    """
    if media_type == "text/fake":
        return np.frombuffer(payload, dtype=np.uint8)
    if media_type == "image/png":
        from . import png

        return png.decode_png(payload).reshape(-1)
    if media_type == "audio/wav":
        from . import wav

        # interleaved sample stream (RIFF/PCM parse, pure numpy) — int16
        # or uint8 depending on bit depth; downstream stages widen anyway
        return wav.decode_wav(payload)[0].reshape(-1)
    if media_type == "video/avi":
        from . import avi

        return avi.decode_avi(payload)[0].reshape(-1)
    raise NotImplementedError(
        f"media decode for {media_type!r} requires compressed-codec libs "
        "not present in this container"
    )


PNG_WIDTH = 16


def text_to_png_payload_batch(batch: pa.Table) -> pa.Table:
    """Deterministic REAL-media fixtures: each document's utf-8 bytes,
    trimmed to a multiple of PNG_WIDTH, encoded as an (n//W, W) greyscale
    PNG. The decoded raster equals the trimmed text bytes, which is what
    makes PNG-decoded features SQL-checkable. Docs shorter than one row
    are skipped (none in the synth corpora)."""
    from . import png

    ids, payloads, sizes = [], [], []
    for i, t in enumerate(batch["text"].to_pylist()):
        b = t.encode()
        n = (len(b) // PNG_WIDTH) * PNG_WIDTH
        if n == 0:
            continue
        arr = np.frombuffer(b[:n], dtype=np.uint8).reshape(-1, PNG_WIDTH)
        ids.append(i)
        payloads.append(png.encode_png(arr))
        sizes.append(len(payloads[-1]))
    return pa.table(
        {
            "doc_id": batch["doc_id"].take(pa.array(ids, type=pa.int64())),
            "payload": pa.array(payloads, type=pa.binary()),
            "media_type": pa.array(["image/png"] * len(ids)),
            "n_bytes": pa.array(np.array(sizes, dtype=np.int64)),
        }
    )


WAV_RATE = 16000


def text_to_wav_payload_batch(batch: pa.Table) -> pa.Table:
    """Deterministic REAL-audio fixtures: each document's utf-8 bytes as
    16-bit PCM samples (sample value == byte value), mono at WAV_RATE.
    The decoded stream equals the text bytes, which is what makes
    WAV-decoded features SQL-checkable (the png.py fixture pattern).
    Empty docs are skipped (none in the synth corpora)."""
    from . import wav

    ids, payloads, sizes = [], [], []
    for i, t in enumerate(batch["text"].to_pylist()):
        b = t.encode()
        if not b:
            continue
        samples = np.frombuffer(b, dtype=np.uint8).astype(np.int16)
        ids.append(i)
        payloads.append(wav.encode_wav(samples, sample_rate=WAV_RATE))
        sizes.append(len(payloads[-1]))
    return pa.table(
        {
            "doc_id": batch["doc_id"].take(pa.array(ids, type=pa.int64())),
            "payload": pa.array(payloads, type=pa.binary()),
            "media_type": pa.array(["audio/wav"] * len(ids)),
            "n_bytes": pa.array(np.array(sizes, dtype=np.int64)),
        }
    )


FRAME_H = 8
FRAME_W = 8
FRAME_BYTES = FRAME_H * FRAME_W
VIDEO_FPS = 25


def text_to_avi_payload_batch(batch: pa.Table) -> pa.Table:
    """Deterministic REAL-video fixtures: each document's utf-8 bytes,
    trimmed to a multiple of FRAME_BYTES, as greyscale FRAME_H x FRAME_W
    frames in a full RIFF 'AVI ' container (uncompressed 24-bit DIB
    frames). Grey replicates to RGB, so the decoded pixel stream is each
    trimmed text byte repeated 3x — which is what makes the video-decoded
    features SQL-checkable (the png.py/wav.py fixture pattern). Docs
    shorter than one frame are skipped (none in the synth corpora)."""
    from . import avi

    ids, payloads, sizes = [], [], []
    for i, t in enumerate(batch["text"].to_pylist()):
        b = t.encode()
        n = (len(b) // FRAME_BYTES) * FRAME_BYTES
        if n == 0:
            continue
        frames = np.frombuffer(b[:n], dtype=np.uint8).reshape(
            -1, FRAME_H, FRAME_W
        )
        ids.append(i)
        payloads.append(avi.encode_avi(frames, fps=VIDEO_FPS))
        sizes.append(len(payloads[-1]))
    return pa.table(
        {
            "doc_id": batch["doc_id"].take(pa.array(ids, type=pa.int64())),
            "payload": pa.array(payloads, type=pa.binary()),
            "media_type": pa.array(["video/avi"] * len(ids)),
            "n_bytes": pa.array(np.array(sizes, dtype=np.int64)),
        }
    )


class MediaFeatures:
    """Batch function: payload -> fixed-width feature row.

    Batch size guidance: large binary payloads => SMALL batch_size so a
    batch per task fits in the worker heap (SURVEY.md §4.2; at real
    image sizes use batch_size<=64).
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        types = batch["media_type"].to_pylist()
        n_bytes = np.empty(len(payloads), dtype=np.int64)
        head = np.empty(len(payloads), dtype=np.int64)
        crc = np.empty(len(payloads), dtype=np.int64)
        sum_val = np.empty(len(payloads), dtype=np.int64)
        for i, (p, t) in enumerate(zip(payloads, types)):
            arr = _decode_payload(p, t)
            n_bytes[i] = len(arr)
            head[i] = int(arr[0]) if len(arr) else -1
            crc[i] = zlib.crc32(p)
            sum_val[i] = int(arr.sum(dtype=np.int64))
        # sum_byte (not a float mean): integer-exact, so the PNG-decoded
        # stats compare bit-for-bit against the SQL twin
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bytes": pa.array(n_bytes),
                "head_byte": pa.array(head),
                "crc32": pa.array(crc),
                "sum_byte": pa.array(sum_val),
            }
        )


class MediaResize:
    """Batch function: "resize" the decoded payload to a fixed-length
    thumbnail by exact integer index sampling — position k of ``size``
    samples byte ``k * (n - 1) // (size - 1)`` (nearest-pixel resize in 1-D;
    swap ``_decode_payload`` + this sampler for PIL's ``Image.resize`` on a
    real cluster). Integer arithmetic keeps it SQL-checkable."""

    def __init__(self, size: int = 16):
        assert size >= 2
        self.size = size

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        types = batch["media_type"].to_pylist()
        keep_rows, thumbs = [], []
        ks = np.arange(self.size, dtype=np.int64)
        for i, (p, t) in enumerate(zip(payloads, types)):
            arr = _decode_payload(p, t)
            if len(arr) == 0:
                continue  # empty payloads have no thumbnail (oracle parity)
            idx = ks * (len(arr) - 1) // (self.size - 1)
            keep_rows.append(i)
            thumbs.append(arr[idx].astype(np.int32))
        from .listops import numpy_to_list

        n = len(keep_rows)
        flat = (np.concatenate(thumbs) if thumbs
                else np.empty(0, dtype=np.int32))
        off = np.arange(n + 1, dtype=np.int64) * self.size
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(pa.array(keep_rows)),
                "thumb": numpy_to_list(flat, off, pa.int32()),
            }
        )


class VideoFrameStats:
    """Batch function: REAL per-frame extraction — decode the AVI
    container, keep every ``stride``-th frame (the keyframe-sampling shape
    of a video curation pipeline), emit long-form per-frame pixel sums.
    Unlike FrameSampler (which strides the flat byte stream of ANY media
    type), this stage works on the decoded (n, h, w, 3) frame structure."""

    def __init__(self, stride: int = 2):
        assert stride >= 1
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        from . import avi

        ids, fidx, fsum = [], [], []
        payloads = batch["payload"].to_pylist()
        for i, p in enumerate(payloads):
            frames, _fps = avi.decode_avi(p)
            kept = np.arange(0, len(frames), self.stride, dtype=np.int64)
            sums = frames[kept].reshape(len(kept), -1).sum(
                axis=1, dtype=np.int64
            )
            ids.extend([i] * len(kept))
            fidx.append(kept)
            fsum.append(sums)
        n = len(ids)
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(pa.array(ids, type=pa.int64())),
                "frame_idx": pa.array(
                    np.concatenate(fidx) if n else np.empty(0, dtype=np.int64)
                ),
                "frame_sum": pa.array(
                    np.concatenate(fsum) if n else np.empty(0, dtype=np.int64)
                ),
            }
        )


class FrameSampler:
    """Batch function: sample every ``stride``-th byte ("frame") of the
    payload — the video frame-sampling shape (decode stubbed as above)."""

    def __init__(self, stride: int = 16, max_frames: int = 32):
        self.stride = stride
        self.max_frames = max_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .listops import numpy_to_list

        payloads = batch["payload"].to_pylist()
        types = batch["media_type"].to_pylist()
        frames = []
        for p, t in zip(payloads, types):
            arr = _decode_payload(p, t)
            frames.append(arr[:: self.stride][: self.max_frames].astype(np.int32))
        counts = np.array([len(f) for f in frames], dtype=np.int64)
        off = np.zeros(len(frames) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        flat = (
            np.concatenate(frames) if frames else np.zeros(0, dtype=np.int32)
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "frames": numpy_to_list(flat, off, pa.int32()),
                "n_frames": pa.array(counts),
            }
        )
