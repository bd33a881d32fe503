"""Text-analysis operators over the ``documents`` table: token counting,
quality scoring, language-ID heuristic, document fingerprinting.

All batch fns are vectorized (pandas string kernels / numpy) and designed
for ``map_batches``; the ones with setup (compiled regexes, language
profiles) are callable classes: the driver builds one instance, which
ships with the plain batch tasks as a function.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def token_count_batch(batch: pa.Table) -> pa.Table:
    """Whitespace token count + byte-level stats per document.
    SQL-checkable: splits on whitespace runs, ignoring leading/trailing."""
    import pandas as pd

    text = batch["text"].to_pandas()
    n_words = text.str.split().str.len().fillna(0).astype(np.int64)
    word_chars = text.str.replace(r"\s", "", regex=True).str.len().astype(np.int64)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words.to_numpy()),
            "word_chars": pa.array(word_chars.to_numpy()),
        }
    )


def quality_batch(batch: pa.Table) -> pa.Table:
    """Quality signals: word count, mean word length, type-token ratio.
    The length/ratio family of heuristics used for training-data filtering."""
    import pandas as pd

    text = batch["text"].to_pandas()
    words = text.str.split()
    n_words = words.str.len().fillna(0).astype(np.int64)
    word_chars = text.str.replace(r"\s", "", regex=True).str.len().astype(np.int64)
    avg_wl = np.where(n_words > 0, word_chars / np.maximum(n_words, 1), 0.0)
    uniq = words.map(lambda ws: len(set(ws)) if isinstance(ws, list) else 0)
    ttr = np.where(n_words > 0, uniq / np.maximum(n_words, 1), 0.0)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words.to_numpy()),
            "avg_word_len": pa.array(np.round(avg_wl, 6)),
            "type_token_ratio": pa.array(np.round(ttr, 6)),
        }
    )


class LangId:
    """Character-n-gram language-ID heuristic (a callable batch function).

    Profiles are built once, in ``__init__``, from tiny built-in trigram
    tables; scoring is a vectorized count of profile hits. This is
    deterministic and self-contained (no model downloads) — the point at
    engine level is the batch plumbing + stable schema, not SOTA
    accuracy (test data's ``lang`` labels are synthetic and uncorrelated
    with its word-soup text, so correctness is determinism, not recovery).
    """

    PROFILES = {
        "en": ("the", "and", "ing", " th", "of ", "ion"),
        "de": ("der", "die", "und", "ein", "sch", "cht"),
        "fr": ("les", "ent", "de ", "que", "ion", "eau"),
        "es": ("que", "los", "ión", "de ", "ado", "nte"),
        "zh": ("de5", "shi", "zho", "ng ", "ian", "uan"),
    }

    def __init__(self):
        # One-pass scorer state (built once per instance): every profile gram
        # is 3 codepoints packed into an int64 (21 bits each); scoring is a
        # single searchsorted of ALL text trigram windows against the sorted
        # gram codes, then a (doc x code) bincount times the code->lang 0/1
        # matrix. Window counting equals the non-overlapping substring count
        # the SQL oracle uses iff no gram self-overlaps (g[0] != g[2],
        # asserted) — 30 regex passes over the corpus become one.
        self.langs = sorted(self.PROFILES)
        entries = []  # (packed_code, lang_idx); codes may repeat across langs
        for j, lang in enumerate(self.langs):
            for g in self.PROFILES[lang]:
                assert len(g) == 3 and g[0] != g[2], (
                    f"profile gram {g!r} self-overlaps: window counting "
                    "would diverge from non-overlapping counting"
                )
                c = [ord(ch) for ch in g]
                assert max(c) < (1 << 21)
                entries.append(((c[0] << 42) | (c[1] << 21) | c[2], j))
        entries.sort()
        self.codes = np.array([e[0] for e in entries], dtype=np.int64)
        # code -> lang membership matrix (codes shared across langs get two
        # rows; searchsorted('left') maps every duplicate hit to the FIRST
        # rank, so fold duplicate codes' lang rows together there)
        uniq, first = np.unique(self.codes, return_index=True)
        m = np.zeros((len(self.codes), len(self.langs)), dtype=np.int64)
        for r, (code, j) in enumerate(entries):
            r0 = first[np.searchsorted(uniq, code)]
            m[r0, j] += 1
        self.lang_matrix = m

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        texts = [t.lower() for t in batch["text"].to_pylist()]
        n_docs = len(texts)
        scores = np.zeros((n_docs, len(self.langs)), dtype=np.int64)
        lens = np.array([len(t) for t in texts], dtype=np.int64)
        if lens.sum():
            cp = np.frombuffer(
                "".join(texts).encode("utf-32-le"), dtype=np.uint32
            ).astype(np.int64)
            wn = np.maximum(lens - 2, 0)  # trigram windows per doc
            total = int(wn.sum())
            if total:
                # window start indices: per-doc ranges over the flat buffer
                doc_off = np.concatenate([[0], np.cumsum(lens)[:-1]])
                w_off = np.concatenate([[0], np.cumsum(wn)])
                starts = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(w_off[:-1], wn)
                    + np.repeat(doc_off, wn)
                )
                packed = (cp[starts] << 42) | (cp[starts + 1] << 21) | cp[
                    starts + 2
                ]
                rank = np.searchsorted(self.codes, packed)
                hit = (rank < len(self.codes)) & (
                    self.codes[np.minimum(rank, len(self.codes) - 1)]
                    == packed
                )
                doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), wn)[hit]
                cnt = np.bincount(
                    doc_of * len(self.codes) + rank[hit],
                    minlength=n_docs * len(self.codes),
                ).reshape(n_docs, len(self.codes))
                scores = cnt @ self.lang_matrix
        best = np.argmax(scores, axis=1)
        pred = np.array(self.langs, dtype=object)[best]
        conf = scores[np.arange(n_docs), best]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pred_lang": pa.array(pred.tolist(), type=pa.string()),
                "lang_score": pa.array(conf.astype(np.int64)),
            }
        )


class BpeishTokenizer:
    """BPE-ish regex token counting (GPT-2-style segmentation classes:
    contractions, letter runs, digit runs, punctuation runs, whitespace) —
    the pattern is compiled once per instance; counting is one findall per
    doc via pandas str.count on the compiled regex."""

    PATTERN = r"'[a-z][a-z]?| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"

    def __init__(self):
        import re

        self.rx = re.compile(self.PATTERN)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        text = batch["text"].to_pandas()
        n_tokens = text.str.count(self.rx).fillna(0).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bpe_tokens": pa.array(n_tokens.to_numpy()),
            }
        )


_RH_MOD = (1 << 61) - 1  # Mersenne prime 2^61-1 (Rabin-Karp modulus)
_RH_BASE = 257
_RH_POWS = np.array([1], dtype=np.uint64)  # 257^k mod p, grown on demand


def _rh_powers(n: int) -> np.ndarray:
    """Power table 257^k mod p for k < n (module-cached, grow-only)."""
    global _RH_POWS
    if len(_RH_POWS) < n:
        m = len(_RH_POWS)
        ext = np.empty(n, dtype=np.uint64)
        ext[:m] = _RH_POWS
        p = int(_RH_POWS[m - 1])
        for k in range(m, n):
            p = (p * _RH_BASE) % _RH_MOD
            ext[k] = p
        _RH_POWS = ext
    return _RH_POWS


_RH_CHUNK = 1 << 21  # segment cap: keeps raw product sums inside uint64


def _rh_half_tables(n: int):
    """Cached 31-bit halves of the power table (hi = pow>>31, lo =
    pow & (2^31-1)) — per-byte products byte*half stay < 2^39, so raw
    segment sums up to 2^21 bytes are uint64-exact with NO per-byte
    modular reduction."""
    global _RH_HI, _RH_LO
    P = _rh_powers(n)
    try:
        if len(_RH_HI) >= n:
            return _RH_HI, _RH_LO
    except NameError:
        pass
    _RH_HI = P >> np.uint64(31)
    _RH_LO = P & np.uint64((1 << 31) - 1)
    return _RH_HI, _RH_LO


def rolling_hashes(texts: list[str]) -> np.ndarray:
    """Rabin-Karp polynomial hash mod 2^61-1 of each text's utf-8 bytes,
    vectorized across the batch (no per-byte Python):

    h(doc) = sum_i byte_i * 257^(n-1-i) mod p. Doc i's power sequence is a
    REVERSED SLICE of the cached table (one memcpy per doc — no per-byte
    gather/repeat); the power is pre-split into 31-bit halves so every
    byte*half product is < 2^39 and raw ``np.add.reduceat`` sums over
    segments of <= 2^21 bytes are uint64-exact. Segment sums recombine
    mod p with the Mersenne fold 2^61 === 1. Bit-identical to the scalar
    ``h = (h*257 + b) % p`` loop (pytest-pinned) and to the HUGEINT
    power-table SQL oracle."""
    enc = [t.encode() for t in texts]
    lens = np.array([len(b) for b in enc], dtype=np.int64)
    out = np.zeros(len(enc), dtype=np.uint64)
    total = int(lens.sum())
    if total == 0:
        return out.view(np.int64)
    assert int(lens.max()) <= (1 << 24), (
        "rolling hash: doc over 16 MiB — raise the power-table cap "
        "or pre-split the document"
    )
    flat = np.frombuffer(b"".join(enc), dtype=np.uint8).astype(np.uint64)
    PH, PL = _rh_half_tables(int(lens.max()))
    nz_lens = [int(l) for l in lens if l]
    ph = np.concatenate([PH[l - 1 :: -1] for l in nz_lens])
    pl = np.concatenate([PL[l - 1 :: -1] for l in nz_lens])
    hi = flat * ph  # < 2^38 each
    lo = flat * pl  # < 2^39 each
    # segment starts: every doc start, plus a 2^21 grid inside long docs
    doc_starts = np.concatenate([[0], np.cumsum(nz_lens)[:-1]]).astype(np.int64)
    if max(nz_lens) > _RH_CHUNK:
        extra = [
            np.arange(s + _RH_CHUNK, s + l, _RH_CHUNK)
            for s, l in zip(doc_starts.tolist(), nz_lens)
            if l > _RH_CHUNK
        ]
        starts = np.unique(np.concatenate([doc_starts, *extra]))
        seg_doc = np.searchsorted(doc_starts, starts, side="right") - 1
    else:
        starts = doc_starts
        seg_doc = None
    shi = np.add.reduceat(hi, starts)  # < 2^59 per segment
    slo = np.add.reduceat(lo, starts)  # < 2^60 per segment
    m30 = np.uint64((1 << 30) - 1)
    s30, s61 = np.uint64(30), np.uint64(61)
    c31 = np.uint64(1 << 31)
    p_u = np.uint64(_RH_MOD)
    # per-segment value = slo + shi*2^31 (mod p): fold the *2^31 carry via
    # 2^61 === 1, then canonicalize below 2^61
    seg = slo + (shi & m30) * c31 + (shi >> s30)  # < 2^62
    seg = (seg & p_u) + (seg >> s61)
    seg = (seg & p_u) + (seg >> s61)  # <= 2^61 - 1
    if seg_doc is not None:
        # fold multi-segment docs: 31-bit split keeps doc sums exact
        bnd = np.searchsorted(seg_doc, np.arange(len(nz_lens)))
        shi2 = np.add.reduceat(seg >> np.uint64(31), bnd)
        slo2 = np.add.reduceat(seg & np.uint64((1 << 31) - 1), bnd)
        seg = slo2 + (shi2 & m30) * c31 + (shi2 >> s30)
        seg = (seg & p_u) + (seg >> s61)
        seg = (seg & p_u) + (seg >> s61)
    seg[seg >= p_u] -= p_u
    out[lens > 0] = seg
    return out.view(np.int64)


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Document fingerprints: md5 (content identity, SQL-checkable against
    DuckDB's md5()) and a rolling polynomial hash (Rabin-Karp mod 2^61-1)
    over the utf-8 bytes — the shingle-friendly fingerprint family."""
    texts = batch["text"].to_pylist()
    md5s = [hashlib.md5(t.encode()).hexdigest() for t in texts]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "md5": pa.array(md5s, type=pa.string()),
            "rolling_hash": pa.array(rolling_hashes(texts)),
        }
    )


def vocab_partial_batch(batch: pa.Table) -> pa.Table:
    """Per-batch partial of the corpus vocabulary aggregate: for every
    whitespace word in the batch, its occurrence count ``n`` and document
    frequency ``df``. Each document is exactly one input row, so a (doc,
    word) pair occurs in exactly one batch — summing the partials across
    batches is the exact global (n, df), no distinct-shuffle needed."""
    import itertools

    import pandas as pd

    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    words = batch["text"].to_pandas().str.split()
    lens = words.str.len().fillna(0).astype(np.int64).to_numpy()
    flat = list(itertools.chain.from_iterable(w for w in words if w))
    g = pd.DataFrame({"doc": np.repeat(ids, lens), "word": flat})
    n = g.groupby("word").size()
    df = g.drop_duplicates().groupby("word").size()
    return pa.table(
        {
            "word": pa.array(n.index, type=pa.string()),
            "n": pa.array(n.to_numpy().astype(np.int64)),
            "df": pa.array(df.reindex(n.index).to_numpy().astype(np.int64)),
        }
    )


CHUNK_LEN = 256
CHUNK_STRIDE = 224  # 32-char overlap between consecutive chunks


def chunk_batch(batch: pa.Table) -> pa.Table:
    """Split documents into fixed-size overlapping chunks (the embedding /
    context-window prep step): chunk k covers codepoints
    [k*stride, k*stride + len); the last chunk may be short. Emits one row
    per chunk with its length and content md5 (md5 is inherently per-chunk;
    the row assembly around it is repeat/arange-built)."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    texts = batch["text"].to_pylist()
    nc = np.array(
        [
            1 + (len(s) - CHUNK_LEN + CHUNK_STRIDE - 1) // CHUNK_STRIDE
            if len(s) > CHUNK_LEN
            else 1
            for s in texts
        ],
        dtype=np.int64,
    )
    off = np.concatenate([[0], np.cumsum(nc)])
    chunk_idx = np.arange(int(off[-1]), dtype=np.int64) - np.repeat(off[:-1], nc)
    chunks = [
        s[k * CHUNK_STRIDE : k * CHUNK_STRIDE + CHUNK_LEN]
        for s, c in zip(texts, nc)
        for k in range(int(c))
    ]
    return pa.table(
        {
            "doc_id": pa.array(np.repeat(ids, nc)),
            "chunk_idx": pa.array(chunk_idx),
            "chunk_len": pa.array(
                np.array([len(c) for c in chunks], dtype=np.int64)
            ),
            "chunk_md5": pa.array(
                [hashlib.md5(c.encode()).hexdigest() for c in chunks],
                type=pa.string(),
            ),
        }
    )


def word3_grams_frame(ids: np.ndarray, texts) -> "object":
    """DISTINCT word-3-grams per document, fully pandas-vectorized: one
    whitespace split, one explode, two shifted string concats with document
    -boundary masking — no Python loop over rows or grams.  Returns a
    DataFrame ``(doc, gram)``; documents with < 3 words contribute nothing.
    Gram strings match DuckDB's ``ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]``
    over ``string_split_regex(text, '\\s+')`` minus empties (the
    NGRAM_JACCARD_SQL construction).  At 100-TB scale the gram strings
    would be 64-bit hashes instead (same shape, smaller payload); strings
    keep the SQL oracle join exact here."""
    import itertools

    import pandas as pd

    ids = np.asarray(ids, dtype=np.int64)
    words = pd.Series(texts).str.split()
    lens = words.str.len().fillna(0).astype(np.int64).to_numpy()
    flat = pd.Series(
        list(itertools.chain.from_iterable(w for w in words if w)),
        dtype=object,
    )
    doc = np.repeat(ids, lens)
    n = len(flat)
    if n < 3:
        return pd.DataFrame({"doc": np.empty(0, np.int64), "gram": []})
    grams = flat.str.cat(flat.shift(-1), sep=" ").str.cat(
        flat.shift(-2), sep=" "
    )
    ok = np.zeros(n, dtype=bool)
    ok[:-2] = (doc[:-2] == doc[1:-1]) & (doc[:-2] == doc[2:])
    return pd.DataFrame(
        {"doc": doc[ok], "gram": grams.to_numpy()[ok]}
    ).drop_duplicates()
