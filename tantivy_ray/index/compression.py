"""Posting-list block compression — delta + bitpacked 128-doc blocks with
skip entries and block-max (WAND) metadata.

Functional re-expression of the reference's posting format
(/root/reference/src/postings/compression/mod.rs:3-77 — COMPRESSION_BLOCK_SIZE
= 128, delta + bitpack; /root/reference/src/postings/skip.rs:55-90 — per-block
skip entry: last_doc, bitwidths, block-max (fieldnorm_id, tf) pair;
/root/reference/src/postings/serializer.rs:404-428 — the pair stored is the
one maximizing the segment-local tf factor).

Differences (documented, results-equivalent):
- the tail block (<128 docs) is bitpacked like full blocks instead of
  vint-encoded (same information, simpler vectorized decode);
- skip data is laid out struct-of-arrays so a reader can view it zero-copy
  with ``np.frombuffer`` on an mmap.

Encoding and bulk decoding are batched: ``encode_postings_batch`` and
``decode_postings_batch`` process every block of many terms in one set of
vectorized passes (the segment build and the merge reducer both use them);
``TermPostingsReader`` is the per-term block cursor for serving.

Per-term blob layout (little-endian):
    u32 doc_freq
    u32 n_blocks
    -- skip section (SoA) --
    u32[n_blocks]  last_doc
    u8 [n_blocks]  doc_bitwidth
    u8 [n_blocks]  tf_bitwidth
    u8 [n_blocks]  wand_fieldnorm_id
    u32[n_blocks]  wand_tf
    u32[n_blocks]  data_offset        (relative to data section start)
    -- data section --
    per block: bitpacked doc deltas then bitpacked tfs
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

COMPRESSION_BLOCK_SIZE = 128

_BIT_WEIGHTS = (1 << np.arange(32, dtype=np.uint64))


def bit_width(max_value: int) -> int:
    """Bits needed to represent max_value (0 → 0 bits)."""
    return int(max_value).bit_length()


def _bit_widths(values: np.ndarray) -> np.ndarray:
    """Vectorized bit_length over a uint32 array (exact: v+1 <= 2^32 is
    float64-exact, log2 of it never lands epsilon-under an integer)."""
    return np.ceil(np.log2(values.astype(np.float64) + 1.0)).astype(np.uint8)


def bitpack(values: np.ndarray, width: int) -> bytes:
    """Pack uint32 values into `width`-bit little-endian-bit-order codes."""
    n = len(values)
    if width == 0 or n == 0:
        return b""
    out = np.empty(packed_size(n, width), dtype=np.uint8)
    zero = np.zeros(1, dtype=np.int64)
    _pack_runs(out, zero, np.ascontiguousarray(values, dtype=np.uint32),
               zero, np.array([n], dtype=np.int64), width)
    return out.tobytes()


def bitunpack(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of bitpack. `buf` is a uint8 array (may be an mmap view)."""
    if width == 0:
        return np.zeros(n, dtype=np.uint32)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    bits = np.unpackbits(buf, count=n * width, bitorder="little").reshape(n, width)
    return (bits.astype(np.uint64) * _BIT_WEIGHTS[:width]).sum(axis=1).astype(np.uint32)


def packed_size(n: int, width: int) -> int:
    return (n * width + 7) // 8


# Postings per pass of the batched kernels: bounds their temporaries to a
# few MB whatever the batch size (a pass always holds whole terms, so one
# term longer than this is a pass of its own).
BATCH_POSTINGS = 1 << 16

# skip-section bytes per block: u32 last_doc + u8 doc_bw + u8 tf_bw
# + u8 wand_fid + u32 wand_tf + u32 data_offset
_SKIP_BYTES = 15


def batch_bounds(counts: np.ndarray, limit: int = BATCH_POSTINGS) -> List[int]:
    """Split items with ``counts`` postings each into consecutive runs
    ``[b[i], b[i+1])`` of at most ``limit`` postings (at least one item
    per run)."""
    cs = np.cumsum(np.asarray(counts, dtype=np.int64))
    bounds = [0]
    while bounds[-1] < len(cs):
        t0 = bounds[-1]
        done = int(cs[t0 - 1]) if t0 else 0
        t1 = int(np.searchsorted(cs, done + limit, side="right"))
        bounds.append(max(t1, t0 + 1))
    return bounds


def gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``[starts[i], starts[i] + lens[i])`` laid
    end to end (int64) — one ``repeat`` instead of a per-range loop."""
    lens = np.asarray(lens, dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_first = np.cumsum(lens) - lens
    return (np.repeat(np.asarray(starts, dtype=np.int64) - out_first, lens)
            + np.arange(total, dtype=np.int64))


def _put(out: np.ndarray, starts: np.ndarray, values: np.ndarray) -> None:
    """Write fixed-size little-endian ``values`` at byte ``starts``."""
    k = values.dtype.itemsize
    out[(starts[:, None] + np.arange(k)).ravel()] = values.view(np.uint8)


def _take(buf: np.ndarray, starts: np.ndarray, dtype) -> np.ndarray:
    """Read one fixed-size little-endian value at each byte ``start``."""
    k = np.dtype(dtype).itemsize
    return np.ascontiguousarray(
        buf[(starts[:, None] + np.arange(k)).ravel()]).view(dtype)


def _pack_runs(out: np.ndarray, dest: np.ndarray, values: np.ndarray,
               starts: np.ndarray, counts: np.ndarray, width: int) -> None:
    """Bitpack every run ``values[starts[i]:starts[i] + counts[i]]`` at
    ``width`` bits into ``out[dest[i]:]`` — the bytes ``bitpack`` gives
    for each run.  Runs are padded to multiples of 8 values so every run
    starts on a byte; ONE packbits covers them all, and one byte gather
    drops the padding."""
    padded = (counts + 7) & ~7
    p_first = np.cumsum(padded) - padded
    vals = np.zeros(int(padded.sum()), dtype="<u4")
    vals[gather_ranges(p_first, counts)] = values[gather_ranges(starts, counts)]
    bits = np.unpackbits(vals.view(np.uint8).reshape(-1, 4), axis=1,
                         bitorder="little")[:, :width]
    packed = np.packbits(bits.ravel(), bitorder="little")
    size = (counts * width + 7) // 8
    out[gather_ranges(dest, size)] = packed[
        gather_ranges(p_first * width // 8, size)]


def _unpack_runs(buf: np.ndarray, src: np.ndarray, counts: np.ndarray,
                 width: int) -> np.ndarray:
    """Inverse of ``_pack_runs``: the runs at byte offsets ``src`` → their
    values laid end to end (uint32)."""
    padded = (counts + 7) & ~7
    p_first = np.cumsum(padded) - padded
    size = (counts * width + 7) // 8
    packed = np.zeros(int(padded.sum()) * width // 8, dtype=np.uint8)
    packed[gather_ranges(p_first * width // 8, size)] = buf[
        gather_ranges(src, size)]
    bits = np.zeros((int(padded.sum()), 32), dtype=np.uint8)
    bits[:, :width] = np.unpackbits(packed, bitorder="little").reshape(
        -1, width)
    vals = np.packbits(bits, axis=1, bitorder="little").view("<u4").ravel()
    return vals[gather_ranges(p_first, counts)]


def _block_layout(counts: np.ndarray):
    """Blocks of terms with ``counts`` postings (laid end to end) →
    (term, index within term, first posting, posting count) per block,
    plus blocks per term."""
    B = COMPRESSION_BLOCK_SIZE
    nb = (counts + B - 1) // B
    blk_term = np.repeat(np.arange(len(counts)), nb)
    blk_first = np.cumsum(nb) - nb
    blk_in_term = np.arange(len(blk_term)) - blk_first[blk_term]
    term_first = np.cumsum(counts) - counts
    blk_start = term_first[blk_term] + blk_in_term * B
    blk_cnt = np.minimum(B, counts[blk_term] - blk_in_term * B)
    return blk_term, blk_in_term, blk_start, blk_cnt, nb


def _encode_pass(docs: np.ndarray, tfs: np.ndarray, fids: np.ndarray,
                 counts: np.ndarray, tf_cache: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Encode terms whose postings lie end to end in docs/tfs/fids →
    (their blobs end to end as uint8, each blob's length)."""
    n_terms = len(counts)
    blk_term, b, blk_start, blk_cnt, nb = _block_layout(counts)
    term_first = (np.cumsum(counts) - counts)[counts > 0]

    # segmented deltas: from the previous posting, from virtual doc -1 at
    # each term's first posting
    deltas = np.empty(len(docs), dtype=np.uint32)
    np.subtract(docs[1:], docs[:-1], out=deltas[1:])
    deltas[term_first] = docs[term_first] + np.uint32(1)

    # block-max (fieldnorm_id, tf) pair: the FIRST posting maximizing the
    # segment-local tf factor in its block (np.argmax semantics)
    tf32 = tfs.astype(np.float32)
    tf_factor = tf32 / (tf32 + tf_cache[fids])
    doc_bw = _bit_widths(np.maximum.reduceat(deltas, blk_start))
    tf_bw = _bit_widths(np.maximum.reduceat(tfs, blk_start))
    posting_blk = np.repeat(np.arange(len(blk_term)), blk_cnt)
    is_max = tf_factor == np.maximum.reduceat(
        tf_factor, blk_start)[posting_blk]
    is_max |= np.isnan(tf_factor)  # argmax stops at the first NaN
    cand = np.flatnonzero(is_max)
    cand_blk = posting_blk[cand]
    first = np.ones(len(cand), dtype=bool)
    first[1:] = cand_blk[1:] != cand_blk[:-1]
    best = cand[first]

    doc_size = (blk_cnt * doc_bw + 7) // 8
    blk_size = doc_size + (blk_cnt * tf_bw + 7) // 8
    data_len = np.bincount(blk_term, weights=blk_size,
                           minlength=n_terms).astype(np.int64)
    term_len = 8 + _SKIP_BYTES * nb + data_len
    term_off = np.cumsum(term_len) - term_len
    out = np.zeros(int(term_len.sum()), dtype=np.uint8)

    _put(out, term_off, counts.astype("<u4"))
    _put(out, term_off + 4, nb.astype("<u4"))
    skip = term_off[blk_term] + 8
    nbb = nb[blk_term]
    # each block's payload offset from its term's data section
    data_off = np.cumsum(blk_size) - blk_size
    data_off -= data_off[(np.cumsum(nb) - nb)[blk_term]]
    _put(out, skip + 4 * b,
         docs[blk_start + blk_cnt - 1].astype("<u4"))
    out[skip + 4 * nbb + b] = doc_bw
    out[skip + 5 * nbb + b] = tf_bw
    out[skip + 6 * nbb + b] = fids[best]
    _put(out, skip + 7 * nbb + 4 * b, tfs[best].astype("<u4"))
    _put(out, skip + 11 * nbb + 4 * b, data_off.astype("<u4"))

    data = skip + _SKIP_BYTES * nbb + data_off
    for bw, vals, dest in ((doc_bw, deltas, data),
                           (tf_bw, tfs, data + doc_size)):
        for w in np.unique(bw):
            if w == 0:
                continue  # zero-width runs have no payload
            sel = np.flatnonzero(bw == w)
            _pack_runs(out, dest[sel], vals, blk_start[sel], blk_cnt[sel],
                       int(w))
    return out, term_len


def encode_postings_batch(
    docs: np.ndarray,
    tfs: np.ndarray,
    fids: np.ndarray,
    term_starts: np.ndarray,
    term_ends: np.ndarray,
    tf_cache: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode many terms' posting lists in a few vectorized passes.

    Term i's postings are ``docs[term_starts[i]:term_ends[i]]`` (strictly
    increasing uint32 doc ids) with ``tfs`` and posting-aligned uint8
    ``fids`` over the same range.  ``tf_cache`` is the 256-entry f32
    cache built from the SEGMENT-LOCAL average fieldnorm (reference
    serializer.rs:120-135), used only to select the block-max pair.

    Every block of every term goes through one set of passes: segmented
    deltas, ``reduceat`` block maxima and bit widths, first-argmax
    block-max pairs, one bit pack per distinct width, vectorized header
    and skip writes.  Terms are taken ~BATCH_POSTINGS postings at a time.

    → (buf, offsets, lens): the blobs end to end in term order (uint8),
    and each term's byte offset and length in ``buf`` (int64).
    """
    docs = np.asarray(docs, dtype=np.uint32)
    tfs = np.asarray(tfs, dtype=np.uint32)
    fids = np.asarray(fids, dtype=np.uint8)
    term_starts = np.asarray(term_starts, dtype=np.int64)
    counts = np.asarray(term_ends, dtype=np.int64) - term_starts
    bounds = batch_bounds(counts)
    parts, lens = [np.empty(0, dtype=np.uint8)], [np.empty(0, np.int64)]
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        c = counts[t0:t1]
        idx = gather_ranges(term_starts[t0:t1], c)
        blobs, blob_lens = _encode_pass(docs[idx], tfs[idx], fids[idx], c,
                                        tf_cache)
        parts.append(blobs)
        lens.append(blob_lens)
    lens = np.concatenate(lens)
    return np.concatenate(parts), np.cumsum(lens) - lens, lens


def encode_term_postings(
    docs: np.ndarray,
    tfs: np.ndarray,
    fieldnorm_ids: np.ndarray,
    local_tf_cache: np.ndarray,
    fids_per_posting: bool = False,
) -> bytes:
    """Encode one term's posting list (one-term ``encode_postings_batch``).

    fieldnorm_ids: uint8 fieldnorm ids — indexed by doc id by default, or
    aligned 1:1 with ``docs`` when ``fids_per_posting=True``.
    """
    docs = np.asarray(docs, dtype=np.uint32)
    fids = fieldnorm_ids if fids_per_posting else fieldnorm_ids[docs]
    buf, _, _ = encode_postings_batch(
        docs, tfs, fids, np.zeros(1, dtype=np.int64),
        np.array([len(docs)], dtype=np.int64), local_tf_cache)
    return buf.tobytes()


def _decode_pass(buf: np.ndarray, offsets: np.ndarray, counts: np.ndarray,
                 nb: np.ndarray, docs_out: np.ndarray,
                 tfs_out: np.ndarray) -> None:
    """Decode the blobs at byte ``offsets`` of ``buf`` (``counts`` postings
    and ``nb`` blocks each) into docs_out/tfs_out, end to end."""
    blk_term, b, blk_start, blk_cnt, _ = _block_layout(counts)
    skip = offsets[blk_term] + 8
    nbb = nb[blk_term]
    doc_bw = buf[skip + 4 * nbb + b]
    tf_bw = buf[skip + 5 * nbb + b]
    data = (skip + _SKIP_BYTES * nbb
            + _take(buf, skip + 11 * nbb + 4 * b, "<u4"))
    deltas = np.empty(len(docs_out), dtype=np.uint32)
    for bw, out, src in ((doc_bw, deltas, data),
                         (tf_bw, tfs_out, data + (blk_cnt * doc_bw + 7) // 8)):
        for w in np.unique(bw):
            sel = np.flatnonzero(bw == w)
            dest = gather_ranges(blk_start[sel], blk_cnt[sel])
            out[dest] = (0 if w == 0 else
                         _unpack_runs(buf, src[sel], blk_cnt[sel], int(w)))
    # doc ids: per-term prefix sums of the deltas, from virtual doc -1
    cs = np.cumsum(deltas, dtype=np.int64)
    before = np.concatenate(([0], cs))[np.cumsum(counts) - counts]
    docs_out[:] = cs - np.repeat(before, counts) - 1


def decode_postings_batch(
    buf: np.ndarray, offsets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode many term blobs in a few vectorized passes (the inverse of
    ``encode_postings_batch``).

    buf: uint8 array holding the blobs (zero-copy views of an mmap or an
    Arrow buffer work); offsets: each blob's byte offset in ``buf`` (a
    blob's length follows from its header).  Blobs are taken
    ~BATCH_POSTINGS postings at a time, one bit unpack per distinct
    width per pass.

    → (docs, tfs, counts): every blob's postings end to end in
    ``offsets`` order (uint32), and the posting count of each (int64).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = _take(buf, offsets, "<u4").astype(np.int64)
    nb = _take(buf, offsets + 4, "<u4").astype(np.int64)
    docs = np.empty(int(counts.sum()), dtype=np.uint32)
    tfs = np.empty(len(docs), dtype=np.uint32)
    out_first = np.cumsum(counts) - counts
    bounds = batch_bounds(counts)
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        p0 = int(out_first[t0])
        p1 = p0 + int(counts[t0:t1].sum())
        _decode_pass(buf, offsets[t0:t1], counts[t0:t1], nb[t0:t1],
                     docs[p0:p1], tfs[p0:p1])
    return docs, tfs, counts


class TermPostingsReader:
    """Zero-copy cursor over one term's encoded blob (mmap-friendly)."""

    __slots__ = (
        "doc_freq", "n_blocks", "last_doc", "doc_bw", "tf_bw",
        "wand_fid", "wand_tf", "data_off", "_data",
    )

    def __init__(self, buf: np.ndarray):
        """buf: uint8 ndarray view of the term's blob."""
        header = np.frombuffer(buf[:8], dtype=np.uint32)
        self.doc_freq = int(header[0])
        nb = self.n_blocks = int(header[1])
        o = 8
        self.last_doc = np.frombuffer(buf[o:o + 4 * nb], dtype=np.uint32); o += 4 * nb
        self.doc_bw = np.frombuffer(buf[o:o + nb], dtype=np.uint8); o += nb
        self.tf_bw = np.frombuffer(buf[o:o + nb], dtype=np.uint8); o += nb
        self.wand_fid = np.frombuffer(buf[o:o + nb], dtype=np.uint8); o += nb
        self.wand_tf = np.frombuffer(buf[o:o + 4 * nb], dtype=np.uint32); o += 4 * nb
        self.data_off = np.frombuffer(buf[o:o + 4 * nb], dtype=np.uint32); o += 4 * nb
        # re-class a memmap payload view to plain ndarray (zero-copy):
        # np.memmap.__array_finalize__ otherwise rides along on EVERY
        # block slice in the decode hot loops (profiled at 1.5M calls /
        # 2.1 s over a 3600-query WAND run)
        self._data = buf[o:].view(np.ndarray)

    def block_count(self, b: int) -> int:
        if b + 1 < self.n_blocks:
            return COMPRESSION_BLOCK_SIZE
        return self.doc_freq - b * COMPRESSION_BLOCK_SIZE

    def decode_block(self, b: int) -> Tuple[np.ndarray, np.ndarray]:
        """→ (docs, tfs) for block b."""
        cnt = self.block_count(b)
        dbw = int(self.doc_bw[b])
        tbw = int(self.tf_bw[b])
        start = int(self.data_off[b])
        dsize = packed_size(cnt, dbw)
        deltas = bitunpack(self._data[start:start + dsize], cnt, dbw)
        tfs = bitunpack(self._data[start + dsize:start + dsize + packed_size(cnt, tbw)],
                        cnt, tbw)
        base = np.uint32(self.last_doc[b - 1]) if b > 0 else np.uint32(0)
        docs = np.cumsum(deltas, dtype=np.uint32)
        docs += base if b > 0 else np.uint32(0)
        docs -= 1 if b == 0 else 0
        return docs, tfs

    def decode_all(self) -> Tuple[np.ndarray, np.ndarray]:
        """→ (docs, tfs) for the whole list.

        Full 128-doc blocks are decoded in batches grouped by bit width
        (one unpackbits + one matmul per distinct width instead of one per
        block) — posting lists overwhelmingly share widths across blocks,
        so head terms decode in O(#distinct widths) python steps."""
        n = self.doc_freq
        if n == 0:
            z = np.empty(0, dtype=np.uint32)
            return z, z
        nb = self.n_blocks
        n_full = nb if n % COMPRESSION_BLOCK_SIZE == 0 else nb - 1
        docs = np.empty(n, dtype=np.uint32)
        tfs = np.empty(n, dtype=np.uint32)
        B = COMPRESSION_BLOCK_SIZE
        if n_full > 0:
            doc_bw = np.asarray(self.doc_bw[:n_full])
            tf_bw = np.asarray(self.tf_bw[:n_full])
            offs = np.asarray(self.data_off[:n_full], dtype=np.int64)
            # base doc per block: -1 (virtual) then previous last_doc
            bases = np.empty(n_full, dtype=np.int64)
            bases[0] = -1
            bases[1:] = np.asarray(self.last_doc[:n_full - 1], dtype=np.int64)
            docs_view = docs[:n_full * B].reshape(n_full, B)
            tfs_view = tfs[:n_full * B].reshape(n_full, B)
            for w in np.unique(doc_bw):
                w = int(w)
                idx = np.flatnonzero(doc_bw == w)
                if w == 0:
                    deltas = np.zeros((len(idx), B), dtype=np.uint32)
                else:
                    size = packed_size(B, w)
                    buf = np.concatenate(
                        [self._data[offs[i]:offs[i] + size] for i in idx])
                    deltas = bitunpack(buf, len(idx) * B, w).reshape(len(idx), B)
                docs_view[idx] = (
                    np.cumsum(deltas, axis=1, dtype=np.int64)
                    + bases[idx][:, None]
                ).astype(np.uint32)
            for w in np.unique(tf_bw):
                w = int(w)
                idx = np.flatnonzero(tf_bw == w)
                if w == 0:
                    tfs_view[idx] = 0
                else:
                    size = packed_size(B, w)
                    buf = np.concatenate([
                        self._data[offs[i] + packed_size(B, int(doc_bw[i])):
                                   offs[i] + packed_size(B, int(doc_bw[i])) + size]
                        for i in idx
                    ])
                    tfs_view[idx] = bitunpack(
                        buf, len(idx) * B, w).reshape(len(idx), B)
        if n_full < nb:
            tdocs, ttfs = self.decode_block(nb - 1)
            docs[n_full * B:] = tdocs
            tfs[n_full * B:] = ttfs
        return docs, tfs

