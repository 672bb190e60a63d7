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

Encoding and decoding are batched: ``encode_postings_batch`` and
``decode_postings_batch`` process every block of many terms in one set of
vectorized passes.  The segment build, the merge reducer and serving
(a query chunk's terms, one call per segment) all use them.
``TermPostingsReader`` is a zero-copy view of one term's blob: block-max
WAND reads its skip section, and ``decode_block`` decodes one block.

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


_MASKS = (np.uint64(1) << np.arange(33, dtype=np.uint64)) - np.uint64(1)


def _words(buf: np.ndarray, dtype) -> np.ndarray:
    """Unaligned view: element j is the little-endian ``dtype`` value at
    byte j of ``buf`` (zero-copy, strides of one byte)."""
    k = np.dtype(dtype).itemsize
    return np.ndarray((max(0, len(buf) - k + 1),), dtype=dtype, buffer=buf,
                      strides=(1,))


def _decode_pass(buf: np.ndarray, u32: np.ndarray, u64: np.ndarray,
                 offsets: np.ndarray, counts: np.ndarray, ends: np.ndarray,
                 nb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Decode the blobs at byte ``offsets`` of ``buf`` (``counts``
    postings, ``ends`` their running total, and ``nb`` blocks each)
    → (docs, tfs) end to end.

    One pass for every width, docs and tfs alike: code j of a run of
    ``w``-bit codes at bit ``s`` is the 8 bytes at byte (s + j*w) >> 3
    (``u64``) shifted right by the bit remainder and masked to ``w``
    bits — w <= 32 plus a shift <= 7 fits the 64-bit word.  A word that
    would run past the buffer end is read from the last 8 bytes with a
    larger shift (a code never ends past the buffer)."""
    B = COMPRESSION_BLOCK_SIZE
    n = int(ends[-1])
    nbb = nb.repeat(nb)
    b = np.arange(len(nbb)) - (nb.cumsum() - nb).repeat(nb)
    # skip section of block b: doc_bw at p, tf_bw at p + nb, data_off at
    # p + 7nb + 3b; the data section starts at p + 11nb - b
    p = (offsets + 4 * nb + 8).repeat(nb) + b
    bw = np.concatenate((buf[p], buf[p + nbb])).astype(np.int64)
    data = u32[p + 7 * nbb + 3 * b] + (p + 11 * nbb - b)
    cnt = np.minimum(counts.repeat(nb) - B * b, B)
    # every block's doc run, then every block's tf run (tfs land at n+):
    # code i of the pass sits at bit start[run] + i * width[run]
    cnt2 = np.concatenate((cnt, cnt))
    first = cnt2.cumsum() - cnt2
    start = 8 * np.concatenate(
        (data, data + ((cnt * bw[:len(cnt)] + 7) >> 3))) - first * bw
    width = bw.repeat(cnt2)
    bit = start.repeat(cnt2) + np.arange(2 * n) * width
    byte = np.minimum(bit >> 3, len(u64) - 1)
    vals = (u64[byte] >> (bit - 8 * byte).view(np.uint64)) & _MASKS[width]
    # doc ids: per-term prefix sums of the deltas, from virtual doc -1
    cs = vals[:n].cumsum().view(np.int64)
    before = np.concatenate(([1], cs[ends[:-1] - 1] + 1))
    return ((cs - before.repeat(counts)).astype(np.uint32),
            vals[n:].astype(np.uint32))


def decode_postings_batch(
    buf: np.ndarray, offsets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode many term blobs in a few vectorized passes (the inverse of
    ``encode_postings_batch``) — the one postings decoder, for a single
    query's terms and a whole segment alike.

    buf: uint8 array holding the blobs (zero-copy views of an mmap or an
    Arrow buffer work); offsets: each blob's byte offset in ``buf`` (a
    blob's length follows from its header).  Blobs are taken
    ~BATCH_POSTINGS postings at a time, each pass the same fixed
    sequence of array ops whatever the bit widths.

    → (docs, tfs, counts): every blob's postings end to end in
    ``offsets`` order (uint32), and the posting count of each (int64).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    u32, u64 = _words(buf, "<u4"), _words(buf, "<u8")
    counts = u32[offsets].astype(np.int64)
    nb = u32[offsets + 4].astype(np.int64)
    ends = counts.cumsum()
    if len(ends) and ends[-1] <= BATCH_POSTINGS:   # one pass holds all
        return (*_decode_pass(buf, u32, u64, offsets, counts, ends, nb),
                counts)
    bounds = batch_bounds(counts)
    passes = [_decode_pass(buf, u32, u64, offsets[t0:t1], counts[t0:t1],
                           ends[t0:t1] - (ends[t0 - 1] if t0 else 0),
                           nb[t0:t1])
              for t0, t1 in zip(bounds[:-1], bounds[1:])]
    empty = np.empty(0, dtype=np.uint32)
    return (np.concatenate([d for d, _ in passes] or [empty]),
            np.concatenate([t for _, t in passes] or [empty]), counts)


class TermPostingsReader:
    """Zero-copy view of one term's encoded blob: its skip entries and
    block-max pairs (block-max WAND's bounds), and one block at a time
    through ``decode_block``; whole posting lists decode through
    ``decode_postings_batch``."""

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
        self._data = buf[o:]

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
