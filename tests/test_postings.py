"""Posting compression + segment build unit tests (reference test model:
src/postings/skip.rs:305-463, src/postings/mod.rs:44+)."""

import numpy as np
import pyarrow as pa
import pytest

from tantivy_ray.bm25 import compute_tf_cache
from tantivy_ray.fieldnorm import fieldnorms_to_ids
from tantivy_ray.index.compression import (
    COMPRESSION_BLOCK_SIZE,
    TermPostingsReader,
    bit_width,
    bitpack,
    bitunpack,
    decode_postings_batch,
    encode_term_postings,
)
from tantivy_ray.index.segment import SegmentReader, build_segment_from_table


def _decode_one(blob):
    """(docs, tfs) of one term blob through the batched decoder."""
    docs, tfs, _ = decode_postings_batch(
        np.frombuffer(blob, dtype=np.uint8), np.zeros(1, dtype=np.int64))
    return docs, tfs


class TestBitpack:
    @pytest.mark.parametrize("width", [0, 1, 3, 7, 8, 13, 17, 24, 31, 32])
    def test_roundtrip(self, width):
        rs = np.random.RandomState(width)
        hi = (1 << width) if width else 1
        vals = rs.randint(0, hi, size=257, dtype=np.uint64).astype(np.uint32)
        packed = np.frombuffer(bitpack(vals, width), dtype=np.uint8)
        out = bitunpack(packed, len(vals), width)
        assert (out == vals).all()

    def test_bit_width(self):
        assert bit_width(0) == 0
        assert bit_width(1) == 1
        assert bit_width(127) == 7
        assert bit_width(128) == 8
        assert bit_width(2**32 - 1) == 32


def _random_postings(rs, n, max_doc, max_tf=10):
    docs = np.sort(rs.choice(max_doc, size=n, replace=False)).astype(np.uint32)
    tfs = rs.randint(1, max_tf + 1, size=n).astype(np.uint32)
    return docs, tfs


class TestTermPostings:
    @pytest.mark.parametrize("n", [1, 5, 127, 128, 129, 300, 1000])
    def test_roundtrip(self, n):
        rs = np.random.RandomState(n)
        docs, tfs = _random_postings(rs, n, max_doc=max(4 * n, 50))
        fids = fieldnorms_to_ids(
            rs.randint(1, 500, size=int(docs.max()) + 1).astype(np.uint32)
        )
        cache = compute_tf_cache(np.float32(12.0))
        blob = np.frombuffer(
            encode_term_postings(docs, tfs, fids, cache), dtype=np.uint8
        )
        r = TermPostingsReader(blob)
        assert r.doc_freq == n
        assert r.n_blocks == (n + COMPRESSION_BLOCK_SIZE - 1) // COMPRESSION_BLOCK_SIZE
        out_docs, out_tfs = _decode_one(blob)
        assert (out_docs == docs).all()
        assert (out_tfs == tfs).all()
        # skip info: last_doc per block correct
        for b in range(r.n_blocks):
            bd, bt = r.decode_block(b)
            assert bd[-1] == r.last_doc[b]
            cnt = r.block_count(b)
            assert len(bd) == cnt

    def test_blockwand_pair_is_max_tf_factor(self):
        rs = np.random.RandomState(7)
        docs, tfs = _random_postings(rs, 200, 1000, max_tf=50)
        fn = rs.randint(1, 300, size=1001).astype(np.uint32)
        fids = fieldnorms_to_ids(fn)
        cache = compute_tf_cache(np.float32(20.0))
        r = TermPostingsReader(
            np.frombuffer(encode_term_postings(docs, tfs, fids, cache), dtype=np.uint8)
        )
        for b in range(r.n_blocks):
            bd, bt = r.decode_block(b)
            f = bt.astype(np.float32) / (bt.astype(np.float32) + cache[fids[bd]])
            stored = np.float32(r.wand_tf[b]) / (
                np.float32(r.wand_tf[b]) + cache[r.wand_fid[b]]
            )
            assert stored >= f.max() - 1e-7


class TestSegmentBuild:
    def _table(self):
        texts = [
            "the quick brown fox",
            "the lazy dog and the fox",
            "",
            "quick quick quick",
            "dog",
        ]
        urls = [f"http://x/{i}" for i in range(len(texts))]
        return pa.table({"url": urls, "text": texts})

    def test_build_and_read(self, tmp_path):
        meta = build_segment_from_table(
            self._table(), 0, str(tmp_path), record_positions=True
        )
        assert meta["num_docs"] == 5
        assert meta["num_tokens"] == 4 + 6 + 0 + 3 + 1
        r = SegmentReader(str(tmp_path / "seg-00000"))
        assert r.num_docs == 5
        # doc_freq checks
        assert r.doc_freq("the") == 2
        assert r.doc_freq("fox") == 2
        assert r.doc_freq("quick") == 2
        assert r.doc_freq("missing") == 0
        docs, tfs = r.postings("the")
        assert docs.tolist() == [0, 1] and tfs.tolist() == [1, 2]
        docs, tfs = r.postings("quick")
        assert docs.tolist() == [0, 3] and tfs.tolist() == [1, 3]
        # terms sorted
        terms = r.terms()
        assert terms == sorted(terms)
        # fieldnorms
        assert r.fieldnorm_ids.tolist() == [4, 6, 0, 3, 1]

    def test_positions(self, tmp_path):
        build_segment_from_table(
            self._table(), 0, str(tmp_path), record_positions=True
        )
        r = SegmentReader(str(tmp_path / "seg-00000"))
        pos = r.positions("the")
        # doc0: "the" at position 0; doc1 "the lazy dog and the fox": 0 and 4
        assert pos[0].tolist() == [0]
        assert pos[1].tolist() == [0, 4]
        pos = r.positions("quick")
        assert pos[0].tolist() == [1]
        assert pos[1].tolist() == [0, 1, 2]

    def test_empty_table(self, tmp_path):
        t = pa.table({"url": pa.array([], type=pa.string()),
                      "text": pa.array([], type=pa.string())})
        meta = build_segment_from_table(t, 3, str(tmp_path))
        assert meta["num_docs"] == 0 and meta["num_terms"] == 0
        r = SegmentReader(str(tmp_path / "seg-00003"))
        assert r.postings("x") is None

    def test_posting_spanning_blocks(self, tmp_path):
        # one term in >128 docs → full block + tail (FIXTURES requirement)
        texts = [f"common word{i % 7}" for i in range(300)]
        t = pa.table({"url": [str(i) for i in range(300)], "text": texts})
        build_segment_from_table(t, 0, str(tmp_path))
        r = SegmentReader(str(tmp_path / "seg-00000"))
        docs, tfs = r.postings("common")
        assert len(docs) == 300
        assert docs.tolist() == list(range(300))
        pr = r.postings_reader("common")
        assert pr.n_blocks == 3


class TestVectorizedEncode:
    """encode_term_postings' width-grouped block packing must stay
    byte-identical to the per-block definition (blobs are served raw and
    hashed by the merge fast path)."""

    def test_edge_lengths_roundtrip(self):
        import numpy as np

        from tantivy_ray.index.compression import (
            TermPostingsReader, encode_term_postings)

        cache = (np.arange(256, dtype=np.float32) + 1.0) / 7.0
        rng = np.random.default_rng(42)
        for n in (1, 2, 127, 128, 129, 255, 256, 257, 1024, 5000):
            docs = np.sort(rng.choice(10 * n + 7, size=n,
                                      replace=False)).astype(np.uint32)
            tfs = rng.integers(1, 300, size=n).astype(np.uint32)
            fids = rng.integers(0, 256, size=n).astype(np.uint8)
            blob = encode_term_postings(docs, tfs, fids, cache,
                                        fids_per_posting=True)
            r = TermPostingsReader(np.frombuffer(blob, dtype=np.uint8))
            d, t = _decode_one(blob)
            assert (d == docs).all() and (t == tfs).all(), n
            # skip metadata: block maxima of the tf factor
            assert r.doc_freq == n
            assert int(r.last_doc[-1]) == int(docs[-1])

    def test_uint32_extremes(self):
        import numpy as np

        from tantivy_ray.index.compression import (
            TermPostingsReader, encode_term_postings)

        cache = np.full(256, 2.0, dtype=np.float32)
        docs = np.array([0, 2**31, 2**32 - 2, 2**32 - 1], dtype=np.uint32)
        tfs = np.array([1, 2, 3, 4], dtype=np.uint32)
        fids = np.zeros(4, dtype=np.uint8)
        blob = encode_term_postings(docs, tfs, fids, cache,
                                    fids_per_posting=True)
        d, t = _decode_one(blob)
        assert (d == docs).all() and (t == tfs).all()

    def test_zero_width_tf_blocks(self):
        import numpy as np

        from tantivy_ray.index.compression import (
            TermPostingsReader, encode_term_postings)

        cache = np.full(256, 2.0, dtype=np.float32)
        # constant tf=1 in some blocks... tf bit width 1; all-zero deltas
        # impossible (strictly increasing docs) but width-0 tf happens
        # only for tf=0 which the analyzer never emits; exercise width 1
        docs = np.arange(300, dtype=np.uint32)
        tfs = np.ones(300, dtype=np.uint32)
        fids = np.zeros(300, dtype=np.uint8)
        blob = encode_term_postings(docs, tfs, fids, cache,
                                    fids_per_posting=True)
        d, t = _decode_one(blob)
        assert (d == docs).all() and (t == tfs).all()


# ---------------------------------------------------------------------------
# Frozen per-term encoder: the one-term-at-a-time codec the batched kernels
# replaced, kept verbatim as the byte-identity oracle.
# ---------------------------------------------------------------------------

def _frozen_bit_width(max_value: int) -> int:
    return int(max_value).bit_length()


def _frozen_bit_widths(values: np.ndarray) -> np.ndarray:
    return np.ceil(np.log2(values.astype(np.float64) + 1.0)).astype(np.uint8)


def _frozen_bitpack(values: np.ndarray, width: int) -> bytes:
    if width == 0 or len(values) == 0:
        return b""
    v = np.ascontiguousarray(values, dtype=np.uint32)
    bits = ((v[:, None] >> np.arange(width, dtype=np.uint32)) & 1).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def _frozen_encode_term_postings(
    docs: np.ndarray,
    tfs: np.ndarray,
    fieldnorm_ids: np.ndarray,
    local_tf_cache: np.ndarray,
    fids_per_posting: bool = False,
) -> bytes:
    """Encode one term's posting list (frozen per-term encoder).

    docs: strictly increasing uint32 doc ids; tfs: uint32 term freqs;
    fieldnorm_ids: uint8 fieldnorm ids — indexed by doc id by default, or
    aligned 1:1 with ``docs`` when ``fids_per_posting=True`` (the merge
    path carries posting-aligned fids; a doc-indexed array there would be
    an O(global-corpus) allocation per term group);
    local_tf_cache: 256-entry f32 cache built from the SEGMENT-LOCAL average
    fieldnorm (reference serializer.rs:120-135) used only to select the
    block-max (fieldnorm_id, tf) pair.
    """
    n = len(docs)
    docs = np.ascontiguousarray(docs, dtype=np.uint32)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint32)
    nb = (n + COMPRESSION_BLOCK_SIZE - 1) // COMPRESSION_BLOCK_SIZE

    deltas = np.empty(n, dtype=np.uint32)
    deltas[0] = docs[0] + 1  # delta from virtual previous doc -1
    np.subtract(docs[1:], docs[:-1], out=deltas[1:])

    if fids_per_posting:
        fids = np.ascontiguousarray(fieldnorm_ids, dtype=np.uint8)
    else:
        fids = fieldnorm_ids[docs]
    tf_factor = tfs.astype(np.float32) / (
        tfs.astype(np.float32) + local_tf_cache[fids]
    )

    # Per-block stats, vectorized: full 128-doc blocks reshape to
    # (n_full, 128); the (<128) tail block is handled separately.  A full
    # block's packed payload is 16*width bytes (128*w bits, always whole
    # bytes), so all full blocks sharing a width pack in ONE bitpack call
    # and slice apart.
    B = COMPRESSION_BLOCK_SIZE
    n_full = n // B
    last_doc = docs[np.minimum(np.arange(1, nb + 1) * B, n) - 1]
    doc_bw = np.zeros(nb, dtype=np.uint8)
    tf_bw = np.zeros(nb, dtype=np.uint8)
    wand_fid = np.empty(nb, dtype=np.uint8)
    wand_tf = np.empty(nb, dtype=np.uint32)

    if n_full > 0:
        dv = deltas[:n_full * B].reshape(n_full, B)
        tv = tfs[:n_full * B].reshape(n_full, B)
        doc_bw[:n_full] = _frozen_bit_widths(dv.max(axis=1))
        tf_bw[:n_full] = _frozen_bit_widths(tv.max(axis=1))
        best = (np.argmax(tf_factor[:n_full * B].reshape(n_full, B), axis=1)
                + np.arange(n_full) * B)
        wand_fid[:n_full] = fids[best]
        wand_tf[:n_full] = tfs[best]
    if n_full < nb:
        s = n_full * B
        doc_bw[-1] = _frozen_bit_width(int(deltas[s:].max()))
        tf_bw[-1] = _frozen_bit_width(int(tfs[s:].max()))
        best = s + int(np.argmax(tf_factor[s:]))
        wand_fid[-1] = fids[best]
        wand_tf[-1] = tfs[best]

    doc_payload: List[Optional[bytes]] = [None] * nb
    tf_payload: List[Optional[bytes]] = [None] * nb
    for arr_bw, view, payload in (
        (doc_bw, deltas, doc_payload),
        (tf_bw, tfs, tf_payload),
    ):
        for w in np.unique(arr_bw[:n_full]):
            w = int(w)
            idx = np.flatnonzero(arr_bw[:n_full] == w)
            if w == 0:
                for i in idx:
                    payload[i] = b""
                continue
            packed = _frozen_bitpack(
                view[:n_full * B].reshape(n_full, B)[idx].ravel(), w)
            sz = 16 * w  # packed bytes per full block at this width
            for j, i in enumerate(idx):
                payload[i] = packed[j * sz:(j + 1) * sz]
        if n_full < nb:
            payload[-1] = _frozen_bitpack(view[n_full * B:], int(arr_bw[-1]))

    chunks: List[bytes] = [
        doc_payload[b] + tf_payload[b] for b in range(nb)]
    lens = np.fromiter((len(c) for c in chunks), dtype=np.uint32, count=nb)
    data_off = np.zeros(nb, dtype=np.uint32)
    np.cumsum(lens[:-1], out=data_off[1:])

    header = np.array([n, nb], dtype=np.uint32).tobytes()
    skip = (
        last_doc.tobytes()
        + doc_bw.tobytes()
        + tf_bw.tobytes()
        + wand_fid.tobytes()
        + wand_tf.tobytes()
        + data_off.tobytes()
    )
    return header + skip + b"".join(chunks)


def _term_batch(rng, sizes, span=None, tf_width=None):
    """Random terms of the given posting counts, laid end to end."""
    docs, tfs, fids = [], [], []
    for i, n in enumerate(sizes):
        hi = span or 10 * n + 7
        d = np.unique(rng.integers(0, hi, size=2 * n, dtype=np.uint64))
        d = np.sort(rng.permutation(d)[:n]).astype(np.uint32)
        w = tf_width or int(rng.integers(1, 33))
        t = rng.integers(1, 2 ** w, size=len(d), dtype=np.uint64)
        t[0] = 2 ** w - 1  # every width is hit exactly
        docs.append(d)
        tfs.append(t.astype(np.uint32))
        fids.append(rng.choice(np.array([0, 255, 3, 117], dtype=np.uint8),
                               size=len(d)))
    return docs, tfs, fids


def _batch_encode(docs, tfs, fids, cache):
    from tantivy_ray.index.compression import encode_postings_batch

    counts = np.array([len(d) for d in docs], dtype=np.int64)
    ends = np.cumsum(counts)
    return encode_postings_batch(
        np.concatenate(docs), np.concatenate(tfs), np.concatenate(fids),
        ends - counts, ends, cache)


class TestBatchedCodec:
    """encode_postings_batch must equal the frozen per-term encoder byte
    for byte (segment files and merged parts are compared raw), and
    decode_postings_batch must invert it."""

    SIZES = (1, 127, 128, 129, 257, 5000)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_sizes_byte_identical(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.permutation(np.repeat(self.SIZES, 3))
        docs, tfs, fids = _term_batch(rng, sizes)
        cache = rng.random(256).astype(np.float32) * 4 + 0.05
        buf, offsets, lens = _batch_encode(docs, tfs, fids, cache)
        want = [_frozen_encode_term_postings(d, t, f, cache,
                                             fids_per_posting=True)
                for d, t, f in zip(docs, tfs, fids)]
        assert buf.tobytes() == b"".join(want)
        assert lens.tolist() == [len(w) for w in want]
        assert offsets.tolist() == np.cumsum([0] + lens.tolist()[:-1]).tolist()

    @pytest.mark.parametrize("tf_width", range(1, 33))
    def test_every_tf_width(self, tf_width):
        rng = np.random.default_rng(tf_width)
        docs, tfs, fids = _term_batch(rng, (1, 129, 300), tf_width=tf_width)
        cache = np.full(256, 1.5, dtype=np.float32)
        buf, _, _ = _batch_encode(docs, tfs, fids, cache)
        assert buf.tobytes() == b"".join(
            _frozen_encode_term_postings(d, t, f, cache, fids_per_posting=True)
            for d, t, f in zip(docs, tfs, fids))

    def test_uint32_extremes(self):
        rng = np.random.default_rng(9)
        # deltas up to 2^32 - 2 (32-bit doc widths) next to dense terms
        docs = [np.array([0, 2**31, 2**32 - 2], dtype=np.uint32),
                np.array([2**32 - 3, 2**32 - 2], dtype=np.uint32),
                np.arange(2**32 - 400, 2**32 - 1, 3, dtype=np.uint32)]
        tfs = [np.array([2**32 - 1] * len(d), dtype=np.uint32) for d in docs]
        tfs[2][::2] = 1
        fids = [rng.choice(np.array([0, 255], dtype=np.uint8), size=len(d))
                for d in docs]
        cache = np.linspace(0.1, 9.0, 256).astype(np.float32)
        buf, offsets, _ = _batch_encode(docs, tfs, fids, cache)
        assert buf.tobytes() == b"".join(
            _frozen_encode_term_postings(d, t, f, cache, fids_per_posting=True)
            for d, t, f in zip(docs, tfs, fids))
        from tantivy_ray.index.compression import decode_postings_batch

        d, t, c = decode_postings_batch(buf, offsets)
        assert (d == np.concatenate(docs)).all()
        assert (t == np.concatenate(tfs)).all()

    def test_one_term_wrapper_and_doc_indexed_fids(self):
        rng = np.random.default_rng(5)
        (docs,), (tfs,), _ = _term_batch(rng, (700,))
        fid_by_doc = rng.integers(0, 256, size=int(docs.max()) + 1,
                                  dtype=np.uint8)
        cache = compute_tf_cache(np.float32(17.0))
        assert encode_term_postings(docs, tfs, fid_by_doc, cache) == \
            _frozen_encode_term_postings(docs, tfs, fid_by_doc, cache)

    def test_gapped_term_ranges(self):
        """Term ranges need not tile the posting arrays."""
        from tantivy_ray.index.compression import encode_postings_batch

        rng = np.random.default_rng(3)
        docs, tfs, fids = _term_batch(rng, (5, 200, 1, 130))
        pad = [np.zeros(2, np.uint32)] * 4
        flat = [np.concatenate([x for pair in zip(pad, arrs) for x in pair])
                for arrs in (docs, tfs)]
        flat_f = np.concatenate([x for pair in zip(
            [np.zeros(2, np.uint8)] * 4, fids) for x in pair])
        counts = np.array([len(d) for d in docs])
        starts = np.cumsum(counts + 2) - counts
        cache = np.full(256, 0.7, dtype=np.float32)
        buf, _, _ = encode_postings_batch(flat[0], flat[1], flat_f, starts,
                                          starts + counts, cache)
        assert buf.tobytes() == b"".join(
            _frozen_encode_term_postings(d, t, f, cache, fids_per_posting=True)
            for d, t, f in zip(docs, tfs, fids))

    def test_decode_round_trip(self):
        from tantivy_ray.index.compression import decode_postings_batch

        rng = np.random.default_rng(11)
        sizes = rng.permutation(np.repeat(self.SIZES, 2))
        docs, tfs, fids = _term_batch(rng, sizes)
        cache = np.full(256, 2.0, dtype=np.float32)
        buf, offsets, lens = _batch_encode(docs, tfs, fids, cache)
        # any subset, in any order
        pick = rng.permutation(len(docs))[:7]
        d, t, c = decode_postings_batch(buf, offsets[pick])
        assert c.tolist() == [len(docs[i]) for i in pick]
        assert (d == np.concatenate([docs[i] for i in pick])).all()
        assert (t == np.concatenate([tfs[i] for i in pick])).all()
        # each blob also reads back on its own, from a buffer of just it
        for i in pick[:3]:
            rd, rt = _decode_one(buf[offsets[i]:offsets[i] + lens[i]])
            assert (rd == docs[i]).all() and (rt == tfs[i]).all()
        empty = decode_postings_batch(buf, np.empty(0, dtype=np.int64))
        assert [len(x) for x in empty] == [0, 0, 0]


# ---------------------------------------------------------------------------
# Merge reducer over hand-built fragment blocks
# ---------------------------------------------------------------------------

_SEG_DOCS = (400, 300, 500)          # doc bases 0, 400, 700


def _reference_reduce(tbl, avg_fieldnorm, index_dir):
    """The per-group reduction the batched reducer replaced; groups come
    out in their (term, salt) input order."""
    import os

    from tantivy_ray.index.merge import _MERGED_SCHEMA

    cache = compute_tf_cache(np.float32(avg_fieldnorm))
    recs = tbl.to_pylist()
    groups, s = [], 0
    for i in range(1, len(recs) + 1):
        if i == len(recs) or (recs[i]["term"], recs[i]["salt"]) != (
                recs[s]["term"], recs[s]["salt"]):
            groups.append((s, i))
            s = i
    out = []
    for s, e in groups:
        if e - s == 1 and recs[s]["blob"]:
            r = recs[s]
            out.append({k: r[k] for k in ("term", "salt", "doc_freq",
                                          "first_doc", "last_doc",
                                          "doc_base", "pos")}
                       | {"postings": r["blob"]})
            continue
        docs, tfs, fids, pos = [], [], [], []
        for r in sorted(recs[s:e], key=lambda r: r["first_doc"]):
            if r["blob"]:
                d, t = _decode_one(r["blob"])
                fn = np.fromfile(os.path.join(
                    index_dir, f"seg-{r['segment_ord']:05d}",
                    "fieldnorms.bin"), dtype=np.uint8)
                fids.append(fn[d])
                docs.append(d.astype(np.int64) + r["doc_base"])
                tfs.append(t)
            else:
                docs.append(np.frombuffer(r["docs"], dtype=np.int64))
                tfs.append(np.frombuffer(r["tfs"], dtype=np.uint32))
                fids.append(np.frombuffer(r["fids"], dtype=np.uint8))
            pos.append(r["pos"])
        docs = np.concatenate(docs)
        assert (np.diff(docs) > 0).all()
        out.append({
            "term": recs[s]["term"], "salt": recs[s]["salt"],
            "doc_freq": len(docs), "first_doc": int(docs[0]),
            "last_doc": int(docs[-1]), "doc_base": 0,
            "postings": _frozen_encode_term_postings(
                docs.astype(np.uint32), np.concatenate(tfs),
                np.concatenate(fids), cache, fids_per_posting=True),
            "pos": b"".join(pos) if all(pos) else b"",
        })
    return pa.Table.from_pylist(out, schema=_MERGED_SCHEMA)


class TestBatchedReducer:
    SALT = 500   # salt_block_docs of the hand-built fragments

    def _index(self, tmp_path, rng):
        for o, n in enumerate(_SEG_DOCS):
            seg = tmp_path / f"seg-{o:05d}"
            seg.mkdir()
            rng.integers(0, 256, size=n, dtype=np.uint8).tofile(
                seg / "fieldnorms.bin")
        return str(tmp_path)

    def _fragment(self, rng, term, seg, lo, hi, encoded, with_pos):
        """One fragment of ``term``: local docs drawn from [lo, hi) of
        segment ``seg``; encoded (raw blob + doc_base) or decode-path
        (global docs/tfs/fids)."""
        base = int(np.cumsum((0,) + _SEG_DOCS)[seg])
        n = int(rng.integers(1, min(hi - lo, 260) + 1))
        docs = np.sort(rng.choice(np.arange(lo, hi), size=n,
                                  replace=False)).astype(np.uint32)
        tfs = rng.integers(1, 9, size=n).astype(np.uint32)
        pos = (rng.integers(0, 50, size=int(tfs.sum())).astype(
            np.uint32).tobytes() if with_pos else b"")
        gdocs = docs.astype(np.int64) + base
        salt = int(gdocs[0]) // self.SALT
        row = {"term": term, "salt": salt, "doc_freq": n,
               "first_doc": int(gdocs[0]), "last_doc": int(gdocs[-1]),
               "segment_ord": seg, "pos": pos}
        if encoded:
            fids = rng.integers(0, 256, size=int(docs.max()) + 1,
                                dtype=np.uint8)
            row |= {"doc_base": base, "docs": b"", "tfs": b"", "fids": b"",
                    "blob": encode_term_postings(
                        docs, tfs, fids, compute_tf_cache(np.float32(9.0)))}
        else:
            row |= {"doc_base": 0, "blob": b"", "docs": gdocs.tobytes(),
                    "tfs": tfs.tobytes(),
                    "fids": rng.integers(0, 256, size=n,
                                         dtype=np.uint8).tobytes()}
        return row

    def _block(self, rows, rng):
        from tantivy_ray.index.merge import _FRAGMENT_SCHEMA

        # shuffle, then a stable sort by (term, salt) (as the merge's sort
        # delivers): fragments of a group arrive in no particular order
        rows = [rows[i] for i in rng.permutation(len(rows))]
        rows.sort(key=lambda r: (r["term"], r["salt"]))
        return pa.Table.from_pylist(rows, schema=_FRAGMENT_SCHEMA)

    def test_matches_per_group_reference(self, tmp_path):
        from tantivy_ray.index.merge import _reduce_fragment_block

        rng = np.random.default_rng(21)
        index_dir = self._index(tmp_path, rng)
        rows = []
        for t in range(40):
            term = f"t{t:03d}"
            kind = t % 5
            with_pos = t % 3 != 0
            if kind == 0:      # single encoded fragment: pass-through
                rows.append(self._fragment(rng, term, t % 3, 0, 300, True,
                                           with_pos))
            elif kind == 1:    # single decode-path fragment (tombstones)
                rows.append(self._fragment(rng, term, 1, 0, 100, False,
                                           with_pos))
            elif kind == 2:    # encoded fragments of all three segments
                for seg in range(3):
                    rows.append(self._fragment(rng, term, seg, 0, 100, True,
                                               with_pos))
            elif kind == 3:    # encoded + decode-path; one lacks positions
                rows.append(self._fragment(rng, term, 0, 0, 300, True,
                                           with_pos))
                rows.append(self._fragment(rng, term, 1, 0, 90, False,
                                           False))
            else:              # salted head term: salts 0, 1 and 2
                for seg, lo, hi in ((0, 0, 200), (0, 200, 400), (1, 0, 90),
                                    (1, 150, 300), (2, 0, 299),
                                    (2, 320, 500)):
                    rows.append(self._fragment(rng, term, seg, lo, hi,
                                               seg != 1, with_pos))
        tbl = self._block(rows, rng)
        got = _reduce_fragment_block(tbl, 11.5, index_dir)
        want = _reference_reduce(tbl, 11.5, index_dir)
        assert got.num_rows == want.num_rows > 40
        assert got.equals(want)
        assert _reduce_fragment_block(tbl.slice(0, 0), 11.5,
                                      index_dir).num_rows == 0

    def test_groups_span_batches(self, tmp_path, monkeypatch):
        """Groups are re-encoded a bounded batch at a time; the batch cut
        must not change a row."""
        from tantivy_ray.index import merge as merge_mod

        rng = np.random.default_rng(8)
        index_dir = self._index(tmp_path, rng)
        rows = [self._fragment(rng, f"t{t}", seg, 0, 300, seg != 2, True)
                for t in range(12) for seg in range(3)]
        tbl = self._block(rows, rng)
        want = merge_mod._reduce_fragment_block(tbl, 7.0, index_dir)
        monkeypatch.setattr(
            merge_mod, "batch_bounds",
            lambda counts: list(range(len(counts) + 1)))
        assert merge_mod._reduce_fragment_block(
            tbl, 7.0, index_dir).equals(want)

    def test_overlapping_fragments_raise(self, tmp_path):
        from tantivy_ray.index.merge import _reduce_fragment_block

        rng = np.random.default_rng(4)
        index_dir = self._index(tmp_path, rng)
        good = [self._fragment(rng, "ok", seg, 0, 200, True, False)
                for seg in range(3)]
        a = self._fragment(rng, "bad", 0, 0, 100, True, False)
        b = dict(a, first_doc=a["first_doc"] + 1, last_doc=a["last_doc"] + 1)
        with pytest.raises(ValueError, match="overlapping salted fragments"):
            _reduce_fragment_block(self._block(good + [a, b], rng), 5.0,
                                   index_dir)


# ---------------------------------------------------------------------------
# Serving a query chunk: one batch decode per segment, equal to a per-block
# reference
# ---------------------------------------------------------------------------

_SEG_SIZES = (700, 450, 600)


def _zipf_index(tmp_path, sizes, seed=13):
    """Segments of Zipf-distributed words: head words span several
    128-doc blocks, tail words a handful of docs."""
    from tantivy_ray.index.manifest import IndexManifest, write_manifest

    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i:04d}" for i in range(3000)])
    p = 1.0 / np.arange(1, len(vocab) + 1)
    idx = str(tmp_path / "zipf")
    metas = []
    for si, n in enumerate(sizes):
        texts = [" ".join(rng.choice(vocab, size=int(rng.integers(3, 40)),
                                     p=p / p.sum())) for _ in range(n)]
        metas.append(build_segment_from_table(
            pa.table({"url": [f"s{si}d{i}" for i in range(n)],
                      "text": texts}), si, idx))
    write_manifest(idx, IndexManifest(segments=metas))
    return idx


def _block_decode(reader, term):
    """(docs, tfs) of one term, block by block through the WAND cursor."""
    pr = reader.postings_reader(term)
    if pr is None:
        return None
    blocks = [pr.decode_block(b) for b in range(pr.n_blocks)]
    return (np.concatenate([d for d, _ in blocks]),
            np.concatenate([t for _, t in blocks]))


def _reference_topk(searcher, terms, mode, k, doc_freqs=None):
    """Per-block decode, ``Bm25Weight.score`` summed per doc in term order
    (f32), per-segment hits ranked with ``merge_topk``."""
    from tantivy_ray.bm25 import Bm25Weight
    from tantivy_ray.search.searcher import merge_topk

    hits = []
    for r in searcher.readers:
        acc, matched = {}, {}
        for t in terms:
            df = (doc_freqs.get(t, 0) if doc_freqs is not None
                  else searcher.doc_freq(t))
            w = Bm25Weight.for_one_term(max(df, 1), searcher.total_num_docs,
                                        searcher.average_fieldnorm)
            p = _block_decode(r, t)
            if p is None:
                continue
            docs, tfs = p
            for d, s in zip(docs.tolist(),
                            w.score(r.fieldnorm_ids[docs], tfs)):
                acc[d] = np.float32(acc.get(d, np.float32(0.0)) + s)
                matched[d] = matched.get(d, 0) + 1
        for d, s in acc.items():
            if mode == "and" and matched[d] != len(terms):
                continue
            if r.alive_mask is not None and not r.alive_mask[d]:
                continue
            hits.append((float(s), r.segment_ord, d))
    return merge_topk(hits, k)


def _query_chunk(searcher, n, seed=5):
    """n (terms, mode, k) queries over head and tail terms, with missing
    terms, a repeated term and an empty term list among them."""
    rng = np.random.default_rng(seed)
    vocab = sorted({t for r in searcher.readers for t in r.terms()})
    dfs = np.array([searcher.doc_freq(t) for t in vocab])
    head = [t for t, df in zip(vocab, dfs) if df > 2 * 128]
    tail = [t for t, df in zip(vocab, dfs) if df <= 8]
    assert len(head) >= 3 and len(tail) >= 20
    fixed = [([], "or", 10), (["nosuchterm"], "or", 10),
             ([head[0], "nosuchterm"], "and", 10),
             ([head[0], "nosuchterm"], "or", 100),
             ([tail[0], tail[0]], "or", 10), ([head[1], head[1]], "and", 10),
             ([head[0], head[1], head[2]], "and", 100)]
    out = list(fixed)
    while len(out) < n:
        pool = head if rng.random() < 0.3 else tail
        terms = list(rng.choice(pool, size=int(rng.integers(1, 4))))
        if rng.random() < 0.2:
            terms.append(str(rng.choice(head)))
        out.append(([str(t) for t in terms], str(rng.choice(["or", "and"])),
                    int(rng.choice([1, 10, 100]))))
    return out


class TestChunkSearch:
    @pytest.fixture(scope="class")
    def index(self, tmp_path_factory):
        return _zipf_index(tmp_path_factory.mktemp("chunk"), _SEG_SIZES)

    @pytest.fixture(scope="class")
    def tombstoned(self, tmp_path_factory):
        import os

        from tantivy_ray.index.deletes import add_tombstones

        idx = _zipf_index(tmp_path_factory.mktemp("chunk_del"), _SEG_SIZES)
        add_tombstones(os.path.join(idx, "seg-00001"), range(0, 450, 3))
        return idx

    @pytest.fixture(scope="class")
    def one_segment(self, tmp_path_factory):
        return _zipf_index(tmp_path_factory.mktemp("chunk1"), (900,))

    @pytest.mark.parametrize("which", ["one_segment", "index"])
    def test_matches_per_block_reference(self, request, which):
        from tantivy_ray.search import IndexSearcher

        s = IndexSearcher(request.getfixturevalue(which))
        chunk = _query_chunk(s, 120)
        got = s.search_many(chunk)
        assert len(got) == len(chunk)
        assert sum(len(h) for h in got) > 1000
        for (terms, mode, k), hits in zip(chunk, got):
            assert hits == _reference_topk(s, terms, mode, k), (terms, mode)
        # the one-query path is the same code
        for terms, mode, k in chunk[:20]:
            assert s.search(terms, mode, k) == _reference_topk(
                s, terms, mode, k)

    def test_tombstoned_segment(self, tombstoned):
        from tantivy_ray.search import IndexSearcher

        s = IndexSearcher(tombstoned)
        assert s.readers[1].alive_mask is not None
        chunk = _query_chunk(s, 80, seed=6)
        for (terms, mode, k), hits in zip(chunk, s.search_many(chunk)):
            assert hits == _reference_topk(s, terms, mode, k), (terms, mode)

    def test_sharded_doc_freqs(self, index):
        from tantivy_ray.search import IndexSearcher

        full = IndexSearcher(index)
        chunk = _query_chunk(full, 80, seed=7)
        dfs = full.doc_freqs({t for ts, _, _ in chunk for t in ts})
        shard = IndexSearcher(index, segment_ords=[0, 2])
        got = shard.search_many(chunk, doc_freqs=dfs)
        for (terms, mode, k), hits in zip(chunk, got):
            assert hits == _reference_topk(shard, terms, mode, k, dfs)
            assert hits == shard.search(terms, mode, k, doc_freqs=dfs)

    def test_one_decode_per_segment(self, index, monkeypatch):
        from tantivy_ray.index import compression
        from tantivy_ray.index import segment as segment_mod
        from tantivy_ray.search import IndexSearcher

        s = IndexSearcher(index)
        chunk = _query_chunk(s, 500, seed=8)
        want = s.search_many(chunk)
        calls, cursors, blocks = [], [], []
        real_decode = compression.decode_postings_batch
        real_init = compression.TermPostingsReader.__init__
        real_block = compression.TermPostingsReader.decode_block

        def decode(buf, offsets):
            calls.append(len(offsets))
            return real_decode(buf, offsets)

        def init(self, buf):
            cursors.append(1)
            real_init(self, buf)

        def decode_block(self, b):
            blocks.append(b)
            return real_block(self, b)

        monkeypatch.setattr(segment_mod, "decode_postings_batch", decode)
        monkeypatch.setattr(compression.TermPostingsReader, "__init__", init)
        monkeypatch.setattr(compression.TermPostingsReader, "decode_block",
                            decode_block)
        for use_wand in (False, True):
            calls.clear()
            fresh = IndexSearcher(index)
            assert fresh.search_many(chunk, use_wand=use_wand) == want
            assert len(calls) == len(fresh.readers) == 3
            distinct = {t for ts, m, _ in chunk for t in ts}
            assert sum(calls) == sum(r.term_ord(t) is not None
                                     for r in fresh.readers
                                     for t in distinct)
            # WAND reads its blocks' skip views; no block decodes alone
            assert blocks == []
            assert (cursors != []) == use_wand
            # terms already in the searcher's cache are not decoded again
            assert fresh.search_many(chunk[:5], use_wand=use_wand) == want[:5]
            calls.clear()
            assert fresh.search_many(chunk[:5], use_wand=use_wand) == want[:5]
            assert calls == []

    def test_wand_chunk_matches_exhaustive(self, index):
        from tantivy_ray.search import IndexSearcher

        s = IndexSearcher(index)
        chunk = [q for q in _query_chunk(s, 60, seed=9) if q[0]]
        assert s.search_many(chunk, use_wand=True) == s.search_many(chunk)


class TestDecodeKernel:
    """decode_postings_batch against the per-block cursor on every term
    of a real segment, for calls of 1 term, 3 terms and all terms."""

    def test_every_term_of_a_segment(self, tmp_path):
        idx = _zipf_index(tmp_path, (900,), seed=3)
        r = SegmentReader(f"{idx}/seg-00000")
        terms = r.terms()
        ref = [_block_decode(r, t) for t in terms]
        assert max(len(d) for d, _ in ref) > 3 * COMPRESSION_BLOCK_SIZE
        for i in range(len(terms)):
            d, t, c = decode_postings_batch(r._postings, r._off[i:i + 1])
            assert c.tolist() == [len(ref[i][0])]
            assert (d == ref[i][0]).all() and (t == ref[i][1]).all()
        rng = np.random.default_rng(2)
        for _ in range(200):
            pick = rng.choice(len(terms), size=3, replace=False)
            d, t, c = decode_postings_batch(r._postings, r._off[pick])
            assert (d == np.concatenate([ref[i][0] for i in pick])).all()
            assert (t == np.concatenate([ref[i][1] for i in pick])).all()
        d, t, c = decode_postings_batch(r._postings, r._off)
        assert c.tolist() == [len(x) for x, _ in ref]
        assert (d == np.concatenate([x for x, _ in ref])).all()
        assert (t == np.concatenate([y for _, y in ref])).all()
