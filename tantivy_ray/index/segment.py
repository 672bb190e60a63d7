"""Segment build + read.

A segment is the unit of parallel index construction: one input partition →
one immutable mini-index (reference: segments with per-component files,
/root/reference/src/index/segment_component.rs:9-31; arena build + serialize
/root/reference/src/indexer/segment_writer.rs, src/postings/serializer.rs).

Our Ray-Data-first shape: the in-memory arena of the reference is replaced by
vectorized numpy group-bys over one Arrow partition; doc ids are the row
ordinals of the partition (dense u32, insertion order — reference
src/lib.rs:298), so global identity is (segment_ord, doc_id) exactly like
tantivy's DocAddress (src/lib.rs:338).

Segment directory layout:
    seg-{ord:05d}/
        terms.parquet     term:string (sorted), doc_freq:uint32,
                          postings_offset:int64, postings_len:int64
                          [, positions_offset:int64, positions_len:int64]
        postings.bin      concatenated per-term blobs (compression.py)
        positions.bin     optional: per-term delta-encoded positions (vint-free
                          u32 stream; layout in encode docstring)
        fieldnorms.bin    uint8[num_docs] fieldnorm ids
        docs.parquet      doc_id:uint32, <id_col> (doc store key mapping; the
                          row-oriented store itself is the source parquet,
                          reference's LZ4 block store ↔ parquet row groups)
        meta.json         stats + lineage + metrics (written last = commit)
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..analyzer import analyze_batch
from ..bm25 import compute_tf_cache
from ..fieldnorm import fieldnorms_to_ids, ids_to_fieldnorms
from .compression import (TermPostingsReader, decode_postings_batch,
                          encode_postings_batch)

SEGMENT_PREFIX = "seg-"


def segment_dir_name(segment_ord: int) -> str:
    return f"{SEGMENT_PREFIX}{segment_ord:05d}"


def term_fields(terms: pa.Array, fields: List[str]) -> np.ndarray:
    """Each term's field as an index into ``["", *fields]``: extra-field
    terms carry a ``field\\x00`` prefix, primary-field terms none."""
    out = np.zeros(len(terms), dtype=np.int64)
    for k, fname in enumerate(fields, 1):
        out[pc.starts_with(terms, fname + "\x00").to_numpy(
            zero_copy_only=False)] = k
    return out


def build_segment_from_table(
    table: pa.Table,
    segment_ord: int,
    out_dir: str,
    text_col: str = "text",
    id_col: str = "url",
    analyzer: str = "default",
    record_positions: bool = False,
    lineage: Optional[Dict] = None,
    fast_fields: Optional[List[str]] = None,
    extra_text_fields: Optional[Dict[str, str]] = None,
    sort_by: Optional[tuple] = None,
) -> Dict:
    """Tokenize + invert one partition and serialize the segment.

    ``sort_by=(field, "asc"|"desc")`` applies the reference's segment
    sort (index_meta.rs IndexSettings::sort_by_field + the DocIdMapping
    of doc_id_mapping.rs:14): doc ids are assigned in sorted field order
    at serialization — here by stably sorting the input table before
    inversion, which yields the identical mapping for a fresh build.
    Postings, fieldnorms, fast fields and the doc store all follow the
    remapped ids; the sort is recorded in meta.json.

    ``extra_text_fields`` maps additional column names to analyzers
    (tantivy's multi-field schema, SURVEY §1.1): their terms are stored
    field-prefixed (``field\\x00term`` — the analog of the reference's
    4-byte field-id term prefix, src/schema/term.rs:53-55) with their OWN
    per-field fieldnorms and token stats; the primary ``text_col`` stays
    unprefixed (back-compat).

    Returns the manifest entry (also persisted as meta.json — writing
    meta.json last makes the segment build atomic-on-rerun: a partial
    directory without meta.json is treated as absent and rebuilt).
    """
    t0 = time.time()
    if sort_by is not None:
        sfield, sorder = sort_by
        order = ("ascending" if sorder in ("asc", "ascending")
                 else "descending")
        table = table.sort_by([(sfield, order)])  # arrow sort is stable
    num_docs = table.num_rows
    analyzed = analyze_batch(
        table.column(text_col), analyzer, with_positions=record_positions
    )
    num_tokens = int(analyzed.num_tokens.sum())

    fieldnorm_ids = fieldnorms_to_ids(analyzed.num_tokens.astype(np.uint32))
    # segment-local average fieldnorm drives block-max pair selection only
    # (reference src/postings/serializer.rs:120-135)
    avg_local = np.float32(num_tokens / max(1, num_docs))
    local_cache = compute_tf_cache(avg_local)

    tokens = analyzed.tokens
    counts = analyzed.num_tokens
    flat = tokens.values
    doc_of_token = np.repeat(
        np.arange(num_docs, dtype=np.uint32), counts.astype(np.int64)
    )

    # extra text fields: field-prefixed tokens appended to the stream;
    # per-field fieldnorms + local caches for block-max pair selection
    field_fids: Dict[str, np.ndarray] = {"": fieldnorm_ids}
    field_cache: Dict[str, np.ndarray] = {"": local_cache}
    field_tokens: Dict[str, int] = {}
    pos_parts = [analyzed.positions.values] if record_positions else []
    flat_parts = [flat]
    doc_parts = [doc_of_token]
    for fname, fanalyzer in (extra_text_fields or {}).items():
        fa = analyze_batch(table.column(fname), fanalyzer,
                           with_positions=record_positions)
        fn_ids = fieldnorms_to_ids(fa.num_tokens.astype(np.uint32))
        ftok = int(fa.num_tokens.sum())
        field_fids[fname] = fn_ids
        field_cache[fname] = compute_tf_cache(
            np.float32(ftok / max(1, num_docs)))
        field_tokens[fname] = ftok
        prefixed = pc.binary_join_element_wise(
            pa.scalar(fname + "\x00"), fa.tokens.values, "")
        flat_parts.append(prefixed)
        doc_parts.append(np.repeat(
            np.arange(num_docs, dtype=np.uint32),
            fa.num_tokens.astype(np.int64)))
        if record_positions:
            pos_parts.append(fa.positions.values)
    if len(flat_parts) > 1:
        flat = pa.concat_arrays([p.combine_chunks() if hasattr(p, "combine_chunks") and isinstance(p, pa.ChunkedArray) else p for p in flat_parts])
        doc_of_token = np.concatenate(doc_parts)

    seg_path = os.path.join(out_dir, segment_dir_name(segment_ord))
    os.makedirs(seg_path, exist_ok=True)

    if len(flat) == 0:
        terms_sorted = pa.array([], type=pa.string())
        doc_freqs = np.empty(0, dtype=np.uint32)
        offsets = np.empty(0, dtype=np.int64)
        lens = np.empty(0, dtype=np.int64)
        pos_offsets = np.empty(0, dtype=np.int64)
        pos_lens = np.empty(0, dtype=np.int64)
        post_docs = np.empty(0, dtype=np.uint32)
        term_starts = np.empty(0, dtype=np.int64)
        term_ends = np.empty(0, dtype=np.int64)
        blob = b""
        pos_blob = b""
    else:
        dict_arr = pc.dictionary_encode(flat)
        codes = dict_arr.indices.to_numpy(zero_copy_only=False)
        vocab: pa.Array = dict_arr.dictionary

        # sorted term order (term dict is a sorted map — reference
        # src/termdict/mod.rs:21-29; sorted table replaces the FST)
        sort_idx = pc.sort_indices(vocab).to_numpy(zero_copy_only=False)
        rank_of_code = np.empty(len(sort_idx), dtype=np.int32)
        rank_of_code[sort_idx] = np.arange(len(sort_idx), dtype=np.int32)

        term_rank = rank_of_code[codes]
        # flat tokens are already in (doc, position) order, so ONE stable
        # radix sort by term_rank yields (term, doc, position) order —
        # cheaper than a two-key lexsort (memory-bandwidth-bound here)
        order = np.argsort(term_rank, kind="stable")
        tr_sorted = term_rank[order]
        doc_sorted = doc_of_token[order]

        # run-length over (term_rank, doc) → tf per posting
        pair_change = np.empty(len(order), dtype=bool)
        pair_change[0] = True
        np.logical_or(
            tr_sorted[1:] != tr_sorted[:-1],
            doc_sorted[1:] != doc_sorted[:-1],
            out=pair_change[1:],
        )
        posting_starts = np.flatnonzero(pair_change)
        posting_ends = np.append(posting_starts[1:], len(order))
        tfs_all = (posting_ends - posting_starts).astype(np.uint32)
        post_docs = doc_sorted[posting_starts]
        post_rank = tr_sorted[posting_starts]

        # per-term posting ranges
        term_change = np.empty(len(post_rank), dtype=bool)
        term_change[0] = True
        term_change[1:] = post_rank[1:] != post_rank[:-1]
        term_starts = np.flatnonzero(term_change)
        term_ends = np.append(term_starts[1:], len(post_rank))
        present_ranks = post_rank[term_starts]

        terms_sorted = vocab.take(
            pa.array(sort_idx[present_ranks], type=pa.int64())
        )
        doc_freqs = (term_ends - term_starts).astype(np.uint32)

        # fieldnorm ids and the tf cache come from the term's field; a
        # field's ``field\x00``-prefixed terms sort into one contiguous
        # run, so the batched encoder runs once per run
        fields = list(field_fids)
        term_field = term_fields(terms_sorted, fields[1:])
        run_starts = np.flatnonzero(np.diff(term_field, prepend=-1))
        run_ends = np.append(run_starts[1:], len(term_starts))
        blobs, lens = [], []
        for r0, r1 in zip(run_starts, run_ends):
            fname = fields[term_field[r0]]
            p0, p1 = term_starts[r0], term_ends[r1 - 1]
            buf, _, run_lens = encode_postings_batch(
                post_docs[p0:p1], tfs_all[p0:p1],
                field_fids[fname][post_docs[p0:p1]],
                term_starts[r0:r1] - p0, term_ends[r0:r1] - p0,
                field_cache[fname])
            blobs.append(buf)
            lens.append(run_lens)
        blob = np.concatenate(blobs)
        lens = np.concatenate(lens)
        offsets = np.cumsum(lens) - lens

        if record_positions:
            # each posting's positions, delta-encoded within the posting
            # (first position absolute): one pass over the whole stream,
            # since term boundaries are posting boundaries
            pos_flat = (pa.concat_arrays(pos_parts)
                        if len(pos_parts) > 1 else pos_parts[0])
            positions_sorted = (
                pos_flat.to_numpy(zero_copy_only=False)
                .astype(np.uint32)[order]
            )
            pos_blob = positions_sorted.copy()
            pos_blob[1:] -= positions_sorted[:-1]
            pos_blob[posting_starts] = positions_sorted[posting_starts]
            tok_first = posting_starts[term_starts]
            pos_offsets = 4 * tok_first
            pos_lens = 4 * (posting_ends[term_ends - 1] - tok_first)
        else:
            pos_offsets = np.full(len(term_starts), -1, dtype=np.int64)
            pos_lens = np.zeros(len(term_starts), dtype=np.int64)
            pos_blob = b""

    with open(os.path.join(seg_path, "postings.bin"), "wb") as f:
        f.write(blob)
    if record_positions:
        with open(os.path.join(seg_path, "positions.bin"), "wb") as f:
            f.write(pos_blob)
    with open(os.path.join(seg_path, "fieldnorms.bin"), "wb") as f:
        f.write(fieldnorm_ids.tobytes())
    for fname in (extra_text_fields or {}):
        with open(os.path.join(seg_path, f"fieldnorms.{fname}.bin"), "wb") as f:
            f.write(field_fids[fname].tobytes())

    term_table = pa.table(
        {
            "term": terms_sorted,
            "doc_freq": pa.array(doc_freqs, type=pa.uint32()),
            "postings_offset": pa.array(offsets, type=pa.int64()),
            "postings_len": pa.array(lens, type=pa.int64()),
            "positions_offset": pa.array(pos_offsets, type=pa.int64()),
            "positions_len": pa.array(pos_lens, type=pa.int64()),
            # per-term posting bounds: lets the merge explode stage emit
            # pass-through fragments without decoding any posting blob
            "first_doc": pa.array(
                post_docs[term_starts].astype(np.int64), type=pa.int64()),
            "last_doc": pa.array(
                post_docs[term_ends - 1].astype(np.int64), type=pa.int64()),
        }
    )
    pq.write_table(term_table, os.path.join(seg_path, "terms.parquet"))

    # doc-key store + fast fields: plain Arrow columns ARE the columnar
    # store (reference fastfields, ARCHITECTURE.md §fastfield — Arrow
    # replaces the bitpacked column files)
    doc_cols = {
        "doc_id": pa.array(np.arange(num_docs, dtype=np.uint32)),
        id_col: table.column(id_col),
    }
    for ff in fast_fields or []:
        if ff != id_col and ff in table.column_names:
            doc_cols[ff] = table.column(ff)
    doc_table = pa.table(doc_cols)
    pq.write_table(doc_table, os.path.join(seg_path, "docs.parquet"))

    meta = {
        "segment_ord": segment_ord,
        "num_docs": num_docs,
        "num_tokens": num_tokens,
        "num_terms": len(term_table),
        "analyzer": analyzer,
        "record_positions": record_positions,
        "sort_by": list(sort_by) if sort_by is not None else None,
        "field_stats": field_tokens,  # extra fields: {name: num_tokens}
        "lineage": lineage or {},
        "metrics": {
            "build_secs": round(time.time() - t0, 4),
            "postings_bytes": len(blob),
        },
    }
    # meta.json written LAST: its presence marks the segment complete
    # (atomic commit analog of the reference's meta.json rename,
    # ARCHITECTURE.md §core)
    tmp = os.path.join(seg_path, "meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(seg_path, "meta.json"))
    return meta


class SegmentReader:
    """Point-in-time reader over one sealed segment (reference
    src/core/searcher.rs SegmentReader). Loads the term dict once
    (dict lookup replaces the FST automaton) and mmaps postings."""

    def __init__(self, seg_path: str):
        self.path = seg_path
        with open(os.path.join(seg_path, "meta.json")) as f:
            self.meta = json.load(f)
        self.segment_ord = self.meta["segment_ord"]
        self.num_docs = self.meta["num_docs"]
        self.num_tokens = self.meta["num_tokens"]

        tt = pq.read_table(os.path.join(seg_path, "terms.parquet"))
        self._terms_arr = tt.column("term").combine_chunks()
        # term dict: a hash map for small vocabularies, binary search over
        # the SORTED term table for large ones (the FST-style sorted map of
        # the north star — no O(V) python dict build at web-scale vocab)
        if len(self._terms_arr) <= 200_000:
            self._terms = self._terms_arr.to_pylist()
            self._term_ord = {t: i for i, t in enumerate(self._terms)}
        else:
            self._terms = None
            self._term_ord = None
        self._doc_freq = tt.column("doc_freq").to_numpy()
        self._off = tt.column("postings_offset").to_numpy()
        self._len = tt.column("postings_len").to_numpy()
        self._pos_off = tt.column("positions_offset").to_numpy()
        self._pos_len = tt.column("positions_len").to_numpy()
        # per-term posting bounds (the merge explode's fast path)
        self.term_first_doc = tt.column("first_doc").to_numpy()
        self.term_last_doc = tt.column("last_doc").to_numpy()

        # plain-ndarray views of the mmaps (zero-copy): slicing and
        # gathers on an np.memmap pay its __array_finalize__ every time
        p = os.path.join(seg_path, "postings.bin")
        self._postings = (
            np.memmap(p, dtype=np.uint8, mode="r").view(np.ndarray)
            if os.path.getsize(p) > 0
            else np.empty(0, dtype=np.uint8)
        )
        pp = os.path.join(seg_path, "positions.bin")
        self._positions_blob = (
            np.memmap(pp, dtype=np.uint8, mode="r").view(np.ndarray)
            if os.path.exists(pp) and os.path.getsize(pp) > 0
            else None
        )
        self.fieldnorm_ids = np.fromfile(
            os.path.join(seg_path, "fieldnorms.bin"), dtype=np.uint8
        )
        # alive mask: None when no tombstones (deletes.py); loaded once —
        # a reader is a point-in-time snapshot (ReloadPolicy::Manual)
        from .deletes import read_tombstones

        dead = read_tombstones(seg_path)
        if dead is None or len(dead) == 0:
            self.alive_mask = None
            self.num_deleted = 0
        else:
            self.alive_mask = np.ones(self.num_docs, dtype=bool)
            self.alive_mask[dead] = False
            self.num_deleted = len(dead)

        # decoded-postings cache: query batches repeat terms heavily
        # (Zipfian logs), and an actor serves many queries — the analog of
        # the reference's reliance on the OS page cache over mmapped
        # postings. Bounded FIFO keeps memory predictable.
        self._postings_cache: dict = {}
        self._postings_cache_cap = 512

    # --- term dict ---
    def term_ord(self, term: str) -> Optional[int]:
        if self._term_ord is not None:
            return self._term_ord.get(term)
        # binary search the sorted term table (O(log V) arrow scalar reads)
        lo, hi = 0, len(self._terms_arr)
        while lo < hi:
            mid = (lo + hi) // 2
            v = self._terms_arr[mid].as_py()
            if v < term:
                lo = mid + 1
            elif v > term:
                hi = mid
            else:
                return mid
        return None

    def doc_freq(self, term: str) -> int:
        o = self.term_ord(term)
        return int(self._doc_freq[o]) if o is not None else 0

    def num_terms(self) -> int:
        return len(self._terms_arr)

    def terms(self) -> List[str]:
        # memoized: large-vocab materialization happens at most once per
        # reader (full-vocab APIs only; query expansion uses term_array())
        if self._terms is None:
            self._terms = self._terms_arr.to_pylist()
        return self._terms

    def term_array(self) -> pa.Array:
        """Sorted Arrow term array — the implicit-trie view used by
        automaton intersection (search/automaton.py); zero-copy."""
        return self._terms_arr

    def term_stats_table(self) -> pa.Table:
        """(term, doc_freq) as Arrow — zero-copy vocabulary stats (no
        per-term python lookups for full-vocab consumers)."""
        return pa.table({
            "term": self._terms_arr,
            "doc_freq": pa.array(self._doc_freq.astype(np.int64)),
        })

    def term_prefix_range(self, prefix: str) -> tuple:
        """[lo, hi) term ordinals whose terms start with ``prefix``
        (binary search over the sorted dict — O(log V) scalar reads)."""
        def bisect(key: str) -> int:
            lo, hi = 0, len(self._terms_arr)
            while lo < hi:
                mid = (lo + hi) // 2
                if self._terms_arr[mid].as_py() < key:
                    lo = mid + 1
                else:
                    hi = mid
            return lo

        lo = bisect(prefix)
        hi = bisect(prefix[:-1] + chr(ord(prefix[-1]) + 1)) if prefix \
            else len(self._terms_arr)
        return lo, hi

    def postings_reader(self, term: str) -> Optional[TermPostingsReader]:
        o = self.term_ord(term)
        if o is None:
            return None
        s = int(self._off[o])
        return TermPostingsReader(self._postings[s:s + int(self._len[o])])

    def postings_many(self, terms: Sequence[str]) -> Dict[str, tuple]:
        """term → (docs, tfs) for every present term of ``terms``: one
        term-dict lookup each and ONE batch decode (not cached)."""
        ords = {t: o for t in terms if (o := self.term_ord(t)) is not None}
        if not ords:
            return {}
        docs, tfs, counts = decode_postings_batch(
            self._postings, self._off[list(ords.values())])
        ends = counts.cumsum().tolist()
        return {t: (docs[e - c:e], tfs[e - c:e])
                for t, e, c in zip(ords, ends, counts.tolist())}

    def postings(self, term: str):
        """→ (docs, tfs) fully decoded, or None (FIFO-cached)."""
        hit = self._postings_cache.get(term)
        if hit is not None:
            return hit
        out = self.postings_many([term]).get(term)
        if out is None:
            return None
        if len(self._postings_cache) >= self._postings_cache_cap:
            self._postings_cache.pop(next(iter(self._postings_cache)))
        self._postings_cache[term] = out
        return out

    def positions(self, term: str) -> Optional[List[np.ndarray]]:
        """Per-posting position arrays (absolute), doc order."""
        pf = self.positions_flat(term)
        if pf is None:
            return None
        _, _, flat, offs = pf
        return [flat[offs[i]:offs[i + 1]] for i in range(len(offs) - 1)]

    def positions_flat(self, term: str):
        """→ (docs, tfs, flat_abs_positions, offsets) or None.

        ONE segmented cumsum decodes every posting's delta stream (the
        per-posting encoding resets to absolute at posting boundaries,
        so decoded[i] = cumsum(raw)[i] - cumsum(raw)[posting_start-1]) —
        no per-posting python; the per-doc slice is offsets[i:i+2]."""
        o = self.term_ord(term)
        if o is None or self._positions_blob is None or self._pos_off[o] < 0:
            return None
        s = int(self._pos_off[o])
        raw = np.frombuffer(
            self._positions_blob[s:s + int(self._pos_len[o])], dtype=np.uint32
        )
        docs, tfs = self.postings(term)
        tfs64 = tfs.astype(np.int64)
        offs = np.concatenate([[0], np.cumsum(tfs64)])
        cs = np.cumsum(raw.astype(np.int64))
        cs0 = np.concatenate([[0], cs])
        base = cs0[offs[:-1]]
        flat = (cs - np.repeat(base, tfs64)).astype(np.uint32)
        return docs, tfs, flat, offs

    def doc_keys(self, id_col: str = "url") -> pa.Table:
        return pq.read_table(os.path.join(self.path, "docs.parquet"))

    def fieldnorm_ids_for(self, field: Optional[str]) -> np.ndarray:
        """Per-field fieldnorm ids (None/'' = primary field)."""
        if not field:
            return self.fieldnorm_ids
        cache = getattr(self, "_ffn_cache", None)
        if cache is None:
            cache = self._ffn_cache = {}
        if field not in cache:
            cache[field] = np.fromfile(
                os.path.join(self.path, f"fieldnorms.{field}.bin"),
                dtype=np.uint8)
        return cache[field]

    def fast_field(self, name: str) -> np.ndarray:
        """Columnar per-doc values indexed by doc id (reference fastfield;
        Arrow column replaces the bitpacked file). Cached after first read."""
        cache = getattr(self, "_ff_cache", None)
        if cache is None:
            cache = self._ff_cache = {}
        if name not in cache:
            t = pq.read_table(os.path.join(self.path, "docs.parquet"),
                              columns=[name])
            col = t.column(name)
            try:
                cache[name] = col.to_numpy()
            except (pa.ArrowInvalid, ValueError):
                cache[name] = np.array(col.to_pylist(), dtype=object)
        return cache[name]

    def fast_field_names(self) -> List[str]:
        schema = pq.read_schema(os.path.join(self.path, "docs.parquet"))
        return [n for n in schema.names if n != "doc_id"]

    def fieldnorms(self) -> np.ndarray:
        return ids_to_fieldnorms(self.fieldnorm_ids)
