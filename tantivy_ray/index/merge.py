"""Segment merge — THE wide step: groupby-term shuffle with head-term salting.

Reference semantics: merging stacks doc ids by segment order (global doc id =
segment base offset + local doc id, /root/reference/src/indexer/merger.rs:
697-708), aligns term streams with a k-way merge (TermMerger,
src/termdict/fst_termdict/merger.rs used at src/indexer/merger.rs:668-675),
and keeps total_num_tokens exact (merger.rs:66-108).

Ray-Data-first shape: instead of iterative pairwise merges, ONE
``groupby(term)`` exchange over posting fragments:

    segments → flat_map(explode per-term fragments) → groupby(group_key)
             → map_groups(stack + re-encode) → term-bucketed parquet

Skew (north rule): web-text term frequencies are Zipfian — "the" appears in
nearly every document, so a naive groupby sends ~N postings to one reducer.
Salting: a term whose per-segment fragment exceeds ``salt_block_docs``
postings is split into multiple (term, salt) sub-fragments; the salt id is
ordered by (segment_ord, position), so a term's full merged posting list is
the concatenation of its salted parts in salt order — provably equivalent
because the parts cover disjoint, ascending global-doc-id ranges (doc ids
are stacked by segment order, and salts split a segment's already-sorted
list into contiguous runs).

Output layout (term-range-sorted; reads pruned by parquet column stats):
    merged_dir/
        parts/*.parquet        (term, salt, doc_freq, first_doc,
                                last_doc, doc_base, postings blob —
                                sorted by term, so per-file/row-group
                                min/max term statistics prune lookups)
        term_stats/*.parquet   (term, doc_freq) — global df table,
                                written distributed, term-sorted
        merged_meta.json        (written last = atomic commit marker;
                                a partial merge without it is treated
                                as absent and re-run from scratch)
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..bm25 import compute_tf_cache
from .compression import (
    TermPostingsReader,
    batch_bounds,
    decode_postings_batch,
    encode_postings_batch,
    gather_ranges,
)
from .manifest import load_manifest
from .segment import SegmentReader, segment_dir_name

DEFAULT_SALT_BLOCK_DOCS = 65_536  # max postings per (term, salt) sub-group
DEFAULT_NUM_BUCKETS = 64


class ExplodeSegment:
    """flat_map stage: one segment → per-(term, salt) posting fragments.

    Fast path (no tombstones, df <= salt_block_docs — the overwhelming
    majority of a Zipfian vocabulary): the fragment is the term's RAW
    encoded blob sliced out of postings.bin plus a ``doc_base`` column;
    no posting is decoded (per-term bounds come from the terms.parquet
    first_doc/last_doc columns, all salt/group-key math is vectorized).
    Only head terms (df > salt_block_docs) and tombstoned segments take
    the decode path, emitting raw global doc/tf/fid arrays."""

    def __init__(self, index_dir: str, salt_block_docs: int, num_buckets: int):
        self.index_dir = index_dir
        self.salt_block_docs = salt_block_docs
        self.num_buckets = num_buckets
        self._doc_base: Optional[Dict[int, int]] = None

    def _doc_bases(self) -> Dict[int, int]:
        if self._doc_base is None:
            manifest = load_manifest(self.index_dir)
            base = 0
            bases = {}
            for s in manifest.segments:
                bases[s["segment_ord"]] = base
                base += s["num_docs"]
            self._doc_base = bases
        return self._doc_base

    def _decode_rows(self, reader, ords, base: int, rows: Dict) -> None:
        """Decode-path fragments (head terms / tombstoned segments):
        raw global doc/tf/fid arrays, chunked to salt_block_docs.

        Positions pass through as raw uint32 delta streams: the stream
        resets to an absolute value at every posting boundary, so slicing
        at posting boundaries (chunking, tombstone filtering) never needs
        a re-encode — only the byte ranges move."""
        alive = reader.alive_mask
        arr = reader.term_array()
        has_pos = reader._positions_blob is not None
        for o in ords:
            term = arr[int(o)].as_py()
            docs, tfs = reader.postings(term)
            raw_pos = None
            if has_pos and reader._pos_off[int(o)] >= 0:
                s0 = int(reader._pos_off[int(o)])
                raw_pos = np.frombuffer(
                    reader._positions_blob[
                        s0:s0 + int(reader._pos_len[int(o)])],
                    dtype=np.uint32)
                # posting boundaries in the position stream (pre-filter)
                bounds = np.concatenate(
                    ([0], np.cumsum(tfs.astype(np.int64))))
            kept_idx = None
            if alive is not None and len(docs):
                keep = alive[docs]
                kept_idx = np.flatnonzero(keep)
                docs, tfs = docs[keep], tfs[keep]
                if len(docs) == 0:
                    continue
            fids = reader.fieldnorm_ids[docs]
            gdocs = docs.astype(np.int64) + base
            for start in range(0, len(gdocs), self.salt_block_docs):
                end = min(start + self.salt_block_docs, len(gdocs))
                chunk = gdocs[start:end]
                salt = int(chunk[0]) // max(1, self.salt_block_docs)
                rows["group_key"].append(f"{term}\x00{salt:012d}")
                rows["term"].append(term)
                rows["salt"].append(salt)
                rows["doc_freq"].append(end - start)
                rows["first_doc"].append(int(chunk[0]))
                rows["last_doc"].append(int(chunk[-1]))
                rows["doc_base"].append(0)
                rows["segment_ord"].append(reader.segment_ord)
                rows["blob"].append(b"")
                rows["docs"].append(chunk.astype(np.int64).tobytes())
                rows["tfs"].append(tfs[start:end].tobytes())
                rows["fids"].append(fids[start:end].tobytes())
                if raw_pos is None:
                    rows["pos"].append(b"")
                elif kept_idx is None:
                    rows["pos"].append(
                        raw_pos[bounds[start]:bounds[end]].tobytes())
                else:
                    sel = kept_idx[start:end]
                    rows["pos"].append(np.concatenate(
                        [raw_pos[bounds[i]:bounds[i + 1]] for i in sel]
                    ).tobytes() if len(sel) else b"")

    def __call__(self, batch: pa.Table) -> Iterator[pa.Table]:
        bases = self._doc_bases()
        batch_tbls: List[pa.Table] = []
        for seg_ord in batch.column("segment_ord").to_pylist():
            seg_ord = int(seg_ord)
            reader = SegmentReader(
                os.path.join(self.index_dir, segment_dir_name(seg_ord))
            )
            base = bases[seg_ord]
            n_terms = reader.num_terms()
            has_bounds = reader.term_first_doc is not None
            no_deletes = reader.alive_mask is None
            if has_bounds and no_deletes:
                fast = reader._doc_freq.astype(np.int64) <= self.salt_block_docs
            else:
                fast = np.zeros(n_terms, dtype=bool)

            rows: Dict[str, list] = {k: [] for k in (
                "group_key", "term", "salt", "doc_freq", "first_doc",
                "last_doc", "doc_base", "segment_ord", "blob",
                "docs", "tfs", "fids", "pos",
            )}
            # decode path: head terms, or everything when tombstones /
            # missing bounds force it
            slow_ords = np.flatnonzero(~fast)
            if len(slow_ords):
                self._decode_rows(reader, slow_ords, base, rows)
            slow_tbl = (pa.Table.from_pydict(
                rows, schema=_FRAGMENT_SCHEMA) if rows["term"] else None)

            fast_ords = np.flatnonzero(fast)
            if len(fast_ords):
                # salt = global-doc-range bucket: fragments of the same
                # term from different segments share a salt iff they fall
                # in the same doc-range span (head terms spread over many
                # salts, bounded reducer input; tail terms collapse to one
                # group).  Salt order == global doc order, so concatenation
                # by salt reconstructs the full list (disjoint ascending
                # ranges).  All vectorized; blob slices are raw bytes.
                gfirst = reader.term_first_doc[fast_ords] + base
                glast = reader.term_last_doc[fast_ords] + base
                salts = gfirst // max(1, self.salt_block_docs)
                terms = reader.term_array().take(
                    pa.array(fast_ords, type=pa.int64())).cast(pa.string())
                salt_str = pa.array(
                    np.char.zfill(salts.astype("U12"), 12))
                group_keys = pc.binary_join_element_wise(
                    terms, salt_str, "\x00")
                mv = memoryview(reader._postings)
                offs = reader._off[fast_ords]
                lens = reader._len[fast_ords]
                blobs = [bytes(mv[o:o + l]) for o, l in zip(offs, lens)]
                empty = [b""] * len(fast_ords)
                if reader._positions_blob is not None:
                    # positions pass through as raw slices too (doc-local
                    # token offsets — nothing to rebase)
                    pmv = memoryview(reader._positions_blob)
                    pos_blobs = [
                        bytes(pmv[o:o + l]) if o >= 0 else b""
                        for o, l in zip(reader._pos_off[fast_ords],
                                        reader._pos_len[fast_ords])
                    ]
                else:
                    pos_blobs = empty
                fast_tbl = pa.Table.from_arrays([
                    group_keys,
                    terms,
                    pa.array(salts, type=pa.int64()),
                    pa.array(reader._doc_freq[fast_ords].astype(np.int64)),
                    pa.array(gfirst, type=pa.int64()),
                    pa.array(glast, type=pa.int64()),
                    pa.array(np.full(len(fast_ords), base, dtype=np.int64)),
                    pa.array(np.full(len(fast_ords), seg_ord,
                                     dtype=np.int64)),
                    pa.array(blobs, type=pa.large_binary()),
                    pa.array(empty, type=pa.large_binary()),
                    pa.array(empty, type=pa.large_binary()),
                    pa.array(empty, type=pa.large_binary()),
                    pa.array(pos_blobs, type=pa.large_binary()),
                ], schema=_FRAGMENT_SCHEMA)
            else:
                fast_tbl = None

            batch_tbls.extend(
                t for t in (slow_tbl, fast_tbl) if t is not None)
        if batch_tbls:
            yield pa.concat_tables(batch_tbls)


_FRAGMENT_SCHEMA = pa.schema([
    ("group_key", pa.string()),
    ("term", pa.string()),
    ("salt", pa.int64()),
    ("doc_freq", pa.int64()),
    ("first_doc", pa.int64()),
    ("last_doc", pa.int64()),
    ("doc_base", pa.int64()),
    ("segment_ord", pa.int64()),
    ("blob", pa.large_binary()),
    ("docs", pa.large_binary()),
    ("tfs", pa.large_binary()),
    ("fids", pa.large_binary()),
    # raw uint32 per-term position stream (delta within a posting, first
    # position absolute — reference preserves positions at merge,
    # src/indexer/merger.rs + src/positions/mod.rs:1-40)
    ("pos", pa.large_binary()),
])

# per-worker fieldnorm mmap cache for the reducer (keyed by segment dir;
# np.memmap pages in only the bytes actually gathered)
_FIELDNORM_CACHE: Dict[str, np.ndarray] = {}
_FIELDNORM_CACHE_CAP = 128


def _fieldnorms_for(index_dir: str, seg_ord: int) -> np.ndarray:
    key = os.path.join(index_dir, segment_dir_name(seg_ord))
    hit = _FIELDNORM_CACHE.get(key)
    if hit is None:
        hit = np.memmap(os.path.join(key, "fieldnorms.bin"),
                        dtype=np.uint8, mode="r")
        if len(_FIELDNORM_CACHE) >= _FIELDNORM_CACHE_CAP:
            _FIELDNORM_CACHE.pop(next(iter(_FIELDNORM_CACHE)))
        _FIELDNORM_CACHE[key] = hit
    return hit


_MERGED_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("salt", pa.int64()),
    ("doc_freq", pa.int64()),
    ("first_doc", pa.int64()),
    ("last_doc", pa.int64()),
    ("doc_base", pa.int64()),
    ("postings", pa.large_binary()),
    ("pos", pa.large_binary()),  # uint32 position stream, posting-aligned
])


def _binary_view(col) -> Tuple[np.ndarray, np.ndarray]:
    """(data bytes, int64 offsets[n + 1]) of a binary column: zero-copy
    views of its Arrow buffers."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.type != pa.large_binary():
        arr = arr.cast(pa.large_binary())
    _, offs, data = arr.buffers()
    offsets = np.frombuffer(offs, dtype=np.int64)[
        arr.offset:arr.offset + len(arr) + 1]
    data = (np.frombuffer(data, dtype=np.uint8) if data is not None
            else np.empty(0, dtype=np.uint8))
    return data, offsets


def _binary_array(data: np.ndarray, lens: np.ndarray) -> pa.Array:
    """large_binary array over values laid end to end (zero-copy)."""
    offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    return pa.Array.from_buffers(
        pa.large_binary(), len(lens),
        [None, pa.py_buffer(offsets), pa.py_buffer(data)])


def _reduce_fragment_block(tbl: pa.Table, avg_fieldnorm: float,
                           index_dir: str) -> pa.Table:
    """Reduce ALL (term, salt) groups in one sorted block, vectorized.

    The input block comes from ``sort("group_key")`` — the same
    range-partitioned shuffle ray.data's own ``map_groups`` uses, which
    guarantees a group never straddles blocks.  Single-encoded-fragment
    groups (the overwhelming tail of a Zipfian vocabulary) are reduced
    with ONE ``take``: blob and doc_base pass through untouched — no
    decode, no re-encode, no per-group python.  All other groups are
    stacked and re-encoded by ``_reduce_groups``, a bounded batch of
    groups per call."""
    n = tbl.num_rows
    if n == 0:
        return pa.Table.from_pydict(
            {f.name: [] for f in _MERGED_SCHEMA}, schema=_MERGED_SCHEMA)
    keys = tbl.column("group_key").combine_chunks()
    change = np.ones(n, dtype=bool)
    change[1:] = pc.not_equal(keys.slice(1), keys.slice(0, n - 1)).to_numpy(
        zero_copy_only=False)
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    run_len = ends - starts
    blob_len = pc.binary_length(tbl.column("blob")).to_numpy()
    single = (run_len == 1) & (blob_len[starts] > 0)

    outs = []
    fast_idx = starts[single]
    if len(fast_idx):
        fast = tbl.take(pa.array(fast_idx, type=pa.int64()))
        outs.append(pa.Table.from_arrays([
            fast.column("term").cast(pa.string()),
            fast.column("salt").cast(pa.int64()),
            fast.column("doc_freq").cast(pa.int64()),
            fast.column("first_doc").cast(pa.int64()),
            fast.column("last_doc").cast(pa.int64()),
            fast.column("doc_base").cast(pa.int64()),
            fast.column("blob").cast(pa.large_binary()),
            fast.column("pos").cast(pa.large_binary()),
        ], schema=_MERGED_SCHEMA))

    slow_starts = starts[~single]
    if len(slow_starts):
        # rows of every remaining group, ordered by (group, first_doc):
        # a group's fragments cover disjoint ascending doc ranges, so
        # this order stacks them into one sorted posting list
        slow_len = run_len[~single]
        group = np.repeat(np.arange(len(slow_starts)), slow_len)
        rows = gather_ranges(slow_starts, slow_len)
        rows = rows[np.lexsort((tbl.column("first_doc").to_numpy()[rows],
                                group))]
        row0 = np.cumsum(slow_len) - slow_len
        group_df = np.add.reduceat(
            tbl.column("doc_freq").to_numpy()[rows], row0)
        cols = {name: _binary_view(tbl.column(name))
                for name in ("blob", "docs", "tfs", "fids", "pos")
                if name in tbl.column_names}
        cache = compute_tf_cache(np.float32(avg_fieldnorm))
        bounds = batch_bounds(group_df)
        for g0, g1 in zip(bounds[:-1], bounds[1:]):
            r1 = row0[g1] if g1 < len(row0) else len(rows)
            outs.append(_reduce_groups(
                tbl, cols, rows[row0[g0]:r1], slow_len[g0:g1],
                slow_starts[g0:g1], cache, index_dir))
    return pa.concat_tables(outs)


def _reduce_groups(tbl: pa.Table, cols: Dict, rows: np.ndarray,
                   run_len: np.ndarray, group_rows: np.ndarray,
                   cache: np.ndarray, index_dir: str) -> pa.Table:
    """Stack and re-encode a batch of groups in one pass.

    ``rows`` are the groups' fragment rows, group after group, each
    group's in ascending first_doc order (``run_len`` rows per group;
    ``group_rows`` is each group's first row in the block).  Encoded
    fragments are decoded in one batch straight from the ``blob``
    column's Arrow buffers, their fieldnorm ids gathered per source
    segment (a per-worker mmap of its fieldnorms.bin); decode-path
    fragments carry raw global docs/tfs/fids."""
    seg_np = tbl.column("segment_ord").to_numpy()[rows]
    base_np = tbl.column("doc_base").to_numpy()[rows]
    blob_data, blob_offs = cols["blob"]
    enc = blob_offs[rows + 1] > blob_offs[rows]
    docs_e, tfs_e, cnt_e = decode_postings_batch(
        blob_data, blob_offs[rows[enc]])
    seg_e = np.repeat(seg_np[enc], cnt_e)
    fids_e = np.empty(len(docs_e), dtype=np.uint8)
    for seg in np.unique(seg_np[enc]):
        sel = seg_e == seg
        fids_e[sel] = _fieldnorms_for(index_dir, int(seg))[docs_e[sel]]

    raw = rows[~enc]
    docs_offs = cols["docs"][1]
    cnt_r = (docs_offs[raw + 1] - docs_offs[raw]) // 8

    def raw_values(name, itemsize):
        data, offs = cols[name]
        return data[gather_ranges(offs[raw], itemsize * cnt_r)]

    # lay every fragment out in row order
    cnt = np.empty(len(rows), dtype=np.int64)
    cnt[enc] = cnt_e
    cnt[~enc] = cnt_r
    first = np.cumsum(cnt) - cnt
    docs = np.empty(int(cnt.sum()), dtype=np.int64)
    tfs = np.empty(len(docs), dtype=np.uint32)
    fids = np.empty(len(docs), dtype=np.uint8)
    dst = gather_ranges(first[enc], cnt_e)
    docs[dst] = docs_e.astype(np.int64) + np.repeat(base_np[enc], cnt_e)
    tfs[dst] = tfs_e
    fids[dst] = fids_e
    dst = gather_ranges(first[~enc], cnt_r)
    docs[dst] = raw_values("docs", 8).view(np.int64)
    tfs[dst] = raw_values("tfs", 4).view(np.uint32)
    fids[dst] = raw_values("fids", 1)

    row0 = np.cumsum(run_len) - run_len
    g_cnt = np.add.reduceat(cnt, row0)
    g_first = np.cumsum(g_cnt) - g_cnt
    g_end = g_first + g_cnt
    # ranges are disjoint and each sorted → each group's stack is sorted
    ok = docs[1:] > docs[:-1]
    ok[g_first[1:] - 1] = True
    if not ok.all():
        raise ValueError("overlapping salted fragments")
    # fids are posting-aligned; a doc-indexed dense array here would be an
    # O(global-corpus-size) allocation
    postings, _, post_lens = encode_postings_batch(
        docs.astype(np.uint32), tfs, fids, g_first, g_end, cache)

    # fragment position streams concatenate in the same row order (each
    # is posting-aligned and resets to absolute at posting boundaries);
    # if ANY fragment lacks positions the merged term drops them
    # (mixed-build segments)
    if "pos" in cols:
        pos_data, pos_offs = cols["pos"]
        plen = pos_offs[rows + 1] - pos_offs[rows]
        keep = np.repeat(np.minimum.reduceat(plen > 0, row0), run_len)
        pos = pos_data[gather_ranges(pos_offs[rows[keep]], plen[keep])]
        pos_lens = np.add.reduceat(np.where(keep, plen, 0), row0)
    else:
        pos = np.empty(0, dtype=np.uint8)
        pos_lens = np.zeros(len(run_len), dtype=np.int64)
    return pa.Table.from_arrays([
        tbl.column("term").take(pa.array(group_rows, type=pa.int64()))
        .cast(pa.string()),
        pa.array(np.minimum.reduceat(tbl.column("salt").to_numpy()[rows],
                                     row0), type=pa.int64()),
        pa.array(g_cnt, type=pa.int64()),
        pa.array(docs[g_first], type=pa.int64()),
        pa.array(docs[g_end - 1], type=pa.int64()),
        pa.array(np.zeros(len(run_len), dtype=np.int64)),
        _binary_array(postings, post_lens),
        _binary_array(pos, pos_lens),
    ], schema=_MERGED_SCHEMA)


def merge_segments(
    index_dir: str,
    merged_dir: str,
    salt_block_docs: int = DEFAULT_SALT_BLOCK_DOCS,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> Dict:
    """Run the groupby-term merge. Returns merged meta dict."""
    import ray.data as rd

    from ..utils import remote_args

    manifest = load_manifest(index_dir)
    avg = manifest.average_fieldnorm
    os.makedirs(merged_dir, exist_ok=True)

    items = [{"segment_ord": s["segment_ord"]} for s in manifest.segments]
    # a few segments per task: per-segment explode work is small (mmap +
    # vectorized slicing), so one task per segment would be pure
    # per-task/per-block overhead at high segment counts
    n_blocks = max(1, min(len(items), 32))
    segs = rd.from_items(items, override_num_blocks=n_blocks)
    fragments = segs.map_batches(
        ExplodeSegment(index_dir, salt_block_docs, num_buckets),
        batch_size=None,
        batch_format="pyarrow",
        retry_exceptions=True,
        max_retries=3,
        **remote_args(),
    )

    # sort(group_key) + whole-block map = ray.data map_groups' own
    # topology, but the block reducer handles all groups vectorized
    # (single-fragment groups = one take, no per-group python).  The sort
    # range-partitions by group_key, so each output block is a contiguous
    # TERM RANGE — written as-is, parquet column statistics (min/max term
    # per file/row-group) give the same read pruning the old hash-bucket
    # partitioning did, without the blocks x buckets small-file explosion.
    merged = fragments.sort("group_key").map_batches(
        lambda t: _reduce_fragment_block(t, avg, index_dir),
        batch_size=None,
        batch_format="pyarrow",
        retry_exceptions=True,   # explode/reduce are deterministic —
        max_retries=3,           # retried tasks are byte-identical
        **remote_args(),
    )
    parts_dir = os.path.join(merged_dir, "parts")
    import shutil

    shutil.rmtree(parts_dir, ignore_errors=True)
    merged.write_parquet(parts_dir, row_group_size=4096)

    # global term stats: distributed groupby + sorted write (the vocab
    # never lands on the driver — at web scale it is GBs).  Bounded block
    # count: sort/groupby fixed cost scales with input block count.
    stats_ds = rd.read_parquet(
        parts_dir, columns=["term", "doc_freq"],
        override_num_blocks=max(4, min(64, len(items) // 8)),
    )
    from ray.data.aggregate import Sum

    stats = (stats_ds.groupby("term")
             .aggregate(Sum("doc_freq", alias_name="doc_freq"))
             .sort("term"))
    stats_dir = os.path.join(merged_dir, "term_stats")
    shutil.rmtree(stats_dir, ignore_errors=True)
    stats.write_parquet(stats_dir)
    num_terms = sum(
        f.metadata.num_rows for f in _stats_fragments(stats_dir))

    # self-containment: copy per-segment fieldnorm bytes (one small Ray
    # task per chunk of segments — never concatenated on the driver) and
    # record the segment → global-doc-base map, so the merged output can
    # SERVE without the source index open (the reference's merged segment
    # likewise carries its own fieldnorm file)
    import ray as _ray

    fn_dir = os.path.join(merged_dir, "fieldnorms")
    shutil.rmtree(fn_dir, ignore_errors=True)
    os.makedirs(fn_dir, exist_ok=True)

    @_ray.remote
    def copy_fieldnorms(ords_chunk):
        for o in ords_chunk:
            src = os.path.join(index_dir, segment_dir_name(o),
                               "fieldnorms.bin")
            shutil.copyfile(
                src, os.path.join(fn_dir, f"seg_{o:06d}.bin"))
        return len(ords_chunk)

    all_ords = [s["segment_ord"] for s in manifest.segments]
    chunks = [all_ords[i::8] for i in range(8) if all_ords[i::8]]
    _ray.get([copy_fieldnorms.options(**remote_args()).remote(c)
              for c in chunks])

    seg_meta = []
    base = 0
    for s in manifest.segments:
        seg_meta.append({"segment_ord": s["segment_ord"],
                         "doc_base": base,
                         "num_docs": s["num_docs"]})
        base += s["num_docs"]

    meta = {
        "source_index": index_dir,
        "num_terms": int(num_terms),
        "total_num_docs": manifest.total_num_docs,
        "total_num_tokens": manifest.total_num_tokens,
        "segments": seg_meta,
        "salt_block_docs": salt_block_docs,
        "num_buckets": num_buckets,
    }
    tmp = os.path.join(merged_dir, "merged_meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(merged_dir, "merged_meta.json"))
    return meta


class MergedSearcher:
    """BM25 top-k served from the term-partitioned merged output.

    Postings come from the merged super-segments (already global doc ids,
    bucket-pruned reads); fieldnorms and global stats come from the source
    index.  Results are identical to IndexSearcher over the unmerged
    segments (same postings, same f32 kernel) — the demonstration that
    the wide groupby-term merge yields a servable index."""

    def __init__(self, merged_dir: str, index_dir: Optional[str] = None):
        """``index_dir=None`` serves STANDALONE from the merged output:
        fieldnorms were copied per segment at merge time and global
        stats live in merged_meta.json, so the source index need not be
        open (its doc stores are still where hydration happens)."""
        from ..search.searcher import IndexSearcher

        self.reader = MergedIndexReader(merged_dir)
        if index_dir is not None:
            self._src = IndexSearcher(index_dir)
            self._gv = self._src._global_view()
            self._ords = [r.segment_ord for r in self._src.readers]
            self.total_num_docs = self._src.total_num_docs
            self.average_fieldnorm = self._src.average_fieldnorm
        else:
            meta = self.reader.meta
            segs = meta.get("segments")
            if segs is None:
                raise ValueError(
                    "standalone serving needs a merge output with "
                    "embedded fieldnorms (re-run merge_segments)")
            self._src = None
            fn_dir = os.path.join(merged_dir, "fieldnorms")
            parts = [np.memmap(
                os.path.join(fn_dir, f"seg_{s['segment_ord']:06d}.bin"),
                dtype=np.uint8, mode="r") for s in segs]
            bases = np.zeros(len(segs) + 1, dtype=np.int64)
            for i, s in enumerate(segs):
                bases[i + 1] = bases[i] + int(s["num_docs"])
            fids = (np.concatenate([np.asarray(p) for p in parts])
                    if parts else np.empty(0, np.uint8))
            self._gv = {"bases": bases, "fids": fids, "alive": None}
            self._ords = [int(s["segment_ord"]) for s in segs]
            self.total_num_docs = int(meta["total_num_docs"])
            self.average_fieldnorm = np.float32(
                np.float32(meta["total_num_tokens"])
                / np.float32(max(1, self.total_num_docs)))

    def _make_weights(self, terms, dfs):
        from ..bm25 import Bm25Weight

        return [Bm25Weight.for_one_term(
            max(dfs.get(t, 0), 1), self.total_num_docs,
            self.average_fieldnorm) for t in terms]

    def search(self, terms, mode: str = "or", k: int = 10):
        terms = list(terms)
        dfs = {t: self.reader.doc_freq(t) for t in terms}
        weights = self._make_weights(terms, dfs)
        from ..search.searcher import _sparse_accumulate

        gv = self._gv
        fids = gv["fids"]
        n_present = 0
        parts = []
        for t, w in zip(terms, weights):
            p = self.reader.postings(t)
            if p is None:
                continue
            n_present += 1
            docs, tfs = p
            parts.append((docs, w.score(fids[docs], tfs)))
        if mode == "and" and n_present < len(terms):
            return []
        # candidate-sparse accumulation (O(matched postings); dense-query
        # cutover inside) — same serving-path discipline as IndexSearcher
        cand, scores, nmatch = _sparse_accumulate(
            parts, int(gv["bases"][-1]))
        if mode == "and":
            keep = nmatch == len(terms)
            cand, scores = cand[keep], scores[keep]
        if len(cand) == 0:
            return []
        return self._topk_hits(cand, scores, k)

    def _topk_hits(self, cand, scores, k: int):
        """(global docs, f32 scores) → top-k (score, segment_ord,
        local_doc) with the collector tie rule (score desc, doc asc)."""
        gv = self._gv
        if len(cand) > k:
            kth = np.partition(scores, len(scores) - k)[len(scores) - k]
            keep = scores >= kth
            cand, scores = cand[keep], scores[keep]
        order = np.lexsort((cand, -scores))[:k]
        cand, scores = cand[order], scores[order]
        seg_of = np.searchsorted(gv["bases"], cand, side="right") - 1
        return [
            (float(s), self._ords[int(si)], int(d - gv["bases"][int(si)]))
            for s, si, d in zip(scores, seg_of, cand)
        ]

    def search_fuzzy(self, term: str, distance: int = 1, k: int = 10,
                     transposition: bool = True):
        """FuzzyTermQuery from the merged index: expand against the
        global vocabulary, then a Should-union where each matched term
        keeps its own idf (reference fuzzy scoring shape)."""
        exp = self.reader.expand_fuzzy(term, distance, transposition)
        return self.search(exp, "or", k) if exp else []

    def search_regex(self, pattern: str, k: int = 10):
        exp = self.reader.expand_regex(pattern)
        return self.search(exp, "or", k) if exp else []

    def search_phrase(self, terms, k: int = 10, slop: int = 0):
        """PhraseQuery served from the MERGED index: positions carried
        through the merge (pass-through streams), matching f32-identical
        to IndexSearcher.search_phrase over the source segments
        (reference preserves positions at merge — src/indexer/merger.rs,
        src/positions/mod.rs:1-40)."""
        from ..bm25 import Bm25Weight
        from ..search.query import phrase_match_counts

        terms = list(terms)
        dfs = [self.reader.doc_freq(t) for t in terms]
        if not terms or any(d == 0 for d in dfs):
            return []
        # MergedIndexReader duck-types SegmentReader for postings() (global
        # doc ids) + positions(), so the same matcher serves both layouts
        docs, tfs = phrase_match_counts(self.reader, terms, slop)
        if len(docs) == 0:
            return []
        w = Bm25Weight.for_terms(dfs, self.total_num_docs,
                                 self.average_fieldnorm)
        scores = w.score(self._gv["fids"][docs], tfs)
        return self._topk_hits(docs, scores, k)


def _stats_fragments(stats_dir: str):
    import glob

    import pyarrow.parquet as pq

    for p in sorted(glob.glob(os.path.join(stats_dir, "*.parquet"))):
        yield pq.ParquetFile(p)


class MergedIndexReader:
    """Lookup over the merged, term-partitioned postings (bucket pruning:
    only the term's hash bucket is read)."""

    def __init__(self, merged_dir: str):
        import pyarrow.parquet as pq

        self.merged_dir = merged_dir
        with open(os.path.join(merged_dir, "merged_meta.json")) as f:
            self.meta = json.load(f)
        self._legacy_buckets = os.path.isdir(
            os.path.join(merged_dir, "parts", "bucket=0"))
        self._parts_dset = None
        stats_dir = os.path.join(merged_dir, "term_stats")
        legacy = os.path.join(merged_dir, "term_stats.parquet")
        if os.path.isdir(stats_dir):
            import pyarrow.dataset as pads

            self._stats = pads.dataset(stats_dir).to_table()
        else:
            self._stats = pq.read_table(legacy)
        # sorted term order: binary search for large vocab, dict for small
        self._terms_arr = self._stats.column("term").combine_chunks()
        self._dfs = self._stats.column("doc_freq").to_numpy()
        if len(self._terms_arr) <= 200_000:
            self._df = dict(zip(self._terms_arr.to_pylist(),
                                self._dfs.tolist()))
        else:
            self._df = None

    def _term_ord(self, term: str):
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
        if self._df is not None:
            return int(self._df.get(term, 0))
        o = self._term_ord(term)
        return int(self._dfs[o]) if o is not None else 0

    def expand_fuzzy(self, term: str, distance: int = 1,
                     transposition: bool = True,
                     prefix: bool = False) -> List[str]:
        """Vocabulary terms within Levenshtein ``distance`` of ``term`` —
        the lazy-DFA x sorted-term-dict intersection runs directly on the
        merged GLOBAL term_stats table (one sorted vocabulary for the
        whole corpus, where the source index intersects per segment)."""
        from ..search.automaton import (LevenshteinAutomaton,
                                        intersect_sorted_terms)

        aut = LevenshteinAutomaton(term, distance,
                                   transposition=transposition,
                                   prefix=prefix)
        ords = intersect_sorted_terms(self._terms_arr, aut)
        return [self._terms_arr[i].as_py() for i in ords]

    def expand_regex(self, pattern: str) -> List[str]:
        """Vocabulary terms fullmatching ``pattern`` (compiled-automaton
        trie walk; python-`re` fallback outside the compiled subset)."""
        import re as _re

        from ..search.automaton import (RegexAutomaton, UnsupportedRegex,
                                        intersect_sorted_terms)

        try:
            aut = RegexAutomaton(pattern)
        except UnsupportedRegex:
            rx = _re.compile(pattern)
            return [t for t in self._terms_arr.to_pylist()
                    if rx.fullmatch(t)]
        ords = intersect_sorted_terms(self._terms_arr, aut)
        return [self._terms_arr[i].as_py() for i in ords]

    def has_term(self, term: str) -> bool:
        return self.doc_freq(term) > 0

    def _term_rows(self, term: str):
        """Salted rows for a term, ascending first_doc order:
        [(first_doc, postings_blob, doc_base, pos_stream)].  Reads are
        pruned to the files / row groups whose [min_term, max_term]
        parquet statistics can contain the term (the output is term-range
        sorted); legacy hash-bucket layouts prune by bucket directory."""
        import pyarrow.dataset as pads
        import zlib

        hit = getattr(self, "_row_cache", None)
        if hit is None:
            hit = self._row_cache = {}
        if term in hit:
            return hit[term]
        parts = os.path.join(self.merged_dir, "parts")
        if self._legacy_buckets:
            bucket = zlib.crc32(term.encode()) % self.meta["num_buckets"]
            dset = pads.dataset(os.path.join(parts, f"bucket={bucket}"))
        else:
            if self._parts_dset is None:
                self._parts_dset = pads.dataset(parts)
            dset = self._parts_dset
        t = dset.to_table(filter=pads.field("term") == term)
        if t.num_rows == 0:
            rows = None
        else:
            bases = (t.column("doc_base").to_pylist()
                     if "doc_base" in t.column_names else [0] * t.num_rows)
            poss = (t.column("pos").to_pylist()
                    if "pos" in t.column_names else [b""] * t.num_rows)
            rows = sorted(zip(
                t.column("first_doc").to_pylist(),
                t.column("postings").to_pylist(), bases, poss,
            ), key=lambda r: r[0])
        if len(hit) > 256:
            hit.pop(next(iter(hit)))
        hit[term] = rows
        return rows

    def postings(self, term: str):
        """→ (global_docs, tfs) or None."""
        if not self.has_term(term):
            return None
        rows = self._term_rows(term)
        if rows is None:
            return None
        docs_parts, tf_parts = [], []
        for _, blob, base, _pos in rows:
            r = TermPostingsReader(np.frombuffer(blob, dtype=np.uint8))
            d, tf = r.decode_all()
            # pass-through fragments store segment-local doc ids + base
            docs_parts.append(d.astype(np.int64) + base if base
                              else d.astype(np.int64))
            tf_parts.append(tf)
        return np.concatenate(docs_parts), np.concatenate(tf_parts)

    def positions(self, term: str):
        """Per-posting position arrays (absolute, doc order) from the
        merged position streams — same decode as SegmentReader.positions
        (delta within a posting, absolute at posting boundaries), so the
        merged index can serve PhraseQuery.  None when any contributing
        fragment was built without positions."""
        if not self.has_term(term):
            return None
        rows = self._term_rows(term)
        if rows is None:
            return None
        streams = [r[3] or b"" for r in rows]
        if not all(streams):
            return None
        raw = np.frombuffer(b"".join(streams), dtype=np.uint32)
        p = self.postings(term)
        if p is None:
            return None
        _, tfs = p
        if int(tfs.sum()) != len(raw):
            return None  # stream/posting misalignment: refuse to serve
        out = []
        idx = 0
        for tf in tfs:
            out.append(np.cumsum(raw[idx:idx + int(tf)], dtype=np.uint32))
            idx += int(tf)
        return out

    def positions_flat(self, term: str):
        """(docs, tfs, flat_abs_positions, offsets) — the vectorized
        phrase kernel's decode (same segmented cumsum as
        SegmentReader.positions_flat) over the merged streams."""
        if not self.has_term(term):
            return None
        rows = self._term_rows(term)
        if rows is None:
            return None
        streams = [r[3] or b"" for r in rows]
        if not all(streams):
            return None
        raw = np.frombuffer(b"".join(streams), dtype=np.uint32)
        p = self.postings(term)
        if p is None:
            return None
        docs, tfs = p
        if int(tfs.sum()) != len(raw):
            return None  # stream/posting misalignment: refuse to serve
        tfs64 = tfs.astype(np.int64)
        offs = np.concatenate([[0], np.cumsum(tfs64)])
        cs = np.cumsum(raw.astype(np.int64))
        cs0 = np.concatenate([[0], cs])
        base = cs0[offs[:-1]]
        flat = (cs - np.repeat(base, tfs64)).astype(np.uint32)
        return docs, tfs, flat, offs
