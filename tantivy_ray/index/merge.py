"""Segment merge — THE wide step: groupby-term shuffle with head-term salting.

Reference semantics: merging stacks doc ids by segment order (global doc id =
segment base offset + local doc id, /root/reference/src/indexer/merger.rs:
697-708), aligns term streams with a k-way merge (TermMerger,
src/termdict/fst_termdict/merger.rs used at src/indexer/merger.rs:668-675),
and keeps total_num_tokens exact (merger.rs:66-108).

Ray-Data-first shape: instead of iterative pairwise merges, ONE
``sort(term, salt)`` exchange over posting fragments:

    segments → flat_map(explode per-term fragments) → sort(term, salt)
             → map_batches(stack + re-encode) → term-range-sorted parquet

Skew (north rule): web-text term frequencies are Zipfian — "the" appears in
nearly every document, so a naive groupby sends ~N postings to one reducer.
Salting: a term whose per-segment fragment exceeds ``salt_block_docs``
postings is split into multiple (term, salt) sub-fragments; the salt id is
ordered by (segment_ord, position), so a term's full merged posting list is
the concatenation of its salted parts in salt order — provably equivalent
because the parts cover disjoint, ascending global-doc-id ranges (doc ids
are stacked by segment order, and salts split a segment's already-sorted
list into contiguous runs).

The global df table is a by-product of that one shuffle: each parts file
holds one term range, so only a term whose salts fall on both sides of a
file boundary needs a sum across files (``_carry_split_terms``).

Output layout (term-range-sorted; reads pruned by parquet column stats):
    merged_dir/
        parts/*.parquet        (term, salt, doc_freq, first_doc,
                                last_doc, doc_base, postings blob —
                                one term range per file, so per-file
                                min/max term statistics prune lookups)
        term_stats/*.parquet   (term, doc_freq) — global df table, term-
                                sorted across files in name order
        fieldnorms/            per-segment (and per-extra-field) ids
        merged_meta.json        (written last = atomic commit marker;
                                a partial merge without it is treated
                                as absent and re-run from scratch)
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..bm25 import compute_tf_cache
from .compression import (
    TermPostingsReader,
    batch_bounds,
    decode_postings_batch,
    encode_postings_batch,
    gather_ranges,
)
from .manifest import load_manifest
from .segment import SegmentReader, segment_dir_name, term_fields

DEFAULT_SALT_BLOCK_DOCS = 65_536  # max postings per (term, salt) sub-group
DEFAULT_NUM_BUCKETS = 64  # unused; perfbench/layers.py still imports it


def _doc_bases(manifest) -> Dict[int, int]:
    """segment_ord → global doc base (segments stacked in manifest order)."""
    bases = np.cumsum([0] + [s["num_docs"] for s in manifest.segments])
    return {s["segment_ord"]: int(b) for s, b in zip(manifest.segments, bases)}


class ExplodeSegment:
    """flat_map stage: one segment → per-(term, salt) posting fragments.

    Fast path (no tombstones, df <= salt_block_docs — the overwhelming
    majority of a Zipfian vocabulary): the fragment is the term's RAW
    encoded blob sliced out of postings.bin plus a ``doc_base`` column;
    no posting is decoded (per-term bounds come from the terms.parquet
    first_doc/last_doc columns, all salt math is vectorized).  Only head
    terms (df > salt_block_docs) and tombstoned segments take the decode
    path, emitting raw global doc/tf/fid arrays.

    ``num_buckets`` is ignored (the hash-bucket layout it sized is gone);
    it stays only for callers that still pass it positionally."""

    def __init__(self, index_dir: str, salt_block_docs: int,
                 num_buckets: Optional[int] = None):
        self.index_dir = index_dir
        self.salt_block_docs = salt_block_docs
        self._doc_base: Optional[Dict[int, int]] = None

    def _doc_bases(self) -> Dict[int, int]:
        if self._doc_base is None:
            self._doc_base = _doc_bases(load_manifest(self.index_dir))
        return self._doc_base

    def _decode_rows(self, reader: SegmentReader, ords: np.ndarray,
                     base: int) -> Optional[pa.Table]:
        """Decode-path fragments (head terms / tombstoned segments):
        raw global doc/tf/fid arrays, chunked to salt_block_docs.

        All terms decode in one ``decode_postings_batch`` call straight
        from postings.bin; fieldnorm ids come from each term's field.
        Positions pass through as raw uint32 delta streams: the stream
        resets to an absolute value at every posting boundary, so slicing
        at posting boundaries (chunking, tombstone filtering) never needs
        a re-encode — only the ranges move."""
        S = max(1, self.salt_block_docs)
        docs, tfs, cnt = decode_postings_batch(reader._postings,
                                               reader._off[ords])
        term_of = np.repeat(np.arange(len(ords)), cnt)
        keep = (np.flatnonzero(reader.alive_mask[docs])
                if reader.alive_mask is not None
                else np.arange(len(docs)))
        if len(keep) == 0:
            return None
        kt = term_of[keep]
        kdocs = docs[keep]
        terms = reader.term_array().take(pa.array(ords, type=pa.int64()))
        fields = list(reader.meta.get("field_stats") or {})
        tfield = term_fields(terms, fields)
        fids = reader.fieldnorm_ids[kdocs]
        for k in np.unique(tfield[tfield > 0]):
            sel = tfield[kt] == k
            fids[sel] = reader.fieldnorm_ids_for(fields[k - 1])[kdocs[sel]]

        # salt chunks: each term's kept postings in runs of S
        kcnt = np.bincount(kt, minlength=len(ords))
        rank = np.arange(len(keep)) - (np.cumsum(kcnt) - kcnt)[kt]
        n_chunks = -(-kcnt // S)
        chunk = (np.cumsum(n_chunks) - n_chunks)[kt] + rank // S
        ccnt = np.bincount(chunk)
        c0 = np.cumsum(ccnt) - ccnt
        gdocs = kdocs.astype(np.int64) + base
        ktfs = tfs[keep]

        n = len(ccnt)
        empty = _binary_array(np.empty(0, dtype=np.uint8),
                              np.zeros(n, dtype=np.int64))
        pos_col = empty
        if reader._positions_blob is not None:
            # the terms' streams end to end are posting-aligned: posting
            # i's positions start at the tfs summed before it
            raw = np.asarray(reader._positions_blob).view(np.uint32)[
                gather_ranges(reader._pos_off[ords] // 4,
                              reader._pos_len[ords] // 4)]
            p_start = np.cumsum(tfs, dtype=np.int64) - tfs
            pos_col = _binary_array(
                raw[gather_ranges(p_start[keep], ktfs)],
                4 * np.add.reduceat(ktfs.astype(np.int64), c0))
        first_doc = gdocs[c0]
        return pa.Table.from_arrays([
            terms.take(pa.array(kt[c0], type=pa.int64())).cast(pa.string()),
            pa.array(first_doc // S, type=pa.int64()),
            pa.array(ccnt, type=pa.int64()),
            pa.array(first_doc, type=pa.int64()),
            pa.array(gdocs[c0 + ccnt - 1], type=pa.int64()),
            pa.array(np.zeros(n, dtype=np.int64)),
            pa.array(np.full(n, reader.segment_ord, dtype=np.int64)),
            empty,
            _binary_array(gdocs, 8 * ccnt),
            _binary_array(ktfs, 4 * ccnt),
            _binary_array(fids, ccnt),
            pos_col,
        ], schema=_FRAGMENT_SCHEMA)

    def __call__(self, batch: pa.Table) -> Iterator[pa.Table]:
        bases = self._doc_bases()
        batch_tbls: List[pa.Table] = []
        for seg_ord in batch.column("segment_ord").to_pylist():
            seg_ord = int(seg_ord)
            reader = SegmentReader(
                os.path.join(self.index_dir, segment_dir_name(seg_ord))
            )
            base = bases[seg_ord]
            # decode path: head terms, or every term of a tombstoned
            # segment
            fast = ((reader._doc_freq.astype(np.int64) <= self.salt_block_docs)
                    & (reader.alive_mask is None))
            slow_ords = np.flatnonzero(~fast)
            if len(slow_ords):
                slow_tbl = self._decode_rows(reader, slow_ords, base)
                if slow_tbl is not None:
                    batch_tbls.append(slow_tbl)

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
                take = pa.array(fast_ords, type=pa.int64())
                # a segment writes its term blobs end to end in term order:
                # one Arrow take over a binary view of the whole file
                # (positions likewise — doc-local, nothing to rebase)
                empty = _binary_array(np.empty(0, dtype=np.uint8),
                                      np.zeros(len(take), dtype=np.int64))
                blobs = _binary_array(reader._postings, reader._len).take(take)
                pos_blobs = (empty if reader._positions_blob is None else
                             _binary_array(reader._positions_blob,
                                           reader._pos_len).take(take))
                batch_tbls.append(pa.Table.from_arrays([
                    reader.term_array().take(take).cast(pa.string()),
                    pa.array(salts, type=pa.int64()),
                    pa.array(reader._doc_freq[fast_ords].astype(np.int64)),
                    pa.array(gfirst, type=pa.int64()),
                    pa.array(glast, type=pa.int64()),
                    pa.array(np.full(len(take), base, dtype=np.int64)),
                    pa.array(np.full(len(take), seg_ord, dtype=np.int64)),
                    blobs, empty, empty, empty, pos_blobs,
                ], schema=_FRAGMENT_SCHEMA))
        if batch_tbls:
            yield pa.concat_tables(batch_tbls)


_FRAGMENT_SCHEMA = pa.schema([
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

# per-worker fieldnorm mmap cache for the reducer (keyed by file; np.memmap
# pages in only the bytes actually gathered)
_FIELDNORM_CACHE: Dict[str, np.ndarray] = {}
_FIELDNORM_CACHE_CAP = 128


def _fieldnorm_file(field: str) -> str:
    return f"fieldnorms.{field}.bin" if field else "fieldnorms.bin"


def _fieldnorms_for(index_dir: str, seg_ord: int, field: str) -> np.ndarray:
    key = os.path.join(index_dir, segment_dir_name(seg_ord),
                       _fieldnorm_file(field))
    hit = _FIELDNORM_CACHE.get(key)
    if hit is None:
        hit = np.memmap(key, dtype=np.uint8, mode="r")
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
    """large_binary array over values laid end to end (zero-copy; ``lens``
    in bytes)."""
    offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    return pa.Array.from_buffers(
        pa.large_binary(), len(lens),
        [None, pa.py_buffer(offsets), pa.py_buffer(data)])


def _reduce_fragment_block(tbl: pa.Table, avg_fieldnorm: float,
                           index_dir: str,
                           field_avgs: Optional[Dict[str, float]] = None
                           ) -> pa.Table:
    """Reduce ALL (term, salt) groups in one sorted block, vectorized.

    The input block comes from ``sort(["term", "salt"])`` — the same
    range-partitioned shuffle ray.data's own ``map_groups`` uses, which
    guarantees a group never straddles blocks.  Single-encoded-fragment
    groups (the overwhelming tail of a Zipfian vocabulary) are reduced
    with ONE ``take``: blob and doc_base pass through untouched — no
    decode, no re-encode, no per-group python.  All other groups are
    stacked and re-encoded by ``_reduce_groups``, a bounded batch of
    groups of one field per call.  ``avg_fieldnorm`` is the primary
    field's global average, ``field_avgs`` each extra text field's; they
    pick the block-max pairs of re-encoded postings."""
    n = tbl.num_rows
    if n == 0:
        return _MERGED_SCHEMA.empty_table()
    terms = tbl.column("term").combine_chunks()
    salts = tbl.column("salt").to_numpy()
    change = np.ones(n, dtype=bool)
    change[1:] = pc.not_equal(terms.slice(1), terms.slice(0, n - 1)).to_numpy(
        zero_copy_only=False) | (salts[1:] != salts[:-1])
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    run_len = ends - starts
    blob_len = pc.binary_length(tbl.column("blob")).to_numpy()
    single = (run_len == 1) & (blob_len[starts] > 0)

    outs = []
    fast_idx = starts[single]
    if len(fast_idx):
        outs.append(tbl.take(pa.array(fast_idx, type=pa.int64())).select(
            ["term", "salt", "doc_freq", "first_doc", "last_doc",
             "doc_base", "blob", "pos"]).rename_columns(
                 _MERGED_SCHEMA.names).cast(_MERGED_SCHEMA))

    slow_starts = starts[~single]
    if len(slow_starts):
        slow_len = run_len[~single]
        fields = list(field_avgs or {})
        avgs = [avg_fieldnorm] + [field_avgs[f] for f in fields]
        group_field = term_fields(
            terms.take(pa.array(slow_starts, type=pa.int64())), fields)
        first_doc = tbl.column("first_doc").to_numpy()
        doc_freq = tbl.column("doc_freq").to_numpy()
        cols = {name: _binary_view(tbl.column(name))
                for name in ("blob", "docs", "tfs", "fids", "pos")}
        for k in np.unique(group_field):
            sel = group_field == k
            g_starts, g_len = slow_starts[sel], slow_len[sel]
            # rows of the field's groups, ordered by (group, first_doc):
            # a group's fragments cover disjoint ascending doc ranges, so
            # this order stacks them into one sorted posting list
            rows = gather_ranges(g_starts, g_len)
            rows = rows[np.lexsort((first_doc[rows], np.repeat(
                np.arange(len(g_starts)), g_len)))]
            row0 = np.cumsum(g_len) - g_len
            cache = compute_tf_cache(np.float32(avgs[k]))
            bounds = batch_bounds(np.add.reduceat(doc_freq[rows], row0))
            for g0, g1 in zip(bounds[:-1], bounds[1:]):
                r1 = row0[g1] if g1 < len(row0) else len(rows)
                outs.append(_reduce_groups(
                    tbl, cols, rows[row0[g0]:r1], g_len[g0:g1],
                    g_starts[g0:g1], cache, index_dir,
                    ([""] + fields)[k]))
    return pa.concat_tables(outs)


def _reduce_groups(tbl: pa.Table, cols: Dict, rows: np.ndarray,
                   run_len: np.ndarray, group_rows: np.ndarray,
                   cache: np.ndarray, index_dir: str,
                   field: str) -> pa.Table:
    """Stack and re-encode a batch of groups of one field in one pass.

    ``rows`` are the groups' fragment rows, group after group, each
    group's in ascending first_doc order (``run_len`` rows per group;
    ``group_rows`` is each group's first row in the block).  Encoded
    fragments are decoded in one batch straight from the ``blob``
    column's Arrow buffers, their fieldnorm ids gathered per source
    segment from the field's fieldnorm file (a per-worker mmap);
    decode-path fragments carry raw global docs/tfs/fids."""
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
        fids_e[sel] = _fieldnorms_for(index_dir, int(seg), field)[docs_e[sel]]

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
    pos_data, pos_offs = cols["pos"]
    plen = pos_offs[rows + 1] - pos_offs[rows]
    keep = np.repeat(np.minimum.reduceat(plen > 0, row0), run_len)
    pos = pos_data[gather_ranges(pos_offs[rows[keep]], plen[keep])]
    pos_lens = np.add.reduceat(np.where(keep, plen, 0), row0)
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


Edge = Tuple[Optional[str], int, Optional[str], int]


def _sum_term_stats(path: str) -> Tuple[Edge, pa.Table]:
    """One parts file's df summed per term (term-sorted) and its edge
    ``(first_term, first_df, last_term, n_rows)``."""
    g = pq.read_table(path, columns=["term", "doc_freq"]).group_by(
        "term").aggregate([("doc_freq", "sum")])
    s = pa.table([g["term"], g["doc_freq_sum"]],
                 names=["term", "doc_freq"]).sort_by("term")
    t, df = s["term"], s["doc_freq"]
    return ((t[0].as_py(), df[0].as_py(), t[-1].as_py(), len(t))
            if len(t) else (None, 0, None, 0)), s


def _carry_split_terms(edges: Sequence[Edge]) -> List[Tuple[int, bool, int]]:
    """Plan the term_stats files from the parts files' edges.

    The parts sort range-partitions by (term, salt), so the files cover
    consecutive term ranges that share at most a boundary term — one
    whose salts fell on both sides of a cut.  → ``(file, drop_first,
    add_last)`` per non-empty file, in term order: a file that starts
    with the previous file's last term drops that row, and its df is
    added to the last row of the FIRST file holding the term (a head
    term can fill whole files, so a carry can span several).  Raises
    ValueError when two files' ranges overlap beyond one boundary term."""
    order = sorted((i for i, e in enumerate(edges) if e[3]),
                   key=lambda i: (edges[i][0], edges[i][2]))
    plan, owner = [], 0   # owner: the plan entry whose last term is open
    for i in order:
        first, first_df, _, n_rows = edges[i]
        open_term = edges[plan[owner][0]][2] if plan else None
        if plan and first < open_term:
            raise ValueError(f"parts files overlap: a term range starts "
                             f"at {first!r} < {open_term!r}")
        drop = first == open_term
        if drop:
            plan[owner][2] += first_df
        plan.append([i, drop, 0])
        if not (drop and n_rows == 1):
            owner = len(plan) - 1
    return [tuple(p) for p in plan]


def _write_term_stats(stats: pa.Table, drop_first: bool, add_last: int,
                      path: str) -> int:
    """Write one term_stats file after its carry; → rows written."""
    if drop_first:
        stats = stats.slice(1)
    if add_last:
        df = stats.column("doc_freq").to_numpy().copy()
        df[-1] += add_last
        stats = stats.set_column(1, "doc_freq", pa.array(df))
    pq.write_table(stats, path)
    return stats.num_rows


def _copy_fieldnorms(index_dir: str, fn_dir: str,
                     segs: Sequence[Tuple[int, Sequence[str]]]) -> int:
    """Copy each (segment_ord, extra fields) segment's fieldnorm files."""
    import shutil

    for o, fields in segs:
        for f in ("", *fields):
            shutil.copyfile(
                os.path.join(index_dir, segment_dir_name(o),
                             _fieldnorm_file(f)),
                os.path.join(fn_dir, f"seg_{o:06d}.{f}.bin" if f
                             else f"seg_{o:06d}.bin"))
    return len(segs)


def merge_segments(
    index_dir: str,
    merged_dir: str,
    salt_block_docs: int = DEFAULT_SALT_BLOCK_DOCS,
) -> Dict:
    """Run the groupby-term merge. Returns merged meta dict."""
    import glob
    import shutil

    import ray
    import ray.data as rd

    from ..utils import remote_args

    manifest = load_manifest(index_dir)
    avg = manifest.average_fieldnorm
    field_avgs = manifest.field_average_fieldnorms()
    os.makedirs(merged_dir, exist_ok=True)

    items = [{"segment_ord": s["segment_ord"]} for s in manifest.segments]
    # a few segments per task: per-segment explode work is small (mmap +
    # vectorized slicing), so one task per segment would be pure
    # per-task/per-block overhead at high segment counts
    n_blocks = max(1, min(len(items), 32))
    segs = rd.from_items(items, override_num_blocks=n_blocks)
    fragments = segs.map_batches(
        ExplodeSegment(index_dir, salt_block_docs),
        batch_size=None,
        batch_format="pyarrow",
        retry_exceptions=True,
        max_retries=3,
        **remote_args(),
    )

    # sort(term, salt) + whole-block map = ray.data map_groups' own
    # topology, but the block reducer handles all groups vectorized
    # (single-fragment groups = one take, no per-group python).  The sort
    # range-partitions by (term, salt), so each output block is a
    # contiguous TERM RANGE — written as-is, parquet column statistics
    # (min/max term per file/row-group) prune reads.
    merged = fragments.sort(["term", "salt"]).map_batches(
        lambda t: _reduce_fragment_block(t, avg, index_dir, field_avgs),
        batch_size=None,
        batch_format="pyarrow",
        retry_exceptions=True,   # explode/reduce are deterministic —
        max_retries=3,           # retried tasks are byte-identical
        **remote_args(),
    )
    parts_dir = os.path.join(merged_dir, "parts")
    shutil.rmtree(parts_dir, ignore_errors=True)
    merged.write_parquet(parts_dir, row_group_size=4096)

    # global term stats, a by-product of the sort above: one task sums
    # each parts file, the driver plans carries from one edge per file,
    # and one task per file writes its stats (the vocab never lands on
    # the driver — at web scale it is GBs)
    opts = remote_args()
    summed = [ray.remote(num_returns=2)(_sum_term_stats).options(
        **opts).remote(p)
        for p in sorted(glob.glob(os.path.join(parts_dir, "*.parquet")))]
    plan = _carry_split_terms(ray.get([e for e, _ in summed]))
    stats_dir = os.path.join(merged_dir, "term_stats")
    shutil.rmtree(stats_dir, ignore_errors=True)
    os.makedirs(stats_dir)
    write = ray.remote(_write_term_stats).options(**opts)
    num_terms = sum(ray.get([
        write.remote(summed[i][1], drop, add,
                     os.path.join(stats_dir, f"part-{k:06d}.parquet"))
        for k, (i, drop, add) in enumerate(plan)]))

    # self-containment: copy per-segment fieldnorm files (one small Ray
    # task per chunk of segments — never concatenated on the driver) and
    # record the segment → global-doc-base map, so the merged output can
    # SERVE without the source index open (the reference's merged segment
    # likewise carries its own fieldnorm file)
    fn_dir = os.path.join(merged_dir, "fieldnorms")
    shutil.rmtree(fn_dir, ignore_errors=True)
    os.makedirs(fn_dir, exist_ok=True)
    fn_segs = [(s["segment_ord"], list(s.get("field_stats") or {}))
               for s in manifest.segments]
    copy = ray.remote(_copy_fieldnorms).options(**opts)
    ray.get([copy.remote(index_dir, fn_dir, fn_segs[i::8])
             for i in range(8) if fn_segs[i::8]])

    bases = _doc_bases(manifest)
    seg_meta = [{"segment_ord": s["segment_ord"],
                 "doc_base": bases[s["segment_ord"]],
                 "num_docs": s["num_docs"]} for s in manifest.segments]
    meta = {
        "source_index": index_dir,
        "num_terms": int(num_terms),
        "total_num_docs": manifest.total_num_docs,
        "total_num_tokens": manifest.total_num_tokens,
        "segments": seg_meta,
        "salt_block_docs": salt_block_docs,
    }
    tmp = os.path.join(merged_dir, "merged_meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(merged_dir, "merged_meta.json"))
    return meta


class MergedSearcher:
    """BM25 top-k served from the term-partitioned merged output.

    Postings come from the merged super-segments (already global doc ids,
    term-range-pruned reads); fieldnorms and global stats come from the source
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
            bases = np.cumsum([0] + [int(s["num_docs"]) for s in segs])
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


class MergedIndexReader:
    """Lookup over the merged, term-range-partitioned postings (reads
    pruned by per-file / row-group term statistics)."""

    def __init__(self, merged_dir: str):
        import glob

        import pyarrow.dataset as pads

        self.merged_dir = merged_dir
        with open(os.path.join(merged_dir, "merged_meta.json")) as f:
            self.meta = json.load(f)
        self._parts_dset = None
        # term_stats files in name order are strictly term-sorted
        self._stats = pads.dataset(sorted(glob.glob(os.path.join(
            merged_dir, "term_stats", "*.parquet"))),
            format="parquet").to_table()
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
        sorted)."""
        import pyarrow.dataset as pads

        hit = getattr(self, "_row_cache", None)
        if hit is None:
            hit = self._row_cache = {}
        if term in hit:
            return hit[term]
        if self._parts_dset is None:
            self._parts_dset = pads.dataset(
                os.path.join(self.merged_dir, "parts"))
        t = self._parts_dset.to_table(filter=pads.field("term") == term)
        if t.num_rows == 0:
            rows = None
        else:
            rows = sorted(zip(
                t.column("first_doc").to_pylist(),
                t.column("postings").to_pylist(),
                t.column("doc_base").to_pylist(),
                t.column("pos").to_pylist(),
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
        merged position streams, so the merged index can serve
        PhraseQuery.  None when any contributing fragment was built
        without positions."""
        pf = self.positions_flat(term)
        if pf is None:
            return None
        _, _, flat, offs = pf
        return [flat[offs[i]:offs[i + 1]] for i in range(len(offs) - 1)]

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
