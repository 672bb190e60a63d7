"""Merge: term_stats as a by-product of the one (term, salt) sort, the
batched decode-path explode, and extra-field block-max pairs."""

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tantivy_ray.bm25 import compute_tf_cache
from tantivy_ray.index import build_index, load_manifest
from tantivy_ray.index import merge as merge_mod
from tantivy_ray.index.compression import (COMPRESSION_BLOCK_SIZE,
                                           TermPostingsReader,
                                           decode_postings_batch)
from tantivy_ray.index.deletes import add_tombstones
from tantivy_ray.index.manifest import IndexManifest, write_manifest
from tantivy_ray.index.merge import (_FRAGMENT_SCHEMA, ExplodeSegment,
                                     MergedIndexReader, _carry_split_terms,
                                     _sum_term_stats, merge_segments)
from tantivy_ray.index.segment import (SegmentReader,
                                       build_segment_from_table,
                                       segment_dir_name)

class TestCarrySplitTerms:
    """Edges are (first_term, first_df, last_term, n_rows) per file."""

    def test_no_split(self):
        edges = [("m", 2, "z", 5), ("a", 1, "k", 3)]
        assert _carry_split_terms(edges) == [(1, False, 0), (0, False, 0)]

    def test_one_split(self):
        edges = [("a", 1, "k", 3), ("k", 4, "z", 2)]
        assert _carry_split_terms(edges) == [(0, False, 4), (1, True, 0)]

    def test_term_spans_three_files(self):
        # "k" ends file 2, is all of file 0 and starts file 1
        edges = [("k", 5, "k", 1), ("k", 2, "q", 4), ("a", 1, "k", 3)]
        assert _carry_split_terms(edges) == [
            (2, False, 7), (0, True, 0), (1, True, 0)]

    def test_file_of_one_term(self):
        # file 1 is all "c" (carried into file 0); file 2 owns "f" again
        edges = [("a", 1, "c", 2), ("c", 3, "c", 1), ("d", 1, "f", 2),
                 ("f", 6, "f", 1)]
        assert _carry_split_terms(edges) == [
            (0, False, 3), (1, True, 0), (2, False, 6), (3, True, 0)]

    def test_single_and_empty_files(self):
        assert _carry_split_terms([("a", 1, "z", 9)]) == [(0, False, 0)]
        assert _carry_split_terms([(None, 0, None, 0),
                                   ("a", 1, "z", 9)]) == [(1, False, 0)]
        assert _carry_split_terms([]) == []

    @pytest.mark.parametrize("edges", [
        [("a", 1, "m", 3), ("c", 1, "z", 3)],              # starts inside
        [("a", 1, "z", 3), ("c", 1, "d", 2)],              # nested
        [("a", 1, "k", 3), ("k", 1, "m", 2), ("k", 1, "z", 2)],
    ])
    def test_overlap_raises(self, edges):
        with pytest.raises(ValueError, match="overlap"):
            _carry_split_terms(edges)

    def test_overlapping_parts_files_raise(self, tmp_path):
        paths = []
        for i, terms in enumerate((["b", "a", "d", "b"], ["c", "e"])):
            paths.append(str(tmp_path / f"p{i}.parquet"))
            pq.write_table(pa.table({
                "term": terms, "salt": list(range(len(terms))),
                "doc_freq": pa.array([1] * len(terms), pa.int64())}),
                paths[-1])
        edge, stats = _sum_term_stats(paths[0])
        assert edge == ("a", 1, "d", 3)
        assert stats.to_pydict() == {"term": ["a", "b", "d"],
                                     "doc_freq": [1, 2, 1]}
        with pytest.raises(ValueError, match="overlap"):
            _carry_split_terms([_sum_term_stats(p)[0] for p in paths])


def _source_term_dfs(index_dir: str) -> pa.Table:
    tables = [SegmentReader(os.path.join(
        index_dir, segment_dir_name(s["segment_ord"]))).term_stats_table()
        for s in load_manifest(index_dir).segments]
    g = pa.concat_tables(tables).group_by("term").aggregate(
        [("doc_freq", "sum")])
    return pa.table({"term": g.column("term"),
                     "doc_freq": g.column("doc_freq_sum")}).sort_by("term")


@pytest.mark.usefixtures("ray_session")
def test_term_stats_carry_across_parts_files(tmp_path, monkeypatch):
    """Few terms with many salts each: the sort's file cuts land inside
    terms, so term_stats needs carries."""
    rng = np.random.default_rng(5)
    words = np.array(["alpha", "beta", "gamma", "delta", "eps", "zeta"])
    texts = [" ".join(rng.choice(words, size=int(rng.integers(2, 7))))
             for _ in range(3000)]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": np.arange(3000), "text": texts}),
                   src)
    idx, mg = str(tmp_path / "ix"), str(tmp_path / "mg")
    build_index(src, idx, id_col="doc_id", docs_per_segment=500)
    plans = []

    def spy(edges):
        plans.append(_carry_split_terms(edges))
        return plans[-1]

    monkeypatch.setattr(merge_mod, "_carry_split_terms", spy)
    meta = merge_segments(idx, mg, salt_block_docs=10)
    assert sum(drop for _, drop, _ in plans[0]) >= 1

    files = sorted(os.listdir(os.path.join(mg, "term_stats")))
    stats = pa.concat_tables([pq.read_table(
        os.path.join(mg, "term_stats", f)) for f in files])
    terms = stats.column("term").to_pylist()
    assert all(a < b for a, b in zip(terms, terms[1:]))
    parts = pq.read_table(os.path.join(mg, "parts"),
                          columns=["term", "doc_freq"])
    g = parts.group_by("term").aggregate([("doc_freq", "sum")])
    want = pa.table({"term": g.column("term"),
                     "doc_freq": g.column("doc_freq_sum")}).sort_by("term")
    assert stats.equals(want)
    assert stats.equals(_source_term_dfs(idx))
    assert meta["num_terms"] == stats.num_rows == len(words)
    r = MergedIndexReader(mg)
    assert [r.doc_freq(w) for w in words] == [
        stats.column("doc_freq")[terms.index(w)].as_py() for w in words]


@pytest.mark.usefixtures("ray_session")
def test_parts_files_sorted_with_disjoint_row_groups(tmp_path):
    """Each parts file is strictly (term, salt)-ordered and consecutive
    row groups cover disjoint term ranges, so row-group statistics can
    prune ``MergedIndexReader._term_rows`` reads.  Tail terms of one
    segment pass through; head terms of both are re-encoded; every file
    holds both kinds."""
    rng = np.random.default_rng(11)
    tail = rng.integers(0, 30000, size=(4000, 5))
    head = rng.zipf(1.5, size=(4000, 5)) % 200
    texts = [" ".join([f"t{i}" for i in a] + [f"h{i}" for i in b])
             for a, b in zip(tail, head)]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": np.arange(4000), "text": texts}),
                   src)
    idx, mg = str(tmp_path / "ix"), str(tmp_path / "mg")
    build_index(src, idx, id_col="doc_id", docs_per_segment=2000)
    merge_segments(idx, mg)
    parts = sorted(os.listdir(os.path.join(mg, "parts")))
    row_groups = 0
    for name in parts:
        pf = pq.ParquetFile(os.path.join(mg, "parts", name))
        t = pf.read(columns=["term", "salt"])
        keys = list(zip(t.column("term").to_pylist(),
                        t.column("salt").to_pylist()))
        assert all(a < b for a, b in zip(keys, keys[1:])), name
        col = pf.schema_arrow.get_field_index("term")
        ranges = [(st.min, st.max) for st in (
            pf.metadata.row_group(i).column(col).statistics
            for i in range(pf.num_row_groups))]
        assert all(a[1] < b[0] for a, b in zip(ranges, ranges[1:])), name
        row_groups += len(ranges)
    assert row_groups > len(parts) >= 1


@pytest.fixture(scope="module")
def title_index(tmp_path_factory, ray_session, sf_dir):
    """The test corpus with a ``title`` extra text field and positions,
    100 docs per segment, tombstones in segment 2."""
    d = tmp_path_factory.mktemp("title")
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    # titles of 40-280 chars: varied lengths and tfs, so the field's own
    # tf cache decides some block-max pairs
    t = t.append_column("title", pa.array(
        [x[:40 + 40 * (i % 7)] for i, x in
         enumerate(t.column("text").to_pylist())]))
    src = str(d / "docs.parquet")
    pq.write_table(t, src)
    idx = str(d / "ix")
    build_index(src, idx, id_col="doc_id", docs_per_segment=100,
                record_positions=True,
                extra_text_fields={"title": "default"})
    add_tombstones(os.path.join(idx, segment_dir_name(2)), [0, 7, 50, 99])
    return idx


def _reference_explode(reader: SegmentReader, base: int, S: int):
    """The per-term decode loop the batched explode replaced (with each
    term's own field's fieldnorms)."""
    rows = []
    fields = list(reader.meta.get("field_stats") or {})
    for o, term in enumerate(reader.terms()):
        docs, tfs = reader.postings(term)
        field = next((f for f in fields if term.startswith(f + "\x00")), "")
        fn = reader.fieldnorm_ids_for(field)
        s0 = int(reader._pos_off[o])
        raw_pos = np.frombuffer(
            reader._positions_blob[s0:s0 + int(reader._pos_len[o])],
            dtype=np.uint32)
        bounds = np.concatenate(([0], np.cumsum(tfs.astype(np.int64))))
        keep = np.flatnonzero(reader.alive_mask[docs])
        for start in range(0, len(keep), S):
            sel = keep[start:start + S]
            g = docs[sel].astype(np.int64) + base
            rows.append({
                "term": term, "salt": int(g[0]) // S,
                "doc_freq": len(sel), "first_doc": int(g[0]),
                "last_doc": int(g[-1]), "doc_base": 0,
                "segment_ord": reader.segment_ord, "blob": b"",
                "docs": g.tobytes(), "tfs": tfs[sel].tobytes(),
                "fids": fn[docs[sel]].tobytes(),
                "pos": np.concatenate([raw_pos[bounds[i]:bounds[i + 1]]
                                       for i in sel]).tobytes()})
    return pa.Table.from_pylist(rows, schema=_FRAGMENT_SCHEMA)


def test_tombstoned_explode_matches_per_term_reference(title_index):
    reader = SegmentReader(os.path.join(title_index, segment_dir_name(2)))
    assert reader.num_deleted == 4
    S = 20   # chunks the head terms too
    got = pa.concat_tables(list(ExplodeSegment(title_index, S)(
        pa.table({"segment_ord": pa.array([2], pa.int64())}))))
    want = _reference_explode(reader, 200, S)
    key = [("term", "ascending"), ("salt", "ascending")]
    assert got.num_rows == want.num_rows > reader.num_terms()
    assert got.sort_by(key).equals(want.sort_by(key))


def _zipf_segment(index_dir: str, n_docs: int) -> str:
    rng = np.random.default_rng(3)
    vocab = np.array([f"w{i}" for i in range(8000)])
    p = 1.0 / np.arange(1, 8001)
    toks = vocab[rng.choice(8000, size=n_docs * 30, p=p / p.sum())]
    texts = [" ".join(toks[i * 30:(i + 1) * 30]) for i in range(n_docs)]
    meta = build_segment_from_table(
        pa.table({"doc_id": np.arange(n_docs), "text": texts}), 0,
        index_dir, id_col="doc_id")
    write_manifest(index_dir, IndexManifest(
        id_col="doc_id", segments=[meta], total_num_docs=n_docs,
        total_num_tokens=meta["num_tokens"]))
    return os.path.join(index_dir, segment_dir_name(0))


def test_tombstoned_explode_is_batched(tmp_path):
    """One tombstone sends every term of a segment down the decode path;
    that path decodes in one batch, not term by term (which took over 25x
    the clean explode on a 12k-doc segment)."""
    seg = _zipf_segment(str(tmp_path), 12_000)
    batch = pa.table({"segment_ord": pa.array([0], pa.int64())})
    explode = ExplodeSegment(str(tmp_path), merge_mod.DEFAULT_SALT_BLOCK_DOCS)

    def best_of_3():
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            rows = sum(t.num_rows for t in explode(batch))
            walls.append(time.perf_counter() - t0)
        return min(walls), rows

    clean, n_clean = best_of_3()
    add_tombstones(seg, [5])
    tomb, n_tomb = best_of_3()
    assert n_tomb == n_clean
    assert tomb <= max(0.1, 5 * clean), (tomb, clean)


@pytest.mark.usefixtures("ray_session")
def test_extra_field_block_max_pairs(title_index, tmp_path):
    """Every re-encoded ``title\\x00`` block stores the first argmax
    (fid, tf) under the title field's fieldnorms and global tf cache."""
    mg = str(tmp_path / "mg")
    merge_segments(title_index, mg)
    m = load_manifest(title_index)
    bases = np.cumsum([0] + [s["num_docs"] for s in m.segments])
    readers = [SegmentReader(os.path.join(
        title_index, segment_dir_name(s["segment_ord"]))) for s in m.segments]
    fids = np.concatenate([r.fieldnorm_ids_for("title") for r in readers])
    cache = compute_tf_cache(np.float32(
        sum(s["field_stats"]["title"] for s in m.segments)
        / np.float32(m.total_num_docs)))
    for s, r in zip(m.segments, readers):
        with open(os.path.join(mg, "fieldnorms",
                               f"seg_{s['segment_ord']:06d}.title.bin"),
                  "rb") as f:
            assert f.read() == r.fieldnorm_ids_for("title").tobytes()

    parts = pq.read_table(os.path.join(mg, "parts")).to_pylist()
    checked = 0
    for row in parts:
        if not row["term"].startswith("title\x00"):
            continue
        seg = int(np.searchsorted(bases, row["first_doc"], "right")) - 1
        src, o = readers[seg], readers[seg].term_ord(row["term"])
        if row["doc_base"] == bases[seg] and row["postings"] == bytes(
                src._postings[src._off[o]:src._off[o] + src._len[o]]):
            continue   # pass-through blob: its segment's own pairs
        pr = TermPostingsReader(np.frombuffer(row["postings"], np.uint8))
        docs, tfs, _ = decode_postings_batch(
            np.frombuffer(row["postings"], np.uint8), np.zeros(1, np.int64))
        docs = docs.astype(np.int64) + row["doc_base"]
        for b in range(pr.n_blocks):
            sl = slice(b * COMPRESSION_BLOCK_SIZE,
                       (b + 1) * COMPRESSION_BLOCK_SIZE)
            f, tf = fids[docs[sl]], tfs[sl]
            tf32 = tf.astype(np.float32)
            i = int(np.argmax(tf32 / (tf32 + cache[f])))
            assert (int(pr.wand_fid[b]), int(pr.wand_tf[b])) == (
                int(f[i]), int(tf[i])), (row["term"], b)
            checked += 1
    assert checked >= 20
