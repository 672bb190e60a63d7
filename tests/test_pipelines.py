"""End-to-end pipelines: pages → build → search Dataset pipeline → merge.

Covers the north-star chain at test scale: deterministic pages, sharded
scatter-gather query execution equal to direct search, and the salted
groupby-term merge equivalence (merged == stacked per-segment postings)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tantivy_ray.index import build_index, load_manifest
from tantivy_ray.index.merge import MergedIndexReader, merge_segments
from tantivy_ray.pipelines import (
    REFERENCE_QUERY_SET,
    generate_pages_table,
    search_pipeline,
    write_pages_parquet,
)
from tantivy_ray.pipelines.search_pipeline import parsed_search_pipeline
from tantivy_ray.search import IndexSearcher, SearcherPool


class TestPagesGenerator:
    def test_deterministic(self):
        a = generate_pages_table(200)
        b = generate_pages_table(200)
        assert a.equals(b)
        assert a.schema.names == ["url", "warc_ts", "html", "text", "lang"]
        assert str(a.schema.field("warc_ts").type) == "timestamp[s]"
        assert a.column("url").to_pylist()[0] == "https://example.org/p/000000000"

    def test_special_rows(self):
        t = generate_pages_table(10)
        texts = t.column("text").to_pylist()
        assert texts[0] == "Hello, happy tax payer!"
        assert texts[1] == "Русский текст"
        assert texts[2] == ""
        assert "x" * 50 in texts[3]

    def test_head_term_skew(self):
        t = generate_pages_table(500, seed=42)
        joined = " ".join(t.column("text").to_pylist())
        assert joined.count(" the ") > joined.count(" w0400 ") * 5


@pytest.fixture(scope="module")
def pages_index(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("pages")
    pq_path = str(d / "pages.parquet")
    write_pages_parquet(pq_path, 600, row_group_size=100)
    idx = str(d / "ix")
    build_index(pq_path, idx, docs_per_segment=100)  # 6 segments
    return idx


@pytest.mark.usefixtures("ray_session")
class TestSearchPipeline:
    @pytest.mark.parametrize("num_shards", [1, 3, 6])
    def test_matches_direct_search(self, pages_index, num_shards):
        tbl = search_pipeline(
            pages_index, REFERENCE_QUERY_SET, num_shards=num_shards
        )
        s = IndexSearcher(pages_index)
        df = tbl.to_pandas().sort_values(["query_id", "rank"])
        for qid, terms, mode, k in REFERENCE_QUERY_SET:
            exp = s.search(terms, mode, k)
            got = df[df.query_id == qid]
            assert len(got) == len(exp), (qid, terms)
            for (score, seg, doc), row in zip(exp, got.itertuples()):
                assert row.segment_ord == seg and row.doc_id == doc, (qid, terms)
                assert np.float32(row.score) == np.float32(score)


@pytest.mark.usefixtures("ray_session")
class TestMerge:
    def test_merge_equivalence(self, pages_index, tmp_path):
        merged_dir = str(tmp_path / "merged")
        # small salt block to force salting of head terms
        meta = merge_segments(pages_index, merged_dir, salt_block_docs=100)
        m = load_manifest(pages_index)
        r = MergedIndexReader(merged_dir)
        s = IndexSearcher(pages_index)

        bases = {}
        base = 0
        for seg in m.segments:
            bases[seg["segment_ord"]] = base
            base += seg["num_docs"]

        for term in ["the", "search", "data", "w0100", "index"]:
            # stacked per-segment postings (reference merger doc-id stacking)
            parts_docs, parts_tfs = [], []
            for rd_ in s.readers:
                p = rd_.postings(term)
                if p is None:
                    continue
                d, tf = p
                parts_docs.append(d.astype(np.int64) + bases[rd_.segment_ord])
                parts_tfs.append(tf)
            if not parts_docs:
                assert r.postings(term) is None
                continue
            exp_docs = np.concatenate(parts_docs)
            exp_tfs = np.concatenate(parts_tfs)
            got = r.postings(term)
            assert got is not None, term
            assert (got[0] == exp_docs).all(), term
            assert (got[1] == exp_tfs).all(), term
            assert r.doc_freq(term) == len(exp_docs)
        # head term actually got salted (doc_freq > salt block)
        assert r.doc_freq("the") > 100
        assert meta["num_terms"] > 100


@pytest.mark.usefixtures("ray_session")
class TestParsedSearchPipeline:
    def test_matches_parse_and_search(self, pages_index):
        # pages_index has no positions → no phrase queries here (those
        # are covered by test_query_ops over a positional index)
        queries = [
            (0, "the data", 5),
            (1, "search AND engine", 5),
            (2, "+index -missing", 5),
            (3, "data~1", 5),
            (4, "engine^2 OR search", 5),
        ]
        tbl = parsed_search_pipeline(pages_index, queries, concurrency=2)
        s = IndexSearcher(pages_index)
        df = tbl.to_pandas()
        for qid, q, k in queries:
            exp = s.parse_and_search(q, k)
            got = df[df.query_id == qid].sort_values("rank")
            assert len(got) == len(exp), (qid, q)
            for (score, seg, doc), row in zip(exp, got.itertuples()):
                assert (row.segment_ord, row.doc_id) == (seg, doc), (qid, q)
                assert np.float32(row.score) == np.float32(score)

    def test_parses_with_the_index_analyzer(self, tmp_path):
        """On an en_stem index ``running`` must stem to ``run`` in the
        pipeline and the pool, as it does in parse_and_search."""
        src = str(tmp_path / "docs.parquet")
        pq.write_table(pa.table({
            "url": ["a", "b", "c"],
            "text": ["he runs home", "running late", "a quiet walk"]}), src)
        idx = str(tmp_path / "ix")
        build_index(src, idx, analyzer="en_stem")
        queries = [(0, "running", 5)]
        want = IndexSearcher(idx).parse_and_search("running", 5)
        assert len(want) == 2
        pool = SearcherPool(idx, size=1)
        pool.warm()
        try:
            pooled = pool.search_parsed_batch(queries)
        finally:
            pool.close()
        for tbl in (parsed_search_pipeline(idx, queries, concurrency=1),
                    pooled):
            assert list(zip(*(tbl.column(c).to_pylist() for c in (
                "score", "segment_ord", "doc_id")))) == want


class TestGather:
    """The driver gather of an unsharded batch returns the one non-empty
    host table as is only when the batch's query ids strictly increase;
    every batch gets exactly the table the (query_id, rank) sort gives."""

    @pytest.fixture(scope="class")
    def host(self, tmp_path_factory):
        from tantivy_ray.index import build_segment_from_table
        from tantivy_ray.index.manifest import IndexManifest, write_manifest
        from tantivy_ray.search.pool import _SearcherHost

        idx = str(tmp_path_factory.mktemp("gather") / "ix")
        t = generate_pages_table(300, seed=3)
        write_manifest(idx, IndexManifest(segments=[
            build_segment_from_table(t.slice(o, 100), i, idx)
            for i, o in enumerate(range(0, 300, 100))]))
        return _SearcherHost(idx, use_wand=False)

    @pytest.mark.parametrize("ids", [[0, 1, 2, 3, 4], [10, 20, 30, 40, 50],
                                     [3, 4, 0, 1, 2], [2, 2, 3, 3, 1], [7]])
    def test_equals_the_sort(self, host, ids):
        from tantivy_ray.search.pool import _gather

        queries = [(qid, q[1], q[2], q[3])
                   for qid, q in zip(ids, REFERENCE_QUERY_SET)]
        tbl = host.search_chunk(queries)
        want = tbl.sort_by([("query_id", "ascending"), ("rank", "ascending")])
        assert len(set(tbl.column("query_id").to_pylist())) == len(set(ids))
        increasing = all(a < b for a, b in zip(ids, ids[1:]))
        assert tbl.equals(want) == increasing
        got = _gather([tbl.slice(0, 0), tbl], queries, sharded=False)
        assert got.equals(want)
        assert (got is tbl) == increasing
        # two host tables are always sorted
        parts = [tbl.slice(tbl.num_rows // 2), tbl.slice(0, tbl.num_rows // 2)]
        assert _gather(parts, queries, sharded=False).equals(
            pa.concat_tables(parts).sort_by(
                [("query_id", "ascending"), ("rank", "ascending")]))
