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
    """The driver gather copies the hosts' hit columns into one table
    ranked per query_id.  Unsharded, every batch gets exactly the table
    the (query_id, rank) sort gives, and one host's rows already arrive
    in that order only when the batch's query ids strictly increase.
    Sharded, the per-shard top-k merge into the full-index ranking."""

    @pytest.fixture(scope="class")
    def index(self, tmp_path_factory):
        from tantivy_ray.index import build_segment_from_table
        from tantivy_ray.index.manifest import IndexManifest, write_manifest

        idx = str(tmp_path_factory.mktemp("gather") / "ix")
        t = generate_pages_table(300, seed=3)
        write_manifest(idx, IndexManifest(segments=[
            build_segment_from_table(t.slice(o, 100), i, idx)
            for i, o in enumerate(range(0, 300, 100))]))
        return idx

    @pytest.fixture(scope="class")
    def host(self, index):
        from tantivy_ray.search.pool import _SearcherHost

        return _SearcherHost(index, use_wand=False)

    @pytest.fixture(scope="class")
    def shard_hosts(self, index):
        from tantivy_ray.search.pool import _SearcherHost

        return [_SearcherHost(index, use_wand=False, segment_ords=[o])
                for o in range(3)]

    @pytest.mark.parametrize("ids", [[0, 1, 2, 3, 4], [10, 20, 30, 40, 50],
                                     [3, 4, 0, 1, 2], [2, 2, 3, 3, 1], [7]])
    def test_equals_the_sort(self, host, shard_hosts, ids):
        from tantivy_ray.search.pool import (_columns, _empty_columns,
                                             _gather, _table)

        order = [("query_id", "ascending"), ("rank", "ascending")]
        queries = [(qid, q[1], q[2], q[3])
                   for qid, q in zip(ids, REFERENCE_QUERY_SET)]
        cols = host.search_chunk(queries)
        tbl = _table(cols)
        want = tbl.sort_by(order)
        assert len(set(tbl.column("query_id").to_pylist())) == len(set(ids))
        increasing = all(a < b for a, b in zip(ids, ids[1:]))
        assert tbl.equals(want) == increasing
        got = _gather([_empty_columns(), cols], queries, sharded=False)
        assert got.equals(want)
        # the table owns its memory: no column points into a host result
        assert not any(np.shares_memory(g, c)
                       for g, c in zip(_columns(got), cols))
        # two host parts gather into the same order
        half = len(cols[0]) // 2
        parts = [tuple(c[half:] for c in cols), tuple(c[:half] for c in cols)]
        assert _gather(parts, queries, sharded=False).equals(
            pa.concat_tables([_table(p) for p in parts]).sort_by(order))
        if len(set(ids)) == len(ids):
            # each shard scores every query with the global stats
            dfs = host.doc_freqs(sorted({t for q in queries for t in q[1]}))
            shard_parts = [h.search_chunk(queries, dfs) for h in shard_hosts]
            assert _gather(shard_parts, queries, sharded=True).equals(want)


def _stream(n: int, seed: int):
    """``n`` (query_id, terms, mode, k) queries over the pages vocabulary:
    1-3 terms, or/and, k in {5, 10}."""
    rng = np.random.default_rng(seed)
    words = [f"w{i:04d}" for i in range(0, 500, 3)] + [
        "search", "index", "query", "data", "the", "rank", "score"]
    return [(i, [str(w) for w in rng.choice(words, rng.integers(1, 4),
                                            replace=False)],
             str(rng.choice(["or", "and"])), int(rng.choice([5, 10])))
            for i in range(n)]


def _by_query(tbl):
    """{query_id: [(f32 score, segment_ord, doc_id), ...]} of a hit table."""
    out = {}
    for q, s, seg, doc in zip(*(tbl.column(c).to_pylist() for c in (
            "query_id", "score", "segment_ord", "doc_id"))):
        out.setdefault(q, []).append((np.float32(s), seg, doc))
    return out


@pytest.mark.usefixtures("ray_session")
class TestPoolChannel:
    """Each SearcherPool replica serves over one compiled channel: held
    results stay valid, errors surface and the channel keeps serving,
    reads have no timeout, and close/reload tear the channels down."""

    def _expect(self, searcher, tbl, queries):
        got = _by_query(tbl)
        for qid, terms, mode, k in queries:
            want = [(np.float32(s), seg, doc)
                    for s, seg, doc in searcher.search(terms, mode, k)]
            assert got.pop(qid, []) == want, (qid, terms, mode)
        assert not got

    def test_held_results_stay_valid(self, pages_index):
        stream = _stream(600, seed=5)
        s = IndexSearcher(pages_index)
        pool = SearcherPool(pages_index, size=1)
        pool.warm()
        try:
            held = [([q], pool.search_batch([q])) for q in stream[:50]]
            held += [([q], pool.search_batch([q])) for q in stream[50:100]]
            held.append((stream[100:], pool.search_batch(stream[100:])))
        finally:
            pool.close()
        for queries, tbl in held:
            self._expect(s, tbl, queries)

    def test_host_error_surfaces_and_channel_serves_on(self, pages_index):
        with pytest.raises(Exception) as in_process:
            IndexSearcher(pages_index).parse_and_search("nosuchfield:x", 5)
        pool = SearcherPool(pages_index, size=2, num_cpus=0.25)
        pool.warm()
        try:
            # one replica raises, the other scores its chunk; the held
            # exception must not pin that chunk's result in its channel
            with pytest.raises(in_process.type) as raised:
                pool.search_parsed_batch([(0, "nosuchfield:x", 5),
                                          (1, "search", 5)])
            q = _stream(20, seed=8)
            self._expect(IndexSearcher(pages_index), pool.search_batch(q), q)
            assert isinstance(raised.value, in_process.type)
        finally:
            pool.close()

    def test_killed_replica_fails_the_batch(self, pages_index):
        import time

        import ray

        pool = SearcherPool(pages_index, size=2, num_cpus=0.25)
        pool.warm()
        try:
            ray.kill(pool.actors[1], no_restart=True)
            t0 = time.perf_counter()
            with pytest.raises(ray.exceptions.RayActorError):
                pool.search_batch(_stream(500, seed=6))
            assert time.perf_counter() - t0 < 10
        finally:
            pool.close()

    def test_reads_ignore_the_channel_timeout(self, pages_index):
        from ray.dag import DAGContext

        ctx = DAGContext.get_current()
        saved = ctx.get_timeout
        ctx.get_timeout = 0.001
        try:
            pool = SearcherPool(pages_index, size=1)
            pool.warm()
            try:
                queries = _stream(500, seed=7)
                tbl = pool.search_batch(queries)
            finally:
                pool.close()
        finally:
            ctx.get_timeout = saved
        self._expect(IndexSearcher(pages_index), tbl, queries)

    def test_close_and_reload_leave_no_open_channel(self, tmp_path):
        from tantivy_ray.sources.writer import IndexWriter

        idx = str(tmp_path / "rl")
        w = IndexWriter(idx, docs_per_segment=4)
        for i in range(4):
            w.add_document({"url": f"a{i}", "text": "alpha common"})
        w.commit()
        q = [(0, ["common"], "or", 10)]
        pool = SearcherPool(idx, size=2, num_cpus=0.25)
        pool.warm()
        try:
            old = list(pool._channels.values())
            assert len(old) == 2
            assert pool.search_batch(q).num_rows == 4
            for i in range(3):
                w.add_document({"url": f"b{i}", "text": "fresh common"})
            w.commit()
            pool.reload()
            assert all(ch.is_teardown for ch in old)
            self._expect(IndexSearcher(idx), pool.search_batch(q), q)
            new = list(pool._channels.values())
            assert len(new) == 2 and not any(ch.is_teardown for ch in new)
        finally:
            pool.close()
        assert pool._channels == {} and pool.actors == []
        assert all(ch.is_teardown for ch in new)
