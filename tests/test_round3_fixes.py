"""Round-3 regression tests: ADVICE fixes + the candidate-sparse default
scorer's no-dense-allocation guarantee (VERDICT r2 item 1)."""

import tracemalloc

import numpy as np
import pyarrow as pa
import pytest

from tantivy_ray.aggregations import run_aggregations
from tantivy_ray.search import IndexSearcher

from test_search import CORPUS, build_test_index, oracle_topk


# ---------------------------------------------------------------- scorer


class TestSparseScorer:
    """The default (non-WAND) scorer must never allocate O(shard-docs)."""

    @pytest.fixture(scope="class")
    def big_sparse_index(self, tmp_path_factory):
        # two segments x 60k docs; two rare terms match ~20 docs each.
        # A dense accumulator would be 120k * (4+4) bytes ~= 0.96 MB per
        # query; the sparse path should stay under a few hundred KB.
        rng = np.random.default_rng(7)
        segs = []
        for si in range(2):
            texts = []
            for i in range(60_000):
                toks = ["common", f"w{rng.integers(0, 50)}"]
                if i % 3000 == si:  # ~20 docs per segment
                    toks.append("rareone" if si == 0 else "raretwo")
                    toks.append("rareboth")
                texts.append(" ".join(toks))
            segs.append(texts)
        return build_test_index(tmp_path_factory.mktemp("sparse"), segs), segs

    def test_sparse_query_peak_alloc(self, big_sparse_index):
        idx, _segs = big_sparse_index
        s = IndexSearcher(idx)
        # warm up: builds the global view (fids concat, O(n) ONCE at
        # searcher setup — amortized state, not per-query cost)
        s.search(["rareone"], "or", 10)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            hits = s.search(["raretwo", "rareboth"], "or", 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hits) == 10
        # dense would add ~0.96 MB; sparse touches ~40 candidate postings
        assert peak - base < 300_000, (
            f"query allocated {peak - base} bytes — dense accumulator?")

    def test_sparse_accumulate_equals_dense_reference(self):
        """Property: _sparse_accumulate == an explicit dense accumulator
        (same f32 op order) on random posting lists."""
        from tantivy_ray.search.searcher import _sparse_accumulate

        rng = np.random.default_rng(11)
        for trial in range(200):
            n_docs = int(rng.integers(5, 200))
            n_terms = int(rng.integers(1, 6))
            parts = []
            for _ in range(n_terms):
                k = int(rng.integers(0, n_docs + 1))
                docs = np.sort(rng.choice(n_docs, size=k, replace=False))
                sc = rng.random(k).astype(np.float32)
                parts.append((docs.astype(np.int64), sc))
            dense = np.zeros(n_docs, dtype=np.float32)
            cnt = np.zeros(n_docs, dtype=np.int32)
            for docs, sc in parts:
                dense[docs] += sc
                cnt[docs] += 1
            u, acc, nm = _sparse_accumulate(parts)
            expect = np.flatnonzero(cnt > 0)
            assert (u == expect).all(), trial
            assert (acc == dense[expect]).all(), trial  # bit-exact f32
            assert (nm == cnt[expect]).all(), trial

    def test_dense_cutover_identical(self, monkeypatch):
        """The dense-query cutover branch produces the exact same
        (docs, scores, counts) as the sparse branch."""
        import tantivy_ray.search.searcher as smod
        from tantivy_ray.search.searcher import _sparse_accumulate

        rng = np.random.default_rng(5)
        n_docs = 500
        parts = []
        for _ in range(4):
            k = int(rng.integers(n_docs // 2, n_docs))
            docs = np.sort(rng.choice(n_docs, size=k, replace=False))
            parts.append((docs.astype(np.int64),
                          rng.random(k).astype(np.float32)))
        sparse = _sparse_accumulate(parts)           # no n_docs → sparse
        monkeypatch.setattr(smod, "_DENSE_CUTOVER_MIN", 0)
        dense = _sparse_accumulate(parts, n_docs)    # forced dense branch
        for a, b in zip(sparse, dense):
            assert (a == b).all()

    def test_sparse_matches_oracle(self, big_sparse_index):
        idx, segs = big_sparse_index
        s = IndexSearcher(idx)
        for terms, mode in [(["rareone", "rareboth"], "or"),
                            (["rareboth"], "or"),
                            (["rareone", "rareboth"], "and")]:
            got = s.search(terms, mode, 15)
            want = oracle_topk(segs, terms, mode, 15)
            assert [(g[1], g[2]) for g in got] == [(w[1], w[2]) for w in want]
            for g, w in zip(got, want):
                assert np.float32(g[0]) == np.float32(w[0])


# ------------------------------------------------------------ histogram


def _agg_over(rows, aggs):
    import ray.data as rd

    ds = rd.from_items(rows)
    return run_aggregations(ds, aggs)


class TestHistogramFractionalInterval:
    def test_fractional_interval_gap_fill_keeps_real_buckets(self, ray_session):
        # ADVICE repro: interval=0.1, values [0.15, 0.65] -> float-key grid
        # matching dropped the real buckets (1 ulp mismatch)
        res = _agg_over(
            [{"v": 0.15}, {"v": 0.65}],
            {"h": {"histogram": {"field": "v", "interval": 0.1,
                                 "min_doc_count": 0}}},
        )
        buckets = res["h"]["buckets"]
        assert len(buckets) == 6  # 0.1 .. 0.6
        assert [b["doc_count"] for b in buckets] == [1, 0, 0, 0, 0, 1]
        assert buckets[0]["key"] == pytest.approx(0.1)
        assert buckets[-1]["key"] == pytest.approx(0.6)

    def test_fractional_interval_with_offset_and_bounds(self, ray_session):
        res = _agg_over(
            [{"v": 0.17}, {"v": 0.47}],
            {"h": {"histogram": {"field": "v", "interval": 0.1,
                                 "offset": 0.05,
                                 "extended_bounds": {"min": 0.0,
                                                     "max": 0.6}}}},
        )
        buckets = res["h"]["buckets"]
        # grid: -0.05, 0.05, ..., 0.55 — ext bounds floored WITH the offset
        assert buckets[0]["key"] == pytest.approx(-0.05)
        assert buckets[-1]["key"] == pytest.approx(0.55)
        assert sum(b["doc_count"] for b in buckets) == 2
        hot = [b["key"] for b in buckets if b["doc_count"] == 1]
        assert hot == [pytest.approx(0.15), pytest.approx(0.45)]


class TestTermsOrder:
    def test_count_desc_ties_break_key_asc(self, ray_session):
        rows = [{"t": x} for x in ["b", "a", "c", "a", "b", "c", "a"]]
        res = _agg_over(
            rows,
            {"t": {"terms": {"field": "t", "size": 10,
                             "order": {"_count": "desc"}}}},
        )
        keys = [b["key"] for b in res["t"]["buckets"]]
        assert keys == ["a", "b", "c"]  # a=3 first; b/c tie -> key ASC

    def test_key_order_numeric_native(self, ray_session):
        rows = [{"n": x} for x in [10, 2, 1, 10, 2]]
        res = _agg_over(
            rows,
            {"t": {"terms": {"field": "n", "size": 10,
                             "order": {"_key": "asc"}}}},
        )
        keys = [b["key"] for b in res["t"]["buckets"]]
        assert keys == [1, 2, 10]  # not the lexicographic [1, 10, 2]


# ----------------------------------------------------------- search_pipeline


def test_searcher_pool_sharded_parity(tmp_path, ray_session):
    """Sharded SearcherPool (persistent scatter-gather: df round + score
    round + driver merge) == search_pipeline(num_shards=3)."""
    from tantivy_ray.pipelines.search_pipeline import search_pipeline
    from tantivy_ray.search import SearcherPool

    idx = build_test_index(tmp_path, CORPUS)
    queries = [
        (0, ["fox", "dog"], "or", 5),
        (1, ["quick"], "or", 3),
        (2, ["the", "quick"], "and", 10),
        (3, ["quick", "brown", "fox"], "or", 10),
        (4, ["zzz"], "or", 5),
    ]
    want = search_pipeline(idx, queries, num_shards=3, concurrency=1)
    pool = SearcherPool(idx, size=3, num_shards=3)
    pool.warm()
    try:
        got = pool.search_batch(queries)
    finally:
        pool.close()
    wp = want.to_pandas().sort_values(["query_id", "rank"]).reset_index(
        drop=True)
    gp = got.to_pandas().sort_values(["query_id", "rank"]).reset_index(
        drop=True)
    assert gp[["query_id", "rank", "segment_ord", "doc_id"]].equals(
        wp[["query_id", "rank", "segment_ord", "doc_id"]])
    assert (gp["score"].to_numpy() == wp["score"].to_numpy()).all()


def test_searcher_pool_parity(tmp_path, ray_session):
    """SearcherPool (persistent serving pool) == search_pipeline
    (per-execution Ray Data actor pool), f32/rank-identical."""
    from tantivy_ray.pipelines.search_pipeline import search_pipeline
    from tantivy_ray.search import SearcherPool

    idx = build_test_index(tmp_path, CORPUS, record_positions=True)
    queries = [
        (0, ["fox", "dog"], "or", 5),
        (1, ["quick"], "or", 3),
        (2, ["the", "quick"], "and", 10),
        (3, ["zzz"], "or", 5),
        (4, ["quick", "brown", "fox"], "or", 10),
        (5, ["brown", "fox"], "phrase", 5),
    ]
    want = search_pipeline(idx, queries, num_shards=1, concurrency=1)
    pool = SearcherPool(idx, size=2)
    pool.warm()
    try:
        got = pool.search_batch(queries)
        # a second call reuses the same warm actors
        again = pool.search_batch(queries)
    finally:
        pool.close()
    assert got.to_pydict() == want.to_pydict()
    assert again.to_pydict() == want.to_pydict()


def test_searcher_pool_parsed_parity(tmp_path, ray_session):
    """Parsed query strings through the warm pool == the Ray Data
    parsed_search_pipeline (full grammar: bools, phrases, fuzzy)."""
    from tantivy_ray.pipelines.search_pipeline import parsed_search_pipeline
    from tantivy_ray.search import SearcherPool

    idx = build_test_index(tmp_path, CORPUS, record_positions=True)
    queries = [
        (0, "fox AND dog", 5),
        (1, '"quick brown"', 5),
        (2, "quick brown fox", 10),
        (3, "fax~1", 5),
        (4, "fox -dog", 10),
    ]
    want = parsed_search_pipeline(idx, queries, concurrency=1)
    pool = SearcherPool(idx, size=2)
    pool.warm()
    try:
        got = pool.search_parsed_batch(queries)
    finally:
        pool.close()
    assert got.to_pydict() == want.to_pydict()


def test_searcher_pool_recovers_via_reload_after_actor_death(
        tmp_path, ray_session):
    """A killed replica fails the in-flight batch loudly (no silent
    partial results); reload() restores a fully warmed pool."""
    import ray

    from tantivy_ray.search import SearcherPool

    idx = build_test_index(tmp_path, CORPUS)
    pool = SearcherPool(idx, size=2)
    pool.warm()
    try:
        q = [(0, ["fox"], "or", 5)]
        ok = pool.search_batch(q)
        ray.kill(pool.actors[0], no_restart=True)
        # ray.kill is async: wait until the actor is actually gone
        import time as _time

        deadline = _time.time() + 15
        while _time.time() < deadline:
            try:
                ray.get(pool.actors[0].ready.remote(), timeout=2)
                _time.sleep(0.05)
            except Exception:
                break
        with pytest.raises(ray.exceptions.RayActorError):
            pool.search_batch(q + [(1, ["dog"], "or", 5)])
        pool.reload()
        assert pool.search_batch(q).to_pydict() == ok.to_pydict()
    finally:
        pool.close()


def test_searcher_pool_reload_sees_new_commit(tmp_path, ray_session):
    """pool.reload() = IndexReader reload: new batches see documents
    committed after the pool was created."""
    from tantivy_ray.search import SearcherPool
    from tantivy_ray.sources.writer import IndexWriter

    idx = str(tmp_path / "rl")
    w = IndexWriter(idx, docs_per_segment=4)
    for i in range(4):
        w.add_document({"url": f"a{i}", "text": "alpha common"})
    w.commit()
    pool = SearcherPool(idx, size=2)
    pool.warm()
    try:
        q = [(0, ["freshterm"], "or", 10)]
        assert pool.search_batch(q).num_rows == 0
        for i in range(3):
            w.add_document({"url": f"b{i}", "text": "freshterm common"})
        w.commit()
        assert pool.search_batch(q).num_rows == 0  # old snapshot
        pool.reload()
        assert pool.search_batch(q).num_rows == 3  # new generation
    finally:
        pool.close()


def test_explain_matches_search_score(tmp_path):
    """Query::explain analog: the explanation root value is bit-identical
    to the hit's f32 score, and per-term details multiply out."""
    idx = build_test_index(tmp_path, CORPUS)
    s = IndexSearcher(idx)
    for terms, mode in [(["fox", "dog"], "or"), (["quick"], "or"),
                        (["the", "quick"], "and")]:
        for score, seg, doc in s.search(terms, mode, 5):
            ex = s.explain(terms, seg, doc)
            assert np.float32(ex["value"]) == np.float32(score), (terms, doc)
            assert ex["details"], "no per-term details"
            for d in ex["details"]:
                w = next(x["value"] for x in d["details"]
                         if x["description"].startswith("idf"))
                tf = next(x["value"] for x in d["details"]
                          if x["description"] == "term frequency")
                norm = next(x["value"] for x in d["details"]
                            if x["description"].startswith("k1*"))
                expect = np.float32(
                    np.float32(w) * np.float32(
                        np.float32(tf) / np.float32(np.float32(tf) + np.float32(norm))))
                assert np.float32(d["value"]) == expect


# ------------------------------------------------------------ RamDirectory


def test_ram_directory_roundtrip():
    from tantivy_ray.index import RamDirectory
    from tantivy_ray.sources.writer import IndexWriter

    with RamDirectory() as d:
        path = d.path
        w = IndexWriter(d.path, docs_per_segment=4)
        for i in range(6):
            w.add_document({"url": f"u{i}", "text": f"alpha beta doc{i}"})
        w.commit()
        assert d.exists("manifest.json")
        assert d.total_bytes() > 0
        s = IndexSearcher(d.path)
        assert len(s.search(["alpha"], "or", 10)) == 6
        d.atomic_write("probe.bin", b"xyz")
        assert d.atomic_read("probe.bin") == b"xyz"
    import os

    assert not os.path.exists(path)  # dropped with the directory


# ----------------------------------------------------------------- writer


def test_commit_applies_deletes_before_stamping(tmp_path, monkeypatch):
    import tantivy_ray.sources.writer as wmod
    from tantivy_ray.sources.writer import IndexWriter

    idx = str(tmp_path / "wx")
    w = IndexWriter(idx, docs_per_segment=10)
    for i in range(4):
        w.add_document({"url": f"u{i}", "text": f"alpha beta doc{i}"})
    w.commit()

    w.delete_by_term("doc1")
    delete_stamp = w.opstamp

    def boom(*a, **k):
        raise RuntimeError("crash before tombstone write")

    monkeypatch.setattr(wmod, "_delete_by_term", boom)
    with pytest.raises(RuntimeError):
        w.commit()
    monkeypatch.undo()

    # the manifest must NOT claim the delete op durable: a fresh writer
    # resumes from a committed stamp strictly below the delete's stamp
    w2 = IndexWriter(idx)
    assert w2.committed_opstamp < delete_stamp

    # and re-running the commit (tombstone write now succeeding) applies it
    w.commit()
    s = IndexSearcher(idx)
    hits = s.search(["doc1"], "or", 5)
    assert hits == []
    assert IndexWriter(idx).committed_opstamp >= delete_stamp


def test_searcher_pool_sharded_replicas_all_used(tmp_path, ray_session):
    """VERDICT r3 item 8: with size > num_shards, every replica of every
    shard receives scoring work (queries chunk across replicas) and the
    merged result stays f32/rank-identical to the 1-replica pool."""
    import ray

    from tantivy_ray.search import SearcherPool

    idx = build_test_index(tmp_path, CORPUS)
    queries = [
        (0, ["fox", "dog"], "or", 5),
        (1, ["quick"], "or", 3),
        (2, ["the", "quick"], "and", 10),
        (3, ["quick", "brown", "fox"], "or", 10),
        (4, ["zzz"], "or", 5),
        (5, ["lazy", "dog"], "or", 4),
    ]
    # fractional CPUs: the test session has 4; 3 + 6 actors must fit
    base = SearcherPool(idx, size=3, num_shards=3, num_cpus=0.25)
    base.warm()
    try:
        want = base.search_batch(queries)
    finally:
        base.close()
    pool = SearcherPool(idx, size=6, num_shards=3, num_cpus=0.25)
    pool.warm()
    assert len(pool.actors) == 6  # 2 replicas x 3 shards
    try:
        got = pool.search_batch(queries)
        served = ray.get([a.served.remote() for a in pool.actors])
    finally:
        pool.close()
    assert all(s >= 1 for s in served), served
    gp = got.to_pandas().reset_index(drop=True)
    wp = want.to_pandas().reset_index(drop=True)
    assert gp[["query_id", "rank", "segment_ord", "doc_id"]].equals(
        wp[["query_id", "rank", "segment_ord", "doc_id"]])
    assert (gp["score"].to_numpy() == wp["score"].to_numpy()).all()


def test_searcher_pool_sharded_parsed_batch(tmp_path, ray_session):
    """Sharded parsed batches: per-shard vocab expansion + summed global
    stats == the full-index replicated pool, f32/rank-identical — incl.
    fuzzy and phrase queries whose expansions/positions live on
    different shards."""
    from tantivy_ray.search import SearcherPool

    idx = build_test_index(tmp_path, CORPUS, record_positions=True)
    queries = [
        (0, "quick dog", 5),
        (1, '"quick brown fox"', 5),
        (2, "quick~1", 8),
        (3, "+fox -dog", 5),
        (4, "qu.ck.*", 5),
        (5, "nosuchterm", 3),
    ]
    full = SearcherPool(idx, size=2, num_cpus=0.25)
    full.warm()
    try:
        want = full.search_parsed_batch(queries)
    finally:
        full.close()
    pool = SearcherPool(idx, size=6, num_shards=3, num_cpus=0.25)
    pool.warm()
    try:
        got = pool.search_parsed_batch(queries)
    finally:
        pool.close()
    wp = want.to_pandas().reset_index(drop=True)
    gp = got.to_pandas().reset_index(drop=True)
    assert gp[["query_id", "rank", "segment_ord", "doc_id"]].equals(
        wp[["query_id", "rank", "segment_ord", "doc_id"]])
    assert (gp["score"].to_numpy() == wp["score"].to_numpy()).all()
