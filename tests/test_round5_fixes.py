"""Round-5 fixes: advisor findings from ADVICE.md (round 4).

1. aggregations.compute_partial — null-skipping in a bucket agg must not
   leak into sibling aggregations (shared-mask rebind).
2. IndexWriter delete ordering — ops apply in opstamp order (reference
   src/indexer/index_writer.rs): docs added AFTER a delete survive it.
3. Metric `missing` substitution on datetime64 columns.
4. Field-scoped fuzzy queries raise instead of silently searching the
   primary field.
"""

import numpy as np
import pytest


class TestAggSiblingMaskIsolation:
    def test_terms_null_skip_does_not_leak_into_sibling_metric(self):
        from tantivy_ray.aggregations import compute_partial, finalize

        batch = {
            "a": np.array(["x", None, "y", None], dtype=object),
            "b": np.array([10.0, 20.0, 30.0, 40.0]),
        }
        aggs = {
            "by_a": {"terms": {"field": "a"}},
            "avg_b": {"avg": {"field": "b"}},
        }
        part = compute_partial(aggs, batch)
        out = finalize(aggs, part)
        # ADVICE repro: avg_b must see ALL 4 rows (25.0), not just the
        # rows where `a` is non-null (20.0)
        assert out["avg_b"]["value"] == pytest.approx(25.0)
        keys = {b["key"] for b in out["by_a"]["buckets"]}
        assert keys == {"x", "y"}

    def test_histogram_null_skip_sibling(self):
        from tantivy_ray.aggregations import compute_partial, finalize

        batch = {
            "h": np.array([1.0, np.nan, 3.0, np.nan]),
            "b": np.array([1.0, 2.0, 3.0, 4.0]),
        }
        aggs = {
            "hist": {"histogram": {"field": "h", "interval": 10.0}},
            "sum_b": {"sum": {"field": "b"}},
        }
        out = finalize(aggs, compute_partial(aggs, batch))
        assert out["sum_b"]["value"] == pytest.approx(10.0)


class TestMetricMissingDatetime:
    def test_datetime_missing_substitution(self):
        from tantivy_ray.aggregations import compute_partial, finalize

        col = np.array(["2024-01-01", "NaT", "2024-01-03"],
                       dtype="datetime64[s]")
        batch = {"ts": col}
        aggs = {"mn": {"min": {"field": "ts",
                               "missing": "2023-12-31T00:00:00"}}}
        part = compute_partial(aggs, batch)
        out = finalize(aggs, part)
        # the missing value becomes the minimum (epoch seconds)
        expected = np.datetime64("2023-12-31T00:00:00").astype(
            "datetime64[s]").astype(np.int64)
        assert out["mn"]["value"] == pytest.approx(float(expected))


@pytest.mark.usefixtures("ray_session")
class TestWriterDeleteOpstampOrdering:
    def test_delete_all_then_add_survives(self, tmp_path):
        from tantivy_ray.search import IndexSearcher
        from tantivy_ray.sources.writer import IndexWriter

        p = str(tmp_path / "ix")
        w = IndexWriter(p, text_col="text", id_col="url",
                        docs_per_segment=100)
        w.add_document({"url": "a", "text": "old cat"})
        w.add_document({"url": "b", "text": "old dog"})
        w.delete_all_documents()
        w.add_document({"url": "c", "text": "new cat"})
        w.commit()
        s = IndexSearcher(p)
        hits = s.search(["cat"], "or", 10)
        assert len(hits) == 1  # only the post-delete doc
        assert s.search(["old"], "or", 10) == []
        assert s.search(["new"], "or", 10) != []

    def test_delete_by_term_then_add_same_term(self, tmp_path):
        from tantivy_ray.search import IndexSearcher
        from tantivy_ray.sources.writer import IndexWriter

        p = str(tmp_path / "ix2")
        w = IndexWriter(p, text_col="text", id_col="url",
                        docs_per_segment=100)
        w.add_document({"url": "a", "text": "cat one"})
        w.delete_by_term("cat")
        w.add_document({"url": "b", "text": "cat two"})
        w.commit()
        s = IndexSearcher(p)
        hits = s.search(["cat"], "or", 10)
        assert len(hits) == 1
        assert s.search(["two"], "or", 10) != []
        assert s.search(["one"], "or", 10) == []

    def test_delete_by_query_ordering(self, tmp_path):
        from tantivy_ray.search import IndexSearcher
        from tantivy_ray.search.query import TermQuery
        from tantivy_ray.sources.writer import IndexWriter

        p = str(tmp_path / "ix3")
        w = IndexWriter(p, text_col="text", id_col="url",
                        docs_per_segment=100)
        w.add_document({"url": "a", "text": "ant bee"})
        w.delete_by_query(TermQuery("bee"))
        w.add_document({"url": "b", "text": "bee fly"})
        w.commit()
        s = IndexSearcher(p)
        assert len(s.search(["bee"], "or", 10)) == 1
        assert s.search(["ant"], "or", 10) == []


class TestFieldScopedFuzzyRejected:
    def test_non_primary_fuzzy_raises(self):
        from tantivy_ray.search.queryparser import QueryParser

        p = QueryParser(default_fields=["body", "title"])
        with pytest.raises(ValueError, match="fuzzy"):
            p.parse("title:foo~1")

    def test_primary_field_fuzzy_ok(self):
        from tantivy_ray.search.queryparser import QueryParser
        from tantivy_ray.search.query import FuzzyTermQuery

        p = QueryParser(default_fields=["body", "title"])
        q = p.parse("body:foo~1")
        assert isinstance(q, FuzzyTermQuery)
        q2 = p.parse("foo~1")
        assert isinstance(q2, FuzzyTermQuery)


class TestArrowNativeHotPaths:
    def test_no_pandas_batch_format_in_index_or_search_pipeline(self):
        """VERDICT r4 weak item 2: the merge explode and searcher-actor
        stages must be Arrow-native — no batch_format="pandas" anywhere
        under index/ or in the search pipeline, and no pandas import
        under index/, search/ or in the search pipeline."""
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parents[1] / "tantivy_ray"
        for p in (root / "index").glob("*.py"):
            assert 'batch_format="pandas"' not in p.read_text(), p.name
        src = (root / "pipelines" / "search_pipeline.py").read_text()
        assert 'batch_format="pandas"' not in src
        paths = [*(root / "index").rglob("*.py"),
                 *(root / "search").rglob("*.py"),
                 root / "pipelines" / "search_pipeline.py"]
        assert len(paths) > 10
        imports_pandas = re.compile(r"^\s*(import|from) pandas\b", re.M)
        for p in paths:
            assert not imports_pandas.search(p.read_text()), p


@pytest.mark.usefixtures("ray_session")
class TestSegmentGarbageCollection:
    """VERDICT r4 missing item 3: directory GC after compaction +
    rollback cleanup, with a live reader generation serving through the
    swap (reference segment_updater.rs GC + reader/warming.rs)."""

    def _build(self, path, n_segs=8):
        from tantivy_ray.sources.writer import IndexWriter

        w = IndexWriter(path, text_col="text", id_col="url",
                        docs_per_segment=4,
                        fast_fields=["text"])  # compaction needs text
        words = ["cat", "dog", "fox", "owl", "ant", "bee", "elk", "yak"]
        for i in range(4 * n_segs):
            w.add_document({"url": f"u{i}",
                            "text": f"{words[i % 8]} common token{i}"})
        w.commit()
        return w

    def test_compact_removes_old_dirs_live_reader_survives(self, tmp_path):
        import os

        from tantivy_ray.index.compaction import (LogMergePolicy, compact,
                                                  garbage_collect)
        from tantivy_ray.index.manifest import load_manifest
        from tantivy_ray.search.pool import SearcherPool

        p = str(tmp_path / "gcix")
        self._build(p)
        pool = SearcherPool(p, size=1)
        pool.warm()
        try:
            before = pool.search_batch([(0, ["common"], "or", 40)])
            assert before.num_rows == 32
            res = compact(p, LogMergePolicy(min_num_segments=4))
            assert res["new_segments"]
            # old dirs physically gone after the atomic swap
            live = {s["segment_ord"] for s in load_manifest(p).segments}
            on_disk = {int(d.split("-")[1]) for d in os.listdir(p)
                       if d.startswith("seg-")}
            assert on_disk == live
            for g in res["merged_groups"]:
                for o in g:
                    assert not os.path.exists(
                        os.path.join(p, f"seg-{o:05d}"))
            # the OLD generation still serves (mmap holds the inodes)
            again = pool.search_batch([(0, ["common"], "or", 40)])
            assert again.num_rows == 32
            # reload swaps to the compacted generation; same results
            pool.reload()
            after = pool.search_batch([(0, ["common"], "or", 40)])
            assert after.num_rows == 32
            # nothing left for GC
            assert garbage_collect(p) == []
        finally:
            pool.close()

    def test_gc_reaps_crash_orphans_not_uncommitted(self, tmp_path):
        import json
        import os

        from tantivy_ray.index.compaction import garbage_collect
        from tantivy_ray.index.manifest import load_manifest

        p = str(tmp_path / "gcix2")
        self._build(p, n_segs=4)
        man = load_manifest(p)
        # simulate a crash between manifest swap and cleanup: drop seg 0
        # from the manifest but leave its dir on disk
        mp = os.path.join(p, "manifest.json")
        d = json.load(open(mp))
        d["segments"] = [s for s in d["segments"]
                         if s["segment_ord"] != 0]
        json.dump(d, open(mp, "w"))
        orphan = os.path.join(p, "seg-00000")
        # and a writer's flushed-but-uncommitted segment (higher ord)
        import shutil
        uncommitted = os.path.join(p, "seg-00099")
        shutil.copytree(os.path.join(p, "seg-00001"), uncommitted)
        removed = garbage_collect(p)
        assert removed == [orphan]
        assert not os.path.exists(orphan)
        assert os.path.exists(uncommitted)  # protected by default
        removed2 = garbage_collect(p, include_uncommitted=True)
        assert removed2 == [uncommitted]
        assert not os.path.exists(uncommitted)

    def test_rollback_reaps_flushed_segments(self, tmp_path):
        import os

        from tantivy_ray.index.manifest import load_manifest
        from tantivy_ray.search import IndexSearcher
        from tantivy_ray.sources.writer import IndexWriter

        p = str(tmp_path / "gcix3")
        w = IndexWriter(p, text_col="text", id_col="url",
                        docs_per_segment=2)
        w.add_document({"url": "a", "text": "keep me"})
        w.add_document({"url": "b", "text": "keep too"})
        w.commit()
        # flush-inducing adds, then rollback: dirs must disappear
        for i in range(4):
            w.add_document({"url": f"x{i}", "text": "drop this"})
        assert len(os.listdir(p)) > 2  # flushed segment dirs exist
        w.rollback()
        seg_dirs = [d for d in os.listdir(p) if d.startswith("seg-")]
        assert len(seg_dirs) == 1  # only the committed segment remains
        w.add_document({"url": "c", "text": "after rollback"})
        m = w.commit()
        assert sum(s["num_docs"] for s in m.segments) == 3
        s = IndexSearcher(p)
        assert s.search(["drop"], "or", 10) == []
        assert len(s.search(["keep"], "or", 10)) == 2
        assert len(s.search(["after"], "or", 10)) == 1


class TestMultivaluedAggregations:
    """VERDICT r4 missing item 2: aggregations over list<T> fast fields
    (reference columnar Multivalued, columnar/src/lib.rs:83-92; unique
    (doc,value) counting per block_accessor.rs:95)."""

    def _batch(self):
        return {
            "tags": np.array([np.array(["a", "b"]),
                              np.array(["b", "b"]),     # dup in one doc
                              None,
                              np.array([], dtype=str),
                              np.array(["a"])], dtype=object),
            "v": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }

    def test_terms_unique_per_doc_with_subagg(self):
        from tantivy_ray.aggregations import compute_partial, finalize, merge_partials

        aggs = {"t": {"terms": {"field": "tags"},
                      "aggs": {"s": {"sum": {"field": "v"}}}}}
        b = self._batch()
        p1 = compute_partial(aggs, {k: v[:3] for k, v in b.items()})
        p2 = compute_partial(aggs, {k: v[3:] for k, v in b.items()})
        out = finalize(aggs, merge_partials(aggs, p1, p2))
        bk = {x["key"]: x for x in out["t"]["buckets"]}
        assert bk["a"]["doc_count"] == 2      # docs 0 and 4
        assert bk["b"]["doc_count"] == 2      # docs 0 and 1 (dup once)
        assert bk["a"]["s"]["value"] == 6.0   # v of docs 0+4
        assert bk["b"]["s"]["value"] == 3.0   # v of docs 0+1

    def test_terms_missing_key(self):
        from tantivy_ray.aggregations import compute_partial, finalize

        aggs = {"t": {"terms": {"field": "tags", "missing": "NONE"}}}
        out = finalize(aggs, compute_partial(aggs, self._batch()))
        bk = {x["key"]: x["doc_count"] for x in out["t"]["buckets"]}
        assert bk == {"a": 2, "b": 2, "NONE": 2}  # None + empty list

    def test_cardinality_and_metric_flatten(self):
        from tantivy_ray.aggregations import compute_partial, finalize

        aggs = {"c": {"cardinality": {"field": "tags"}},
                "n": {"value_count": {"field": "nums"}},
                "s": {"sum": {"field": "nums"}}}
        batch = {
            "tags": self._batch()["tags"],
            "nums": np.array([np.array([1.0, 2.0]), np.array([3.0]),
                              None, np.array([]), np.array([4.0])],
                             dtype=object),
        }
        out = finalize(aggs, compute_partial(aggs, batch))
        assert out["c"]["value"] == 2          # {a, b}
        assert out["n"]["value"] == 4          # every VALUE counts
        assert out["s"]["value"] == 10.0

    def test_scalar_columns_unaffected(self):
        from tantivy_ray.aggregations import compute_partial, finalize

        aggs = {"t": {"terms": {"field": "k"}}}
        out = finalize(aggs, compute_partial(
            aggs, {"k": np.array(["x", "y", "x"], dtype=object)}))
        bk = {x["key"]: x["doc_count"] for x in out["t"]["buckets"]}
        assert bk == {"x": 2, "y": 1}


class TestVectorizedDedupKernels:
    """Round-5 vectorization parity: the python-loop bucket/fingerprint
    paths were replaced with segment_pairs / popcount64 / arrow-native
    fingerprinting — these pin the new kernels to the old semantics."""

    def test_segment_pairs_matches_triu(self):
        import numpy as np

        from tantivy_ray.dedup.hashing import segment_pairs

        rng = np.random.RandomState(3)
        sizes = rng.randint(0, 7, size=50)
        starts = np.cumsum(sizes) - sizes
        ends = starts + sizes
        ii, jj = segment_pairs(starts, ends)
        expect = []
        for s, e in zip(starts, ends):
            iu, ju = np.triu_indices(e - s, k=1)
            expect.extend(zip((iu + s).tolist(), (ju + s).tolist()))
        assert list(zip(ii.tolist(), jj.tolist())) == expect

    def test_popcount64_matches_python(self):
        import numpy as np

        from tantivy_ray.dedup.hashing import popcount64

        rng = np.random.RandomState(5)
        x = rng.randint(0, 2**63, size=200).astype(np.uint64)
        x[:3] = [0, 1, 2**64 - 1]
        got = popcount64(x)
        assert got.tolist() == [bin(int(v)).count("1") for v in x]

    def test_simhash_analyzed_fingerprints_match_batch_path(self):
        import numpy as np
        import pyarrow as pa

        from tantivy_ray.dedup.simhash import SimHasher

        rng = np.random.RandomState(11)
        vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
        token_lists = []
        for n in [0, 1, 2, 3, 4, 9, 40, 2, 0, 17]:
            token_lists.append(
                [vocab[i] for i in rng.randint(0, len(vocab), size=n)])
        hasher = SimHasher()
        tokens = pa.array(token_lists, type=pa.list_(pa.string()))
        got = hasher.fingerprints_from_analyzed(tokens)
        # fingerprints_batch zero-fills empty docs; the analyzed path too
        want = hasher.fingerprints_batch(token_lists)
        assert got.tolist() == want.tolist()

    def test_piece_pair_tables_cover_all_close_pairs(self):
        """Pigeonhole property of the Manku piece-pair banding: any two
        fingerprints within hamming distance k share at least one of the
        C(k+2, 2) piece-pair bucket keys."""
        from itertools import combinations

        import numpy as np

        from tantivy_ray.dedup.hashing import popcount64
        from tantivy_ray.dedup.simhash import _piece_layout

        rng = np.random.RandomState(7)
        for k in [0, 1, 3, 10]:
            n_pieces = k + 2
            widths, offsets = _piece_layout(n_pieces)
            combos = list(combinations(range(n_pieces), 2))

            def keys_of(fp):
                pieces = [(fp >> np.uint64(offsets[p]))
                          & np.uint64((1 << widths[p]) - 1)
                          for p in range(n_pieces)]
                return {(t, int(pieces[p]), int(pieces[q]))
                        for t, (p, q) in enumerate(combos)}

            for _ in range(40):
                a = np.uint64(rng.randint(0, 2**63))
                flips = rng.choice(64, size=rng.randint(0, k + 1),
                                   replace=False)
                b = a
                for f in flips:
                    b = np.uint64(b ^ np.uint64(1 << int(f)))
                d = int(popcount64(np.array([a ^ b]))[0])
                assert d <= k
                assert keys_of(a) & keys_of(b), (k, d)

    def test_simhash_pairs_guards_and_small_k(self, ray_session):
        """k=0 degenerates to one full-64-bit table (exact-dup pairs
        only); out-of-range k raises."""
        import pyarrow as pa
        import pytest
        import ray.data as rd

        from tantivy_ray.dedup.simhash import simhash_pairs

        tbl = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array([
                "alpha beta gamma delta epsilon",
                "alpha beta gamma delta epsilon",
                "totally different words here now",
                "yet another unrelated document text",
            ]),
        })
        ds = rd.from_arrow(tbl)
        out = simhash_pairs(ds, max_distance=0)
        assert out.to_pydict() == {"id_a": [1], "id_b": [2],
                                   "distance": [0]}
        with pytest.raises(ValueError):
            simhash_pairs(ds, max_distance=63)

    def test_simhash_pairs_match_bruteforce_random(self, ray_session):
        """Full-pipeline recall-exactness of the piece-pair banding: on a
        random mutated corpus, simhash_pairs equals brute-force all-pairs
        popcount over the same fingerprints (banding may only prune, and
        the pigeonhole guarantees it prunes nothing within distance k)."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from tantivy_ray.analyzer import get_analyzer
        from tantivy_ray.dedup.hashing import popcount64
        from tantivy_ray.dedup.simhash import SimHasher, simhash_pairs

        rng = np.random.RandomState(23)
        vocab = [f"w{i}" for i in range(300)]
        texts = []
        for i in range(80):
            base = [vocab[j] for j in rng.randint(0, 300, size=30)]
            texts.append(" ".join(base))
            if i % 3 == 0:  # planted near-dup: mutate a couple tokens
                mut = list(base)
                for p in rng.choice(30, size=2, replace=False):
                    mut[p] = vocab[rng.randint(0, 300)]
                texts.append(" ".join(mut))
        ids = list(range(1, len(texts) + 1))
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts)}))
        k = 10
        got = simhash_pairs(ds, max_distance=k)
        got_set = set(zip(got.column("id_a").to_pylist(),
                          got.column("id_b").to_pylist(),
                          got.column("distance").to_pylist()))
        # independent brute force over the same analyzer+fingerprints
        an = get_analyzer("default")
        hasher = SimHasher()
        fps = np.array(
            [hasher.fingerprint([tok.text for tok in an.analyze(t)])
             for t in texts], dtype=np.uint64)
        want = set()
        for i in range(len(ids)):
            d = popcount64(fps[i] ^ fps[i + 1:])
            for off in np.flatnonzero(d <= k):
                want.add((ids[i], ids[i + 1 + off], int(d[off])))
        assert got_set == want and len(want) > 10

    def test_minhash_candidate_cap_switches_to_join_path(self, ray_session):
        """candidate_broadcast_cap=0 forces the reduce-side-join verify;
        output must be identical to the fused broadcast path."""
        import ray.data as rd

        from tantivy_ray.dedup import minhash_lsh_pairs

        def docs():
            return rd.read_parquet(
                "/root/testdata/sf0.001/documents.parquet",
                columns=["doc_id", "text"], override_num_blocks=3)

        fused = minhash_lsh_pairs(docs(), threshold=0.8)
        joined = minhash_lsh_pairs(docs(), threshold=0.8,
                                   candidate_broadcast_cap=0)
        assert fused.equals(joined)
        assert fused.num_rows > 0

    def test_minhash_oph_hybrid_matches_affine(self, ray_session):
        """The OPH long-document path (one-pass signatures + strided
        bands + the sparse-doc affine family) must produce the same
        verified pair set as the classic affine path."""
        import ray.data as rd

        from tantivy_ray.dedup import minhash_lsh_pairs

        def docs():
            return rd.read_parquet(
                "/root/testdata/sf0.001/documents.parquet",
                columns=["doc_id", "text"], override_num_blocks=3)

        aff = minhash_lsh_pairs(docs(), threshold=0.8,
                                sig_method="affine")
        oph = minhash_lsh_pairs(docs(), threshold=0.8, sig_method="oph")
        assert aff.equals(oph)
        assert aff.num_rows > 0

    def test_oph_kernel_tracks_jaccard(self):
        """oph_min_hash bin-agreement approximates jaccard on dense
        random sets (the estimator contract banding relies on)."""
        import numpy as np

        from tantivy_ray.dedup.hashing import _OPH_EMPTY, oph_min_hash

        rng = np.random.RandomState(3)

        def u64(size):
            # full-range uint64 like production SipHash values (bins
            # come from the TOP bits, so the test must cover them)
            hi = rng.randint(0, 2**32, size=size).astype(np.uint64)
            lo = rng.randint(0, 2**32, size=size).astype(np.uint64)
            return (hi << np.uint64(32)) | lo

        errs = []
        for _ in range(20):
            a = u64(600)
            keep = rng.rand(600) > 0.25
            b = np.concatenate([a[keep], u64(150)])
            hashes = np.concatenate([a, b])
            starts = np.array([0, len(a)])
            ends = np.array([len(a), len(a) + len(b)])
            sig = oph_min_hash(hashes, starts, ends, 128)
            assert (sig != _OPH_EMPTY).all()
            agree = float((sig[0] == sig[1]).mean())
            sa, sb = set(a.tolist()), set(b.tolist())
            j = len(sa & sb) / len(sa | sb)
            errs.append(abs(agree - j))
        assert np.mean(errs) < 0.06

    def test_oph_empty_and_single_docs(self):
        import numpy as np

        from tantivy_ray.dedup.hashing import _OPH_EMPTY, oph_min_hash

        h = np.array([12345], dtype=np.uint64)
        sig = oph_min_hash(h, np.array([0, 0]), np.array([0, 1]), 128)
        assert (sig[0] == _OPH_EMPTY).all()       # empty doc
        assert (sig[1] != _OPH_EMPTY).all()       # densified single
        # identical single-shingle docs → identical signatures
        h2 = np.array([777, 777], dtype=np.uint64)
        s2 = oph_min_hash(h2, np.array([0, 1]), np.array([1, 2]), 128)
        assert (s2[0] == s2[1]).all()

    def test_minhash_mult_family_matches_affine(self, ray_session):
        """The default odd-multiplier wraparound permutation family must
        produce the same verified pair set as the Mersenne affine
        family (both are exact-jaccard verified; this pins candidate
        recall equivalence on the planted-dup corpus)."""
        import ray.data as rd

        from tantivy_ray.dedup import minhash_lsh_pairs

        def docs():
            return rd.read_parquet(
                "/root/testdata/sf0.001/documents.parquet",
                columns=["doc_id", "text"], override_num_blocks=3)

        mult = minhash_lsh_pairs(docs(), threshold=0.8,
                                 sig_method="mult")
        aff = minhash_lsh_pairs(docs(), threshold=0.8,
                                sig_method="affine")
        assert mult.equals(aff)
        assert mult.num_rows > 0
