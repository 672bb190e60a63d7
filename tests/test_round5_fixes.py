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
        under index/, search/ or in the search pipeline.  The minhash
        module imports no pandas and reads no Dataset through
        ``.to_pandas()``."""
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
        minhash = (root / "dedup" / "minhash.py").read_text()
        assert not imports_pandas.search(minhash)
        assert ".to_pandas()" not in minhash


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
