"""Deletes: tombstones + alive filtering + physical drop at merge
(reference ARCHITECTURE.md §Deletes, src/fastfield/alive_bitset.rs)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from tantivy_ray.index import build_index, delete_by_term, load_manifest
from tantivy_ray.index.deletes import add_tombstones, read_tombstones
from tantivy_ray.index.merge import MergedIndexReader, merge_segments
from tantivy_ray.index.segment import SegmentReader, build_segment_from_table
from tantivy_ray.index.manifest import IndexManifest, write_manifest
from tantivy_ray.search import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"


class TestTombstones:
    def test_roundtrip_and_union(self, tmp_path):
        t = pa.table({"url": ["a", "b", "c"], "text": ["x", "y", "z"]})
        build_segment_from_table(t, 0, str(tmp_path))
        seg = str(tmp_path / "seg-00000")
        assert read_tombstones(seg) is None
        add_tombstones(seg, [2, 0])
        assert read_tombstones(seg).tolist() == [0, 2]
        add_tombstones(seg, [1, 2])
        assert read_tombstones(seg).tolist() == [0, 1, 2]
        r = SegmentReader(seg)
        assert r.num_deleted == 3
        assert not r.alive_mask.any()


@pytest.mark.usefixtures("ray_session")
class TestDeleteByTerm:
    @pytest.fixture()
    def idx(self, tmp_path):
        p = str(tmp_path / "ix")
        build_index(DOCS, p, id_col="doc_id", docs_per_segment=150)
        return p

    def test_delete_excludes_from_search(self, idx):
        s = IndexSearcher(idx)
        before = s.search(["dup"], "or", 50)
        assert len(before) > 0
        deleted = delete_by_term(idx, "dup")
        assert sum(deleted.values()) == len(
            set((h[1], h[2]) for h in s.search(["dup"], "or", 1000)))
        s2 = IndexSearcher(idx)  # fresh snapshot sees tombstones
        assert s2.search(["dup"], "or", 50) == []
        # other queries exclude the deleted docs but still work
        hits = s2.search(["table", "merge"], "or", 20)
        dead = {(seg, d) for seg_ord, n in deleted.items()
                for r in s2.readers if r.segment_ord == seg_ord
                for seg, d in [(seg_ord, int(x)) for x in
                               np.flatnonzero(~r.alive_mask)]}
        assert all((h[1], h[2]) not in dead for h in hits)
        # wand agrees
        assert s2.search(["table", "merge"], "or", 20, use_wand=True) == hits

    def test_stats_unchanged_until_merge(self, idx):
        s = IndexSearcher(idx)
        df_before = s.doc_freq("dup")
        delete_by_term(idx, "dup")
        s2 = IndexSearcher(idx)
        # doc_freq still counts deleted docs (reference: stats update at
        # merge, not delete)
        assert s2.doc_freq("dup") == df_before

    def test_merge_drops_deleted(self, idx, tmp_path):
        delete_by_term(idx, "dup")
        merged = str(tmp_path / "merged")
        merge_segments(idx, merged)
        r = MergedIndexReader(merged)
        assert r.postings("dup") is None or r.doc_freq("dup") == 0

    def test_query_evaluator_respects_deletes(self, idx):
        from tantivy_ray.search.query import AllQuery, TermQuery

        s = IndexSearcher(idx)
        n_all = len(s.search_query(AllQuery(), 10_000))
        delete_by_term(idx, "dup")
        s2 = IndexSearcher(idx)
        n_deleted = sum(r.num_deleted for r in s2.readers)
        assert n_deleted > 0
        assert len(s2.search_query(AllQuery(), 10_000)) == n_all - n_deleted
        assert s2.search_query(TermQuery("dup"), 10) == []


class TestDeleteByQueryAndAll:
    """Reference index_writer.rs:698 delete_query / :522
    delete_all_documents, re-expressed as per-segment Ray tasks."""

    @pytest.fixture()
    def small_ix(self, ray_session, tmp_path):
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from tantivy_ray.index.build import build_index

        rows = pd.DataFrame({
            "url": [f"u{i}" for i in range(8)],
            "text": ["red fox", "blue dog", "red dog", "green bird",
                     "red bird", "blue fox", "green dog", "red wolf"],
        })
        pq.write_table(pa.Table.from_pandas(rows, preserve_index=False),
                       str(tmp_path / "d.parquet"))
        ix = str(tmp_path / "ix")
        build_index(str(tmp_path / "d.parquet"), ix, text_col="text",
                    docs_per_segment=3)
        return ix

    def test_delete_by_query(self, small_ix):
        from tantivy_ray.index.deletes import delete_by_query
        from tantivy_ray.search import IndexSearcher
        from tantivy_ray.search.query import BooleanQuery, TermQuery

        # delete docs containing red AND (dog or wolf): u2, u7
        q = BooleanQuery(must=[TermQuery("red")],
                         should=[TermQuery("dog"), TermQuery("wolf")],
                         minimum_should_match=1)
        counts = delete_by_query(small_ix, q)
        assert sum(counts.values()) == 2
        s = IndexSearcher(small_ix)
        hits = s.search(["red"], "or", 10)
        keys = set(s.resolve_doc_keys([(h[1], h[2]) for h in hits]))
        assert keys == {"u0", "u4"} or len(hits) == 2
        # the survivors must not match dog/wolf
        assert s.search(["wolf"], "or", 10) == []
        assert len(s.search(["dog"], "or", 10)) == 2  # blue/green dogs

    def test_delete_all(self, small_ix):
        from tantivy_ray.index.deletes import delete_all_documents
        from tantivy_ray.search import IndexSearcher

        counts = delete_all_documents(small_ix)
        assert sum(counts.values()) == 8
        s = IndexSearcher(small_ix)
        assert s.search(["red"], "or", 10) == []
        assert s.search(["dog"], "or", 10) == []

    def test_writer_queued_delete_query(self, ray_session, tmp_path):
        from tantivy_ray.search.query import TermQuery
        from tantivy_ray.sources.writer import IndexWriter

        w = IndexWriter(str(tmp_path / "wix"), text_col="text",
                        id_col="url", docs_per_segment=4)
        for i, t in enumerate(["ant bee", "bee cat", "cat dog", "dog ant"]):
            w.add_document({"url": f"u{i}", "text": t})
        w.commit()
        w.delete_by_query(TermQuery("cat"))
        w.commit()
        from tantivy_ray.search import IndexSearcher

        s = IndexSearcher(str(tmp_path / "wix"))
        assert s.search(["bee"], "or", 10) != []
        assert len(s.search(["bee"], "or", 10)) == 1  # u0 only
        assert s.search(["cat"], "or", 10) == []
