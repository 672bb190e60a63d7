"""Round-4 fixes: distributed JSON/numeric index builds (no driver-side
dataset materialization), scale proof at 2x the contract row count."""

import json
import os
import tracemalloc

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tantivy_ray.pipelines.json_fields import build_json_index, flatten_json
from tantivy_ray.search import IndexSearcher

SF = "/root/testdata/sf0.01"


@pytest.mark.usefixtures("ray_session")
class TestDistributedJsonBuild:
    def _doubled_events(self, tmp_path):
        """events.parquet at 2x contract rows, multiple row groups so the
        partition planner actually fans out."""
        t = pq.read_table(os.path.join(SF, "events.parquet"),
                          columns=["event_id", "props"])
        n = t.num_rows
        second = t.set_column(
            t.schema.get_field_index("event_id"), "event_id",
            pa.compute.add(t.column("event_id"), n))
        both = pa.concat_tables([t, second])
        d = tmp_path / "sf2x"
        d.mkdir()
        pq.write_table(both, str(d / "events.parquet"), row_group_size=2500)
        return str(d), both

    def test_multisegment_build_matches_direct(self, tmp_path):
        sf2x, both = self._doubled_events(tmp_path)
        idx = str(tmp_path / "json_ix")

        # driver RSS bound: the flatten+invert runs in workers; the
        # driver must only hold descriptors + segment metas
        tracemalloc.start()
        build_json_index(sf2x, idx, docs_per_segment=3000)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 30 * 1024 * 1024, f"driver materialized data: {peak}"

        s = IndexSearcher(idx)
        assert len(s.readers) >= 6  # 20k rows / 3k per segment
        merged = pa.concat_tables([r.term_stats_table() for r in s.readers])
        got = merged.group_by("term").aggregate([("doc_freq", "sum")])
        got = {t.as_py(): n.as_py() for t, n in
               zip(got.column("term"), got.column("doc_freq_sum"))}

        want = {}
        for raw in both.column("props").to_pylist():
            for term in set(flatten_json("props", raw)):
                want[term] = want.get(term, 0) + 1
        assert got == want

    def test_resume_skips_sealed_segments(self, tmp_path):
        sf2x, _ = self._doubled_events(tmp_path)
        idx = str(tmp_path / "json_ix_resume")
        build_json_index(sf2x, idx, docs_per_segment=3000)
        s1 = IndexSearcher(idx)
        metas = [(r.meta["segment_ord"], r.meta["num_docs"])
                 for r in s1.readers]
        # second build: every segment sealed -> pure skip, same manifest
        build_json_index(sf2x, idx, docs_per_segment=3000)
        s2 = IndexSearcher(idx)
        assert [(r.meta["segment_ord"], r.meta["num_docs"])
                for r in s2.readers] == metas


class TestStopWordLists:
    """All 13 reference-shipped stop lists (stop_word_filter/mod.rs:39-59:
    Lucene English + 12 NLTK-corpus languages) construct and match golden
    membership."""

    # (language, reference list length, known members)
    GOLDEN = [
        ("danish", 94, ["og", "jeg", "ikke", "hvad"]),
        ("dutch", 101, ["de", "van", "niet", "zij"]),
        ("finnish", 229, ["olla", "minä", "että", "ei"]),
        ("french", 154, ["au", "avec", "étée", "nous"]),
        ("german", 231, ["aber", "nicht", "über", "wir"]),
        ("hungarian", 198, ["ahogy", "nem", "még", "vagy"]),
        ("italian", 279, ["ad", "non", "perché", "noi"]),
        ("norwegian", 172, ["og", "ikke", "hva", "være"]),
        ("portuguese", 203, ["de", "não", "você", "são"]),
        ("russian", 159, ["и", "не", "что", "быть"]),
        ("spanish", 308, ["de", "no", "tendré", "están"]),
        ("swedish", 114, ["och", "inte", "vad", "vara"]),
    ]

    @pytest.mark.parametrize("lang,n,members", GOLDEN,
                             ids=[g[0] for g in GOLDEN])
    def test_membership(self, lang, n, members):
        from tantivy_ray.analyzer import StopWordFilter

        f = StopWordFilter(language=lang)
        assert len(f.words) == n
        for w in members:
            assert w in f.words, (lang, w)

    def test_code_aliases(self):
        from tantivy_ray.analyzer import StopWordFilter

        for code, lang in [("da", "danish"), ("nl", "dutch"),
                           ("fi", "finnish"), ("sv", "swedish"),
                           ("no", "norwegian"), ("pt", "portuguese"),
                           ("it", "italian"), ("hu", "hungarian")]:
            assert (StopWordFilter(language=code).words
                    == StopWordFilter(language=lang).words)

    def test_english_is_lucene_list(self):
        from tantivy_ray.analyzer import StopWordFilter

        f = StopWordFilter(language="english")
        assert len(f.words) == 33
        assert {"the", "is", "such", "will"} <= f.words

    def test_reference_doc_example(self):
        # stop_word_filter/mod.rs docstring: "the fox is crafty"
        from tantivy_ray.analyzer import StopWordFilter
        from tantivy_ray.analyzer.tokenizers import Token

        f = StopWordFilter(words=["the", "is"])
        toks = [Token(text=t, position=i, offset_from=0, offset_to=0)
                for i, t in enumerate("the fox is crafty".split())]
        assert [t.text for t in f.apply(toks)] == ["fox", "crafty"]

    def test_unknown_language_raises(self):
        from tantivy_ray.analyzer import StopWordFilter

        with pytest.raises(ValueError):
            StopWordFilter(language="klingon")


@pytest.mark.usefixtures("ray_session")
class TestNoDriverMaterialization:
    def test_no_whole_dataset_to_pandas_in_pipelines(self):
        """Pipelines must not materialize a full Dataset driver-side
        before an index build (VERDICT r3 weak items 1-2): every
        remaining .to_pandas() is on a small final result."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        for name in ("json_fields.py", "agg_queries.py"):
            src = (root / "tantivy_ray" / "pipelines" / name).read_text()
            assert ".to_pandas()" not in src, name

    def test_exact_order_statistics(self, ray_session):
        """Distributed histogram-bracket order statistics == numpy sort,
        including pathological skew that forces the heavy-bucket
        recursion and an all-equal column (VERDICT r3 item 7)."""
        import numpy as np
        import ray.data

        from tantivy_ray.aggregations import exact_order_statistics

        rng = np.random.default_rng(11)
        vals = np.concatenate([rng.normal(0, 1, 4000),
                               rng.lognormal(3, 2, 1000),
                               np.full(800, 42.0)])
        ds = ray.data.from_items(
            [{"value": float(x)} for x in vals]).repartition(8)
        ranks = [0, 1, 123, 2900, len(vals) - 1]
        out, n = exact_order_statistics(
            ds, "value", lambda n: ranks, n_bins=32, fetch_cap=100,
            max_depth=3)
        assert n == len(vals)
        sv = np.sort(vals)
        for r in ranks:
            assert out[r] == float(sv[r])

        same = ray.data.from_items([{"value": 7.5}] * 50)
        out2, n2 = exact_order_statistics(same, "value", lambda n: [0, 49])
        assert n2 == 50 and out2 == {0: 7.5, 49: 7.5}

    def test_numeric_index_distributed(self, tmp_path):
        """numeric_range_count's index build goes through build_index with
        a per-partition transform (no enc.to_pandas path left)."""
        import inspect

        from tantivy_ray.pipelines import more_queries

        src = inspect.getsource(more_queries.q_numeric_range_count)
        assert "to_pandas" not in src
        assert "transform=" in src


@pytest.mark.usefixtures("ray_session")
class TestSessionizeBoundary:
    def test_user_straddles_block(self, tmp_path):
        """sort('user_id') may split one user's rows across blocks
        (VERDICT r3 item 5): whale users + a tiny target block size force
        the split; edge users are re-aggregated through map_groups so
        results still match a per-user reference computation."""
        import numpy as np
        import pandas as pd
        from ray.data import DataContext

        from tantivy_ray.pipelines.more_queries import (
            SESSION_GAP_S, q_sessionize_events)

        rng = np.random.default_rng(3)
        rows = []
        base = 1_700_000_000
        for u, cnt in [(1, 3000), (2, 3), (3, 3000), (4, 1), (5, 1200)]:
            ts = base + np.cumsum(rng.integers(1, 4000, cnt))
            rows += [{"user_id": u, "ts": pd.Timestamp(t, unit="s")}
                     for t in ts]
        rng.shuffle(rows)
        df = pd.DataFrame(rows)
        df.to_parquet(tmp_path / "events.parquet")

        ctx = DataContext.get_current()
        old = ctx.target_max_block_size
        ctx.target_max_block_size = 16 * 1024
        try:
            res = (q_sessionize_events(str(tmp_path))
                   .to_pandas().set_index("user_id"))
        finally:
            ctx.target_max_block_size = old

        for u, g in df.groupby("user_id"):
            ts = np.sort(g["ts"].astype("int64").to_numpy() // 10**9)
            new = np.ones(len(ts), dtype=bool)
            new[1:] = (ts[1:] - ts[:-1]) > SESSION_GAP_S
            sl = np.diff(np.append(np.flatnonzero(new), len(ts)))
            r = res.loc[u]
            assert r.n_events == len(ts)
            assert r.n_sessions == int(new.sum())
            assert r.longest_session_events == int(sl.max())


class TestCrossSegmentQueryDispatch:
    """VERDICT r3 item 10: flat term booleans route through the global
    vectorized pass and stay f32/rank-identical to the per-segment
    evaluator loop."""

    @pytest.fixture(scope="class")
    def many_seg_ix(self, tmp_path_factory):
        from tantivy_ray.index.manifest import IndexManifest, write_manifest
        from tantivy_ray.index.segment import build_segment_from_table

        d = tmp_path_factory.mktemp("msix")
        words = ["fox", "dog", "quick", "brown", "lazy", "jump", "run",
                 "walk", "sleep", "eat"]
        metas = []
        rng = __import__("random").Random(11)
        doc_id = 0
        for si in range(12):  # 12 segments
            texts, ids = [], []
            for _ in range(40):
                texts.append(" ".join(rng.choice(words)
                                      for _ in range(rng.randint(3, 12))))
                ids.append(f"d{doc_id}")
                doc_id += 1
            metas.append(build_segment_from_table(
                pa.table({"url": ids, "text": texts}), si, str(d),
                record_positions=True))
        write_manifest(str(d), IndexManifest(segments=metas,
                                             record_positions=True))
        return str(d)

    def test_flat_bool_dispatch_parity(self, many_seg_ix):
        from tantivy_ray.search.query import (BooleanQuery, PhraseQuery,
                                              TermQuery, evaluate_topk)

        s = IndexSearcher(many_seg_ix)
        cases = [
            BooleanQuery(should=[TermQuery("fox"), TermQuery("dog"),
                                 TermQuery("quick")]),
            BooleanQuery(must=[TermQuery("quick"), TermQuery("brown")]),
            BooleanQuery(should=[TermQuery("lazy")]),
            BooleanQuery(must=[TermQuery("nosuchterm"), TermQuery("fox")]),
        ]
        for q in cases:
            want = evaluate_topk(
                s.readers, q, s.total_num_docs, s.average_fieldnorm, 10,
                doc_freq_of=s.doc_freq,
                field_avgs=s.field_average_fieldnorms())
            assert s.search_query(q, 10) == want
        # non-flat shapes must NOT dispatch (msm, must_not, phrases)
        assert s._flat_bool_terms(BooleanQuery(
            should=[TermQuery("fox")], must_not=[TermQuery("dog")])) is None
        assert s._flat_bool_terms(BooleanQuery(
            should=[TermQuery("fox"), TermQuery("dog")],
            minimum_should_match=2)) is None
        assert s._flat_bool_terms(
            BooleanQuery(must=[PhraseQuery(["quick", "brown"])])) is None

    def test_phrase_vectorized_matches_loop(self, many_seg_ix, tmp_path):
        """The keyed-intersection phrase kernel == the per-doc loop it
        replaced, across every segment and phrase length, up to a 70-term
        phrase over 140-token docs."""
        import numpy as np

        from tantivy_ray.index.segment import (SegmentReader,
                                               build_segment_from_table,
                                               segment_dir_name)
        from tantivy_ray.search.query import (_phrase_exact_vectorized,
                                              phrase_match_counts)

        s = IndexSearcher(many_seg_ix)
        words = ["fox", "dog", "quick", "brown", "lazy", "jump", "run"]
        long_phrase = [words[i % 7] for i in range(70)]
        broken = long_phrase[:40] + ["eat"] + long_phrase[41:]
        texts = [" ".join(long_phrase * 2), " ".join(broken + long_phrase),
                 " ".join(np.random.default_rng(4).choice(words, 140))]
        build_segment_from_table(
            pa.table({"url": ["a", "b", "c"], "text": texts}), 0,
            str(tmp_path), record_positions=True)
        long_reader = SegmentReader(str(tmp_path / segment_dir_name(0)))
        assert phrase_match_counts(long_reader, long_phrase)[1].sum() > 0
        phrases = [["quick", "brown"], ["lazy", "dog"],
                   ["fox", "fox"], ["run", "walk", "sleep"],
                   ["dog"], long_phrase]
        for r in s.readers + [long_reader]:
            for terms in phrases:
                post = [r.postings(t) for t in terms]
                if any(p is None for p in post):
                    continue
                common = post[0][0].astype(np.int64)
                for p in post[1:]:
                    common = np.intersect1d(common, p[0].astype(np.int64),
                                            assume_unique=True)
                if len(common) == 0:
                    continue
                vd, vt = _phrase_exact_vectorized(r, terms, post, common)
                # reference loop: per-doc position intersection
                pos_lists = [r.positions(t) for t in terms]
                idx = [np.searchsorted(p[0], common) for p in post]
                ld, lt = [], []
                for ci, doc in enumerate(common):
                    inter = pos_lists[0][idx[0][ci]].astype(np.int64)
                    for ti in range(1, len(terms)):
                        inter = np.intersect1d(
                            inter,
                            pos_lists[ti][idx[ti][ci]].astype(np.int64) - ti,
                            assume_unique=True)
                        if len(inter) == 0:
                            break
                    if len(inter):
                        ld.append(doc)
                        lt.append(len(inter))
                assert list(vd) == ld, terms
                assert list(vt) == lt, terms


class TestRemoteArgsProbe:
    """remote_args() must drop the env_vars runtime_env whenever default-pool
    workers can already import tantivy_ray (the env forfeits warm worker
    reuse — every Dataset stage cold-starts ~num_cpus processes otherwise),
    and keep it when they cannot."""

    def test_fast_path_in_session(self, ray_session):
        # the test session imported tantivy_ray before ray.init, so
        # workers inherit PYTHONPATH and the probe must pick the warm pool
        from tantivy_ray.utils import remote_args

        assert remote_args() == {}

    def test_conservative_when_uninitialized(self, monkeypatch):
        import ray

        from tantivy_ray import utils

        monkeypatch.setattr(ray, "is_initialized", lambda: False)
        args = utils.remote_args()
        assert "runtime_env" in args
        pp = args["runtime_env"]["env_vars"]["PYTHONPATH"]
        assert utils.package_parent_dir() in pp.split(__import__("os").pathsep)

    def test_probe_cached_per_job(self, ray_session):
        from tantivy_ray import utils

        utils.remote_args()
        assert any(utils._PROBE_CACHE.values())


class TestCorpusPrep:
    """corpus_prep chains quality features -> exact dedup keep-first ->
    filter -> per-lang stats in one streaming flow; the packed arg-min
    key must resolve lang keep-first when duplicate texts disagree."""

    def test_duplicate_lang_disagreement(self, ray_session, tmp_path):
        import duckdb
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from tantivy_ray.pipelines.corpus_prep import (
            SQL_CORPUS_PREP, q_corpus_prep)

        # same rich text (passes both filters) duplicated under three
        # langs; keep-first = doc_id 7 -> lang "de" must win
        rich = ("the quick brown fox jumped over lazy dogs while "
                "seventeen astronomers measured parallax angles during "
                "long winter evenings near observatory domes recording "
                "spectra calibrating instruments cataloguing variable "
                "stars publishing quarterly bulletins for provincial "
                "academies")
        junk = "the the the of of and and a a in in"  # stop-heavy: filtered
        tiny = "two words"                             # short: filtered
        rows = pd.DataFrame({
            "doc_id": [7, 12, 30, 41, 52],
            "text": [rich, rich, rich, junk, tiny],
            "lang": ["de", "en", "fr", "en", "en"],
            "n_chars": [len(rich), len(rich), len(rich),
                        len(junk), len(tiny)],
        })
        pq.write_table(pa.Table.from_pandas(rows, preserve_index=False),
                       str(tmp_path / "documents.parquet"))
        got = q_corpus_prep(str(tmp_path)).to_pandas()
        assert list(got["lang"]) == ["de"]
        assert int(got["n_docs"][0]) == 1

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')")
        want = con.execute(SQL_CORPUS_PREP).df()
        assert list(want["lang"]) == ["de"]
        assert got[["lang", "n_docs", "total_tokens", "total_chars"]] \
            .astype({"n_docs": "int64", "total_tokens": "int64",
                     "total_chars": "int64"}) \
            .equals(want.astype({"n_docs": "int64", "total_tokens": "int64",
                                 "total_chars": "int64"}))
