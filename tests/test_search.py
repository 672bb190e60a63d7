"""Search correctness: engine top-k vs an INDEPENDENT brute-force f32 BM25
oracle (FIXTURES.md §3 — implements exactly SURVEY §2.10 with plain python
dicts, no shared code path with the engine beyond the fieldnorm table), plus
WAND-vs-exhaustive equivalence on random corpora (reference proptest model,
src/query/boolean_query/block_wand_union.rs:293-619)."""

import math
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from tantivy_ray.analyzer import get_analyzer
from tantivy_ray.fieldnorm import FIELD_NORMS_TABLE
from tantivy_ray.index.manifest import IndexManifest, write_manifest
from tantivy_ray.index.segment import build_segment_from_table
from tantivy_ray.search import IndexSearcher


def f32(x):
    return np.float32(x)


def oracle_topk(corpus_segments, terms, mode, k):
    """Brute-force float32 BM25 with tantivy tie rules.

    corpus_segments: list of list-of-texts (one list per segment).
    Returns [(score, seg, doc)] sorted (score desc, (seg, doc) asc)."""
    ana = get_analyzer("default")
    seg_docs = [
        [Counter(t.text for t in ana.analyze(txt)) for txt in seg]
        for seg in corpus_segments
    ]
    lens = [[sum(c.values()) for c in seg] for seg in seg_docs]
    total_docs = sum(len(s) for s in seg_docs)
    total_tokens = sum(sum(l) for l in lens)
    avg = f32(f32(total_tokens) / f32(total_docs))

    def fnid(n):
        return int(np.searchsorted(FIELD_NORMS_TABLE, n, side="right")) - 1

    def decoded_norm(n):
        return int(FIELD_NORMS_TABLE[fnid(n)])

    hits = []
    for si, seg in enumerate(seg_docs):
        for di, counts in enumerate(seg):
            present = [t for t in terms if counts.get(t, 0) > 0]
            if mode == "and" and len(present) != len(terms):
                continue
            if not present:
                continue
            score = f32(0.0)
            for t in terms:  # term order, f32 accumulation
                tf = counts.get(t, 0)
                if tf == 0:
                    continue
                df = sum(
                    1
                    for s2 in seg_docs
                    for c2 in s2
                    if c2.get(t, 0) > 0
                )
                idf = f32(np.log(f32(1.0) + (f32(total_docs - df) + f32(0.5)) / (f32(df) + f32(0.5))))
                weight = f32(idf * f32(2.2))
                norm = f32(f32(1.2) * (f32(0.25) + f32(0.75) * f32(decoded_norm(lens[si][di])) / avg))
                score = f32(score + f32(weight * f32(f32(tf) / f32(f32(tf) + norm))))
            hits.append((float(score), si, di))
    hits.sort(key=lambda h: (-h[0], h[1], h[2]))
    return hits[:k]


def build_test_index(tmp_path, corpus_segments, **kw):
    idx = str(tmp_path / "idx")
    import os

    os.makedirs(idx, exist_ok=True)
    metas = []
    for si, seg in enumerate(corpus_segments):
        t = pa.table({
            "url": [f"s{si}d{i}" for i in range(len(seg))],
            "text": seg,
        })
        metas.append(build_segment_from_table(t, si, idx, **kw))
    write_manifest(idx, IndexManifest(segments=metas))
    return idx


CORPUS = [
    [
        "the quick brown fox jumps over the lazy dog",
        "quick brown foxes are quick and quick",
        "lazy dogs sleep all day long under the warm sun of summer",
        "fox",
        "dog dog dog dog",
        "a b c d e f g h i j k l m n o p q r s t",
    ],
    [
        "the fox and the dog are friends forever in the forest",
        "nothing matches here at all",
        "quick",
        "dog fox dog fox dog fox",
        "brown brown brown quick quick dog",
    ],
]

QUERIES = [
    (["fox"], "or", 5),
    (["quick"], "or", 3),
    (["fox", "dog"], "or", 5),
    (["quick", "brown", "fox"], "or", 10),
    (["fox", "dog"], "and", 5),
    (["the", "quick"], "and", 10),
    (["zzz"], "or", 5),            # absent term
    (["fox", "zzz"], "or", 5),     # partial absent
    (["fox", "zzz"], "and", 5),    # AND with absent term → empty
    (["dog"], "or", 2),            # fewer than matches → tie/tiebreak path
]


@pytest.fixture(scope="module")
def built_index(tmp_path_factory):
    return build_test_index(tmp_path_factory.mktemp("ix"), CORPUS)


class TestTopKParity:
    @pytest.mark.parametrize("terms,mode,k", QUERIES)
    def test_vs_oracle(self, built_index, terms, mode, k):
        s = IndexSearcher(built_index)
        got = s.search(terms, mode, k)
        exp = oracle_topk(CORPUS, terms, mode, k)
        assert [(g[1], g[2]) for g in got] == [(e[1], e[2]) for e in exp]
        for g, e in zip(got, exp):
            assert g[0] == pytest.approx(e[0], abs=0), (g, e)  # exact f32

    @pytest.mark.parametrize("terms,mode,k", QUERIES)
    def test_wand_matches_exhaustive(self, built_index, terms, mode, k):
        s = IndexSearcher(built_index)
        assert s.search(terms, mode, k, use_wand=True) == s.search(terms, mode, k)

    def test_search_text(self, built_index):
        s = IndexSearcher(built_index)
        assert s.search_text("Quick, BROWN fox!") == s.search(
            ["quick", "brown", "fox"]
        )

    def test_hydrate(self, built_index):
        s = IndexSearcher(built_index)
        hits = s.search(["fox"], "or", 3)
        rows = s.hydrate(hits)
        assert all(r["url"].startswith("s") for r in rows)
        assert rows[0]["score"] == hits[0][0]


class TestWandProperty:
    """Random corpora: WAND must be rank-identical to exhaustive."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpus(self, tmp_path, seed):
        rs = np.random.RandomState(seed)
        vocab = [f"w{i}" for i in range(30)]
        zipf_p = 1.0 / np.arange(1, 31)
        zipf_p /= zipf_p.sum()
        n_segments = rs.randint(1, 4)
        corpus = []
        for _ in range(n_segments):
            seg = []
            # up to ~600 docs/segment: head-term posting lists span several
            # 128-doc blocks, covering pending+block window interleavings
            # (a wrongful-prune bug hid below one block per term)
            for _ in range(rs.randint(5, 600)):
                ln = rs.randint(1, 60)
                seg.append(" ".join(rs.choice(vocab, size=ln, p=zipf_p)))
            corpus.append(seg)
        idx = build_test_index(tmp_path, corpus)
        s = IndexSearcher(idx)
        for qn in range(8):
            nt = rs.randint(1, 4)
            terms = list(rs.choice(vocab, size=nt, replace=False))
            k = int(rs.randint(1, 15))
            exh = s.search(terms, "or", k)
            wand = s.search(terms, "or", k, use_wand=True)
            assert wand == exh, (seed, qn, terms, k)
            # and against the oracle
            exp = oracle_topk(corpus, terms, "or", k)
            assert [(g[1], g[2]) for g in exh] == [(e[1], e[2]) for e in exp]
            for g, e in zip(exh, exp):
                assert g[0] == e[0], (seed, terms, g, e)


class TestIntersectionWandProperty:
    """Block-WAND intersection vs the exhaustive AND scorer on random
    corpora — the reference's proptest strategy for the Must-conjunction
    pruner (src/query/boolean_query/block_wand_intersection.rs:335-422):
    identical (doc, score) results at every k."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpus(self, tmp_path, seed):
        rs = np.random.RandomState(1000 + seed)
        # small vocab → dense co-occurrence so intersections are non-empty;
        # head-term lists span several 128-doc blocks (block-seek paths)
        vocab = [f"w{i}" for i in range(12)]
        zipf_p = 1.0 / np.arange(1, 13)
        zipf_p /= zipf_p.sum()
        n_segments = rs.randint(1, 4)
        corpus = []
        for _ in range(n_segments):
            seg = []
            for _ in range(rs.randint(5, 600)):
                ln = rs.randint(1, 40)
                seg.append(" ".join(rs.choice(vocab, size=ln, p=zipf_p)))
            corpus.append(seg)
        idx = build_test_index(tmp_path, corpus)
        s = IndexSearcher(idx)
        for qn in range(10):
            nt = rs.randint(2, 5)
            terms = list(rs.choice(vocab, size=nt, replace=False))
            k = int(rs.randint(1, 15))
            exh = s.search(terms, "and", k)
            wand = s.search(terms, "and", k, use_wand=True)
            assert wand == exh, (seed, qn, terms, k)
            exp = oracle_topk(corpus, terms, "and", k)
            assert [(g[1], g[2]) for g in wand] == [(e[1], e[2]) for e in exp]
            for g, e in zip(wand, exp):
                assert g[0] == e[0], (seed, terms, g, e)

    def test_adversarial_tf_skew(self, tmp_path):
        """One doc with a huge tf at the very end of a long list — the
        threshold must not prune the late block (bound correctness)."""
        rs = np.random.RandomState(7)
        seg = ["alpha beta " + " ".join(rs.choice(["alpha", "beta", "pad"],
                                                  size=20).tolist())
               for _ in range(500)]
        seg.append("alpha " * 50 + "beta " * 50)  # late high-scorer
        idx = build_test_index(tmp_path, [seg])
        s = IndexSearcher(idx)
        for k in (1, 3, 10, 50):
            assert (s.search(["alpha", "beta"], "and", k, use_wand=True)
                    == s.search(["alpha", "beta"], "and", k))


class TestWandSkewedSegments:
    """WAND vs exhaustive on indexes whose segment-local average fieldnorms
    are far from the global one: a segment of 1-3-token docs next to a
    segment of 60-250-token docs.  Each stored block-max pair was chosen
    under its segment's own average, but queries score it under the global
    average, so the query-time block bound must hold under both."""

    @staticmethod
    def _searcher(tmp_path, seed):
        rs = np.random.RandomState(seed)
        vocab = [f"w{i}" for i in range(20)]
        zipf_p = 1.0 / np.arange(1, 21)
        zipf_p /= zipf_p.sum()
        corpus = [
            [" ".join(rs.choice(vocab, size=rs.randint(lo, hi + 1),
                                p=zipf_p))
             for _ in range(rs.randint(200, 600))]
            for lo, hi in ((1, 3), (60, 250))
        ]
        return rs, vocab, IndexSearcher(build_test_index(tmp_path, corpus))

    @pytest.mark.parametrize("mode", ["or", "and"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_queries(self, tmp_path, seed, mode):
        rs, vocab, s = self._searcher(tmp_path, seed)
        for qn in range(60):
            terms = list(rs.choice(vocab, size=rs.randint(1, 4),
                                   replace=False))
            k = int(rs.randint(1, 15))
            assert (s.search(terms, mode, k, use_wand=True)
                    == s.search(terms, mode, k)), (seed, qn, terms, k)

    @pytest.mark.parametrize("seed", range(3))
    def test_block_bounds_hold(self, tmp_path, seed):
        """Every block's bound is at least the best global score of its
        postings."""
        from tantivy_ray.search.wand import _ROUND_UP, term_blocks

        _, vocab, s = self._searcher(tmp_path, seed)
        gv = s._global_view()
        post = s._chunk_postings(vocab)
        n_blocks = 0
        for t, w in zip(vocab, s.make_weights(vocab)):
            if t not in post:
                continue
            docs, tfs = post[t]
            start, _, _, _, factor = term_blocks(s.readers, t, docs,
                                                 s.average_fieldnorm)
            best = np.maximum.reduceat(w.score(gv["fids"][docs], tfs), start)
            assert (w.weight * factor * _ROUND_UP >= best).all(), t
            n_blocks += len(start)
        assert n_blocks > 50

    def test_short_segment_top_hit(self, tmp_path):
        """Seed 5, ["w0"], k=4: the top hit sits in a block whose
        segment-local bound is below its global score."""
        _, _, s = self._searcher(tmp_path, 5)
        exh = s.search(["w0"], "or", 4)
        assert s.search(["w0"], "or", 4, use_wand=True) == exh
        assert s.search(["w0"], "and", 4, use_wand=True) == exh
