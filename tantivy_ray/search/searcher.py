"""Searcher — BM25 top-k over sealed segments.

Mirrors the reference's read path (SURVEY §3.2): a Searcher is an immutable
snapshot over SegmentReaders (/root/reference/src/core/searcher.rs); a query
builds one Bm25Weight per term from GLOBAL statistics (doc_freq summed over
all segments, total docs / tokens from the manifest —
/root/reference/src/query/bm25.rs:27-50), scores the segments' concatenated
doc space in one pass, and ranks with the collector's tie rule: score
descending, then (segment_ord, doc_id) ascending; the heap uses strict `>`
so the lowest DocAddress wins ties
(/root/reference/src/collector/sort_key/mod.rs:20-35).

One scorer, ``global_topk``: a candidate-sparse numpy accumulation over
the searcher's concatenated doc space.  ``use_wand`` puts block-max WAND
(wand.py) in front of it as a block filter: blocks whose score bound
cannot reach the k-th score are dropped before scoring, and the results
are identical to the unfiltered scorer (property-tested like the
reference's proptest on block_wand —
/root/reference/src/query/boolean_query/block_wand_union.rs:293-619).

Score arithmetic is f32 end-to-end; per-doc sums add term contributions in
term order (the reference's BufferedUnionScorer accumulates scorers in
order — src/query/union/buffered_union.rs:11-70).
"""

from __future__ import annotations

import os
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analyzer import get_analyzer
from ..bm25 import Bm25Weight, term_weights
from ..index.manifest import IndexManifest, load_manifest
from ..index.segment import SegmentReader, segment_dir_name
from .wand import block_filter_topk, term_blocks

TopHit = Tuple[float, int, int]  # (score_f32, segment_ord, doc_id)

# below this many total postings the sparse path always wins; above it a
# query touching >1/4 of the doc space takes one dense O(n) pass instead
# of the O(P log P) unique+sort (results identical either way)
_DENSE_CUTOVER_MIN = 4096

# decoded global posting lists an IndexSearcher keeps across queries
_FIFO_TERMS = 512


def _sparse_accumulate(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]],
    n_docs: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union-of-candidates BM25 accumulation — the default scorer's core.

    ``parts``: one ``(doc_ids ascending, f32 contributions)`` pair per
    present query term, in QUERY-TERM ORDER.  Returns ``(unique docs
    ascending, f32 score sums, per-doc match counts)``.

    Memory is O(total matched postings), never O(doc space): a rare term
    over a 10^8-doc shard touches only its own candidates, where the old
    dense ``np.zeros(n_docs)`` accumulator paid an alloc+zero+scatter over
    every doc the searcher holds per query.

    f32-exact vs that dense accumulator: each doc's contributions are
    added with sequential in-place f32 adds (``acc[idx] += sc``) in term
    order — the same op order the dense path used.  ``np.add.reduceat``
    is deliberately NOT used: it accumulates in extended precision and
    breaks bit-exact parity by 1 ulp.
    """
    parts = [p for p in parts if len(p[0])]
    if not parts:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32),
                np.empty(0, dtype=np.int32))
    if len(parts) == 1:
        docs, sc = parts[0]
        return docs, sc.astype(np.float32, copy=False), np.ones(
            len(docs), dtype=np.int32)
    total = sum(len(d) for d, _ in parts)
    if n_docs is not None and total > max(_DENSE_CUTOVER_MIN, n_docs // 4):
        # DENSE-QUERY cutover: when the candidate volume approaches the
        # doc space (stop-word-heavy queries), the O(P log P) unique+sort
        # costs more than one O(n) dense pass — and the dense accumulator
        # is then proportional to the output anyway.  Same per-doc f32 op
        # order, so results stay bit-identical to the sparse path.
        acc_d = np.zeros(n_docs, dtype=np.float32)
        cnt_d = np.zeros(n_docs, dtype=np.int32)
        for docs, sc in parts:
            acc_d[docs] += sc
            cnt_d[docs] += 1
        u = np.flatnonzero(cnt_d > 0)
        return u, acc_d[u], cnt_d[u]
    u = np.unique(np.concatenate([d for d, _ in parts]))
    acc = np.zeros(len(u), dtype=np.float32)
    cnt = np.zeros(len(u), dtype=np.int32)
    for docs, sc in parts:
        idx = np.searchsorted(u, docs)
        acc[idx] += sc
        cnt[idx] += 1
    return u, acc, cnt


def merge_topk(hits: Sequence[TopHit], k: int) -> List[TopHit]:
    """merge_fruits: sort (score desc, (seg, doc) asc), truncate k
    (reference src/collector/mod.rs:167-180)."""
    return sorted(hits, key=lambda h: (-h[0], h[1], h[2]))[:k]


def topk_hits(docs: np.ndarray, scores: np.ndarray, k: int,
              bases: np.ndarray, ords: Sequence[int]) -> List[TopHit]:
    """Exact top-k with the collector tie rule (score desc, doc asc) over
    one doc space, mapped to (score, segment_ord, local doc).

    ``bases[i]`` is the first doc of segment ``ords[i]`` in that space.
    Finds the kth-largest score, keeps everything >= it (ties included),
    then lexsorts only that slice."""
    if len(docs) > k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= kth
        docs, scores = docs[keep], scores[keep]
    order = np.lexsort((docs, -scores))[:k]
    docs = docs[order].astype(np.int64)
    seg_of = np.searchsorted(bases, docs, side="right") - 1
    return list(zip(scores[order].tolist(),
                    [ords[i] for i in seg_of.tolist()],
                    (docs - np.asarray(bases)[seg_of]).tolist()))


def global_topk(postings_of, terms: Sequence[str],
                weights: Sequence[Bm25Weight], mode: str, k: int,
                fids: np.ndarray, bases: np.ndarray, ords: Sequence[int],
                alive: Optional[np.ndarray] = None) -> List[TopHit]:
    """Candidate-sparse BM25 top-k over one concatenated doc space — the
    one exhaustive scorer of a segment, a multi-segment searcher and the
    merged index.  ``postings_of(term)`` gives (docs asc, tfs) in that
    space or None; ``fids`` are its fieldnorm ids, ``alive`` its live
    mask.  Global doc order == (segment_ord, doc_id) order, so the tie
    rule equals per-segment scoring + ``merge_topk``.

    Memory: O(matched postings) for the query — a rare term over a shard
    of 10^8 docs touches only its candidates (see ``_sparse_accumulate``)."""
    parts = []
    for term, w in zip(terms, weights):
        p = postings_of(term)
        if p is None:
            continue
        docs, tfs = p
        parts.append((docs, w.score(fids[docs], tfs)))
    if mode == "and" and len(parts) < len(terms):
        return []
    cand, scores, nmatch = _sparse_accumulate(parts, int(bases[-1]))
    if mode == "and":
        keep = nmatch == len(terms)
        cand, scores = cand[keep], scores[keep]
    if alive is not None and len(cand):
        keep = alive[cand]
        cand, scores = cand[keep], scores[keep]
    if len(cand) == 0:
        return []
    return topk_hits(cand, scores, k, bases, ords)


class IndexSearcher:
    """Snapshot searcher over a set of segments (all by default, or a shard).

    For sharded use the caller must pass global doc_freqs (the shard only
    sees its own segments); with all segments loaded, stats are exact
    locally."""

    def __init__(self, index_dir: str, segment_ords: Optional[Sequence[int]] = None,
                 manifest: Optional[IndexManifest] = None):
        self.index_dir = index_dir
        self.manifest = manifest or load_manifest(index_dir)
        ords = (
            [s["segment_ord"] for s in self.manifest.segments]
            if segment_ords is None
            else list(segment_ords)
        )
        # ascending ords are a structural invariant: global_topk's
        # tie-break needs global doc order == DocAddress order
        ords.sort()
        self.readers = [
            SegmentReader(os.path.join(index_dir, segment_dir_name(o)))
            for o in ords
        ]
        self.total_num_docs = self.manifest.total_num_docs
        self.average_fieldnorm = np.float32(
            np.float32(self.manifest.total_num_tokens)
            / np.float32(max(1, self.manifest.total_num_docs))
        )

    # --- global (cross-segment) view: the doc space global_topk scores ---
    def _global_view(self):
        """Concatenated fieldnorms/alive + segment doc-id bases, built once.

        Scoring over ONE global array replaces a python loop over hundreds
        of segments; global doc order == (segment_ord, doc_id) order, so
        tie-breaks are unchanged."""
        gv = getattr(self, "_gv", None)
        if gv is None:
            bases = np.zeros(len(self.readers) + 1, dtype=np.int64)
            for i, r in enumerate(self.readers):
                bases[i + 1] = bases[i] + r.num_docs
            fids = (np.concatenate([r.fieldnorm_ids for r in self.readers])
                    if self.readers else np.empty(0, np.uint8))
            if any(r.alive_mask is not None for r in self.readers):
                alive = np.concatenate([
                    r.alive_mask if r.alive_mask is not None
                    else np.ones(r.num_docs, dtype=bool)
                    for r in self.readers
                ])
            else:
                alive = None
            gv = self._gv = {
                "bases": bases, "fids": fids, "alive": alive, "post": {}
            }
        return gv

    def _chunk_postings(self, terms: Sequence[str]) -> Dict[str, tuple]:
        """term → (global docs int64 asc, tfs) for every present term of
        ``terms``: cached terms from the global FIFO, the rest decoded
        with ONE ``postings_many`` call per segment.  The returned map is
        the chunk's own, so the FIFO's evictions (a tail chunk has more
        distinct terms than it holds) never force a second decode."""
        gv = self._global_view()
        fifo = gv["post"]
        out = {t: fifo[t] for t in terms if t in fifo}
        missing = [t for t in terms if t not in out]
        if not missing:
            return out
        per_seg = [(r.postings_many(missing), base)
                   for r, base in zip(self.readers, gv["bases"].tolist())]
        for t in missing:
            parts = [(p[t], base) for p, base in per_seg if t in p]
            if parts:
                fifo[t] = out[t] = (
                    np.concatenate([d.astype(np.int64) + base
                                    for (d, _), base in parts]),
                    np.concatenate([tf for (_, tf), _ in parts]))
        while len(fifo) > _FIFO_TERMS:
            fifo.pop(next(iter(fifo)))
        return out

    # --- stats ---
    def doc_freq(self, term: str) -> int:
        return sum(r.doc_freq(term) for r in self.readers)

    def doc_freqs(self, terms: Sequence[str]) -> Dict[str, int]:
        return {t: self.doc_freq(t) for t in terms}

    def make_weights(
        self, terms: Sequence[str], doc_freqs: Optional[Dict[str, int]] = None,
        boosts: Optional[Sequence[float]] = None,
    ) -> List[Bm25Weight]:
        return term_weights(terms, doc_freqs or self.doc_freqs(terms),
                            self.total_num_docs, self.average_fieldnorm,
                            boosts)

    # --- queries ---
    def search(
        self,
        terms: Sequence[str],
        mode: str = "or",
        k: int = 10,
        doc_freqs: Optional[Dict[str, int]] = None,
        use_wand: bool = False,
    ) -> List[TopHit]:
        """Pre-analyzed terms → global top-k (the one-query chunk of
        ``search_many``)."""
        return self.search_many([(terms, mode, k)], doc_freqs, use_wand)[0]

    def search_many(
        self,
        queries: Sequence[Tuple[Sequence[str], str, int]],
        doc_freqs: Optional[Dict[str, int]] = None,
        use_wand: bool = False,
    ) -> List[List[TopHit]]:
        """A chunk of (terms, mode, k) queries → each query's global
        top-k; mode is "or", "and" or "phrase".

        Every distinct term gets one weight and one decode per segment
        (``_chunk_postings``); each or/and query then scores on the
        global doc space (``global_topk``), behind the block-max filter
        (``block_filter_topk``) when ``use_wand`` is set.  Phrases go
        through the query evaluator.  ``doc_freqs``: global stats for
        sharded evaluation (None = this searcher's own)."""
        from .query import PhraseQuery

        queries = [(list(t), str(m), int(k)) for t, m, k in queries]
        scored = [ts for ts, m, _ in queries if ts and m != "phrase"]
        distinct = list(dict.fromkeys(t for ts in scored for t in ts))
        weight = dict(zip(distinct, self.make_weights(distinct, doc_freqs)))
        post = self._chunk_postings(distinct)
        blocks = {t: term_blocks(self.readers, t, post[t][0],
                                 self.average_fieldnorm)
                  for t in post} if use_wand else {}
        df_of = None if doc_freqs is None else (
            lambda t: doc_freqs.get(t, 0))
        gv = self._global_view()
        ords = [r.segment_ord for r in self.readers]
        out = []
        for terms, mode, k in queries:
            if not terms:
                out.append([])
                continue
            if mode == "phrase":
                out.append(self.search_query(PhraseQuery(terms), k,
                                             doc_freq_of=df_of))
                continue
            ws = [weight[t] for t in terms]
            score = partial(global_topk, terms=terms, weights=ws, mode=mode,
                            k=k, fids=gv["fids"], bases=gv["bases"],
                            ords=ords, alive=gv["alive"])
            out.append(block_filter_topk(score, post, blocks, terms, ws,
                                         mode, k)
                       if use_wand else score(post.get))
        return out

    def search_text(self, query: str, mode: str = "or", k: int = 10,
                    use_wand: bool = False) -> List[TopHit]:
        ana = get_analyzer(self.manifest.analyzer)
        terms = [t.text for t in ana.analyze(query)]
        return self.search(terms, mode, k, use_wand=use_wand)

    def field_average_fieldnorms(self) -> Dict[str, float]:
        return self.manifest.field_average_fieldnorms()

    def resolve_doc_keys(self, pairs, id_col: str = "doc_id") -> List:
        """Original doc keys for (segment_ord, local_doc_id) pairs.

        Loads the doc-key store ONLY for segments that actually appear
        in ``pairs`` — top-k results touch a handful of segments, so the
        driver never materializes the whole corpus's key stores."""
        needed = {int(seg) for seg, _ in pairs}
        key_of = {
            r.segment_ord: r.doc_keys().column(id_col).to_numpy()
            for r in self.readers if r.segment_ord in needed
        }
        return [key_of[int(seg)][int(doc)] for seg, doc in pairs]

    def search_query(self, query, k: int = 10,
                     doc_freq_of=None) -> List[TopHit]:
        """Evaluate a Query AST (search.query) with global stats."""
        from .query import evaluate_topk

        flat = self._flat_bool_terms(query)
        if flat is not None and len(self.readers) > 1:
            # vectorized cross-segment pass for flat term booleans (the
            # python-glue per-segment evaluator loop is the many-segment
            # latency killer; the reference fans rayon tasks per segment,
            # executor.rs:32-37 — the Ray-side answer is ONE global
            # candidate-sparse pass, identical results by the existing
            # search()/search_query parity tests)
            terms, mode = flat
            return self.search(terms, mode, k,
                               doc_freqs=({t: doc_freq_of(t) for t in terms}
                                          if doc_freq_of else None))
        return evaluate_topk(
            self.readers, query, self.total_num_docs,
            self.average_fieldnorm, k,
            doc_freq_of=doc_freq_of or self.doc_freq,
            field_avgs=self.field_average_fieldnorms(),
        )

    @staticmethod
    def _flat_bool_terms(query):
        """(terms, mode) when a Query is a flat primary-field term
        disjunction/conjunction equivalent to ``search(terms, mode)``;
        None otherwise."""
        from .query import BooleanQuery, TermQuery

        if not isinstance(query, BooleanQuery) or query.must_not:
            return None
        if query.must and not query.should:
            clauses, mode = query.must, "and"
        elif query.should and not query.must \
                and query.minimum_should_match <= 1:
            clauses, mode = query.should, "or"
        else:
            return None
        if all(isinstance(c, TermQuery) and c.field is None
               for c in clauses):
            return [c.term for c in clauses], mode
        return None

    def search_phrase(self, terms: Sequence[str], k: int = 10,
                      slop: int = 0) -> List[TopHit]:
        from .query import PhraseQuery

        return self.search_query(PhraseQuery(list(terms), slop), k)

    def parse_and_search(self, query_text: str, k: int = 10) -> List[TopHit]:
        from .queryparser import QueryParser

        q = QueryParser(analyzer=self.manifest.analyzer).parse(query_text)
        return self.search_query(q, k)

    def explain(self, terms: Sequence[str], segment_ord: int, doc_id: int,
                doc_freqs: Optional[Dict[str, int]] = None) -> Dict:
        """Score explanation for one document — the reference's
        ``Query::explain`` / ``Explanation`` tree (src/query/query.rs:138,
        src/query/explanation.rs; Bm25Weight::explain bm25.rs): per-term
        idf·(k1+1) weight and tf/(tf+norm) factors, summed in term order
        with the same f32 arithmetic as ``search`` — the root ``value``
        is bit-identical to the hit's score."""
        from ..fieldnorm import FIELD_NORMS_TABLE

        reader = next(r for r in self.readers
                      if r.segment_ord == segment_ord)
        weights = self.make_weights(list(terms), doc_freqs)
        dfs = doc_freqs or self.doc_freqs(list(terms))
        fid = int(reader.fieldnorm_ids[doc_id])
        total = np.float32(0.0)
        details = []
        for term, w in zip(terms, weights):
            p = reader.postings(term)
            if p is None:
                continue
            docs, tfs = p
            i = int(np.searchsorted(docs, doc_id))
            if i >= len(docs) or int(docs[i]) != doc_id:
                continue
            tf = int(tfs[i])
            contrib = w.score(np.array([fid], dtype=np.uint8),
                              np.array([tf], dtype=np.uint32))[0]
            total = np.float32(total + contrib)
            norm = float(w.cache[fid])
            details.append({
                "value": float(contrib),
                "description": f"TermQuery, product of idf*(k1+1) and "
                               f"tf/(tf + k1*(1-b+b*|d|/avg)) for "
                               f"term={term!r}",
                "details": [
                    {"value": float(w.weight),
                     "description": f"idf*(k1+1), doc_freq={dfs.get(term, 0)}"
                                    f", total_docs={self.total_num_docs}"},
                    {"value": float(tf), "description": "term frequency"},
                    {"value": float(FIELD_NORMS_TABLE[fid]),
                     "description": f"fieldnorm (decoded, id={fid})"},
                    {"value": norm,
                     "description": "k1*(1 - b + b*fieldnorm/avg_fieldnorm)"},
                ],
            })
        return {
            "value": float(total),
            "description": "sum of term scores (BM25, f32, term order)",
            "details": details,
        }

    def hydrate(self, hits: Sequence[TopHit]):
        """(score, seg, doc) → list of dicts with the stored id column."""
        out = []
        by_seg: Dict[int, List[Tuple[int, int]]] = {}
        for i, (_, seg, doc) in enumerate(hits):
            by_seg.setdefault(seg, []).append((i, doc))
        id_col = self.manifest.id_col
        keys: Dict[int, str] = {}
        seg_of = {r.segment_ord: r for r in self.readers}
        for seg, items in by_seg.items():
            t = seg_of[seg].doc_keys()
            vals = t.column(id_col)
            for i, doc in items:
                keys[i] = vals[doc].as_py()
        for i, (score, seg, doc) in enumerate(hits):
            out.append({
                "score": score, "segment_ord": seg, "doc_id": doc,
                id_col: keys[i],
            })
        return out
