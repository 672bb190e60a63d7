"""Block-max WAND as an exact block filter in front of the exhaustive scorer.

Per 128-doc block the skip entry stores the (fieldnorm_id, tf) pair that
maximizes the SEGMENT-LOCAL tf factor (reference
src/postings/serializer.rs:404-428); the reference scores that pair with
the query's weight as the block's bound (src/query/bm25.rs:184-186).
Queries here score with the GLOBAL average fieldnorm, under which the
stored pair need not be the block's best, so ``term_blocks`` widens it
into a bound that holds under both averages.

Instead of a document- or window-at-a-time cursor (reference
block_wand_union.rs), ``block_filter_topk`` prunes whole blocks in a few
array passes and hands the surviving postings to the one exhaustive
kernel, ``searcher.global_topk``:

1. cut the doc space at every block edge; a piece's upper bound is the
   f32 sum, in query-term order, of the bounds of the blocks covering it
   (f32 addition is monotone and the exhaustive scorer adds the same
   terms in the same order, so no doc scores above its piece's bound);
2. each block's bound becomes the max over its pieces;
3. θ is the k-th score over the highest-bound blocks — scoring any block
   subset gives a lower bound on the true k-th score, and the best
   blocks give one close to it;
4. the final top-k scores every block whose bound is ≥ θ.

Every doc of the true top-k keeps all its postings, so its score is
exact; any other doc scores at most its full score.  The result equals
the exhaustive one, ties included (the property tests in
tests/test_search.py hold it to that, as the reference's proptest does —
block_wand_union.rs:293-619).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..bm25 import ONE, Bm25Weight, compute_tf_cache
from ..index.compression import COMPRESSION_BLOCK_SIZE, gather_ranges
from ..index.segment import SegmentReader

# The bound below is exact in real arithmetic; its f32 evaluation (the
# cache entries, the divide by m, the weight product) and the scorer's own
# f32 rounding can each move a value by a few ulps.  2^-18 is 64 ulps of
# f32: far above that error, far below any score gap that matters.
_ROUND_UP = np.float32(1.0 + 2.0 ** -18)

# (start, end, first doc, last doc, tf-factor bound) per block of one
# term's global posting list
Blocks = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def term_blocks(readers: Sequence[SegmentReader], term: str,
                docs: np.ndarray, avg_global: np.float32) -> Blocks:
    """The blocks of ``term``'s global posting list ``docs`` (segments
    concatenated in reader order), each with a bound on the tf factor of
    its postings under the global average.

    The cache is ``c = K1(1-B) + K1·B·L(f)/avg``, so with
    ``m = min(1, avg_local/avg_global)`` every ``c_global ≥ m·c_local``
    and each posting's global factor ``tf/(tf + c_global)`` is at most
    ``min(1, φ_local/m)``, where ``φ_local`` is the factor of the block's
    stored pair under the local cache.  A ``field\\x00term``'s pair was
    picked under its field's own average, so it gets the trivial bound 1
    (no tf factor reaches 1)."""
    starts: List[np.ndarray] = []
    factors: List[np.ndarray] = []
    off = 0
    for r in readers:
        pr = r.postings_reader(term)
        if pr is None:
            continue
        starts.append(off + COMPRESSION_BLOCK_SIZE
                      * np.arange(pr.n_blocks, dtype=np.int64))
        if "\x00" in term:
            factors.append(np.ones(pr.n_blocks, dtype=np.float32))
        else:
            # the average segment.py chose the stored pairs under
            avg_local = np.float32(r.num_tokens / max(1, r.num_docs))
            m = min(ONE, np.float32(avg_local / avg_global))
            tf = pr.wand_tf.astype(np.float32)
            phi = tf / (tf + compute_tf_cache(avg_local)[pr.wand_fid])
            factors.append(np.minimum(ONE, phi / m).astype(np.float32))
        off += pr.doc_freq
    start = np.concatenate(starts)
    end = np.append(start[1:], off)
    return start, end, docs[start], docs[end - 1], np.concatenate(factors)


def block_filter_topk(score: Callable, post: Dict[str, tuple],
                      blocks: Dict[str, Blocks], terms: Sequence[str],
                      weights: Sequence[Bm25Weight], mode: str, k: int):
    """Top-k of an or/and query through the block filter.

    ``score(postings_of)`` is the exhaustive scorer (``global_topk``
    bound to this query) over a ``term → (docs, tfs)`` lookup; ``post``
    holds each present term's global postings and ``blocks`` its
    ``term_blocks``."""
    distinct = [t for t in dict.fromkeys(terms) if t in post]
    if not distinct or (mode == "and" and len(distinct) < len(set(terms))):
        return []
    span = {}  # term → its slice of the concatenated block arrays
    n = 0
    for t in distinct:
        span[t] = slice(n, n + len(blocks[t][0]))
        n = span[t].stop
    start, end, first, last, factor = (
        np.concatenate(a) for a in zip(*(blocks[t] for t in distinct)))
    bound = np.empty(n, dtype=np.float32)
    for t, w in zip(terms, weights):
        if t in span:
            bound[span[t]] = w.weight * factor[span[t]] * _ROUND_UP

    # pieces: [edges[j], edges[j+1]); block b covers pieces [ps[b], pe[b])
    edges = np.unique(np.concatenate([first, last + 1]))
    ps = np.searchsorted(edges, first)
    pe = np.searchsorted(edges, last + 1)
    width = pe - ps
    ub = np.zeros(len(edges), dtype=np.float32)  # last slot: a sentinel
    cover = {t: gather_ranges(ps[span[t]], width[span[t]]) for t in distinct}
    for t in terms:  # query-term order, as the exhaustive scorer adds
        if t in cover:
            # one term's blocks are disjoint: no index repeats
            ub[cover[t]] += np.repeat(bound[span[t]], width[span[t]])
    if mode == "and":
        hits = np.zeros(len(edges), dtype=np.int64)
        for t in terms:
            hits[cover[t]] += 1
        ub[hits < len(terms)] = -np.inf
    ub[-1] = -np.inf
    bmax = np.maximum.reduceat(ub, np.stack([ps, pe], axis=1).ravel())[::2]

    def topk_over(sel: np.ndarray):
        sel = np.sort(sel)
        trimmed = {}
        for t in distinct:
            b = sel[(sel >= span[t].start) & (sel < span[t].stop)]
            idx = gather_ranges(start[b], end[b] - start[b])
            trimmed[t] = (post[t][0][idx], post[t][1][idx])
        return score(trimmed.get)

    # the probe: the highest-bound blocks, at least k of them (one block
    # holds one near-max doc, so fewer give a θ far below the k-th score)
    # and at least k·len(terms) postings
    order = np.argsort(-bmax, kind="stable")
    need = max(k, np.searchsorted(np.cumsum((end - start)[order]),
                                  k * len(terms)) + 1)
    if need >= n:
        return topk_over(order)
    probe = topk_over(order[:need])
    theta = probe[k - 1][0] if len(probe) >= k else -np.inf
    return topk_over(np.flatnonzero((bmax >= theta) & np.isfinite(bmax)))
