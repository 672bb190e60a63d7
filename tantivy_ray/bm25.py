"""BM25 scoring kernel — float32 end-to-end for rank identity.

Exact semantics of the reference (/root/reference/src/query/bm25.rs):
- K1 = 1.2, B = 0.75 (bm25.rs:8-9)
- idf(n, N) = ln(1 + (N - n + 0.5) / (n + 0.5)) computed in f32 (bm25.rs:52-56)
- weight = idf * (1 + K1); multi-term (phrase) weight sums the idfs first
  (bm25.rs:120-127, 159-175)
- per-doc: score = weight * tf / (tf + cache[fieldnorm_id]) where
  cache[id] = K1 * (1 - B + B * fieldnorm(id) / avg_fieldnorm), a 256-entry
  f32 table (bm25.rs:58-69, 179-193)
- avg_fieldnorm = total_num_tokens / total_num_docs as f32 (bm25.rs:109-111)
- max_score uses (fieldnorm_id=255, tf=2_013_265_944) (bm25.rs:184-186)

All arithmetic is performed in np.float32; scalar Python floats only appear
after the final cast.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Mapping, Optional, Sequence

import numpy as np

from .fieldnorm import FIELD_NORMS_TABLE

K1 = np.float32(1.2)
B = np.float32(0.75)
ONE = np.float32(1.0)


def idf(doc_freq: int, doc_count: int) -> np.float32:
    if doc_count < doc_freq:
        raise ValueError(f"doc_count {doc_count} < doc_freq {doc_freq}")
    x = (np.float32(doc_count - doc_freq) + np.float32(0.5)) / (
        np.float32(doc_freq) + np.float32(0.5)
    )
    # mirror the reference's (1.0 + x).ln() in f32: add first, then ln
    return np.log(ONE + x, dtype=np.float32)


def compute_tf_cache(average_fieldnorm: np.float32) -> np.ndarray:
    """256-entry f32 cache of K1*(1 - B + B*fieldnorm/avg), read-only and
    memoised per f32 average (every term weight of a searcher shares
    one average, so a query chunk builds its table once).

    avg <= 0 (a field with no tokens at all — nothing will ever be scored
    against it) falls back to 1.0 to keep the cache finite."""
    return _tf_cache(np.float32(average_fieldnorm))


@lru_cache(maxsize=256)
def _tf_cache(avg: np.float32) -> np.ndarray:
    if not (avg > 0):
        avg = np.float32(1.0)
    fieldnorms = FIELD_NORMS_TABLE.astype(np.float32)
    cache = (K1 * (ONE - B + B * fieldnorms / avg)).astype(np.float32)
    cache.setflags(write=False)
    return cache


class Bm25Weight:
    """Per-(query-term-set) scoring weight (reference Bm25Weight)."""

    __slots__ = ("weight", "cache", "average_fieldnorm")

    def __init__(self, idf_value: np.float32, average_fieldnorm: np.float32):
        self.weight = np.float32(idf_value) * (ONE + K1)
        self.average_fieldnorm = np.float32(average_fieldnorm)
        self.cache = compute_tf_cache(self.average_fieldnorm)

    @classmethod
    def for_one_term(cls, term_doc_freq: int, total_num_docs: int,
                     avg_fieldnorm: float) -> "Bm25Weight":
        return cls(idf(term_doc_freq, total_num_docs), np.float32(avg_fieldnorm))

    @classmethod
    def for_terms(cls, doc_freqs, total_num_docs: int,
                  avg_fieldnorm: float) -> "Bm25Weight":
        """Phrase-style weight: sum of idfs in f32 (bm25.rs:120-127)."""
        idf_sum = np.float32(0.0)
        for n in doc_freqs:
            idf_sum = np.float32(idf_sum + idf(n, total_num_docs))
        return cls(idf_sum, np.float32(avg_fieldnorm))

    def boost_by(self, boost: float) -> "Bm25Weight":
        w = Bm25Weight.__new__(Bm25Weight)
        w.weight = np.float32(self.weight * np.float32(boost))
        w.cache = self.cache
        w.average_fieldnorm = self.average_fieldnorm
        return w

    def score(self, fieldnorm_id, term_freq) -> np.ndarray:
        """Vectorized: fieldnorm_id uint8 array, term_freq uint32 array → f32."""
        tf = np.asarray(term_freq, dtype=np.float32)
        norm = self.cache[np.asarray(fieldnorm_id, dtype=np.uint8)]
        return (self.weight * (tf / (tf + norm))).astype(np.float32)

    def tf_factor(self, fieldnorm_id, term_freq) -> np.ndarray:
        tf = np.asarray(term_freq, dtype=np.float32)
        norm = self.cache[np.asarray(fieldnorm_id, dtype=np.uint8)]
        return (tf / (tf + norm)).astype(np.float32)

    def max_score(self) -> np.float32:
        return np.float32(
            self.score(np.array([255], dtype=np.uint8),
                       np.array([2_013_265_944], dtype=np.uint32))[0]
        )


def term_weights(terms: Sequence[str], doc_freqs: Mapping[str, int],
                 total_num_docs: int, avg_fieldnorm: float,
                 boosts: Optional[Sequence[float]] = None
                 ) -> List[Bm25Weight]:
    """One weight per term from a {term: doc_freq} map; a term missing
    from the map (or with df 0) is weighted as df 1.

    Every idf is computed in one f32 vector pass, bit-equal to scalar
    ``idf``: ``N - n`` is taken in integers before the f32 cast, as
    there."""
    n = np.array([max(doc_freqs.get(t, 0), 1) for t in terms], np.int64)
    if (n > total_num_docs).any():
        raise ValueError(f"doc_count {total_num_docs} < doc_freq {n.max()}")
    half = np.float32(0.5)
    x = ((total_num_docs - n).astype(np.float32) + half) / (
        n.astype(np.float32) + half)
    weights = np.log(ONE + x, dtype=np.float32) * (ONE + K1)
    avg = np.float32(avg_fieldnorm)
    cache = compute_tf_cache(avg)
    ws = []
    for i, weight in enumerate(weights.tolist()):
        w = Bm25Weight.__new__(Bm25Weight)
        w.weight, w.cache, w.average_fieldnorm = np.float32(weight), cache, avg
        if boosts is not None and boosts[i] != 1.0:
            w = w.boost_by(boosts[i])
        ws.append(w)
    return ws
