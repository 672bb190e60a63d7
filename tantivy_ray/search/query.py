"""Query AST + per-segment evaluator — the read-side operator algebra.

Re-expresses the reference's Query → Weight → per-segment Scorer inventory
(SURVEY §2.9; /root/reference/src/query/) over our segments.  Every node
evaluates to a per-segment docset (ascending int64 doc ids) + f32 scores;
the evaluator is fully vectorized (numpy set algebra) — the Ray analog of
tantivy's DocSet cursor combinators:

- TermQuery        (term_query/, BM25-scored posting list)
- BooleanQuery     (boolean_query/: Must/Should/MustNot + SumCombiner,
                    minimum_number_should_match)
- PhraseQuery      (phrase_query/phrase_scorer.rs:47-141: positions
                    intersection after docset intersection; tf = number of
                    phrase matches; weight = Σ idf, bm25.rs:120-127)
- BoostQuery / ConstScoreQuery (boost_query.rs, const_score_query.rs)
- DisjunctionMaxQuery (disjunction_max_query.rs: max + tie_breaker * rest)
- TermSetQuery     (set_query.rs: union with DoNothingCombiner → score 1.0)
- AllQuery / EmptyQuery (all_query.rs — const score 1.0 / empty_query.rs)
- RangeQuery       (range_query/: term-range union over the sorted dict)
- FuzzyTermQuery   (fuzzy_query.rs: Levenshtein distance <= d expansion,
                    optional transposition, prefix)
- RegexQuery       (regex_query.rs: regex over the term dict)
- ExistsQuery      (exist_query.rs: docs with any token in the field)
- MoreLikeThisQuery (more_like_this/: weighted term query from a document)

Scoring identities: f32 throughout; unions add child scores in child order
(SumCombiner); Must-only intersections sum all must scores; MustNot
excludes without scoring (reference Exclude docset).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bm25 import Bm25Weight
from ..index.segment import SegmentReader

DocScores = Tuple[np.ndarray, np.ndarray]  # (docs int64 asc, scores f32)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class Query:
    pass


@dataclass
class TermQuery(Query):
    term: str
    field: Optional[str] = None  # None = primary text field


@dataclass
class BooleanQuery(Query):
    must: List[Query] = field(default_factory=list)
    should: List[Query] = field(default_factory=list)
    must_not: List[Query] = field(default_factory=list)
    minimum_should_match: int = 0


@dataclass
class PhraseQuery(Query):
    terms: List[str]
    slop: int = 0
    field: Optional[str] = None


@dataclass
class BoostQuery(Query):
    query: Query
    boost: float


@dataclass
class ConstScoreQuery(Query):
    query: Query
    score: float = 1.0


@dataclass
class DisjunctionMaxQuery(Query):
    queries: List[Query]
    tie_breaker: float = 0.0


@dataclass
class TermSetQuery(Query):
    terms: List[str]
    field: Optional[str] = None


@dataclass
class AllQuery(Query):
    pass


@dataclass
class EmptyQuery(Query):
    pass


@dataclass
class RangeQuery(Query):
    lower: Optional[str] = None      # inclusive (unless include_lower=False)
    upper: Optional[str] = None      # exclusive (unless include_upper=True)
    include_upper: bool = False
    include_lower: bool = True
    field: Optional[str] = None      # None = primary text field
    # fast-field scan variant (reference range_query_fastfield.rs): when
    # the same value also lives in a columnar fast field, the evaluator
    # may scan that column with the RAW bounds instead of unioning the
    # expanded term postings — chosen when the term expansion is wider
    # than FF_SCAN_CUTOFF (term explosion on high-cardinality fields).
    fast_field: Optional[str] = None
    raw_lower: Optional[object] = None
    raw_upper: Optional[object] = None
    force_variant: Optional[str] = None   # None | "terms" | "scan"


# term-expansion width above which a RangeQuery with a fast column
# switches to the columnar scan (reference picks the fast-field variant
# whenever the field is fast; the width gate keeps narrow ranges on the
# cheaper posting union)
FF_SCAN_CUTOFF = 128


def NumericRangeQuery(field: str, lower=None, upper=None,
                      kind: str = "i64", include_upper: bool = False,
                      fast_field: Optional[str] = None
                      ) -> "RangeQuery":
    """Range over an indexed numeric/date term field (the inverted-index
    RangeQuery variant; pass ``fast_field`` naming a columnar fast field
    holding the same raw values to enable the scan variant).
    Bounds are encoded with the order-preserving codecs (index/numeric.py)."""
    from ..index.numeric import (encode_bool, encode_bytes,
                                 encode_datetime_s, encode_f64, encode_i64,
                                 encode_ip)

    enc = {"i64": encode_i64, "f64": encode_f64,
           "date": encode_datetime_s, "bool": encode_bool,
           "bytes": encode_bytes, "ip": encode_ip}[kind]
    return RangeQuery(
        lower=enc(lower) if lower is not None else None,
        upper=enc(upper) if upper is not None else None,
        include_upper=include_upper,
        field=field,
        fast_field=fast_field,
        raw_lower=lower,
        raw_upper=upper,
    )


@dataclass
class FuzzyTermQuery(Query):
    term: str
    distance: int = 1
    transposition: bool = True
    prefix: bool = False


@dataclass
class RegexQuery(Query):
    pattern: str
    field: Optional[str] = None


@dataclass
class ExistsQuery(Query):
    field: Optional[str] = None


@dataclass
class PhrasePrefixQuery(Query):
    """Phrase whose LAST term is a prefix (reference
    src/query/phrase_prefix_query/): the prefix expands to at most
    ``max_expansions`` terms from the sorted dict; a doc matches when the
    phrase matches with any expansion; tf sums matches over expansions."""

    terms: List[str]
    max_expansions: int = 50


@dataclass
class RegexPhraseQuery(Query):
    """Phrase where each position holds a regex over the term dict
    (reference src/query/phrase_query/regex_phrase_weight.rs); plain
    strings are exact terms."""

    patterns: List[str]
    slop: int = 0
    max_expansions: int = 128


@dataclass
class FastFieldFilterQuery(Query):
    """FilterCollector / fast-field range-scan analog (reference
    src/collector/filter_collector_wrapper.rs:70-145 and the fast-field
    RangeQuery variant, range_query_fastfield.rs): wraps a query and keeps
    only docs whose fast-field value passes [lower, upper) / equality."""

    query: Query
    field: str
    equals: Optional[object] = None
    lower: Optional[object] = None   # inclusive
    upper: Optional[object] = None   # exclusive


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _levenshtein_leq(a: str, b: str, k: int, transposition: bool) -> bool:
    """Damerau/Levenshtein distance <= k (banded DP)."""
    if abs(len(a) - len(b)) > k:
        return False
    la, lb = len(a), len(b)
    prev2 = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        lo = max(1, i - k)
        hi = min(lb, i + k)
        if lo > 1:
            cur[lo - 1] = k + 1
        for j in range(lo, hi + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (transposition and i > 1 and j > 1
                    and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]):
                v = min(v, prev2[j - 2] + 1)
            cur[j] = v
        if hi < lb:
            cur[hi + 1:] = [k + 1] * (lb - hi)
        if min(cur) > k:
            return False
        prev2, prev = prev, cur
    return prev[lb] <= k


def expand_fuzzy(reader: SegmentReader, q: FuzzyTermQuery) -> List[str]:
    """Levenshtein-automaton x sorted-term-dict intersection (reference
    src/query/fuzzy_query.rs:1-123: Levenshtein DFA intersected with the
    FST).  Probes O(live-trie-nodes x log V) dict entries, not O(V);
    prefix=True matches terms ANY prefix of which is within distance
    (FuzzyTermQuery::new_prefix semantics)."""
    from .automaton import LevenshteinAutomaton, intersect_sorted_terms

    aut = LevenshteinAutomaton(q.term, q.distance,
                               transposition=q.transposition,
                               prefix=q.prefix)
    arr = reader.term_array()
    return [arr[i].as_py() for i in intersect_sorted_terms(arr, aut)]


def expand_regex(reader: SegmentReader, pattern: str) -> List[str]:
    """Regex-automaton x sorted-term-dict intersection (reference
    src/query/regex_query.rs:57 intersects a tantivy-fst regex automaton
    with the term dict).  Predefined classes (\\d \\w \\s + negations,
    in-class forms) and leading (?i)/(?s) flags compile into the
    automaton; only patterns outside the compiled subset (backrefs,
    lookaround, anchors, \\b) fall back to a full-vocab scan with python
    `re` — the semantics source of truth."""
    from .automaton import (RegexAutomaton, UnsupportedRegex,
                            intersect_sorted_terms)

    try:
        aut = RegexAutomaton(pattern)
    except UnsupportedRegex:
        rx = re.compile(pattern)
        return [t for t in reader.terms() if rx.fullmatch(t)]
    arr = reader.term_array()
    return [arr[i].as_py() for i in intersect_sorted_terms(arr, aut)]


def range_width(reader: SegmentReader, q: RangeQuery) -> int:
    """Upper bound on the number of dictionary terms a RangeQuery would
    expand to — two bisects over the sorted dict, no materialization
    (drives the terms-vs-fastfield-scan variant choice)."""
    import bisect

    terms = reader.terms()
    if q.field:
        prefix = q.field + "\x00"
        lo_key = prefix + (q.lower if q.lower is not None else "")
        hi_key = (prefix + q.upper) if q.upper is not None else (
            q.field + "\x01")
        lo = bisect.bisect_left(terms, lo_key)
        hi = (bisect.bisect_right(terms, hi_key) if q.include_upper
              and q.upper is not None else bisect.bisect_left(terms, hi_key))
        return max(0, hi - lo)
    lo = bisect.bisect_left(terms, q.lower) if q.lower is not None else 0
    if q.upper is None:
        hi = len(terms)
    elif q.include_upper:
        hi = bisect.bisect_right(terms, q.upper)
    else:
        hi = bisect.bisect_left(terms, q.upper)
    return max(0, hi - lo)


def expand_range(reader: SegmentReader, q: RangeQuery) -> List[str]:
    terms = reader.terms()  # sorted
    import bisect

    if q.field:
        prefix = q.field + "\x00"
        lo_key = prefix + (q.lower if q.lower is not None else "")
        hi_key = (prefix + q.upper) if q.upper is not None else (
            q.field + "\x01")  # just past every prefixed term
        lo = (bisect.bisect_left(terms, lo_key)
              if q.include_lower or q.lower is None
              else bisect.bisect_right(terms, lo_key))
        hi = (bisect.bisect_right(terms, hi_key) if q.include_upper
              and q.upper is not None else bisect.bisect_left(terms, hi_key))
        return [t for t in terms[lo:hi] if t.startswith(prefix)]
    if q.lower is None:
        lo = 0
    elif q.include_lower:
        lo = bisect.bisect_left(terms, q.lower)
    else:
        lo = bisect.bisect_right(terms, q.lower)
    if q.upper is None:
        hi = len(terms)
    elif q.include_upper:
        hi = bisect.bisect_right(terms, q.upper)
    else:
        hi = bisect.bisect_left(terms, q.upper)
    # primary-field ranges skip field-prefixed terms ("f\x00t" interleaves
    # lexicographically with primary terms)
    return [t for t in terms[lo:hi] if "\x00" not in t]


def phrase_match_counts_multi(reader: SegmentReader,
                              term_sets: Sequence[Sequence[str]],
                              slop: int = 0) -> DocScores:
    """Generalized phrase: position i must hold ANY term of term_sets[i].

    Covers PhrasePrefixQuery (last set = prefix expansions) and
    RegexPhraseQuery (sets = regex expansions). tf = number of phrase
    start positions that complete a match (summed over alternatives)."""
    # keep only terms present; a position with no present term → no match
    present_sets: List[List[str]] = []
    for s in term_sets:
        p = [t for t in s if reader.term_ord(t) is not None]
        if not p:
            return np.empty(0, np.int64), np.empty(0, np.uint32)
        present_sets.append(p)

    # per-position union docsets
    union_docs = []
    for p in present_sets:
        parts = [reader.postings(t)[0].astype(np.int64) for t in p]
        union_docs.append(np.unique(np.concatenate(parts)))
    common = union_docs[0]
    for u in union_docs[1:]:
        common = np.intersect1d(common, u, assume_unique=True)
    if len(common) == 0:
        return common, np.empty(0, np.uint32)

    # per-(position, term) posting docs + positions
    post = {t: reader.postings(t) for p in present_sets for t in p}
    pos = {t: reader.positions(t) for p in present_sets for t in p}
    if any(v is None for v in pos.values()):
        raise ValueError("phrase query requires positions "
                         "(build with record_positions=True)")

    docs_out, tfs_out = [], []
    for doc in common:
        # union of positions per slot for this doc
        slot_positions = []
        ok = True
        for p in present_sets:
            parts = []
            for t in p:
                d = post[t][0]
                i = int(np.searchsorted(d, doc))
                if i < len(d) and d[i] == doc:
                    parts.append(pos[t][i].astype(np.int64))
            if not parts:
                ok = False
                break
            slot_positions.append(np.unique(np.concatenate(parts)))
        if not ok:
            continue
        if slop == 0:
            inter = slot_positions[0]
            for si in range(1, len(slot_positions)):
                inter = np.intersect1d(inter, slot_positions[si] - si,
                                       assume_unique=True)
                if len(inter) == 0:
                    break
            cnt = len(inter)
        else:
            cnt = 0
            for s0 in slot_positions[0]:
                if all((np.abs(slot_positions[si] - (s0 + si)) <= slop).any()
                       for si in range(1, len(slot_positions))):
                    cnt += 1
        if cnt:
            docs_out.append(int(doc))
            tfs_out.append(cnt)
    return (np.array(docs_out, dtype=np.int64),
            np.array(tfs_out, dtype=np.uint32))


def phrase_match_counts(reader: SegmentReader, terms: Sequence[str],
                        slop: int = 0) -> DocScores:
    """→ (docs, phrase_tf) for docs containing the phrase.

    slop=0: exact adjacency (positions of term i, shifted by -i, intersect).
    slop>0: every term within `slop` of its expected position, in order —
    a simplification of the reference's slop automaton documented here.
    """
    post = [reader.postings(t) for t in terms]
    if any(p is None for p in post):
        return np.empty(0, np.int64), np.empty(0, np.uint32)
    common = post[0][0].astype(np.int64)
    for p in post[1:]:
        common = np.intersect1d(common, p[0].astype(np.int64),
                                assume_unique=True)
    if len(common) == 0:
        return common, np.empty(0, np.uint32)
    if slop == 0:
        return _phrase_exact_vectorized(reader, terms, post, common)
    pos_lists = [reader.positions(t) for t in terms]
    if any(p is None for p in pos_lists):
        raise ValueError("phrase query requires positions "
                         "(build with record_positions=True)")
    # map doc -> posting ordinal per term
    idx = [np.searchsorted(p[0], common) for p in post]
    docs_out = []
    tfs_out = []
    for ci, doc in enumerate(common):
        starts = pos_lists[0][idx[0][ci]].astype(np.int64)
        cnt = 0
        for s in starts:
            ok = True
            for ti in range(1, len(terms)):
                pl = pos_lists[ti][idx[ti][ci]].astype(np.int64)
                if not ((np.abs(pl - (s + ti)) <= slop).any()):
                    ok = False
                    break
            if ok:
                cnt += 1
        if cnt:
            docs_out.append(doc)
            tfs_out.append(cnt)
    return (np.array(docs_out, dtype=np.int64),
            np.array(tfs_out, dtype=np.uint32))


def _phrase_exact_vectorized(reader: SegmentReader, terms, post,
                             common: np.ndarray) -> DocScores:
    """slop=0 phrase counting with NO per-doc python: each candidate
    doc's positions are tagged with a per-doc run id and packed into one
    int64 key (run_id << 33 | pos + len(terms) - term_offset, never
    negative whatever the phrase length), so the per-doc
    position intersections across all terms collapse into len(terms)-1
    whole-segment np.intersect1d calls; per-doc phrase tf is then a
    run-length count of the surviving keys' run ids.  Exactly equal to
    the per-doc loop it replaces (tests assert parity)."""
    inter = None
    for ti, t in enumerate(terms):
        pf = reader.positions_flat(t)
        if pf is None:
            raise ValueError("phrase query requires positions "
                             "(build with record_positions=True)")
        docs_t, tfs_t, flat, offs = pf
        idx = np.searchsorted(docs_t, common)
        starts = offs[idx]
        lens = tfs_t[idx].astype(np.int64)
        total = int(lens.sum())
        # multi-range gather of each candidate doc's position slice
        run_first = np.repeat(starts, lens)
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(np.cumsum(lens) - lens, lens))
        pos = flat[run_first + within].astype(np.int64)
        run_id = np.repeat(np.arange(len(common), dtype=np.int64), lens)
        keys = (run_id << 33) | (pos + len(terms) - ti)
        inter = keys if inter is None else np.intersect1d(
            inter, keys, assume_unique=True)
        if len(inter) == 0:
            return (np.empty(0, np.int64), np.empty(0, np.uint32))
    rid, counts = np.unique(inter >> 33, return_counts=True)
    return common[rid], counts.astype(np.uint32)


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

class QueryEvaluator:
    """Evaluates a Query against one segment with GLOBAL stats.

    ``stats`` carries total_num_docs, average_fieldnorm and a doc_freq
    callable so sharded searchers score identically to single-node ones.
    """

    def __init__(self, reader: SegmentReader, total_num_docs: int,
                 average_fieldnorm: float,
                 doc_freq_of=None,
                 field_avgs: Optional[Dict[str, float]] = None):
        self.reader = reader
        self.total_num_docs = total_num_docs
        self.average_fieldnorm = np.float32(average_fieldnorm)
        self._df = doc_freq_of or (lambda t: reader.doc_freq(t))
        self._field_avgs = field_avgs or {}
        self._weights: Dict[str, Bm25Weight] = {}

    def _avg_for(self, field: Optional[str]) -> np.float32:
        if field and field in self._field_avgs:
            return np.float32(self._field_avgs[field])
        return self.average_fieldnorm

    @staticmethod
    def _eff(term: str, field: Optional[str]) -> str:
        return term if not field else f"{field}\x00{term}"

    def _weight(self, term: str, field: Optional[str] = None
                ) -> Optional[Bm25Weight]:
        eff = self._eff(term, field)
        w = self._weights.get(eff)
        if w is None:
            df = self._df(eff)
            if df == 0:
                return None
            w = Bm25Weight.for_one_term(
                df, self.total_num_docs, self._avg_for(field))
            self._weights[eff] = w
        return w

    def _empty(self) -> DocScores:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)

    def _eval_range(self, q: RangeQuery) -> DocScores:
        """Two RangeQuery variants (reference range_query/ picks between
        the term-range union and a fast-field columnar scan,
        range_query_fastfield.rs): when the query names a fast column
        and the term expansion is wider than FF_SCAN_CUTOFF, scan the
        column with the raw bounds (vectorized compare over the dense
        per-doc values — null/NaN rows never pass); otherwise union the
        expanded posting lists.  Both produce identical const-score doc
        sets (asserted by tests + the numeric_range_count contract).
        The chosen variant is recorded in ``self.last_range_variant``."""
        use_scan = False
        if q.fast_field is not None and q.force_variant != "terms":
            try:
                names = self.reader.fast_field_names()
            except Exception:
                names = []
            if q.fast_field in names:
                use_scan = (q.force_variant == "scan" or
                            range_width(self.reader, q) > FF_SCAN_CUTOFF)
        self.last_range_variant = "scan" if use_scan else "terms"
        if not use_scan:
            return self._union_terms_const(expand_range(self.reader, q), 1.0)
        vals = self.reader.fast_field(q.fast_field)
        with np.errstate(invalid="ignore"):
            mask = np.ones(len(vals), dtype=bool)
            if q.raw_lower is not None:
                mask &= (vals >= q.raw_lower if q.include_lower
                         else vals > q.raw_lower)
            if q.raw_upper is not None:
                mask &= (vals <= q.raw_upper if q.include_upper
                         else vals < q.raw_upper)
            if q.raw_lower is None and q.raw_upper is None:
                mask &= vals == vals  # drop NaN/missing, like the dict
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.ones(len(docs), dtype=np.float32)

    def _union_terms_const(self, terms: Sequence[str], score: float) -> DocScores:
        sets = []
        for t in terms:
            p = self.reader.postings(t)
            if p is not None:
                sets.append(p[0].astype(np.int64))
        if not sets:
            return self._empty()
        docs = np.unique(np.concatenate(sets))
        return docs, np.full(len(docs), np.float32(score), dtype=np.float32)

    def evaluate(self, q: Query) -> DocScores:
        docs, scores = self._evaluate(q)
        alive = self.reader.alive_mask
        if alive is not None and len(docs):
            keep = alive[docs]
            docs, scores = docs[keep], scores[keep]
        return docs, scores

    def _evaluate(self, q: Query) -> DocScores:
        fids = self.reader.fieldnorm_ids
        if isinstance(q, TermQuery):
            w = self._weight(q.term, q.field)
            eff = self._eff(q.term, q.field)
            p = self.reader.postings(eff) if w is not None else None
            if p is None:
                return self._empty()
            docs, tfs = p
            ffids = self.reader.fieldnorm_ids_for(q.field)
            return docs.astype(np.int64), w.score(ffids[docs], tfs)

        if isinstance(q, EmptyQuery):
            return self._empty()

        if isinstance(q, AllQuery):
            docs = np.arange(self.reader.num_docs, dtype=np.int64)
            return docs, np.ones(len(docs), dtype=np.float32)

        if isinstance(q, ExistsQuery):
            efids = (self.reader.fieldnorm_ids_for(q.field)
                     if q.field else fids)
            docs = np.flatnonzero(efids > 0).astype(np.int64)
            return docs, np.ones(len(docs), dtype=np.float32)

        if isinstance(q, BoostQuery):
            docs, scores = self.evaluate(q.query)
            return docs, (scores * np.float32(q.boost)).astype(np.float32)

        if isinstance(q, ConstScoreQuery):
            docs, _ = self.evaluate(q.query)
            return docs, np.full(len(docs), np.float32(q.score),
                                 dtype=np.float32)

        if isinstance(q, TermSetQuery):
            return self._union_terms_const(
                [self._eff(t, q.field) for t in q.terms], 1.0)

        if isinstance(q, RangeQuery):
            return self._eval_range(q)

        if isinstance(q, RegexQuery) and q.field:
            # field-scoped regex: the field's terms are the contiguous
            # "field\x00…" dict slice; match the pattern on suffixes
            import bisect

            terms = self.reader.terms()
            prefix = q.field + "\x00"
            lo = bisect.bisect_left(terms, prefix)
            hi = bisect.bisect_left(terms, q.field + "\x01")
            rx = re.compile(q.pattern)
            matched = [t[len(prefix):] for t in terms[lo:hi]
                       if rx.fullmatch(t[len(prefix):])]
            return self.evaluate(BooleanQuery(
                should=[TermQuery(t, field=q.field) for t in matched]))

        if isinstance(q, (FuzzyTermQuery, RegexQuery)):
            terms = (expand_fuzzy(self.reader, q)
                     if isinstance(q, FuzzyTermQuery)
                     else expand_regex(self.reader, q.pattern))
            # union of BM25 term scorers (automaton weight over the dict)
            return self.evaluate(BooleanQuery(should=[TermQuery(t) for t in terms]))

        if isinstance(q, PhraseQuery):
            eff_terms = [self._eff(t, q.field) for t in q.terms]
            docs, tfs = phrase_match_counts(self.reader, eff_terms, q.slop)
            if len(docs) == 0:
                return self._empty()
            dfs = [self._df(t) for t in eff_terms]
            if any(d == 0 for d in dfs):
                return self._empty()
            w = Bm25Weight.for_terms(dfs, self.total_num_docs,
                                     self._avg_for(q.field))
            ffids = self.reader.fieldnorm_ids_for(q.field)
            return docs, w.score(ffids[docs], tfs)

        if isinstance(q, (PhrasePrefixQuery, RegexPhraseQuery)):
            if isinstance(q, PhrasePrefixQuery):
                import bisect

                sorted_terms = self.reader.terms()
                prefix = q.terms[-1]
                lo = bisect.bisect_left(sorted_terms, prefix)
                exp = []
                while lo < len(sorted_terms) and len(exp) < q.max_expansions:
                    if not sorted_terms[lo].startswith(prefix):
                        break
                    exp.append(sorted_terms[lo])
                    lo += 1
                term_sets = [[t] for t in q.terms[:-1]] + [exp]
                slop = 0
                weight_terms = q.terms[:-1] + (exp[:1] or [prefix])
            else:
                term_sets = []
                for pat in q.patterns:
                    if re.escape(pat) == pat:  # plain literal
                        term_sets.append([pat])
                    else:
                        m = expand_regex(self.reader, pat)
                        term_sets.append(m[: q.max_expansions])
                slop = q.slop
                weight_terms = [s[0] for s in term_sets if s]
            if any(not s for s in term_sets):
                return self._empty()
            docs, tfs = phrase_match_counts_multi(self.reader, term_sets, slop)
            if len(docs) == 0:
                return self._empty()
            dfs = [max(1, self._df(t)) for t in weight_terms]
            w = Bm25Weight.for_terms(dfs, self.total_num_docs,
                                     self.average_fieldnorm)
            return docs, w.score(fids[docs], tfs)

        if isinstance(q, DisjunctionMaxQuery):
            children = [self.evaluate(c) for c in q.queries]
            children = [c for c in children if len(c[0])]
            if not children:
                return self._empty()
            docs = np.unique(np.concatenate([c[0] for c in children]))
            mx = np.full(len(docs), np.float32(-np.inf), dtype=np.float32)
            sm = np.zeros(len(docs), dtype=np.float32)
            for cdocs, cscores in children:
                pos = np.searchsorted(docs, cdocs)
                np.maximum.at(mx, pos, cscores)
                sm[pos] += cscores
            tie = np.float32(q.tie_breaker)
            return docs, (mx + tie * (sm - mx)).astype(np.float32)

        if isinstance(q, FastFieldFilterQuery):
            docs, scores = self.evaluate(q.query)
            if len(docs) == 0:
                return docs, scores
            vals = self.reader.fast_field(q.field)[docs]
            mask = np.ones(len(docs), dtype=bool)
            if q.equals is not None:
                mask &= vals == q.equals
            if q.lower is not None:
                mask &= vals >= q.lower
            if q.upper is not None:
                mask &= vals < q.upper
            return docs[mask], scores[mask]

        if isinstance(q, BooleanQuery):
            return self._eval_boolean(q)

        raise TypeError(f"unknown query type {type(q).__name__}")

    def _eval_boolean(self, q: BooleanQuery) -> DocScores:
        must = [self.evaluate(c) for c in q.must]
        should = [self.evaluate(c) for c in q.should]
        must_not = [self.evaluate(c) for c in q.must_not]

        if q.must:
            docs = must[0][0]
            for m in must[1:]:
                docs = np.intersect1d(docs, m[0], assume_unique=True)
        elif q.should:
            docs = np.unique(np.concatenate([s[0] for s in should])) \
                if should else np.empty(0, dtype=np.int64)
        else:
            return self._empty()
        if len(docs) == 0:
            return self._empty()

        msm = q.minimum_should_match
        if q.must and q.should and msm == 0:
            pass  # should clauses only contribute score
        if msm > 0 and should:
            cnt = np.zeros(len(docs), dtype=np.int32)
            for sdocs, _ in should:
                hit = np.isin(docs, sdocs, assume_unique=True)
                cnt += hit
            keep = cnt >= msm
            docs = docs[keep]
            if len(docs) == 0:
                return self._empty()
        elif not q.must and should and msm == 0:
            pass

        for ndocs, _ in must_not:
            if len(ndocs):
                docs = docs[~np.isin(docs, ndocs, assume_unique=True)]
        if len(docs) == 0:
            return self._empty()

        # SumCombiner: sum scoring children (must first, then should) in
        # clause order, f32 stepwise
        acc = np.zeros(len(docs), dtype=np.float32)
        for cdocs, cscores in must + should:
            if len(cdocs) == 0:
                continue
            pos = np.searchsorted(cdocs, docs)
            pos = np.clip(pos, 0, len(cdocs) - 1)
            hit = cdocs[pos] == docs
            acc[hit] += cscores[pos[hit]]
        return docs, acc


def collect_docset(readers: Sequence[SegmentReader], query: Query,
                   total_num_docs: int, average_fieldnorm: float,
                   doc_freq_of=None):
    """DocSetCollector (reference src/collector/docset_collector.rs):
    every matching DocAddress as [(segment_ord, doc_id)], segment order
    then ascending doc id — the public collect-all form of the internal
    evaluator docsets."""
    out = []
    for r in readers:
        ev = QueryEvaluator(r, total_num_docs, average_fieldnorm,
                            doc_freq_of)
        docs, _ = ev.evaluate(query)
        out.extend((r.segment_ord, int(d)) for d in docs)
    return out


def collect_stat_terms(q: Query, reader: SegmentReader) -> set:
    """Effective terms whose GLOBAL doc_freq a distributed (sharded)
    evaluation of ``q`` needs — fuzzy/regex/prefix expansions resolved
    against THIS reader's vocabulary (the union over shards equals the
    full-vocab expansion, and a term missing from a shard's dict has no
    postings there, so per-shard evaluation with summed dfs is exactly
    the single-searcher result).  Const-score queries (ranges, term
    sets, exists/all) need no stats."""
    out: set = set()

    def eff(t: str, field) -> str:
        return t if not field else f"{field}\x00{t}"

    def walk(q: Query) -> None:
        if isinstance(q, TermQuery):
            out.add(eff(q.term, q.field))
        elif isinstance(q, PhraseQuery):
            out.update(eff(t, q.field) for t in q.terms)
        elif isinstance(q, FuzzyTermQuery):
            out.update(expand_fuzzy(reader, q))
        elif isinstance(q, RegexQuery):
            if q.field:
                # mirror the evaluator's field-sliced expansion
                import bisect

                terms = reader.terms()
                prefix = q.field + "\x00"
                lo = bisect.bisect_left(terms, prefix)
                hi = bisect.bisect_left(terms, q.field + "\x01")
                rx = re.compile(q.pattern)
                out.update(t for t in terms[lo:hi]
                           if rx.fullmatch(t[len(prefix):]))
            else:
                out.update(expand_regex(reader, q.pattern))
        elif isinstance(q, PhrasePrefixQuery):
            import bisect

            out.update(q.terms[:-1])
            sorted_terms = reader.terms()
            prefix = q.terms[-1]
            lo = bisect.bisect_left(sorted_terms, prefix)
            n = 0
            while (lo < len(sorted_terms) and n < q.max_expansions
                   and sorted_terms[lo].startswith(prefix)):
                out.add(sorted_terms[lo])
                lo += 1
                n += 1
        elif isinstance(q, RegexPhraseQuery):
            for pat in q.patterns:
                if re.escape(pat) == pat:
                    out.add(pat)
                else:
                    out.update(expand_regex(reader, pat)
                               [: q.max_expansions])
        elif isinstance(q, BooleanQuery):
            for c in (*q.must, *q.should, *q.must_not):
                walk(c)
        elif isinstance(q, (BoostQuery, ConstScoreQuery,
                            FastFieldFilterQuery)):
            walk(q.query)
        elif isinstance(q, DisjunctionMaxQuery):
            for c in q.queries:
                walk(c)
        # Range/TermSet/All/Empty/Exists: const score, no stats

    walk(q)
    return out


def count_query(readers: Sequence[SegmentReader], query: Query,
                total_num_docs: int, average_fieldnorm: float,
                doc_freq_of=None) -> int:
    """Count collector (reference src/collector/count_collector.rs:37-76):
    Σ per-segment match counts."""
    total = 0
    for r in readers:
        ev = QueryEvaluator(r, total_num_docs, average_fieldnorm, doc_freq_of)
        docs, _ = ev.evaluate(query)
        total += len(docs)
    return total


def topk_by_fast_field(readers: Sequence[SegmentReader], query: Query,
                       field: str, k: int, descending: bool,
                       total_num_docs: int, average_fieldnorm: float,
                       doc_freq_of=None):
    """TopDocs ordered by a fast field (reference
    src/collector/sort_key/sort_by_static_fast_value.rs): per-segment top-k
    by the field value, ties by ascending DocAddress, then merge.
    → [(value, segment_ord, doc_id)]."""
    hits = []
    for r in readers:
        ev = QueryEvaluator(r, total_num_docs, average_fieldnorm, doc_freq_of)
        docs, _ = ev.evaluate(query)
        if len(docs) == 0:
            continue
        vals = r.fast_field(field)[docs]
        # generic desc support (incl. strings): rank values, negate ranks
        _, inv = np.unique(vals, return_inverse=True)
        key = -inv if descending else inv
        order = np.lexsort((docs, key))[:k]
        hits.extend((vals[i], r.segment_ord, int(docs[i])) for i in order)
    # two stable sorts → (value asc/desc, seg asc, doc asc)
    hits.sort(key=lambda h: (h[1], h[2]))
    hits.sort(key=lambda h: h[0], reverse=descending)
    return hits[:k]


def evaluate_topk(readers: Sequence[SegmentReader], query: Query,
                  total_num_docs: int, average_fieldnorm: float,
                  k: int, doc_freq_of=None,
                  field_avgs=None) -> List[Tuple[float, int, int]]:
    """Evaluate per segment, then merge with the collector tie rule."""
    from .searcher import merge_topk, topk_hits

    hits: List[Tuple[float, int, int]] = []
    for r in readers:
        ev = QueryEvaluator(r, total_num_docs, average_fieldnorm, doc_freq_of,
                            field_avgs=field_avgs)
        docs, scores = ev.evaluate(query)
        hits.extend(topk_hits(docs, scores, k, [0], [r.segment_ord]))
    return merge_topk(hits, k)
