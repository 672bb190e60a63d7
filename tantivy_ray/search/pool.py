"""The serving stack: ``_SearcherHost`` scores, ``SearcherPool`` keeps
hosts warm.

The reference's serving shape is a LONG-LIVED Searcher over mmapped
segments (startup <10 ms, README.md:34; rayon pool per search,
src/core/executor.rs:32-37): the index is opened once and query batches
arrive repeatedly.

``_SearcherHost`` is the one per-chunk scoring core.  A chunk of term
queries or of raw query strings goes in, one ranked Arrow table comes
out.  A term chunk is scored as one ``IndexSearcher.search_many`` call:
its uncached distinct terms decode once per segment, in one batch.
Two callers drive it:
- ``SearcherPool`` (here): plain Ray actors that outlive a pipeline
  execution — ``size`` replicas of the full index, or replicas of
  segment shards.  ``search_batch`` chunks the query list across them.
- ``search_pipeline`` / ``parsed_search_pipeline``
  (pipelines/search_pipeline.py): a Ray Data ``map_batches`` class that
  holds hosts for the length of one pipeline execution.

Both gather the same way (``_gather``): with one shard every query's
rows come back ranked from one host, so the driver only sorts (and
skips even that when one host table holds a batch of strictly
increasing query ids); with several, ``_merge_topk_table`` merges the
per-shard top-k.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

from ..utils import remote_args


def _shard_ords(manifest, num_shards: int) -> List[List[int]]:
    """Segment ords dealt round-robin into ``num_shards`` non-empty
    shards."""
    ords = [s["segment_ord"] for s in manifest.segments]
    return [ords[i::num_shards] for i in range(num_shards)
            if ords[i::num_shards]]


class _SearcherHost:
    """One searcher (full index, or one shard of segment ords) opened
    once in __init__; a pool replica or a pipeline actor's shard."""

    def __init__(self, index_dir: str, use_wand: bool,
                 segment_ords: Optional[List[int]] = None):
        from .searcher import IndexSearcher

        self.searcher = IndexSearcher(index_dir, segment_ords)
        self.use_wand = use_wand
        self.chunks_served = 0
        self._parser = None

    def served(self) -> int:
        """Chunks handled so far (replica-utilization introspection)."""
        return self.chunks_served

    def ready(self) -> bool:
        # touch the global view so fids/bases concat happens at warm-up,
        # not inside the first timed query
        self.searcher._global_view()
        return True

    def doc_freqs(self, terms: List[str]):
        """Shard-local doc freqs (the sharded pool sums them globally)."""
        return self.searcher.doc_freqs(terms)

    def _parse(self, qtext: str):
        """Parse with the analyzer the index was built with."""
        if self._parser is None:
            from .queryparser import QueryParser

            self._parser = QueryParser(self.searcher.manifest.analyzer)
        return self._parser.parse(str(qtext))

    def parsed_stat_terms(self, chunk: List[Tuple[int, str, int]]):
        """Shard-local doc freqs for every effective term the parsed
        queries need (fuzzy/regex expanded against THIS shard's vocab);
        the pool sums the per-shard maps into exact global stats."""
        from .query import collect_stat_terms

        terms: set = set()
        for _, qtext, _ in chunk:
            q = self._parse(qtext)
            for r in self.searcher.readers:
                terms |= collect_stat_terms(q, r)
        return {t: self.searcher.doc_freq(t) for t in terms}

    def search_chunk(self, chunk: List[Tuple[int, List[str], str, int]],
                     doc_freqs=None) -> pa.Table:
        """(query_id, terms, mode, k) rows, scored as one
        ``IndexSearcher.search_many`` chunk; ``doc_freqs``: global stats
        map for sharded evaluation (None = this searcher's own)."""
        return self._ranked(chunk, self.searcher.search_many(
            [q[1:] for q in chunk], doc_freqs, self.use_wand))

    def search_parsed_chunk(self, chunk: List[Tuple[int, str, int]],
                            doc_freqs=None) -> pa.Table:
        """(query_id, query_string, k) rows through the full QueryParser
        grammar (bool trees, phrases, fuzzy/regex automata, ranges,
        boosts)."""
        df_of = _df_of(doc_freqs)
        return self._ranked(chunk, [self.searcher.search_query(
            self._parse(q[1]), int(q[2]), doc_freq_of=df_of) for q in chunk])

    def _ranked(self, chunk, hits) -> pa.Table:
        """The ranked hit table of the chunk's per-query ``hits``: each
        column is built as a numpy array, then wrapped as Arrow."""
        self.chunks_served += 1
        lens = np.fromiter(map(len, hits), np.int64, len(hits))
        flat = [h for hs in hits for h in hs]
        if not flat:
            return _empty_result()
        score, seg, doc = zip(*flat)
        starts = np.cumsum(lens) - lens
        cols = (np.repeat(np.array([q[0] for q in chunk], np.int64), lens),
                (np.arange(len(flat)) - np.repeat(starts, lens)
                 ).astype(np.int32),
                np.array(score, np.float32),
                np.array(seg, np.int32),
                np.array(doc, np.int64))
        return pa.Table.from_arrays([pa.array(c) for c in cols],
                                    schema=_HIT_SCHEMA)


def _df_of(doc_freqs):
    return None if doc_freqs is None else (lambda t: doc_freqs.get(t, 0))


def _merge_topk_table(tbl: pa.Table, queries) -> pa.Table:
    """Vectorized merge_fruits over the concatenated shard partials
    (``queries`` rows may be term 4-tuples or parsed 3-tuples — only
    the leading query_id and trailing k are read):
    ONE np.lexsort by (query_id asc, score desc, segment asc, doc asc)
    — the collector tie rule of searcher.merge_topk
    (reference src/collector/mod.rs:167-180) — then a run-length rank
    and per-query k truncation.  No per-hit Python; a 10^5-query batch
    merges in milliseconds on the driver."""
    qid = tbl.column("query_id").to_numpy().astype(np.int64, copy=False)
    score = tbl.column("score").to_numpy()  # f32 — negation is exact
    seg = tbl.column("segment_ord").to_numpy()
    doc = tbl.column("doc_id").to_numpy()
    order = np.lexsort((doc, seg, -score, qid))
    sq, ss, sg, sd = qid[order], score[order], seg[order], doc[order]
    n = len(sq)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = sq[1:] != sq[:-1]
    run_id = np.cumsum(change) - 1
    rank = np.arange(n, dtype=np.int64) - np.flatnonzero(change)[run_id]
    ks = sorted((int(q[0]), int(q[-1])) for q in queries)
    k_qids = np.array([q for q, _ in ks], dtype=np.int64)
    k_vals = np.array([k for _, k in ks], dtype=np.int64)
    keep = rank < k_vals[np.searchsorted(k_qids, sq)]
    return pa.table({
        "query_id": pa.array(sq[keep], type=pa.int64()),
        "rank": pa.array(rank[keep].astype(np.int32), type=pa.int32()),
        "score": pa.array(ss[keep], type=pa.float32()),
        "segment_ord": pa.array(sg[keep].astype(np.int32),
                                type=pa.int32()),
        "doc_id": pa.array(sd[keep].astype(np.int64), type=pa.int64()),
    })


_HIT_SCHEMA = pa.schema([("query_id", pa.int64()), ("rank", pa.int32()),
                         ("score", pa.float32()),
                         ("segment_ord", pa.int32()),
                         ("doc_id", pa.int64())])


def _empty_result() -> pa.Table:
    return _HIT_SCHEMA.empty_table()


def _gather(tables: Sequence[pa.Table], queries, sharded: bool) -> pa.Table:
    """Host result tables → one table ranked per query_id: top-k merged
    across shards; otherwise each query came from one host and the
    tables are sorted by (query_id, rank) — unless one table holds every
    hit and the batch's query ids strictly increase, when the host
    already emitted that order (each query's rows in rank order, the
    queries in batch order) and the sort is skipped."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return _empty_result()
    if sharded:
        return _merge_topk_table(pa.concat_tables(tables), queries)
    qids = np.fromiter((q[0] for q in queries), np.int64, len(queries))
    if len(tables) == 1 and (qids[1:] > qids[:-1]).all():
        return tables[0]
    return pa.concat_tables(tables).sort_by(
        [("query_id", "ascending"), ("rank", "ascending")])


class SearcherPool:
    """Create once, query many times; ``close()`` (or GC) frees actors.

    ``num_shards=1`` (default): ``size`` replicas each hold the FULL
    index; batches split across replicas (throughput parallelism).
    ``num_shards>1``: the segments are partitioned into shards, one
    actor per shard (times ``size`` replicas per shard) — the serving
    shape for an index larger than one node's memory.  A batch then
    runs two rounds: shard-local doc freqs are summed into exact global
    stats, every shard scores every query with those stats, and the
    driver merges per-query top-k with the collector tie rule —
    f32/rank-identical to a full-index replica."""

    def __init__(self, index_dir: str, size: int = 4,
                 use_wand: bool = False, num_cpus: float = 1.0,
                 num_shards: int = 1):
        import ray

        from ..index.manifest import load_manifest

        self._config = (index_dir, size, use_wand, num_cpus, num_shards)
        host = ray.remote(_SearcherHost).options(
            num_cpus=num_cpus, **remote_args())
        shards: List[Optional[List[int]]] = [None]
        if num_shards > 1:
            shards = _shard_ords(load_manifest(index_dir), num_shards)
        self.num_shards = len(shards)
        replicas = max(1, size // max(1, len(shards)))
        # _groups[si] = shard si's replicas (the same count for every shard)
        self._groups = [[host.remote(index_dir, use_wand, shard)
                         for _ in range(replicas)] for shard in shards]
        self.actors = [a for g in self._groups for a in g]
        self.size = len(self.actors)
        self._df_cache: dict = {}

    def warm(self) -> None:
        """Block until every replica has opened its index."""
        import ray

        ray.get([a.ready.remote() for a in self.actors])

    def _one_actor_per_shard(self) -> List:
        """One replica per shard, ROTATING across calls so repeated
        small batches spread over all replicas instead of pinning the
        first one (ADVICE r3: extra replicas were spawned but idle)."""
        self._rr = getattr(self, "_rr", -1) + 1
        return [g[self._rr % len(g)] for g in self._groups]

    def _scatter(self, method: str, queries, doc_freqs) -> pa.Table:
        """Each shard scores every query, the batch chunked across that
        shard's replicas (each query reaches exactly one replica of each
        shard), then the driver gathers."""
        import ray

        refs = []
        for group in self._groups:
            for j, actor in enumerate(group):
                chunk = queries[j::len(group)]
                if chunk:
                    refs.append(getattr(actor, method).remote(chunk,
                                                              doc_freqs))
        return _gather(ray.get(refs), queries, self.num_shards > 1)

    def search_batch(
        self, queries: Sequence[Tuple[int, Sequence[str], str, int]],
    ) -> pa.Table:
        """(query_id, terms, mode, k) batch → ranked Arrow table,
        identical to ``search_pipeline`` at the same num_shards."""
        import ray

        queries = list(queries)
        dfs = None
        if self.num_shards > 1:
            # round 1: global stats = Σ shard-local doc freqs — cached
            # across batches (a snapshot pool serves ONE commit; reload()
            # clears)
            terms = sorted({t for _, ts, _, _ in queries for t in ts})
            cache = self._df_cache
            missing = [t for t in terms if t not in cache]
            if missing:
                partials = ray.get([a.doc_freqs.remote(missing)
                                    for a in self._one_actor_per_shard()])
                for t in missing:
                    cache[t] = sum(p.get(t, 0) for p in partials)
            dfs = {t: cache[t] for t in terms}
        return self._scatter("search_chunk", queries, dfs)

    def search_parsed_batch(
        self, queries: Sequence[Tuple[int, str, int]],
    ) -> pa.Table:
        """(query_id, query_string, k) batch through the full parser
        grammar — the warm-pool analog of ``parsed_search_pipeline``.

        Sharded mode runs the same two rounds as term batches, with the
        stats round parsing each query and expanding fuzzy/regex against
        each shard's own vocabulary (collect_stat_terms): the union of
        per-shard expansions equals the full-vocab expansion and summed
        dfs are exact, so results are f32/rank-identical to a full-index
        replica."""
        import ray

        queries = list(queries)
        dfs = None
        if self.num_shards > 1:
            # not cached: fuzzy/regex expansions are query-dependent
            dfs = {}
            for p in ray.get([a.parsed_stat_terms.remote(queries)
                              for a in self._one_actor_per_shard()]):
                for t, df in p.items():
                    dfs[t] = dfs.get(t, 0) + df
        return self._scatter("search_parsed_chunk", queries, dfs)

    def reload(self) -> None:
        """Swap every replica to a fresh point-in-time snapshot of the
        CURRENT commit (the reference's IndexReader reload: a new
        searcher generation is warmed, then the old one is dropped —
        queries in flight on old actors finish against the old
        snapshot; new batches see the new commit)."""
        import ray

        old = self.actors
        fresh = SearcherPool(self._config[0], size=self._config[1],
                             use_wand=self._config[2],
                             num_cpus=self._config[3],
                             num_shards=self._config[4])
        fresh.warm()
        self.__dict__.update(fresh.__dict__)  # new commit → new stats
        fresh.actors = []  # ownership moved; don't let GC kill them
        for a in old:
            ray.kill(a, no_restart=True)

    def close(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a, no_restart=True)
        self.actors = []
