"""Batch query execution as a Ray Data pipeline.

Topology (SURVEY §2.9 → Ray): a query is latency-bound, a *batch* of queries
is a Dataset.  Scoring is the serving stack's ``_SearcherHost``
(search/pool.py), held by one ``map_batches`` actor pool for the length
of the pipeline execution (reference Searcher/rayon executor,
src/core/searcher.rs:220-237).

One topology: the queries cross the index's shards into a shard-major
(query x shard) product Dataset; each row names its shard, and an actor
opens that shard's host on demand and keeps a bounded cache of them, so
consecutive batches hit the same shard and an actor holds O(1) shards of
state at hundreds of shards.
- ``num_shards=1`` (replicated) is the one-shard case: every host holds
  all segments, its local doc freqs are already global, and each
  query's rows come back ranked from one host — the driver only sorts.
- ``num_shards>1`` (scatter-gather): global BM25 stats come from a
  df-lookup pass over the shards' term dicts (``global_doc_freqs``), so
  scores are identical to one shard, and the driver merges per-query
  top-k with the collector tie rule (``_merge_topk_table``, the
  merge_fruits step of reference src/collector/mod.rs:167-180).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import pyarrow as pa

from ..search.pool import _gather, _SearcherHost, _shard_ords
from ..search.searcher import IndexSearcher
from ..utils import remote_args

# shard hosts an actor keeps open (shard-major input: 2 covers a batch
# that straddles a shard boundary)
_MAX_OPEN_SHARDS = 2


class _ShardHosts:
    """map_batches callable: each row of a batch names its shard; the
    rows of one shard go to that shard's ``_SearcherHost`` as one chunk."""

    def __init__(self, index_dir: str, shards: List, doc_freqs,
                 use_wand: bool, method: str, columns: List[str]):
        self.index_dir = index_dir
        self.shards = shards
        self.doc_freqs = doc_freqs
        self.use_wand = use_wand
        self.method = method
        self.columns = columns
        self._open: Dict[int, _SearcherHost] = {}

    def _host(self, shard: int) -> _SearcherHost:
        h = self._open.get(shard)
        if h is None:
            if len(self._open) >= _MAX_OPEN_SHARDS:
                self._open.pop(next(iter(self._open)))
            h = self._open[shard] = _SearcherHost(
                self.index_dir, self.use_wand, self.shards[shard])
        return h

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = list(zip(*(batch.column(c).to_pylist()
                          for c in self.columns)))
        by_shard: Dict[int, list] = {}
        for shard, row in zip(batch.column("shard").to_pylist(), rows):
            by_shard.setdefault(shard, []).append(row)
        return pa.concat_tables([
            getattr(self._host(shard), self.method)(chunk, self.doc_freqs)
            for shard, chunk in by_shard.items()])


def _run(index_dir: str, queries: List[Tuple], shards: List, doc_freqs,
         use_wand: bool, method: str, columns: List[str],
         concurrency: int) -> pa.Table:
    """The (query x shard) product through one actor pool, gathered on
    the driver."""
    import ray.data as rd

    prod = rd.from_items([
        dict(zip(columns, q), shard=si)
        for si in range(len(shards)) for q in queries
    ])
    res = prod.map_batches(
        _ShardHosts,
        fn_constructor_kwargs={
            "index_dir": index_dir, "shards": shards,
            "doc_freqs": doc_freqs, "use_wand": use_wand,
            "method": method, "columns": columns,
        },
        # keep every actor in the pool busy: >=2 batches per actor
        batch_size=max(1, len(queries) * len(shards)
                       // (max(1, concurrency) * 2)),
        batch_format="pyarrow",
        concurrency=concurrency,
        **remote_args(),
    )
    # iter_batches, not to_arrow_refs: the latter re-runs the plan with a
    # limit of 1 to fetch the schema
    return _gather(list(res.iter_batches(batch_size=None,
                                         batch_format="pyarrow")),
                   queries, len(shards) > 1)


def parsed_search_pipeline(
    index_dir: str,
    queries: Sequence[Tuple[int, str, int]],
    concurrency: int = 2,
) -> pa.Table:
    """Batch execution of PARSED query strings — the full query algebra
    (bool trees, phrases, fuzzy/regex automata, ranges, boosts) parsed
    with the index's own analyzer, over the replicated topology.
    → (query_id, rank, score, segment_ord, doc_id), identical to
    per-query ``parse_and_search``."""
    return _run(index_dir, list(queries), [None], None, False,
                "search_parsed_chunk", ["query_id", "q", "k"], concurrency)


def global_doc_freqs(index_dir: str, terms: Sequence[str],
                     manifest=None) -> Dict[str, int]:
    """Global doc_freq per query term = Σ per-segment doc_freq
    (reference src/query/bm25.rs:47-50). Computed with one small Ray task
    per segment group so no node loads every term dict."""
    import ray

    from ..index.manifest import load_manifest

    manifest = manifest or load_manifest(index_dir)
    ords = [s["segment_ord"] for s in manifest.segments]
    terms = sorted(set(terms))

    @ray.remote
    def df_of(ords_chunk: List[int]) -> Dict[str, int]:
        s = IndexSearcher(index_dir, ords_chunk, manifest=manifest)
        return s.doc_freqs(terms)

    chunks = [ords[i::8] for i in range(8) if ords[i::8]]
    partials = ray.get([
        df_of.options(**remote_args()).remote(c)
        for c in chunks
    ])
    total: Dict[str, int] = {t: 0 for t in terms}
    for p in partials:
        for t, v in p.items():
            total[t] += v
    return total


def search_pipeline(
    index_dir: str,
    queries: Sequence[Tuple[int, Sequence[str], str, int]],
    num_shards: int = 1,
    concurrency: int = 2,
    use_wand: bool = False,
) -> pa.Table:
    """Execute a batch of (query_id, terms, mode, k) queries.

    → pa.Table (query_id, rank, score, segment_ord, doc_id), rank-identical
    to per-query ``IndexSearcher.search``."""
    from ..index.manifest import load_manifest

    queries = [(qid, list(terms), mode, k) for qid, terms, mode, k in queries]
    shards, dfs = [None], None  # replicated: every host holds all segments
    if num_shards > 1:
        manifest = load_manifest(index_dir)
        if len(_shard_ords(manifest, num_shards)) > 1:
            shards = _shard_ords(manifest, num_shards)
            dfs = global_doc_freqs(
                index_dir, {t for q in queries for t in q[1]}, manifest)
    return _run(index_dir, queries, shards, dfs, use_wand, "search_chunk",
                ["query_id", "terms", "mode", "k"], concurrency)
