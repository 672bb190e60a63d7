"""Per-layer probes of a traced run.

Each probe times, from outside, calls into one module's public functions,
in this process, on the run's own corpus, index and query stream.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .workloads import DOC_ID, PROBE_QUERIES, TEXT, Bench, _hits_table, _pct

SIGNATURE_SAMPLE = 5_000
_COMPONENTS = {"terms": "terms.parquet", "postings": "postings.bin",
               "fieldnorms": "fieldnorms.bin", "docs": "docs.parquet",
               "meta": "meta.json"}


def _seg_dirs(index_dir: str) -> List[str]:
    return sorted(os.path.join(index_dir, d) for d in os.listdir(index_dir)
                  if d.startswith("seg-"))


def segment_layers(b: Bench, table: pa.Table, docs_per_segment: int) -> None:
    """analyze_batch and build_segment_from_table on the partitions."""
    from tantivy_ray.analyzer import analyze_batch
    from tantivy_ray.index import build_segment_from_table

    out = b.path("probe_segments")
    shutil.rmtree(out, ignore_errors=True)
    parts = [table.slice(s, docs_per_segment)
             for s in range(0, table.num_rows, docs_per_segment)]
    analyze_s = build_s = 0.0
    tokens = 0
    for i, part in enumerate(parts):
        a, dt = b.timed("analyzer.analyze_batch", analyze_batch,
                        part.column(TEXT), "default")
        analyze_s += dt
        tokens += int(a.num_tokens.sum())
        build_s += b.timed("index.segment.build_segment_from_table",
                           build_segment_from_table, part, i, out,
                           text_col=TEXT, id_col=DOC_ID)[1]
    in_bytes = int(pc.sum(pc.binary_length(table.column(TEXT))).as_py())
    b.layer["analyzer.analyze_s"] = (analyze_s, "s")
    b.layer["analyzer.tokens_per_s"] = (tokens / analyze_s, "tokens/s")
    b.layer["index.segment.build_s"] = (build_s, "s")
    b.layer["index.segment.invert_encode_write_s"] = (build_s - analyze_s,
                                                      "s")
    for name, fname in _COMPONENTS.items():
        size = sum(os.path.getsize(os.path.join(d, fname))
                   for d in _seg_dirs(out))
        b.layer[f"index.segment.bytes.{name}"] = (size / in_bytes, "B/B")
    shutil.rmtree(out, ignore_errors=True)


def reader_layers(b: Bench, index_dir: str) -> None:
    """SegmentReader open and postings decode; Bm25Weight.score."""
    from tantivy_ray.bm25 import Bm25Weight
    from tantivy_ray.index import SegmentReader
    from tantivy_ray.search import IndexSearcher

    nd = b.corpus.table.num_rows
    df = b.corpus.df
    head = [b.corpus.vocab[i] for i in np.flatnonzero(
        (df >= 0.10 * nd) & (df <= 0.90 * nd))]
    rng = np.random.default_rng([b.seed, 4])
    tail = [b.corpus.vocab[i] for i in rng.choice(np.flatnonzero(
        (df >= 2) & (df < 0.001 * nd)), size=500, replace=False)]
    open_ms = []
    for d in _seg_dirs(index_dir):
        open_ms.append(b.timed("index.segment.open", SegmentReader, d)[1]
                       * 1e3)
    b.layer["index.segment.open_ms"] = (float(np.median(open_ms)), "ms")
    for kind, terms in (("head", head), ("tail", tail)):
        n_post, secs = 0, 0.0
        for d in _seg_dirs(index_dir):
            reader = SegmentReader(d)      # fresh: nothing cached
            with b.tr.span("index.segment.postings"):
                t0 = time.perf_counter()
                for t in terms:
                    p = reader.postings(t)
                    n_post += 0 if p is None else len(p[0])
                secs += time.perf_counter() - t0
        b.layer[f"index.segment.decode_ns_per_posting.{kind}"] = (
            secs / max(1, n_post) * 1e9, "ns")
    reader = SegmentReader(_seg_dirs(index_dir)[0])
    docs, tfs = reader.postings(head[0])
    fids = reader.fieldnorm_ids[docs]
    s = IndexSearcher(index_dir)
    w = Bm25Weight.for_one_term(s.doc_freq(head[0]), s.total_num_docs,
                                s.average_fieldnorm)
    reps = 50
    with b.tr.span("bm25.score"):
        t0 = time.perf_counter()
        for _ in range(reps):
            w.score(fids, tfs)
        dt = time.perf_counter() - t0
    b.layer["bm25.score_ns_per_posting"] = (dt / (reps * len(docs)) * 1e9,
                                            "ns")


def searcher_layers(b: Bench, index_dir: str, stream) -> None:
    """doc_freqs, and WAND against exhaustive, on the query stream."""
    from tantivy_ray.search import IndexSearcher

    s = IndexSearcher(index_dir)
    dfs_ms = []
    for _, t, _, _ in stream:
        dfs_ms.append(b.timed("search.searcher.doc_freqs", s.doc_freqs,
                              t)[1] * 1e3)
    b.layer["search.searcher.doc_freqs_ms"] = (_pct(dfs_ms, 50), "ms")
    probe = stream[:PROBE_QUERIES]
    for _, t, m, k in probe:        # warm both paths' caches
        s.search(t, m, k)
        s.search(t, m, k, use_wand=True)
    ex_ms, wand_ms, bad = [], [], 0
    for _, t, m, k in probe:
        ex, dt = b.timed("search.searcher.search", s.search, t, m, k)
        ex_ms.append(dt * 1e3)
        wd, dt = b.timed("search.wand.search", s.search, t, m, k,
                         use_wand=True)
        wand_ms.append(dt * 1e3)
        bad += _hits_table(wd) != _hits_table(ex)
    b.count(len(probe), bad, f"WAND top-k differs on {bad} queries")
    b.layer["search.wand.query_ms_p50"] = (_pct(wand_ms, 50), "ms")
    b.layer["search.wand.faster_frac"] = (
        float(np.mean(np.asarray(wand_ms) < np.asarray(ex_ms))), "frac")


def ingest_side_layers(b: Bench, index_dir: str) -> None:
    """completed_segment_ords, ExplodeSegment, minhash signatures."""
    from tantivy_ray.analyzer import analyze_batch
    from tantivy_ray.dedup import MinHasher
    from tantivy_ray.index import completed_segment_ords
    from tantivy_ray.index.merge import (DEFAULT_NUM_BUCKETS,
                                         DEFAULT_SALT_BLOCK_DOCS,
                                         ExplodeSegment)

    scans = [b.timed("index.manifest.completed_segment_ords",
                     completed_segment_ords, index_dir)[1]
             for _ in range(5)]
    b.layer["index.manifest.scan_s"] = (float(np.median(scans)), "s")
    explode = ExplodeSegment(index_dir, DEFAULT_SALT_BLOCK_DOCS,
                             DEFAULT_NUM_BUCKETS)
    batch = pa.table({"segment_ord": pa.array([0], pa.int64())})
    b.layer["index.merge.explode_s"] = (b.timed(
        "index.merge.explode", lambda: list(explode(batch)))[1], "s")
    sample = b.corpus.table.slice(0, SIGNATURE_SAMPLE)
    tokens = analyze_batch(sample.column(TEXT), "default").tokens
    hasher = MinHasher()
    b.layer["dedup.minhash.signature_s"] = (b.timed(
        "dedup.minhash.signatures", hasher.mult_signatures_from_analyzed,
        tokens)[1], "s")
