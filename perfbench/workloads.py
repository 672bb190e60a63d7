"""The benchmark's workloads, driven through tantivy_ray's public API.

Every run ingests, then serves, one seeded web-like corpus, in ROUNDS
rounds.  Each round writes, then serves:

write  build_index from an empty directory, build_index(resume=True)
       after a seed-chosen sealed segment is lost, and merge_segments.
       The first round runs exact_dedup + minhash_lsh_pairs before.
serve  a SearcherPool over the index (its start is set-up), queried by
       one closed-loop client (``search_batch`` blocks) for a third of
       --seconds: one query per call (latency), then large batches
       (throughput).

The rounds spread each timed stage over the whole run.  The host this was
sized on changes speed over seconds, so a stage timed once in one stretch
of the run reads up to 30 % apart from run to run; medians over stages
spread across the run read closer.

The two workloads differ in the query stream:

serve_head   1-4 head terms (df 10-90 %), OR and AND, k in {10, 100}.
             Few distinct terms, so they fit the 512-entry postings
             caches.  Batches are bound by BM25 scoring over long
             postings, which block-max WAND pruning targets; at this
             index size one query per call is bound by the pool round
             trip.
serve_tail   1-3 tail terms (df < 0.1 %), k=10, thousands of distinct
             terms: every query misses the caches and scoring is tiny, so
             the pool round trip, gather and postings decode dominate.
             WAND and scoring are bypassed.

All load comes from this one process, on one thread.  Correctness gates
run outside the timed regions; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import corpus as gen
from .host import MemoryProbe
from .trace import Tracer

NUM_DOCS = 24_000
NUM_SEGMENTS = 2
LOST_SEGMENTS = 1          # sealed segments deleted before the resume
ROUNDS = 3                 # write + serve rounds per run
WARM_DOCS = 500
MIN_LATENCY_SAMPLES = 1000  # leaves >= 10 samples above p99
LATENCY_SHARE = 0.6        # of a round's serving; the rest is batches
HEAD_STREAM, HEAD_BATCH = 400, 200
TAIL_STREAM, TAIL_BATCH = 4000, 500
MINHASH_THRESHOLD = 0.8    # minhash_lsh_pairs default
PROBE_QUERIES = 64         # merged-vs-unmerged gate and WAND probe
OBJECT_STORE_BYTES = 512 << 20

TEXT, DOC_ID = "text", "doc_id"


def _now() -> float:
    return time.perf_counter()


def _pct(xs, q) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


def _index_digest(index_dir: str) -> Dict[str, str]:
    """sha256 per file; JSON files without their wall-clock fields
    (segment ``metrics.build_secs``, manifest ``created_at``)."""
    out = {}
    for d, _, fs in os.walk(index_dir):
        for f in fs:
            p = os.path.join(d, f)
            with open(p, "rb") as fh:
                data = fh.read()
            if f.endswith(".json"):
                obj = json.loads(data)
                obj.pop("created_at", None)
                for m in [obj] + list(obj.get("segments", [])):
                    m.get("metrics", {}).pop("build_secs", None)
                data = json.dumps(obj, sort_keys=True).encode()
            out[os.path.relpath(p, index_dir)] = hashlib.sha256(
                data).hexdigest()
    return out


def _segment_stamps(index_dir: str) -> Dict[str, tuple]:
    """Per sealed segment directory: its meta.json's (mtime_ns, inode,
    ``metrics.build_secs``).  A segment that is built again gets a new
    stamp."""
    out = {}
    for name in os.listdir(index_dir):
        p = os.path.join(index_dir, name, "meta.json")
        if name.startswith("seg-") and os.path.exists(p):
            st = os.stat(p)
            with open(p) as f:
                secs = json.load(f).get("metrics", {}).get("build_secs")
            out[name] = (st.st_mtime_ns, st.st_ino, secs)
    return out


def _import_write_path() -> None:
    import tantivy_ray.dedup  # noqa: F401
    import tantivy_ray.index.merge  # noqa: F401


def _hits_table(hits) -> List[tuple]:
    return [(np.float32(s), int(seg), int(doc)) for s, seg, doc in hits]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, work_dir: str, ray_tmp: str, ncpu: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work_dir
        self.ray_tmp = ray_tmp
        self.ncpu = ncpu
        self.tr = Tracer(trace)
        self.mem = MemoryProbe()
        self.e2e: Dict[str, tuple] = {}     # name -> (value, unit)
        self.layer: Dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.pool = None
        self.info: Dict = {}
        self.trace_only_s = 0.0     # wall of work only a traced run does

    # --- bookkeeping ---
    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def timed(self, name: str, fn, *args, **kw):
        """(result, seconds) of ``fn`` inside a span named ``name``."""
        with self.tr.span(name):
            t0 = _now()
            out = fn(*args, **kw)
            dt = _now() - t0
        self.mem.sample()
        return out, dt

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    # --- Ray session and pool ---
    def _start_ray(self) -> None:
        import ray
        from ray.data import DataContext

        # idle workers are not reaped: while the pool actor holds the only
        # CPU, Ray would kill the warm task worker, and the next round's
        # build would pay a worker start and imports inside its timing
        ray.init(address="local", num_cpus=self.ncpu,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=self.ray_tmp,
                 object_store_memory=OBJECT_STORE_BYTES,
                 _system_config={"kill_idle_workers_interval_ms": 0})
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        import ray

        self._close_pool()
        if ray.is_initialized():
            ray.shutdown()

    def _close_pool(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def _open_pool(self, index_dir: str) -> None:
        from tantivy_ray.search import SearcherPool

        # one replica, sized to fit the Ray CPUs
        self.pool = SearcherPool(index_dir, size=1,
                                 num_cpus=min(1.0, float(self.ncpu)))
        self.pool.warm()

    # --- set-up ---
    def _write_corpus(self) -> None:
        c = gen.make_corpus(self.seed, NUM_DOCS)
        self.corpus = c
        self.docs_per_segment = -(-NUM_DOCS // NUM_SEGMENTS)
        self.corpus_path = self.path("corpus.parquet")
        pq.write_table(c.table, self.corpus_path,
                       row_group_size=self.docs_per_segment)
        self.warm_path = self.path("warm.parquet")
        pq.write_table(c.table.slice(0, WARM_DOCS), self.warm_path)
        with open(self.corpus_path, "rb") as f:   # page cache
            while f.read(1 << 24):
                pass

    def _warm_workers(self) -> None:
        """Start the Ray worker with a build_index on a tiny input and
        import the write-phase modules in it, so no timed stage pays
        worker start-up or first imports."""
        import ray
        from tantivy_ray.index import build_index

        d = self.path("warm")
        build_index(self.warm_path, d, text_col=TEXT, id_col=DOC_ID,
                    docs_per_segment=WARM_DOCS)
        ray.get(ray.remote(_import_write_path).remote())
        shutil.rmtree(d, ignore_errors=True)

    def setup(self) -> None:
        """Corpus, Ray session, worker warm-up; the pool starts of the
        rounds complete the set-up."""
        with self.tr.span("setup"):
            gen_s = self.timed("setup.corpus", self._write_corpus)[1]
            init_s = self.timed("ray.init", self._start_ray)[1]
            warm_s = self.timed("ray.worker_warm", self._warm_workers)[1]
        self.setup_parts = {"corpus": gen_s, "ray_init": init_s,
                            "worker_warm": warm_s}
        self.layer["ray.init_s"] = (init_s, "s")
        self.layer["ray.worker_warm_s"] = (warm_s, "s")
        self.layer["setup.corpus_s"] = (gen_s, "s")
        self.info["corpus"] = self.corpus.stats

    # --- the rounds ---
    def run(self) -> None:
        head = self.workload == "serve_head"
        make = gen.head_queries if head else gen.tail_queries
        self.stream, sstats = make(self.corpus, self.seed,
                                   HEAD_STREAM if head else TAIL_STREAM)
        self.warm_queries = make(self.corpus, self.seed + 10_000, 50)[0]
        self.batch = HEAD_BATCH if head else TAIL_BATCH
        self.info["stream"] = sstats
        self.layer["workload.distinct_query_terms"] = (
            sstats["distinct_query_terms"], "count")
        self.index_dir = self.path("index")
        rng = np.random.default_rng([self.seed, 3])
        self.lost = sorted(int(o) for o in rng.choice(
            NUM_SEGMENTS, size=LOST_SEGMENTS, replace=False))
        if self.tr.enabled:
            self.searcher = None       # opened once the index exists
        walls: Dict[str, List[float]] = {}
        self.served: List[tuple] = []  # (queries, result table)
        self.lat: List[float] = []
        self.inproc: List[float] = []
        self.qps: List[float] = []
        self.next_q = 0
        self.pool_failed = 0
        self.rebuilt = 0
        for r in range(ROUNDS):
            self._close_pool()     # the Ray Data stages need its CPU
            if r == 0:
                self._dedup(walls)
            self._build_resume(walls)
            self._merge(walls, gate=r == ROUNDS - 1)
            with self.tr.span("setup"):
                walls.setdefault("pool_warm", []).append(self.timed(
                    "search.pool.warm", self._open_pool, self.index_dir)[1])
            self._serve(last=r == ROUNDS - 1)
        self._report(walls)
        self._serve_gate()

    def _dedup(self, walls) -> None:
        import ray
        import ray.data as rd
        from tantivy_ray.dedup import exact_dedup, minhash_lsh_pairs

        ds = rd.read_parquet(self.corpus_path)
        keep, t_exact = self.timed(
            "dedup.exact",
            lambda: pa.concat_tables(ray.get(exact_dedup(ds).to_arrow_refs())))
        pairs, t_mh = self.timed("dedup.minhash", minhash_lsh_pairs, ds)
        self.attempted += 2    # a raise aborts the run
        walls["exact_dedup"] = [t_exact]
        walls["minhash"] = [t_mh]
        self._dedup_gate(keep, pairs)

    def _build_resume(self, walls) -> None:
        from tantivy_ray.index import build_index

        ix = self.index_dir
        shutil.rmtree(ix, ignore_errors=True)
        self.manifest, dt = self.timed(
            "index.build", build_index, self.corpus_path, ix,
            text_col=TEXT, id_col=DOC_ID,
            docs_per_segment=self.docs_per_segment, resume=False)
        walls.setdefault("build", []).append(dt)
        full = _index_digest(ix)
        lost = {f"seg-{o:05d}" for o in self.lost}
        for name in lost:
            shutil.rmtree(os.path.join(ix, name))
        before = _segment_stamps(ix)
        walls.setdefault("resume", []).append(self.timed(
            "index.build.resume", build_index, self.corpus_path, ix,
            text_col=TEXT, id_col=DOC_ID,
            docs_per_segment=self.docs_per_segment, resume=True)[1])
        after = _segment_stamps(ix)
        rebuilt = {n for n, st in after.items() if before.get(n) != st}
        self.rebuilt = max(self.rebuilt, len(rebuilt))
        self.attempted += 2
        self.check(rebuilt == lost,
                   f"resume rebuilt {sorted(rebuilt)}, lost {sorted(lost)}")
        self.check(_index_digest(ix) == full,
                   "resumed index differs from the uninterrupted build")

    def _merge(self, walls, gate: bool) -> None:
        from tantivy_ray.index.merge import merge_segments

        mg = self.path("merged")
        meta, dt = self.timed("index.merge", merge_segments,
                              self.index_dir, mg)
        self.attempted += 1
        walls.setdefault("merge", []).append(dt)
        self.layer["index.merge.num_terms"] = (meta["num_terms"], "count")
        self.layer["index.merge.out_bytes"] = (_dir_bytes(mg), "B")
        if gate:
            self._merge_gate(self.index_dir, mg)
        shutil.rmtree(mg)

    def _serve(self, last: bool) -> None:
        """One round's share of --seconds: a latency loop, then batches.
        The last round keeps the latency loop going until the run has
        MIN_LATENCY_SAMPLES."""
        stream, batch = self.stream, self.batch
        self.pool.search_batch([(-1 - i, t, m, k) for i, (_, t, m, k)
                                in enumerate(self.warm_queries)])
        if self.tr.enabled and self.searcher is None:
            from tantivy_ray.search import IndexSearcher

            ts = _now()
            self.searcher = IndexSearcher(self.index_dir)
            for _, t, m, k in self.warm_queries:  # same cache state
                self.searcher.search(t, m, k)
            self.trace_only_s += _now() - ts
        share = self.seconds / ROUNDS
        t0 = _now()
        t_lat = t0 + LATENCY_SHARE * share
        with self.tr.span("serve.latency"):
            while _now() < t_lat or (
                    last and len(self.lat) < MIN_LATENCY_SAMPLES):
                q = stream[self.next_q % len(stream)]
                self.next_q += 1
                self.attempted += 1
                try:
                    with self.tr.span("search.pool.search_batch"):
                        ts = _now()
                        self.served.append(([q], self.pool.search_batch([q])))
                        self.lat.append(_now() - ts)
                except Exception as e:  # noqa: BLE001 - counted, reported
                    self.pool_failed += 1
                    self.count(0, 1, f"search_batch raised: {e!r}")
                    continue
                if self.tr.enabled:
                    with self.tr.span("search.searcher.search"):
                        ts = _now()
                        self.searcher.search(q[1], q[2], q[3])
                        self.inproc.append(_now() - ts)
                    self.trace_only_s += self.inproc[-1]
        t_end = _now() + (1 - LATENCY_SHARE) * share
        with self.tr.span("serve.batch"):
            first = True
            while first or _now() < t_end:
                first = False
                qs = [stream[(self.next_q + j) % len(stream)]
                      for j in range(batch)]
                self.next_q += batch
                self.attempted += batch
                try:
                    with self.tr.span("search.pool.search_batch"):
                        ts = _now()
                        self.served.append((qs, self.pool.search_batch(qs)))
                        self.qps.append(batch / (_now() - ts))
                except Exception as e:  # noqa: BLE001 - counted, reported
                    self.pool_failed += batch
                    self.count(0, batch, f"search_batch raised: {e!r}")
        self.mem.sample()

    def _report(self, walls) -> None:
        import ray

        med = {k: float(np.median(v)) for k, v in walls.items()}
        n = self.corpus.table.num_rows
        self.info["walls_s"] = {k: [round(x, 4) for x in v]
                                for k, v in walls.items()}
        self.e2e["setup_s"] = (sum(self.setup_parts.values())
                               + med["pool_warm"], "s")
        self.e2e["dedup_docs_per_s"] = (
            n / (med["exact_dedup"] + med["minhash"]), "docs/s")
        # one index cycle per round: build from empty, resume, merge
        cycle = [b + r + m for b, r, m in zip(walls["build"], walls["resume"],
                                              walls["merge"])]
        self.e2e["index_docs_per_s"] = (n / float(np.median(cycle)),
                                        "docs/s")
        self.e2e["index_bytes_per_input_byte"] = (
            _dir_bytes(self.index_dir) / self.corpus.input_bytes, "B/B")
        lat = self.lat
        self.e2e["query_p50_ms"] = (_pct(lat, 50) * 1e3, "ms")
        # p99 follows the host's load more than the program: over 10
        # seeds it spread 0.08 on one set and 0.31 on the next, while the
        # calibration kernel slowed 2x; it is reported, but not bounded
        self.layer["search.pool.query_ms_p99"] = (_pct(lat, 99) * 1e3, "ms")
        self.e2e["batch_qps"] = (float(np.median(self.qps)), "queries/s")
        self.info["query_p99_ms"] = round(_pct(lat, 99) * 1e3, 4)
        self.info["latency_samples"] = len(lat)
        self.info["latency_samples_above_p99"] = int(
            np.sum(np.asarray(lat) > _pct(lat, 99)))
        self.info["batches"] = [len(self.qps), self.batch]

        seg_s = sum(s["metrics"]["build_secs"]
                    for s in self.manifest.segments)
        self.layer["index.build.wall_s"] = (med["build"], "s")
        self.layer["index.build.partitions"] = (
            len(self.manifest.segments), "count")
        self.layer["index.build.dispatch_s"] = (
            walls["build"][-1] - seg_s / self.ncpu, "s")
        self.layer["index.build.resume_s"] = (med["resume"], "s")
        self.layer["index.build.resume_rebuilt"] = (self.rebuilt, "count")
        self.layer["index.merge.wall_s"] = (med["merge"], "s")
        self.layer["dedup.exact.wall_s"] = (med["exact_dedup"], "s")
        self.layer["dedup.minhash.wall_s"] = (med["minhash"], "s")
        self.layer["search.pool.warm_s"] = (med["pool_warm"], "s")
        counts = ray.get([a.served.remote() for a in self.pool.actors])
        self.layer["search.pool.served_max_over_mean"] = (
            max(counts) / float(np.mean(counts)), "ratio")
        self.layer["search.pool.failed"] = (self.pool_failed, "count")
        if self.tr.enabled:
            d = np.asarray(lat) - np.asarray(self.inproc)
            self.layer["search.searcher.query_ms_p50"] = (
                _pct(self.inproc, 50) * 1e3, "ms")
            self.layer["search.searcher.query_ms_p99"] = (
                _pct(self.inproc, 99) * 1e3, "ms")
            self.layer["search.pool.dispatch_ms_p50"] = (
                _pct(d, 50) * 1e3, "ms")

    def _dedup_gate(self, keep: pa.Table, pairs: pa.Table) -> None:
        table = self.corpus.table
        kept = set(keep.column(DOC_ID).to_pylist())
        oracle = table.group_by(TEXT).aggregate([(DOC_ID, "min")])
        self.check(kept == set(oracle.column(f"{DOC_ID}_min").to_pylist()),
                   "exact_dedup keep set differs from first-id-per-text")
        self.check(all(len(kept.intersection(g)) == 1
                       for g in self.corpus.exact_groups),
                   "exact_dedup kept != 1 doc of a planted group")
        found = set(zip(pairs.column("id_a").to_pylist(),
                        pairs.column("id_b").to_pylist()))
        planted = self.corpus.near_pairs
        due = [(a, b) for a, b, j in planted if j >= MINHASH_THRESHOLD]
        self.check(all(p in found for p in due),
                   "minhash missed a planted pair at/above the threshold")
        hit = sum((a, b) in found for a, b, _ in planted)
        self.layer["dedup.minhash.pairs"] = (pairs.num_rows, "count")
        self.layer["dedup.minhash.planted_recall"] = (
            hit / max(1, len(planted)), "frac")
        self.info["dedup"] = {"kept": len(kept), "pairs": pairs.num_rows,
                              "planted_near": len(planted),
                              "planted_near_at_threshold": len(due),
                              "planted_near_found": hit}

    def _merge_gate(self, ix: str, mg: str) -> None:
        from tantivy_ray.index.merge import MergedSearcher
        from tantivy_ray.search import IndexSearcher

        src, merged = IndexSearcher(ix), MergedSearcher(mg)
        head, _ = gen.head_queries(self.corpus, self.seed, PROBE_QUERIES)
        tail, _ = gen.tail_queries(self.corpus, self.seed, PROBE_QUERIES)
        bad = sum(_hits_table(merged.search(t, m, k))
                  != _hits_table(src.search(t, m, k))
                  for _, t, m, k in head + tail)
        self.count(len(head) + len(tail), bad,
                   f"merged top-k differs on {bad} probe queries")

    def _serve_gate(self) -> None:
        """Every returned top-k equals an in-process exhaustive
        IndexSearcher.search on the same index: ids, order, f32 scores."""
        from tantivy_ray.search import IndexSearcher

        searcher = IndexSearcher(self.index_dir)
        ref: Dict[int, List[tuple]] = {}
        bad = 0
        for queries, tbl in self.served:
            got: Dict[int, List[tuple]] = {}
            cols = [tbl.column(c).to_numpy() for c in
                    ("query_id", "score", "segment_ord", "doc_id")]
            for qid, s, seg, doc in zip(*cols):
                got.setdefault(int(qid), []).append(
                    (np.float32(s), int(seg), int(doc)))
            for qid, t, m, k in queries:
                if qid not in ref:
                    ref[qid] = _hits_table(searcher.search(t, m, k))
                bad += got.pop(qid, []) != ref[qid]
            bad += len(got)     # rows for a query that was not sent
        self.count(0, bad, f"{bad} served top-k differ from the in-process "
                   "exhaustive search")
