"""Exact all-pairs Jaccard join via prefix filtering (PPJoin-style).

The LOSSLESS scale path for exact shingle-set Jaccard >= t (Chaudhuri
et al. "A Primitive Operator for Similarity Joins"; Xiao et al.
PPJoin): order every document's shingle set by one global canonical
order and keep only its PREFIX of length ``n - ceil(t*n) + 1`` — two
sets with Jaccard >= t MUST share at least one prefix element, so
grouping by prefix element and verifying candidates inside each group
finds every qualifying pair with no recall loss (unlike MinHash-LSH,
which is probabilistic).

Distributed shape (Ray Data):
  1. ``map_batches``: per-doc sorted unique shingle-hash array (uint64).
  2. canonical order: ascending GLOBAL document frequency (rarest
     first) — rare prefixes keep candidate groups tiny.  When the
     shingle vocabulary fits a driver-side broadcast the rank map ships
     via ``ray.put`` (once, read per task); above the cap the SAME
     ordering comes from a distributed sort-merge df join (sort(h)
     attach + sort(doc_id) rebuild — two linear exchanges, no
     driver-held vocab, unbounded scale).
  3. ``flat_map``-style explode of prefix elements →
     ``groupby(prefix)`` + per-group verification: length filter
     (``n_a >= t * n_b``) then exact intersection on the uint64 arrays.
  4. pairs dedup (a pair verifies identically in every shared-prefix
     group) via one distributed sort + block-local unique.

Used by the ``ngram_jaccard_dups`` contract entry; the brute-force
``ngram_jaccard_pairs`` remains as its parity reference in tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

from ..analyzer import analyze_batch
from ..utils import remote_args


# broadcast the df map only while it plausibly fits in worker heaps
DEFAULT_BROADCAST_VOCAB_CAP = 5_000_000

# the verify shuffle groups by prefix-hash bucket, not by distinct
# prefix: per-group dispatch overhead is paid NUM_VERIFY_BUCKETS times
# instead of once per distinct prefix element (~15 per doc).  Power of
# two (bucket = low bits of the hash); sized so one bucket's rows fit a
# worker heap comfortably even at 100-TB corpus scale.
NUM_VERIFY_BUCKETS = 512


def jaccard_allpairs_prefix(ds, text_col: str = "text",
                            id_col: str = "doc_id",
                            threshold: float = 0.8,
                            shingle_w: int = 3,
                            analyzer: str = "default",
                            broadcast_vocab_cap: int =
                            DEFAULT_BROADCAST_VOCAB_CAP) -> pa.Table:
    """→ (id_a, id_b, jaccard) — EXACT pairs with jaccard >= threshold."""
    import ray
    import ray.data as rd

    def shingle_stage(batch: pa.Table) -> pa.Table:
        # whole-batch arrow shingle join + one vectorized hash + lexsort
        # dedup — the per-doc hashlib.blake2b generator this replaces
        # paid ~1 µs of python per shingle (~10M shingles at sf1)
        from .minhash import _unique_hash_lists

        out = analyze_batch(batch.column(text_col), analyzer)
        return pa.table({
            id_col: batch.column(id_col).cast(pa.int64()),
            "sh": _unique_hash_lists(out.tokens, shingle_w),
        })

    docs = ds.map_batches(shingle_stage, batch_format="pyarrow",
                          **remote_args()).materialize()

    # global shingle doc-frequencies (one linear exchange); broadcast as
    # the canonical rarity order when the vocab fits.  The uint64 hash
    # is reinterpreted as int64 for the exchange key — Ray's aggregate
    # otherwise falls back to pickling top-bit-set values (bijective, so
    # group identity is unchanged).
    def explode(batch: pa.Table):
        col = batch.column("sh").combine_chunks()
        flat = col.flatten()
        return pa.table({"h": flat.view(pa.int64())})

    def rl_count(tbl: pa.Table) -> pa.Table:
        """h-sorted block → (h, df) run-length counts.  Ray's grouped
        aggregate pays per-group overhead on the ~1-per-doc-shingle
        cardinality here (measured 18.8 s vs 0.7 s at sf1); the
        repo-standard sort + whole-block run-length scan is the right
        shape (equal keys never split across sorted blocks)."""
        if tbl.num_rows == 0:
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "df": pa.array([], type=pa.int64())})
        h = tbl.column("h").to_numpy()
        change = np.empty(len(h), dtype=bool)
        change[0] = True
        change[1:] = h[1:] != h[:-1]
        starts = np.flatnonzero(change)
        cnt = np.diff(np.append(starts, len(h)))
        return pa.table({"h": pa.array(h[starts], type=pa.int64()),
                         "df": pa.array(cnt, type=pa.int64())})

    dfs = (docs.map_batches(explode, batch_format="pyarrow",
                            **remote_args())
           .sort("h")
           .map_batches(rl_count, batch_size=None, batch_format="pyarrow",
                        **remote_args())
           .materialize())  # count() + to_pandas() must not re-execute
    vocab = dfs.count()
    rank_ref: Optional[object] = None
    if vocab <= broadcast_vocab_cap:
        dft = dfs.to_pandas()
        h_u64 = dft["h"].to_numpy(np.int64).view(np.uint64)
        order = np.lexsort((h_u64, dft["df"].to_numpy(np.int64)))
        hs = h_u64[order]  # hashes in rarity (df asc) order
        # docs look ranks up via one vectorized searchsorted against the
        # broadcast hash-sorted keys: rank_of_sorted[k] must be the
        # RARITY rank of the k-th smallest hash — i.e. argsort(hs), NOT
        # its inverse permutation (the inverse is still a consistent
        # total order, so results stay exact, but it puts COMMON
        # shingles in prefixes and blows up candidate-group sizes)
        rank_of_sorted = np.argsort(hs, kind="stable")
        rank_ref = ray.put((np.sort(hs), rank_of_sorted))
    else:
        # distributed rarity join — no driver-side vocab at ANY scale:
        # the df table and the exploded (h, doc_id) rows meet in one
        # sort(h) (equal keys never split across sorted blocks), each
        # doc row picks up its shingle's df, and one sort(doc_id)
        # rebuilds per-doc sets in (df asc, h asc) canonical order —
        # the SAME order the broadcast path ranks by, so prefixes stay
        # rarest-first at unbounded vocabulary
        exploded = _rarity_join_prefix_rows(docs, dfs, id_col, threshold)
        return _verify_and_dedup(exploded, id_col, threshold)

    def prefix_stage(batch: pa.Table) -> pa.Table:
        # fully vectorized: one flatten, one searchsorted over ALL
        # shingle hashes in the batch, one lexsort to rank-order each
        # row's run, zero-copy per-row set blobs sliced from the single
        # rank-sorted buffer (no per-row .as_py() / Python loops)
        import pyarrow.compute as pc

        ranks = ray.get(rank_ref) if rank_ref is not None else None
        ids = batch.column(id_col).to_numpy()
        col = batch.column("sh").combine_chunks()
        n = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        n = np.nan_to_num(n.astype(np.float64)).astype(np.int64)
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(
            np.uint64, copy=False)
        nrows = len(n)
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), n)
        if ranks is not None and len(flat):
            keys, rank_sorted = ranks
            r = rank_sorted[np.searchsorted(keys, flat)]
            order = np.lexsort((r, row_of))   # rarity (df asc) per row
            flat = flat[order]
        # else: np.unique already left hash order — canonical too
        return _emit_prefix_rows(ids, n, flat, threshold, id_col)

    exploded = docs.map_batches(prefix_stage, batch_format="pyarrow",
                                **remote_args())
    return _verify_and_dedup(exploded, id_col, threshold)


def _emit_prefix_rows(ids: np.ndarray, n: np.ndarray,
                      flat_ordered: np.ndarray, threshold: float,
                      id_col: str) -> pa.Table:
    """(per-doc canonical-ordered flat hashes) → prefix rows: the
    (pb, p, id, n, pos, set-blob) table both rank paths feed the
    verifier.  ``flat_ordered`` is the concatenation of every doc's
    shingle hashes already in canonical (rarity) order; set blobs slice
    zero-copy from that one buffer."""
    nrows = len(n)
    starts = np.concatenate(([0], np.cumsum(n)[:-1]))
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), n)
    p = np.where(n > 0,
                 n - np.ceil(threshold * n.astype(np.float64))
                 .astype(np.int64) + 1, 0)
    pos = np.arange(len(flat_ordered), dtype=np.int64) \
        - np.repeat(starts, n)
    mask = pos < np.repeat(p, n)
    off64 = np.concatenate(([0], np.cumsum(n))) * 8
    blobs = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), nrows,
        [None, pa.py_buffer(off64.astype(np.int64).tobytes()),
         pa.py_buffer(flat_ordered.tobytes())])
    sel_rows = row_of[mask]
    pm = flat_ordered[mask]
    return pa.table({
        # int64 views of the prefix hash: exact group identity with
        # no uint64 pickle fallback in the exchange.  "pb" buckets
        # the shuffle into NUM_VERIFY_BUCKETS groups so map_groups
        # pays per-bucket (not per-distinct-prefix) overhead; the
        # verifier re-splits by exact "p" inside each bucket.
        "pb": pa.array((pm & np.uint64(NUM_VERIFY_BUCKETS - 1))
                       .astype(np.int64), type=pa.int64()),
        "p": pa.array(pm.view(np.int64), type=pa.int64()),
        id_col: pa.array(ids[sel_rows].astype(np.int64),
                         type=pa.int64()),
        "n": pa.array(n[sel_rows], type=pa.int64()),
        # 0-indexed position of this prefix element in the doc's
        # canonically-ordered set — feeds the positional filter
        "pos": pa.array(pos[mask], type=pa.int64()),
        "set": blobs.take(pa.array(sel_rows, type=pa.int64())),
    })


def _rarity_join_prefix_rows(docs, dfs, id_col: str, threshold: float):
    """Unbounded-vocabulary rarity ordering: attach each shingle's df
    via one sort(h) merge of the df table with the exploded (h, doc_id)
    rows, then one sort(doc_id) rebuilds per-doc sets in (df asc, h
    asc) canonical order — identical ordering to the broadcast path,
    with two linear exchanges of the shingle multiset instead of a
    driver-held vocab.  Relies on the documented sort invariant: equal
    keys never split across sorted output blocks."""
    import pyarrow.compute as pc

    def explode_docs(batch: pa.Table) -> pa.Table:
        col = batch.column("sh").combine_chunks()
        ids = batch.column(id_col).cast(pa.int64()).to_numpy()
        lens = pc.list_value_length(col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = col.flatten()
        return pa.table({
            "h": flat.view(pa.int64()),
            id_col: pa.array(np.repeat(ids, lens), type=pa.int64()),
            "df": pa.array(np.zeros(len(flat), dtype=np.int64)),
            "side": pa.array(np.ones(len(flat), dtype=np.int8)),
        })

    def df_rows(batch: pa.Table) -> pa.Table:
        nb = batch.num_rows
        return pa.table({
            "h": batch.column("h").cast(pa.int64()),
            id_col: pa.array(np.full(nb, -1, dtype=np.int64)),
            "df": batch.column("df").cast(pa.int64()),
            "side": pa.array(np.zeros(nb, dtype=np.int8)),
        })

    tagged = (dfs.map_batches(df_rows, batch_format="pyarrow",
                              **remote_args())
              .union(docs.map_batches(explode_docs,
                                      batch_format="pyarrow",
                                      **remote_args()))
              .sort("h"))

    def attach_df(tbl: pa.Table) -> pa.Table:
        out_schema = pa.schema([(id_col, pa.int64()), ("h", pa.int64()),
                                ("df", pa.int64())])
        nr = tbl.num_rows
        if nr == 0:
            return pa.Table.from_pydict(
                {f.name: [] for f in out_schema}, schema=out_schema)
        h = tbl.column("h").to_numpy()
        side = tbl.column("side").to_numpy()
        dfv = tbl.column("df").to_numpy()
        ids = tbl.column(id_col).to_numpy()
        change = np.empty(nr, dtype=bool)
        change[0] = True
        change[1:] = h[1:] != h[:-1]
        gid = np.cumsum(change.astype(np.int64)) - 1
        df_of = np.zeros(int(gid[-1]) + 1, dtype=np.int64)
        side0 = np.flatnonzero(side == 0)
        df_of[gid[side0]] = dfv[side0]
        rows = np.flatnonzero(side == 1)
        return pa.table({
            id_col: pa.array(ids[rows], type=pa.int64()),
            "h": pa.array(h[rows], type=pa.int64()),
            "df": pa.array(df_of[gid[rows]], type=pa.int64()),
        })

    attached = tagged.map_batches(attach_df, batch_size=None,
                                  batch_format="pyarrow", **remote_args())

    def build_prefix_rows(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return _emit_prefix_rows(np.empty(0, dtype=np.int64),
                                     np.empty(0, dtype=np.int64),
                                     np.empty(0, dtype=np.uint64),
                                     threshold, id_col)
        ids = tbl.column(id_col).to_numpy()
        h_u = tbl.column("h").to_numpy().view(np.uint64)
        dfv = tbl.column("df").to_numpy()
        order = np.lexsort((h_u, dfv, ids))   # per doc: df asc, h asc
        ids_s, h_s = ids[order], h_u[order]
        change = np.empty(len(ids_s), dtype=bool)
        change[0] = True
        change[1:] = ids_s[1:] != ids_s[:-1]
        starts = np.flatnonzero(change)
        n = np.diff(np.append(starts, len(ids_s)))
        return _emit_prefix_rows(ids_s[starts], n, h_s, threshold, id_col)

    return attached.sort(id_col).map_batches(
        build_prefix_rows, batch_size=None, batch_format="pyarrow",
        **remote_args())


def _verify_and_dedup(exploded, id_col: str, threshold: float) -> pa.Table:
    """groupby(prefix-bucket) verification + distributed pair dedup —
    the tail both rank paths share."""

    def verify_bucket(g) -> "pa.Table":
        import pandas as pd

        p = g["p"].to_numpy()
        ids = g[id_col].to_numpy()
        ns = g["n"].to_numpy()
        poss = g["pos"].to_numpy()
        blobs = g["set"].to_numpy()
        # run-split by exact prefix value; doc-id order inside each run
        # makes pair emission deterministic.  Singleton runs (the vast
        # majority — most prefix elements are unique corpus-wide) are
        # skipped wholesale.
        order = np.lexsort((ids, p))
        p_s = p[order]
        starts = np.flatnonzero(np.concatenate(([True], p_s[1:] != p_s[:-1])))
        ends = np.concatenate((starts[1:], [len(p_s)]))
        out_a, out_b, out_j = [], [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            run = order[s:e]
            ids_r = ids[run]
            ns_r = ns[run].astype(np.float64)
            pos_r = poss[run]
            k = len(run)
            for ii in range(k - 1):
                na = ns_r[ii]
                nb = ns_r[ii + 1:]
                # lossless length filter: J >= t → min >= t * max
                ok = np.minimum(na, nb) >= threshold * np.maximum(na, nb)
                # PPJoin positional filter (Xiao et al.): overlap is
                # bounded by min(na - pa, nb - pb) when this is the
                # pair's FIRST shared prefix element; J >= t needs
                # overlap >= t/(1+t)*(na+nb).  A pair wrongly pruned
                # here on a LATER shared element (where the bound does
                # not hold) still verifies in its first element's run —
                # the union over runs loses nothing.
                ub = np.minimum(na - pos_r[ii], nb - pos_r[ii + 1:])
                alpha = threshold / (1.0 + threshold) * (na + nb)
                ok &= ub >= alpha - 1e-7
                ok &= ids_r[ii + 1:] != ids_r[ii]
                if not ok.any():
                    continue
                a = np.frombuffer(blobs[run[ii]], dtype=np.uint64)
                for jj in np.flatnonzero(ok) + ii + 1:
                    j = run[jj]
                    b = np.frombuffer(blobs[j], dtype=np.uint64)
                    inter = len(np.intersect1d(a, b, assume_unique=True))
                    union = int(na) + int(ns[j]) - inter
                    jac = inter / union if union else 0.0
                    if jac >= threshold:
                        x, y = sorted((int(ids_r[ii]), int(ids[j])))
                        out_a.append(x)
                        out_b.append(y)
                        out_j.append(round(jac, 6))
        return pd.DataFrame({"id_a": out_a, "id_b": out_b,
                             "jaccard": out_j})

    pairs = exploded.groupby("pb").map_groups(verify_bucket)

    # distributed pair dedup (identical verdict in every shared group):
    # sort co-locates duplicates, block-local drop_duplicates finishes
    def drop_dupes(pdf):
        return pdf.drop_duplicates(["id_a", "id_b"])

    deduped = (pairs.sort(["id_a", "id_b"])
               .map_batches(drop_dupes, batch_format="pandas",
                            batch_size=None, **remote_args()))
    pdf = deduped.to_pandas()
    if len(pdf.columns) == 0:  # every group verified empty
        import pandas as pd

        pdf = pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    pdf = pdf.drop_duplicates(["id_a", "id_b"])
    pdf = pdf.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return pa.table({
        "id_a": pa.array(pdf["id_a"].astype(np.int64)),
        "id_b": pa.array(pdf["id_b"].astype(np.int64)),
        "jaccard": pa.array(pdf["jaccard"].astype(np.float64)),
    })
