"""MinHash + LSH near-duplicate detection — distributed end to end.

Filter then verify: banded signatures propose candidate pairs, and every
reported pair's jaccard is computed EXACTLY, so the signature family
only shapes candidate recall.  Every stage is a Dataset op:
    map_batches(analyze → shingle hashes → signatures → band keys)
  → sort(band_key) → within-bucket candidate pairs
  → verify, one of two shapes picked from the candidate count:
    - fused (default): the deduped candidate-pair id arrays are a
      ``ray.put`` broadcast; each doc's unique shingle-hash set fans
      straight to its (pair, side) slots, and one sort(pair) computes
      every pair's jaccard;
    - reduce-side join, when the count exceeds
      ``DEFAULT_CANDIDATE_BROADCAST_CAP`` (the id arrays would not fit
      a broadcast): pair-endpoint rows ∪ every doc's shingle row →
      sort(doc id) attaches shingle sets to endpoints → sort(pair) →
      jaccard.  Same output as the fused path.
No document row data (texts, shingle sets) ever lands on the driver.

Shingles are token w-grams (default w=3) of the analyzer's output;
documents with fewer than w tokens are excluded (their shingle set is
empty — same rule the SQL oracle applies).  Signatures are 128
odd-multiplier wraparound permutations (x → a·x mod 2^64,
``hashing.mult_min_hash``) of SipHash shingle hashes; bands default to
32x4 so P(miss | jaccard >= 0.8) < 1e-7 — effectively exhaustive at the
verify threshold while shuffling only (band_key, doc_id) pairs.  The
jaccard is over 64-bit shingle hashes (equal to the string-set jaccard
up to ~1e-13 collision odds), so results match a brute-force oracle
whenever the banding recall covers the threshold.
"""

from __future__ import annotations

import logging
from typing import List, Optional

import numpy as np
import pyarrow as pa

from ..analyzer import analyze_batch
from ..utils import remote_args
from .hashing import (EMPTY_SIG, band_keys, hash_strings64, mult_min_hash,
                      segment_pairs)


class MinHasher:
    def __init__(self, num_perm: int = 128, seed: int = 7, shingle_w: int = 3):
        rs = np.random.RandomState(seed)
        self.num_perm = num_perm
        self.shingle_w = shingle_w
        # these two draws fed a retired (a*x + b) mod 2^61-1 family; they
        # stay so the multipliers drawn after them, and so every
        # signature and band key, keep their values
        rs.randint(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        rs.randint(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        # odd wraparound multipliers, one per permutation
        hi = rs.randint(0, 1 << 32, size=num_perm).astype(np.uint64)
        lo = rs.randint(0, 1 << 32, size=num_perm).astype(np.uint64)
        self.mults = ((hi << np.uint64(32)) | lo) | np.uint64(1)

    @staticmethod
    def shingles(tokens: List[str], w: int) -> List[str]:
        return [" ".join(tokens[i:i + w]) for i in range(len(tokens) - w + 1)]

    def mult_signatures_from_analyzed(self, tokens: pa.ListArray) -> np.ndarray:
        """(D, P) signatures of an AnalyzedBatch token ListArray
        (``hashing.mult_min_hash`` over the batch's shingle hashes).
        Empty docs are EMPTY_SIG-filled."""
        kept, starts, ends = _shingle_hashes(tokens, self.shingle_w)
        return mult_min_hash(kept, self.mults, starts, ends)

    def signature(self, tokens: List[str]) -> Optional[np.ndarray]:
        """One doc's signature; None when it has no shingles."""
        sig = self.mult_signatures_from_analyzed(
            pa.array([tokens], type=pa.list_(pa.string())))[0]
        return None if (sig == EMPTY_SIG).all() else sig


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def _shingle_hashes(tokens: pa.ListArray, w: int):
    """→ (shingle hashes, per-doc start, per-doc end), the ranges tiling
    the hash array in doc order.  Fully vectorized: the flat token array
    is joined with its own 1..w-1-shifted views (arrow
    binary_join_element_wise) and hashed in one call; the shingles
    that cross a doc boundary are then dropped."""
    import pyarrow.compute as pc

    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    offsets = tokens.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = tokens.values
    S = len(flat)
    if S < w:
        z = np.zeros(len(offsets) - 1, dtype=np.int64)
        return np.empty(0, dtype=np.uint64), z, z
    # shingle i spans flat[i : i+w]; a doc owns the shingles that start
    # at its tokens and end inside it
    views = [flat.slice(k, S - w + 1) for k in range(w)]
    joined = pc.binary_join_element_wise(*views, " ")
    hashes_all = hash_strings64(joined.to_numpy(zero_copy_only=False))
    sh_s = np.minimum(offsets[:-1], S - w + 1)
    lens = np.maximum(offsets[1:] - (w - 1) - sh_s, 0)
    # the docs' ranges are disjoint and ascending: gather them end to end
    ends = np.cumsum(lens)
    starts = ends - lens
    idx = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    idx += np.repeat(sh_s - starts, lens)
    return hashes_all[idx], starts, ends


def _empty_pairs() -> pa.Table:
    return pa.table({"id_a": pa.array([], type=pa.int64()),
                     "id_b": pa.array([], type=pa.int64()),
                     "jaccard": pa.array([], type=pa.float64())})


_JOIN_SCHEMA = pa.schema([
    ("jkey", pa.int64()),
    ("pair_a", pa.int64()),
    ("pair_b", pa.int64()),
    ("side", pa.int32()),
    ("hashes", pa.list_(pa.uint64())),
])


def _unique_hash_lists(tokens, shingle_w: int) -> pa.ListArray:
    """Per-doc UNIQUE shingle-hash lists, fully vectorized: the batch's
    shingle hashes (``_shingle_hashes``), then a (doc, hash) lexsort
    + run-length dedup — no per-document python."""
    kept, starts, ends = _shingle_hashes(tokens, shingle_w)
    lens = ends - starts
    n = len(lens)
    if len(kept) == 0:
        return pa.ListArray.from_arrays(
            pa.array(np.zeros(n + 1, dtype=np.int64), type=pa.int32()),
            pa.array(np.empty(0, dtype=np.uint64), type=pa.uint64()))
    doc_rep = np.repeat(np.arange(n, dtype=np.int64), lens)
    order = np.lexsort((kept, doc_rep))
    d2, h2 = doc_rep[order], kept[order]
    new = np.empty(len(d2), dtype=bool)
    new[0] = True
    new[1:] = (d2[1:] != d2[:-1]) | (h2[1:] != h2[:-1])
    flat = h2[new]
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(counts, d2[new], 1)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()),
        pa.array(flat, type=pa.uint64()))


def _make_shingle_stage(text_col: str, id_col: str, shingle_w: int,
                        analyzer: str):
    """Every doc's row for the reduce-side join: its unique shingle-hash
    set keyed by doc id."""

    def stage(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64()).to_numpy()
        out = analyze_batch(batch.column(text_col), analyzer)
        hl = _unique_hash_lists(out.tokens, shingle_w)
        n = len(ids)
        return pa.table({
            "jkey": pa.array(ids, type=pa.int64()),
            "pair_a": pa.array(np.full(n, -1, dtype=np.int64)),
            "pair_b": pa.array(np.full(n, -1, dtype=np.int64)),
            "side": pa.array(np.full(n, 2, dtype=np.int32)),
            "hashes": hl,
        }).cast(_JOIN_SCHEMA)

    return stage


def _bucket_pairs_block(tbl: pa.Table, id_col: str) -> pa.Table:
    """All candidate pairs in one bkey-sorted block, fully vectorized:
    one (bkey, id) lexsort dedups repeated ids per bucket, then
    segment_pairs enumerates every within-bucket pair in one gather (no
    per-bucket python — the round-4 version looped real buckets)."""
    n = tbl.num_rows
    empty = pa.table({"id_a": pa.array([], type=pa.int64()),
                      "id_b": pa.array([], type=pa.int64())})
    if n == 0:
        return empty
    k = tbl.column("bkey").to_numpy()
    ids_np = tbl.column(id_col).to_numpy()
    order = np.lexsort((ids_np, k))
    k2, i2 = k[order], ids_np[order]
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = (k2[1:] != k2[:-1]) | (i2[1:] != i2[:-1])
    k3, i3 = k2[keep], i2[keep]
    change = np.empty(len(k3), dtype=bool)
    change[0] = True
    change[1:] = k3[1:] != k3[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], len(k3))
    ii, jj = segment_pairs(starts, ends)
    if len(ii) == 0:
        return empty
    return pa.table({
        "id_a": pa.array(i3[ii].astype(np.int64), type=pa.int64()),
        "id_b": pa.array(i3[jj].astype(np.int64), type=pa.int64()),
    })


_ATTACH_SCHEMA = pa.schema([("pair_a", pa.int64()), ("pair_b", pa.int64()),
                            ("side", pa.int32()),
                            ("hashes", pa.list_(pa.uint64()))])


def _attach_shingles_block(tbl: pa.Table) -> pa.Table:
    """Join step (jkey-sorted block): each doc's hash row is fanned to
    its pair-endpoint rows; duplicate (pair, side) endpoints (the same
    pair firing in several bands) collapse here.  Fully vectorized:
    run-length groups over the sorted jkey column + one lexsort dedup of
    the endpoint rows + one gather to replicate the hash slices."""
    n = tbl.num_rows
    if n == 0:
        return pa.Table.from_pydict(
            {f.name: [] for f in _ATTACH_SCHEMA}, schema=_ATTACH_SCHEMA)
    tbl = tbl.combine_chunks()
    jk = tbl.column("jkey").to_numpy()
    side = tbl.column("side").to_numpy()
    p_a = tbl.column("pair_a").to_numpy()
    p_b = tbl.column("pair_b").to_numpy()
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = jk[1:] != jk[:-1]
    gid = np.cumsum(change.astype(np.int64)) - 1
    n_groups = int(gid[-1]) + 1
    hl = tbl.column("hashes").combine_chunks()
    offs = hl.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = hl.values.to_numpy(zero_copy_only=False)
    # per group: the (single) side-2 row's hash slice, empty if none
    g_start = np.zeros(n_groups, dtype=np.int64)
    g_len = np.zeros(n_groups, dtype=np.int64)
    sh_rows = np.flatnonzero(side == 2)
    g_start[gid[sh_rows]] = offs[sh_rows]
    g_len[gid[sh_rows]] = offs[sh_rows + 1] - offs[sh_rows]
    # dedup endpoints by (group, pair, side) — all-numeric lexsort
    ends = np.flatnonzero(side != 2)
    if len(ends) == 0:
        return pa.Table.from_pydict(
            {f.name: [] for f in _ATTACH_SCHEMA}, schema=_ATTACH_SCHEMA)
    eg, ea, eb, es = gid[ends], p_a[ends], p_b[ends], side[ends]
    order = np.lexsort((es, eb, ea, eg))
    eg, ea, eb, es = eg[order], ea[order], eb[order], es[order]
    new = np.empty(len(eg), dtype=bool)
    new[0] = True
    new[1:] = ((eg[1:] != eg[:-1]) | (ea[1:] != ea[:-1])
               | (eb[1:] != eb[:-1]) | (es[1:] != es[:-1]))
    eg, ea, eb, es = eg[new], ea[new], eb[new], es[new]
    # replicate each endpoint's group hash slice: standard arange gather
    out_lens = g_len[eg]
    total = int(out_lens.sum())
    out_offsets = np.zeros(len(eg) + 1, dtype=np.int64)
    np.cumsum(out_lens, out=out_offsets[1:])
    if total:
        idx = (np.repeat(g_start[eg], out_lens)
               + np.arange(total, dtype=np.int64)
               - np.repeat(out_offsets[:-1], out_lens))
        out_flat = flat[idx]
    else:
        out_flat = np.empty(0, dtype=np.uint64)
    return pa.table({
        "pair_a": pa.array(ea, type=pa.int64()),
        "pair_b": pa.array(eb, type=pa.int64()),
        "side": pa.array(es, type=pa.int32()),
        "hashes": pa.ListArray.from_arrays(
            pa.array(out_offsets, type=pa.int32()),
            pa.array(out_flat, type=pa.uint64())),
    }).cast(_ATTACH_SCHEMA)


def _make_pair_jaccard_block(threshold: float):
    """(pair_a, pair_b)-sorted block → verified pairs.  Same np.unique
    run-length jaccard as the fused path (size-2 (pair, hash) runs are
    intersection members; hashes are unique within each side)."""

    def block_fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return _empty_pairs()
        tbl = tbl.combine_chunks()
        p_a = tbl.column("pair_a").to_numpy()
        p_b = tbl.column("pair_b").to_numpy()
        n = len(p_a)
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (p_a[1:] != p_a[:-1]) | (p_b[1:] != p_b[:-1])
        gid = np.cumsum(change.astype(np.int64)) - 1
        g_first = np.flatnonzero(change)
        n_groups = len(g_first)
        hl = tbl.column("hashes").combine_chunks()
        offs = hl.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = hl.values.to_numpy(zero_copy_only=False)
        lens = np.diff(offs)
        gid_rep = np.repeat(gid, lens)
        order = np.lexsort((flat, gid_rep))
        g2, h2 = gid_rep[order], flat[order]
        union = np.zeros(n_groups, dtype=np.int64)
        inter = np.zeros(n_groups, dtype=np.int64)
        if len(g2):
            new = np.empty(len(g2), dtype=bool)
            new[0] = True
            new[1:] = (g2[1:] != g2[:-1]) | (h2[1:] != h2[:-1])
            gstarts = np.flatnonzero(new)
            gsizes = np.diff(np.append(gstarts, len(g2)))
            np.add.at(union, g2[gstarts], 1)
            np.add.at(inter, g2[gstarts], (gsizes == 2).astype(np.int64))
        ok = union > 0
        jac = np.zeros(n_groups, dtype=np.float64)
        jac[ok] = inter[ok] / union[ok]
        hit = np.flatnonzero(jac >= threshold)
        return pa.table({
            "id_a": pa.array(p_a[g_first[hit]], type=pa.int64()),
            "id_b": pa.array(p_b[g_first[hit]], type=pa.int64()),
            "jaccard": pa.array(np.round(jac[hit], 6), type=pa.float64()),
        })

    return block_fn


def _fused_verify(ds, cand, text_col: str, id_col: str, threshold: float,
                  shingle_w: int, analyzer: str) -> pa.Table:
    """Verify candidate pairs with ONE exchange (round-3 fusion of the
    round-2 attach + jaccard sorts): the deduped candidate-pair arrays
    are a ``ray.put`` broadcast (ids only — bounded by candidate volume,
    the same contract as the round-2 candidate-id broadcast), so the
    shingle stage fans each doc's hashed shingle set DIRECTLY to its
    (pair, side) slots; one sort(pair) then computes every pair's exact
    jaccard fully vectorized (np.unique run-lengths over (pair, hash) —
    no iterrows, no per-group pandas).  Jaccard over 64-bit shingle
    hashes equals string-set jaccard up to ~1e-13 collision odds."""
    import ray

    allp = _collect(cand)
    if allp is None:
        return _empty_pairs()
    a = allp.column("id_a").to_numpy().astype(np.int64)
    b = allp.column("id_b").to_numpy().astype(np.int64)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.empty(len(a), dtype=bool)
    keep[0] = True
    keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    a, b = a[keep], b[keep]
    n_pairs = len(a)
    # doc -> (pair, side) slots, sorted by doc id for searchsorted lookup
    docs = np.concatenate([a, b])
    pcode = np.tile(np.arange(n_pairs, dtype=np.int64), 2)
    o = np.argsort(docs, kind="stable")
    lookup_ref = ray.put((docs[o], pcode[o], a, b))

    out_schema = pa.schema([("pair", pa.int64()),
                            ("hashes", pa.list_(pa.uint64()))])

    def fanout(batch: pa.Table) -> pa.Table:
        docs_s, pcode_s, _, _ = ray.get(lookup_ref)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy()
        lo = np.searchsorted(docs_s, ids, side="left")
        hi = np.searchsorted(docs_s, ids, side="right")
        sel = np.flatnonzero(hi > lo)
        if len(sel) == 0:
            return pa.Table.from_pydict({"pair": [], "hashes": []},
                                        schema=out_schema)
        sub = batch.take(pa.array(sel, type=pa.int64()))
        out = analyze_batch(sub.column(text_col), analyzer)
        # per-doc UNIQUE hash lists (one lexsort dedup for the batch)
        hl = _unique_hash_lists(out.tokens, shingle_w)
        d_offs = hl.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        d_flat = hl.values.to_numpy(zero_copy_only=False)
        d_lens = np.diff(d_offs)
        # fan each doc row to its [lo, hi) pair slots — one arange gather
        rep = (hi - lo)[sel]
        slot_idx = (np.repeat(lo[sel], rep)
                    + np.arange(int(rep.sum()), dtype=np.int64)
                    - np.repeat(np.cumsum(rep) - rep, rep))
        pair_arr = pcode_s[slot_idx]
        row_rep = np.repeat(np.arange(len(sel), dtype=np.int64), rep)
        out_lens = d_lens[row_rep]
        total = int(out_lens.sum())
        out_offsets = np.zeros(len(row_rep) + 1, dtype=np.int64)
        np.cumsum(out_lens, out=out_offsets[1:])
        if total:
            gidx = (np.repeat(d_offs[row_rep], out_lens)
                    + np.arange(total, dtype=np.int64)
                    - np.repeat(out_offsets[:-1], out_lens))
            out_flat = d_flat[gidx]
        else:
            out_flat = np.empty(0, dtype=np.uint64)
        return pa.table({
            "pair": pa.array(pair_arr, type=pa.int64()),
            "hashes": pa.ListArray.from_arrays(
                pa.array(out_offsets, type=pa.int32()),
                pa.array(out_flat, type=pa.uint64())),
        })

    fan = ds.map_batches(fanout, batch_format="pyarrow", **remote_args())

    def jaccard_block(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return _empty_pairs()
        a_s, b_s = ray.get(lookup_ref)[2:]
        pair = tbl.column("pair").to_numpy()
        hl = tbl.column("hashes").combine_chunks()
        offs = hl.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = hl.values.to_numpy(zero_copy_only=False)
        lens = np.diff(offs)
        pair_rep = np.repeat(pair, lens)
        # run-lengths over sorted (pair, hash): a size-2 group is an
        # intersection member (hashes are unique within each side)
        order = np.lexsort((flat, pair_rep))
        p2, h2 = pair_rep[order], flat[order]
        new = np.empty(len(p2), dtype=bool)
        if len(p2):
            new[0] = True
            new[1:] = (p2[1:] != p2[:-1]) | (h2[1:] != h2[:-1])
        gstarts = np.flatnonzero(new)
        gsizes = np.diff(np.append(gstarts, len(p2)))
        gpair = p2[gstarts]
        present = np.unique(pair)
        union = np.zeros(len(present), dtype=np.int64)
        inter = np.zeros(len(present), dtype=np.int64)
        if len(gpair):
            gidx = np.searchsorted(present, gpair)
            np.add.at(union, gidx, 1)
            np.add.at(inter, gidx, (gsizes == 2).astype(np.int64))
        ok = union > 0
        jac = np.zeros(len(present), dtype=np.float64)
        jac[ok] = inter[ok] / union[ok]
        hit = jac >= threshold
        sel = present[hit]
        return pa.table({
            "id_a": pa.array(a_s[sel], type=pa.int64()),
            "id_b": pa.array(b_s[sel], type=pa.int64()),
            "jaccard": pa.array(np.round(jac[hit], 6), type=pa.float64()),
        })

    return _sorted_pairs(fan.sort("pair").map_batches(
        jaccard_block, batch_size=None, batch_format="pyarrow",
        **remote_args(),
    ))


def _collect(ds) -> Optional[pa.Table]:
    """A Dataset's non-empty blocks as one Arrow table (None if none)."""
    blocks = [t for t in ds.iter_batches(batch_size=None,
                                         batch_format="pyarrow")
              if t.num_rows]
    return pa.concat_tables(blocks) if blocks else None


def _sorted_pairs(verified) -> pa.Table:
    """The verified-pairs Dataset → one (id_a, id_b)-sorted table."""
    tbl = _collect(verified)
    if tbl is None:
        return _empty_pairs()
    return tbl.cast(_empty_pairs().schema).sort_by(
        [("id_a", "ascending"), ("id_b", "ascending")]).combine_chunks()


# the fused verify holds the deduped candidate-pair id arrays on the
# driver (then ray.put): bounded by candidate volume, so above this cap
# the reduce-side-join path (which never centralizes pairs) takes over
DEFAULT_CANDIDATE_BROADCAST_CAP = 20_000_000


def minhash_lsh_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 128,
    bands: int = 32,
    shingle_w: int = 3,
    analyzer: str = "default",
) -> pa.Table:
    """→ pa.Table (id_a, id_b, jaccard) for verified near-dup pairs,
    id_a < id_b, sorted by (id_a, id_b).  See the module docstring for
    the distributed shape; the verify is the fused broadcast path unless
    the candidate-pair count exceeds DEFAULT_CANDIDATE_BROADCAST_CAP."""
    hasher = MinHasher(num_perm, shingle_w=shingle_w)

    def stage_bands(batch: pa.Table) -> pa.Table:
        out = analyze_batch(batch.column(text_col), analyzer)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy()
        sigs = hasher.mult_signatures_from_analyzed(out.tokens)
        nonempty = np.flatnonzero(~(sigs == EMPTY_SIG).all(axis=1))
        keys = band_keys(sigs[nonempty], bands)       # (D', bands)
        return pa.table({
            "bkey": pa.array(keys.ravel(), type=pa.uint64()),
            id_col: pa.array(np.repeat(ids[nonempty], bands),
                             type=pa.int64()),
        })

    banded = ds.map_batches(stage_bands, batch_format="pyarrow",
                            **remote_args())

    # bucket pairs: sort(bkey) + whole-block vectorized run-length scan
    # (a per-group map_groups would pay pandas slicing on every
    # singleton bucket — the vast majority)
    cand = banded.sort("bkey").map_batches(
        lambda t: _bucket_pairs_block(t, id_col),
        batch_size=None, batch_format="pyarrow", **remote_args(),
    ).materialize()  # consumed once for count, once for the verify

    n_cand = cand.count()
    if n_cand <= DEFAULT_CANDIDATE_BROADCAST_CAP:
        return _fused_verify(ds, cand, text_col, id_col, threshold,
                             shingle_w, analyzer)
    logging.getLogger(__name__).info(
        "minhash: %d candidate pairs exceed the broadcast cap %d — "
        "switching to the reduce-side join verify",
        n_cand, DEFAULT_CANDIDATE_BROADCAST_CAP)

    # pair-endpoint rows for the reduce-side join (duplicate pairs from
    # multiple bands collapse inside the join stage)
    def endpoints(t: pa.Table) -> pa.Table:
        ia = t.column("id_a").to_numpy().astype(np.int64)
        ib = t.column("id_b").to_numpy().astype(np.int64)
        n2 = 2 * len(ia)
        return pa.table({
            "jkey": pa.array(np.concatenate([ia, ib]), type=pa.int64()),
            "pair_a": pa.array(np.tile(ia, 2), type=pa.int64()),
            "pair_b": pa.array(np.tile(ib, 2), type=pa.int64()),
            "side": pa.array(np.repeat(np.array([0, 1], dtype=np.int32),
                                       len(ia))),
            "hashes": pa.ListArray.from_arrays(
                pa.array(np.zeros(n2 + 1, dtype=np.int64), type=pa.int32()),
                pa.array(np.empty(0, dtype=np.uint64), type=pa.uint64())),
        }).cast(_JOIN_SCHEMA)

    ends_ds = cand.map_batches(endpoints, batch_format="pyarrow",
                               **remote_args())
    shingle_ds = ds.map_batches(
        _make_shingle_stage(text_col, id_col, shingle_w, analyzer),
        batch_format="pyarrow",
        **remote_args(),
    )
    joined = ends_ds.union(shingle_ds).sort("jkey").map_batches(
        _attach_shingles_block, batch_size=None, batch_format="pyarrow",
        **remote_args(),
    )
    return _sorted_pairs(joined.sort(["pair_a", "pair_b"]).map_batches(
        _make_pair_jaccard_block(threshold), batch_size=None,
        batch_format="pyarrow", **remote_args(),
    ))


def ngram_jaccard_pairs(ds, text_col="text", id_col="doc_id",
                        threshold: float = 0.8, shingle_w: int = 3,
                        analyzer: str = "default") -> pa.Table:
    """Brute-force exact shingle-jaccard pairs (the oracle path of
    minhash_lsh_pairs; quadratic — test scale only)."""
    def stage(batch: pa.Table) -> pa.Table:
        out = analyze_batch(batch.column(text_col), analyzer)
        sh = [sorted(set(MinHasher.shingles(t, shingle_w)))
              for t in out.tokens.to_pylist()]
        return pa.table({
            id_col: batch.column(id_col).cast(pa.int64()),
            "shingles": pa.array(sh, type=pa.list_(pa.string())),
        })

    tbl = _collect(ds.map_batches(stage, batch_format="pyarrow",
                                  **remote_args()))
    if tbl is None:
        return _empty_pairs()
    ids = tbl.column(id_col).to_pylist()
    sets = [set(s) for s in tbl.column("shingles").to_pylist()]
    rows = []
    for i in range(len(ids)):
        if not sets[i]:
            continue
        for j in range(i + 1, len(ids)):
            if not sets[j]:
                continue
            jac = _jaccard(sets[i], sets[j])
            if jac >= threshold:
                a, b = sorted((int(ids[i]), int(ids[j])))
                rows.append((a, b, jac))
    rows.sort()
    return pa.table({
        "id_a": pa.array([r[0] for r in rows], type=pa.int64()),
        "id_b": pa.array([r[1] for r in rows], type=pa.int64()),
        "jaccard": pa.array([round(r[2], 6) for r in rows], type=pa.float64()),
    })
