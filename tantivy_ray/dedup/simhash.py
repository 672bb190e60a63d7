"""SimHash near-duplicate detection.

64-bit simhash over token 3-gram SHINGLE features (weight 1 each): each
feature's blake2b-64 hash contributes ±1 per bit; the sign of each bit-sum
is the fingerprint bit.  Shingles (not unigram tfs) keep the feature set
sparse and near-unique, so a few edited tokens move only a few of ~n
contributions per bit — expected Hamming distance ≈ 64·θ/π where θ is the
angle between feature sets (jaccard 0.95 ⇒ ≈4-5 bits).  Near-dups = pairs
with Hamming distance <= k.  Candidate generation uses Manku-style
piece-combination tables (Detecting Near-Duplicates for Web Crawling,
WWW'07 §3): the 64 bits split into (k+m) pieces and each of the
C(k+m, m) size-m piece combinations keys one bucket table.  Two
fingerprints within distance k differ in at most k pieces, so at least
m pieces are intact and the pair shares that combination's bucket —
RECALL-EXACT for the distance threshold (unlike MinHash banding there
is no probabilistic miss).  m controls the scale trade-off exactly as
in the paper: key width is ~m*64/(k+m) bits, so expected bucket size
is N / 2^(m*64/(k+m)) — fixed m makes candidate volume quadratic in N,
so ``simhash_pairs`` picks the smallest m >= 2 whose expected bucket
stays below a constant (row fan-out grows as C(k+m, m), capped).  At
k=10: m=2 → 66 tables / ~11-bit keys (fine to ~100k docs), m=3 → 286
tables / ~16-bit keys (to ~2M docs), and so on.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np
import pyarrow as pa

from ..analyzer import analyze_batch
from ..utils import remote_args
from .hashing import hash_strings64, popcount64, segment_pairs


class SimHasher:
    def __init__(self, nbits: int = 64, shingle_w: int = 3):
        assert nbits == 64
        self.nbits = 64
        self.shingle_w = shingle_w

    def fingerprints_from_analyzed(self, tokens: pa.ListArray) -> np.ndarray:
        """(D,) uint64 fingerprints straight from an AnalyzedBatch token
        ListArray — no per-document python.  The features are the
        unique token w-gram shingles (via the shared arrow shingle join
        + lexsort dedup), or the single whole-doc join for docs shorter
        than w tokens (whose 1-feature fingerprint is the feature hash
        itself — every bit vote is that bit)."""
        import pyarrow.compute as pc

        from .minhash import _unique_hash_lists

        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        n = len(tokens)
        out = np.zeros(n, dtype=np.uint64)
        if n == 0:
            return out
        tok_counts = np.diff(
            tokens.offsets.to_numpy(zero_copy_only=False).astype(np.int64))
        hl = _unique_hash_lists(tokens, self.shingle_w)
        offs = hl.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = hl.values.to_numpy(zero_copy_only=False)
        feat_counts = np.diff(offs)
        long_docs = np.flatnonzero(feat_counts > 0)
        if len(long_docs):
            bits = ((flat[:, None] >> np.arange(64, dtype=np.uint64))
                    & np.uint64(1)).astype(np.int32)          # (S, 64)
            ones = np.add.reduceat(bits, offs[long_docs], axis=0)
            pos = (2 * ones) > feat_counts[long_docs][:, None]
            weights = np.left_shift(np.uint64(1),
                                    np.arange(64, dtype=np.uint64))
            out[long_docs] = (pos.astype(np.uint64)
                              * weights[None, :]).sum(axis=1)
        short = np.flatnonzero((tok_counts > 0)
                               & (tok_counts < self.shingle_w))
        if len(short):
            joined = pc.binary_join(
                tokens.take(pa.array(short, type=pa.int64())),
                pa.scalar(" "))
            out[short] = hash_strings64(
                joined.to_numpy(zero_copy_only=False))
        return out

    def fingerprint(self, tokens: List[str]) -> int:
        """One doc's fingerprint (0 for a doc with no tokens)."""
        return int(self.fingerprints_from_analyzed(
            pa.array([tokens], type=pa.list_(pa.string())))[0])


def hamming(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def _piece_layout(n_pieces: int):
    """Bit widths + offsets splitting 64 bits into ``n_pieces`` pieces
    (the remainder bits widen the leading pieces by one)."""
    base, rem = divmod(64, n_pieces)
    widths = np.full(n_pieces, base, dtype=np.int64)
    widths[:rem] += 1
    offsets = np.concatenate([[0], np.cumsum(widths)[:-1]])
    return widths, offsets


SIMHASH_TARGET_BUCKET = 64.0
SIMHASH_MAX_TABLES = 1024


def _auto_m(n_docs: int, k: int, target_bucket: float = SIMHASH_TARGET_BUCKET,
            max_tables: int = SIMHASH_MAX_TABLES) -> int:
    """Smallest intact-piece count m >= 2 whose expected bucket size
    N / 2^(m * 64//(k+m)) stays below ``target_bucket`` — fixed m makes
    candidate volume quadratic in corpus size (measured: k=10 m=2 walls
    grew 12 s → 164 s from 50k to 150k docs), so m must track N exactly
    as Manku's table count does.  Fan-out C(k+m, m) is capped."""
    m = 2
    while True:
        key_bits = m * (64 // (k + m))
        if n_docs / float(1 << min(62, key_bits)) <= target_bucket:
            return m
        nxt = m + 1
        if k + nxt > 64 or math.comb(k + nxt, nxt) > max_tables:
            return m
        m = nxt


def simhash_pairs(ds, text_col="text", id_col="doc_id",
                  max_distance: int = 10, analyzer: str = "default",
                  num_docs: int = None, m: int = None) -> pa.Table:
    """→ (id_a, id_b, distance) pairs with Hamming distance <= max_distance.

    Candidates come from C(k+m, m) piece-combination tables (module
    docstring); each table's key packs its m pieces plus the table
    index, so buckets never collide across tables.  ``m`` defaults to
    the corpus-size-adaptive pick (``_auto_m`` — constant expected
    bucket size, capped fan-out); pass it explicitly to pin the
    fan-out/key-width trade."""
    from itertools import combinations

    if not 0 <= max_distance <= 62:
        raise ValueError("max_distance must be in [0, 62] (the piece "
                         "pigeonhole needs k+2 <= 64 pieces)")
    hasher = SimHasher()
    if m is None:
        n_docs = ds.count() if num_docs is None else num_docs
        m = _auto_m(n_docs, max_distance)
    if not 2 <= m <= 64 - max_distance:
        raise ValueError(f"m must be in [2, {64 - max_distance}]")
    n_pieces = max_distance + m
    widths, offsets = _piece_layout(n_pieces)
    # a table key packs m pieces plus the table index: check that budget
    # from C(k+m, m) before enumerating any combination
    n_tables = math.comb(n_pieces, m)
    table_bits = (n_tables - 1).bit_length()
    key_bits = int(widths.max()) * m + table_bits
    if key_bits > 64:
        raise ValueError(
            f"max_distance={max_distance}, m={m}: {n_tables} tables need "
            f"a {key_bits}-bit key (64 max); lower m")
    combos = list(combinations(range(n_pieces), m))

    def stage(batch: pa.Table) -> pa.Table:
        out = analyze_batch(batch.column(text_col), analyzer)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy()
        tokens = out.tokens
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        tok_counts = np.diff(
            tokens.offsets.to_numpy(zero_copy_only=False).astype(np.int64))
        idx = np.flatnonzero(tok_counts > 0)
        if len(idx) == 0:
            return pa.table({"band_key": pa.array([], type=pa.uint64()),
                             id_col: pa.array([], type=pa.int64()),
                             "fp": pa.array([], type=pa.uint64())})
        fps = hasher.fingerprints_from_analyzed(tokens)[idx]
        pieces = np.stack([
            (fps >> np.uint64(offsets[p]))
            & np.uint64((1 << widths[p]) - 1) for p in range(n_pieces)
        ], axis=1)                                    # (D, n_pieces)
        keys = np.empty((len(fps), len(combos)), dtype=np.uint64)
        for t, combo in enumerate(combos):
            kt = np.zeros(len(fps), dtype=np.uint64)
            shift = 0
            for p in combo:
                kt |= pieces[:, p] << np.uint64(shift)
                shift += int(widths[p])
            keys[:, t] = kt | (np.uint64(t) << np.uint64(shift))
        return pa.table({
            "band_key": pa.array(keys.ravel(), type=pa.uint64()),
            id_col: pa.array(np.repeat(ids[idx], len(combos)),
                             type=pa.int64()),
            "fp": pa.array(np.repeat(fps, len(combos)), type=pa.uint64()),
        })

    banded = ds.map_batches(stage, batch_format="pyarrow", **remote_args())

    def bucket_pairs_block(tbl: pa.Table) -> pa.Table:
        """All buckets in one band_key-sorted block, fully vectorized:
        one (band_key, id, fp) lexsort dedups repeated rows, segment_pairs
        enumerates within-bucket pairs, and one XOR + table popcount
        applies the distance threshold — no per-bucket or per-pair
        python (the round-4 version hammed pairs one python int at a
        time)."""
        n = tbl.num_rows
        empty = pa.table({"id_a": pa.array([], type=pa.int64()),
                          "id_b": pa.array([], type=pa.int64()),
                          "distance": pa.array([], type=pa.int64())})
        if n == 0:
            return empty
        k = tbl.column("band_key").to_numpy()
        ids_np = tbl.column(id_col).to_numpy()
        fps_np = tbl.column("fp").to_numpy()
        order = np.lexsort((fps_np, ids_np, k))
        k2, i2, f2 = k[order], ids_np[order], fps_np[order]
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        keep[1:] = (k2[1:] != k2[:-1]) | (i2[1:] != i2[:-1]) \
            | (f2[1:] != f2[:-1])
        k3, i3, f3 = k2[keep], i2[keep], f2[keep]
        change = np.empty(len(k3), dtype=bool)
        change[0] = True
        change[1:] = k3[1:] != k3[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(k3))
        ii, jj = segment_pairs(starts, ends)
        if len(ii) == 0:
            return empty
        dist = popcount64(f3[ii] ^ f3[jj])
        hit = np.flatnonzero(dist <= max_distance)
        return pa.table({
            "id_a": pa.array(i3[ii[hit]].astype(np.int64), type=pa.int64()),
            "id_b": pa.array(i3[jj[hit]].astype(np.int64), type=pa.int64()),
            "distance": pa.array(dist[hit], type=pa.int64()),
        })

    pairs = banded.sort("band_key").map_batches(
        bucket_pairs_block, batch_size=None, batch_format="pyarrow",
        **remote_args(),
    ).to_pandas().drop_duplicates(ignore_index=True)
    pairs = pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(
        pairs.astype({"id_a": "int64", "id_b": "int64", "distance": "int64"}),
        preserve_index=False,
    )
