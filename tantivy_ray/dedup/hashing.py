"""Vectorized 64-bit hashing for the MinHash / SimHash stages.

Per-string python hashing (hashlib.blake2b per shingle) was the round-1
hot-spot; ``hash_strings64`` hashes a whole batch's shingles in one C
call (pandas' SipHash-based ``hash_array``, fixed key → deterministic
across processes).  ``mult_min_hash`` is the one MinHash signature
kernel; ``segment_pairs``, ``popcount64`` and ``band_keys`` are the
bucket-stage helpers.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd

EMPTY_SIG = np.uint64(0xFFFFFFFFFFFFFFFF)


def hash_strings64(strings: List[str]) -> np.ndarray:
    """Deterministic uint64 hash of each string (vectorized, C speed)."""
    if len(strings) == 0:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(np.asarray(strings, dtype=object))


def mult_min_hash(hashes: np.ndarray, mults: np.ndarray,
                  starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(D, P) MinHash signatures under odd-multiplier wraparound
    permutations: x → a_p · x (mod 2^64) with a_p odd is a BIJECTION of
    the hash space, so the min over it is a valid permutation min-hash,
    at ONE uint64 multiply per (shingle, perm).  Rows of empty docs are
    EMPTY_SIG-filled (every real product is smaller except the 2^-64
    a·x == max case).  Ranges must tile ``hashes`` contiguously in doc
    order; a doc's shingles may repeat (the min over a multiset is the
    min over its set)."""
    D = len(starts)
    P = len(mults)
    out = np.full((D, P), EMPTY_SIG, dtype=np.uint64)
    S = len(hashes)
    if S == 0 or D == 0:
        return out
    lens = np.asarray(ends) - np.asarray(starts)
    assert int(lens.sum()) == S, "doc ranges must tile the hash array"
    nonempty = np.flatnonzero(ends > starts)
    if not len(nonempty):
        return out
    ne_starts = np.asarray(starts)[nonempty]
    chunk = max(1, (1 << 22) // max(S, 1))
    for p0 in range(0, P, chunk):
        p1 = min(p0 + chunk, P)
        perm = mults[None, p0:p1] * hashes[:, None]
        out[nonempty, p0:p1] = np.minimum.reduceat(perm, ne_starts,
                                                   axis=0)
    return out


def segment_pairs(starts: np.ndarray, ends: np.ndarray):
    """All (i, j) index pairs with starts[g] <= i < j < ends[g] for every
    segment g — fully vectorized (no per-segment python).  Feeds the
    bucket-pair stages: after a sort(bucket), each bucket is a segment
    and its candidate pairs are one repeat/cumsum gather.

    Partitioning assumption (holds for ray.data sort): equal keys are
    never split across sorted output blocks — range partitioning places
    every row with key == boundary on the same side (value comparison
    via find_partition_index, not positional), so a per-block scan sees
    each bucket whole."""
    sizes = np.asarray(ends, dtype=np.int64) - np.asarray(starts,
                                                          dtype=np.int64)
    total_rows = int(sizes.sum())
    e = np.empty(0, dtype=np.int64)
    if total_rows == 0:
        return e, e
    before_rows = np.cumsum(sizes) - sizes
    row_local = (np.arange(total_rows, dtype=np.int64)
                 - np.repeat(before_rows, sizes))
    row_global = np.repeat(np.asarray(starts, dtype=np.int64), sizes) \
        + row_local
    # row r (local) is the left element of (size - 1 - r) pairs
    counts = np.repeat(sizes, sizes) - 1 - row_local
    total_pairs = int(counts.sum())
    if total_pairs == 0:
        return e, e
    i_idx = np.repeat(row_global, counts)
    before_pairs = np.cumsum(counts) - counts
    j_idx = i_idx + 1 + (np.arange(total_pairs, dtype=np.int64)
                         - np.repeat(before_pairs, counts))
    return i_idx, j_idx


_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                      axis=1).sum(axis=1).astype(np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (numpy<2 has no
    bitwise_count; a 256-entry byte table covers it at C speed)."""
    if len(x) == 0:
        return np.empty(0, dtype=np.int64)
    return _POP8[np.ascontiguousarray(x).view(np.uint8)].reshape(
        -1, 8).sum(axis=1, dtype=np.int64)


_BAND_MIX = np.uint64(0x9E3779B97F4A7C15)


def band_keys(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(D, bands) uint64 bucket keys: each band's signature rows mixed
    into one key (vectorized splitmix-style combine), with the band
    index folded in so different bands never share buckets."""
    D, P = sigs.shape
    rows = P // bands
    m = sigs[:, :bands * rows].reshape(D, bands, rows)
    h = np.zeros((D, bands), dtype=np.uint64)
    for r in range(rows):
        h ^= m[:, :, r] + _BAND_MIX + (h << np.uint64(6)) + (h >> np.uint64(2))
        h *= _BAND_MIX
    h ^= np.arange(bands, dtype=np.uint64)[None, :] * _BAND_MIX
    return h
