"""Seeded web-like corpus and query streams for the benchmark.

Everything here derives from ``numpy.random.default_rng(seed)`` and
nothing from ``tantivy_ray``: the workload must not change when the
program under test changes, and the package's own generators share a
500-word vocabulary in which even the rarest term is in ~1.4 % of docs.

The corpus has
- a Zipf vocabulary of pseudo-words, far larger than the searchers'
  512-entry postings caches;
- log-normal document lengths (long tail), sentence-cased first words;
- a share of rows carrying non-ASCII words;
- planted exact duplicates and planted near duplicates (a few token
  substitutions), recorded with their true 3-shingle Jaccard.

Document frequencies are counted here from the generated token ids, so
query terms are chosen without asking the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
# already lower-case: the default analyzer's tokens equal these words
_NON_ASCII = ["straße", "café", "naïve", "façade", "größe", "русский",
              "текст", "поиск", "ελληνικά", "αναζήτηση", "日本語", "検索",
              "中文", "搜索", "español", "niño", "jalapeño", "smörgåsbord",
              "ångström", "øre", "łódź", "čeština", "türkçe", "işık"]

SHINGLE_W = 3          # minhash_lsh_pairs default shingle width
MIN_DOC_TOKENS = 8     # keeps accidental exact duplicates out of reach


@dataclass
class Corpus:
    table: pa.Table                    # doc_id:int64, text:string
    vocab: List[str]
    df: np.ndarray                     # per vocab id, docs containing it
    exact_groups: List[List[int]]      # doc ids with identical text
    near_pairs: List[Tuple[int, int, float]]  # (id_a, id_b, true jaccard)
    input_bytes: int
    stats: Dict = field(default_factory=dict)


def _make_vocab(rng: np.random.Generator, n: int) -> List[str]:
    """Distinct pseudo-words of 2-4 two-letter syllables.  Word i has
    2 + i % 3 syllables, so byte counts do not depend on the seed."""
    words: List[str] = []
    seen = set()
    while len(words) < n:
        nsyl = 2 + len(words) % 3
        c = rng.integers(0, len(_CONSONANTS), size=nsyl)
        v = rng.integers(0, len(_VOWELS), size=nsyl)
        w = "".join(_CONSONANTS[c[j]] + _VOWELS[v[j]] for j in range(nsyl))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _gather_index(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat positions of the runs [start, start + len) in order."""
    offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    return np.repeat(starts - offs[:-1], lens) + np.arange(offs[-1])


def _shingle_keys(ids: np.ndarray, base: int) -> np.ndarray:
    ids = ids.astype(np.int64)
    key = ids[:len(ids) - SHINGLE_W + 1].copy()
    for i in range(1, SHINGLE_W):
        key = key * base + ids[i:len(ids) - SHINGLE_W + 1 + i]
    return np.unique(key)


def _jaccard(a: np.ndarray, b: np.ndarray, vocab_size: int) -> float:
    """Exact Jaccard of the token 3-shingle sets (token ids map 1:1 to
    the analyzer's tokens, so this is the text-level Jaccard)."""
    base = vocab_size + len(_NON_ASCII)
    sa, sb = _shingle_keys(a, base), _shingle_keys(b, base)
    inter = len(np.intersect1d(sa, sb, assume_unique=True))
    return inter / max(1, len(sa) + len(sb) - inter)


def make_corpus(seed: int, num_docs: int, vocab_size: int = 10_000,
                zipf_s: float = 1.0, exact_rate: float = 0.02,
                near_rate: float = 0.02,
                non_ascii_rate: float = 0.02) -> Corpus:
    """``num_docs`` rows in total, planted copies included."""
    rng = np.random.default_rng(seed)
    vocab = _make_vocab(rng, vocab_size)
    # word i has Zipf rank i + 1 (the words themselves are random)
    p = 1.0 / np.arange(1, vocab_size + 1) ** zipf_s
    p /= p.sum()

    n_exact = int(num_docs * exact_rate)
    n_near = int(num_docs * near_rate)
    n_base = num_docs - n_exact - n_near
    lens = np.clip(np.rint(rng.lognormal(3.3, 0.8, size=n_base)),
                   MIN_DOC_TOKENS, 1500).astype(np.int64)
    offsets = np.zeros(n_base + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    ids = rng.choice(vocab_size, size=int(offsets[-1]), p=p)

    # non-ASCII words overwrite one token in a share of rows
    na_rows = rng.choice(n_base, size=int(n_base * non_ascii_rate),
                         replace=False)
    na_pos = offsets[na_rows] + rng.integers(0, lens[na_rows])
    ids[na_pos] = vocab_size + rng.integers(0, len(_NON_ASCII),
                                            size=len(na_rows))
    # exact duplicates: 1-3 copies of a source row
    exact_src: List[int] = []
    while len(exact_src) < n_exact:
        exact_src.extend([int(rng.integers(0, n_base))] * int(rng.integers(1, 4)))
    exact_src = np.asarray(exact_src[:n_exact], dtype=np.int64)
    # near duplicates: a copy with 1-3 substituted tokens, sources long
    # enough that most shingles survive
    near_src = rng.choice(np.flatnonzero(lens >= 40), size=n_near,
                          replace=False)
    near_offs = np.zeros(n_near + 1, dtype=np.int64)
    np.cumsum(lens[near_src], out=near_offs[1:])
    near_flat = ids[_gather_index(offsets[near_src], lens[near_src])]
    for i in range(n_near):
        n_sub = int(rng.integers(1, 4))
        pos = near_offs[i] + rng.choice(lens[near_src[i]], size=n_sub,
                                        replace=False)
        near_flat[pos] = rng.integers(0, vocab_size, size=n_sub)

    # source index j: base rows, then exact copies, then near copies
    pool_ids = np.concatenate([ids, near_flat])
    start = np.concatenate([offsets[:-1], offsets[exact_src],
                            len(ids) + near_offs[:-1]])
    length = np.concatenate([lens, lens[exact_src], lens[near_src]])
    origin = np.concatenate([np.arange(n_base), exact_src, near_src])

    # row order (= doc id) is shuffled so copies are not adjacent
    perm = rng.permutation(num_docs)          # perm[row] = source index
    doc_id_of = np.empty(num_docs, dtype=np.int64)
    doc_id_of[perm] = np.arange(num_docs)
    lens_o = length[perm]
    offs = np.zeros(num_docs + 1, dtype=np.int64)
    np.cumsum(lens_o, out=offs[1:])
    flat = pool_ids[_gather_index(start[perm], lens_o)]

    groups: Dict[int, List[int]] = {}
    for j in range(n_base, n_base + n_exact):
        o = int(origin[j])
        groups.setdefault(o, [int(doc_id_of[o])]).append(int(doc_id_of[j]))
    exact_groups = [sorted(g) for g in groups.values()]
    near_pairs = []
    for j in range(n_base + n_exact, num_docs):
        o = int(origin[j])
        a, b = int(doc_id_of[o]), int(doc_id_of[j])
        near_pairs.append((min(a, b), max(a, b), _jaccard(
            pool_ids[start[o]:start[o] + length[o]],
            pool_ids[start[j]:start[j] + length[j]], vocab_size)))

    words = pa.array(vocab + _NON_ASCII, type=pa.string())
    caps = pc.utf8_capitalize(words)
    first = np.zeros(len(flat), dtype=bool)
    first[offs[:-1]] = True
    tok = pc.if_else(pa.array(first), caps.take(pa.array(flat)),
                     words.take(pa.array(flat)))
    text = pc.binary_join_element_wise(
        pc.binary_join(pa.ListArray.from_arrays(
            pa.array(offs.astype(np.int32)), tok), " "),
        pa.scalar("."), "")
    table = pa.table({"doc_id": pa.array(np.arange(num_docs), pa.int64()),
                      "text": text})

    # df per vocab id from the generated ids (one count per doc)
    doc_of = np.repeat(np.arange(num_docs, dtype=np.int64), lens_o)
    ascii_tok = flat < vocab_size
    key = np.unique(doc_of[ascii_tok] * vocab_size + flat[ascii_tok])
    df = np.bincount(key % vocab_size, minlength=vocab_size)

    corpus = Corpus(
        table=table, vocab=vocab, df=df, exact_groups=exact_groups,
        near_pairs=near_pairs,
        input_bytes=int(pc.sum(pc.binary_length(text)).as_py()),
    )
    corpus.stats = {
        "docs": num_docs,
        "input_bytes": corpus.input_bytes,
        "vocab_size": vocab_size,
        "vocab_in_corpus": int((df > 0).sum()),
        "tokens": int(len(flat)),
        "doc_tokens_p50_p99_max": [int(np.percentile(lens_o, 50)),
                                   int(np.percentile(lens_o, 99)),
                                   int(lens_o.max())],
        "non_ascii_rows": int(len(na_rows)),
        "planted_exact_groups": len(exact_groups),
        "planted_exact_copies": n_exact,
        "planted_near_pairs": n_near,
    }
    return corpus


Query = Tuple[int, List[str], str, int]   # (query_id, terms, mode, k)


def _df_quantiles(df: np.ndarray, n: int) -> List[float]:
    return [round(float(q) / n, 6)
            for q in np.quantile(df, [0.0, 0.5, 0.99, 1.0])]


def head_queries(corpus: Corpus, seed: int, n: int) -> Tuple[List[Query], Dict]:
    """1-4 terms with df in 10-90 % of docs, OR and AND, k in {10, 100};
    the (terms, mode, k) shapes cycle so every stretch of the stream has
    the same mix."""
    rng = np.random.default_rng([seed, 1])
    nd = corpus.table.num_rows
    pool = np.flatnonzero((corpus.df >= 0.10 * nd) & (corpus.df <= 0.90 * nd))
    shapes = [(t, m, k) for t in (1, 2, 3, 4) for m in ("or", "and")
              for k in (10, 100)]
    out = []
    for qid in range(n):
        nt, mode, k = shapes[qid % len(shapes)]
        terms = rng.choice(pool, size=nt, replace=False)
        out.append((qid, [corpus.vocab[t] for t in terms], mode, k))
    return out, _stream_stats(corpus, out, len(pool))


def tail_queries(corpus: Corpus, seed: int, n: int) -> Tuple[List[Query], Dict]:
    """1-3 OR terms with df below 0.1 % of docs, k=10, drawn so that
    the distinct terms far exceed the 512-entry postings caches."""
    rng = np.random.default_rng([seed, 2])
    nd = corpus.table.num_rows
    pool = np.flatnonzero((corpus.df >= 2) & (corpus.df < 0.001 * nd))
    out = []
    for qid in range(n):
        nt = 1 + qid % 3
        terms = rng.choice(pool, size=nt, replace=False)
        out.append((qid, [corpus.vocab[t] for t in terms], "or", 10))
    return out, _stream_stats(corpus, out, len(pool))


def _stream_stats(corpus: Corpus, queries: List[Query], pool: int) -> Dict:
    index = {w: i for i, w in enumerate(corpus.vocab)}
    ids = np.array(sorted({index[t] for q in queries for t in q[1]}))
    return {"term_pool": pool, "distinct_query_terms": int(len(ids)),
            "query_term_df_q0_q50_q99_q100": _df_quantiles(
                corpus.df[ids], corpus.table.num_rows)}
