"""Golden-fixture generator for the non-SQL-expressible contract entries.

The three rows-only entries (`simhash_dups`, `stemmed_doc_freqs`,
`stemmed_doc_freqs_multilang`) are deterministic but DuckDB cannot
express them (no Snowball stemmer, no simhash).  This script computes
each expected table SINGLE-PROCESS (no Ray) with logic independent of
the distributed path it validates, and writes it under
``fixtures/golden/sf0.01/`` — the oracle SQL for those entries is then
just ``SELECT * FROM read_parquet('<fixture>')``, so the driver's
hash-compare gate covers them like every other entry.

What each golden is independent of:
- ``simhash_dups``: shares the fingerprint kernel (validated separately
  by unit tests), but candidate generation here is brute-force all-pairs
  popcount — independent of the distributed pigeonhole banding +
  bucket-pair dedup it checks.
- ``stemmed_doc_freqs``: direct per-doc analyze + distinct-doc counting
  with collections.Counter — independent of the segment build /
  term_stats_table / groupby-merge path.
- ``stemmed_doc_freqs_multilang``: same, with per-language analyzer
  routing — independent of the batched partial + Ray groupby path.

Run:  python tools/make_goldens.py [sf_dir]     (default sf0.01)
Regenerate whenever the analyzer chain or simhash feature definition
changes; tests/test_oracle_parity.py fails loudly if a fixture drifts.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    return _POP[x.view(np.uint8)].reshape(len(x), 8).sum(axis=1)


def golden_simhash_dups(sf_dir: str, max_distance: int = 10) -> pa.Table:
    from tantivy_ray.analyzer import get_analyzer
    from tantivy_ray.dedup.simhash import SimHasher

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    an = get_analyzer("default")
    hasher = SimHasher()
    ids, token_lists = [], []
    for did, text in zip(t.column("doc_id").to_pylist(),
                         t.column("text").to_pylist()):
        toks = [tok.text for tok in an.analyze(text or "")]
        if toks:  # empty docs never enter the banded pipeline either
            ids.append(int(did))
            token_lists.append(toks)
    fps = np.concatenate([
        hasher.fingerprints_from_analyzed(pa.array(
            token_lists[i:i + 1000], type=pa.list_(pa.string())))
        for i in range(0, len(token_lists), 1000)
    ]) if token_lists else np.empty(0, dtype=np.uint64)
    ids_np = np.asarray(ids, dtype=np.int64)
    order = np.argsort(ids_np)
    ids_np, fps = ids_np[order], fps[order]
    out_a, out_b, out_d = [], [], []
    for i in range(len(ids_np) - 1):
        d = _popcount64(fps[i + 1:] ^ fps[i])
        hit = np.flatnonzero(d <= max_distance)
        for j in hit:
            out_a.append(int(ids_np[i]))
            out_b.append(int(ids_np[i + 1 + j]))
            out_d.append(int(d[j]))
    return pa.table({
        "id_a": pa.array(out_a, type=pa.int64()),
        "id_b": pa.array(out_b, type=pa.int64()),
        "distance": pa.array(out_d, type=pa.int64()),
    })


def _doc_freqs(texts, analyzers) -> Counter:
    c: Counter = Counter()
    for text, an in zip(texts, analyzers):
        c.update({tok.text for tok in an.analyze(text or "")})
    return c


def golden_stemmed_doc_freqs(sf_dir: str) -> pa.Table:
    from tantivy_ray.analyzer import get_analyzer

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["text"])
    an = get_analyzer("en_stem")
    texts = t.column("text").to_pylist()
    c = _doc_freqs(texts, [an] * len(texts))
    terms = sorted(c)
    return pa.table({
        "term": pa.array(terms, type=pa.string()),
        "doc_freq": pa.array([c[x] for x in terms], type=pa.int64()),
    })


def golden_stemmed_doc_freqs_multilang(sf_dir: str) -> pa.Table:
    from tantivy_ray.analyzer import analyzer_for_lang, get_analyzer

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["text", "lang"])
    by_lang: dict = {}
    for text, lang in zip(t.column("text").to_pylist(),
                          t.column("lang").to_pylist()):
        by_lang.setdefault(lang, []).append(text)
    rows_lang, rows_term, rows_df = [], [], []
    for lang in sorted(by_lang):
        an = get_analyzer(analyzer_for_lang(lang))
        texts = by_lang[lang]
        c = _doc_freqs(texts, [an] * len(texts))
        for term in sorted(c):
            rows_lang.append(lang)
            rows_term.append(term)
            rows_df.append(c[term])
    return pa.table({
        "lang": pa.array(rows_lang, type=pa.string()),
        "term": pa.array(rows_term, type=pa.string()),
        "doc_freq": pa.array(rows_df, type=pa.int64()),
    })


GOLDENS = {
    "simhash_dups": golden_simhash_dups,
    "stemmed_doc_freqs": golden_stemmed_doc_freqs,
    "stemmed_doc_freqs_multilang": golden_stemmed_doc_freqs_multilang,
}


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    tag = os.path.basename(os.path.normpath(sf_dir))
    out_dir = os.path.join(REPO, "fixtures", "golden", tag)
    os.makedirs(out_dir, exist_ok=True)
    for name, fn in GOLDENS.items():
        tbl = fn(sf_dir)
        path = os.path.join(out_dir, f"{name}.parquet")
        pq.write_table(tbl, path)
        print(f"{name}: {tbl.num_rows} rows -> {path}")


if __name__ == "__main__":
    main()
