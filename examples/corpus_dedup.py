"""Training-corpus deduplication end to end (beyond the reference's
own examples — the web-scale data-prep side of this engine): exact
dedup, MinHash-LSH near-dups, PPJoin exact all-pairs jaccard, SimHash
hamming pairs, and embedding-cosine near-dups, all as streaming Ray
Data pipelines over one synthetic parquet corpus."""

import tempfile

import ray

if not ray.is_initialized():
    ray.init(address="local", include_dashboard=False,
             logging_level="ERROR")

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd


def make_corpus(path: str, n: int = 600) -> None:
    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(400)]
    texts = []
    for i in range(n):
        base = [vocab[j] for j in rng.randint(0, 400, size=40)]
        if i % 7 == 3:          # exact duplicate of the previous doc
            texts.append(texts[-1])
            continue
        if i % 5 == 2 and texts:  # near-duplicate: mutate two tokens
            mut = texts[-1].split()
            for p in rng.choice(len(mut), size=2, replace=False):
                mut[p] = vocab[rng.randint(0, 400)]
            texts.append(" ".join(mut))
            continue
        texts.append(" ".join(base))
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts),
    }), path, row_group_size=128)


def main():
    tmp = tempfile.mkdtemp(prefix="tvr_dedup_")
    src = f"{tmp}/docs.parquet"
    make_corpus(src)

    def docs():
        return rd.read_parquet(src, columns=["doc_id", "text"],
                               override_num_blocks=4)

    # 1. exact dedup: hash-partition keep-first (one exchange)
    from tantivy_ray.dedup import exact_dedup

    kept = exact_dedup(docs(), text_col="text", id_col="doc_id")
    n_kept = kept.count()
    print("exact dedup: kept", n_kept, "of 600")

    # 2. MinHash-LSH near-dups (banded signatures -> one bucket sort ->
    # fused exact-jaccard verify; above the candidate broadcast cap the
    # verify switches to a reduce-side join on its own)
    from tantivy_ray.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(docs(), threshold=0.8)
    print("minhash-lsh pairs (j>=0.8):", pairs.num_rows)

    # 3. PPJoin exact all-pairs jaccard — lossless prefix filter, same
    # pair set as the LSH path whenever banding recall covers the
    # threshold (rarity order broadcast small-side, or a distributed
    # df join above the vocab cap)
    from tantivy_ray.dedup import jaccard_allpairs_prefix

    exact_pairs = jaccard_allpairs_prefix(docs(), threshold=0.8)
    assert exact_pairs.num_rows == pairs.num_rows
    print("ppjoin exact pairs:", exact_pairs.num_rows, "(== lsh)")

    # 4. SimHash: 64-bit fingerprints, Manku piece-combination banding,
    # recall-exact for the hamming threshold
    from tantivy_ray.dedup import simhash_pairs

    sh = simhash_pairs(docs(), max_distance=10)
    print("simhash pairs (hamming<=10):", sh.num_rows)

    # 5. embedding cosine near-dups (exact block sweep at this scale;
    # banded random-hyperplane LSH auto-selected at corpus scale)
    from tantivy_ray.dedup import embedding_near_dup_pairs

    rng = np.random.RandomState(1)
    base = rng.normal(size=(300, 32))
    vecs = np.concatenate([base, base[:40] + 0.01 * rng.normal(
        size=(40, 32))])
    emb = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(len(vecs), dtype=np.int64)),
        "embedding": pa.array(list(map(list, vecs)),
                              type=pa.list_(pa.float64())),
    }))
    near = embedding_near_dup_pairs(emb, threshold=0.99,
                                    method="block_exact")
    print("embedding near-dups (cos>=0.99):", near.num_rows)
    assert near.num_rows >= 40


if __name__ == "__main__":
    main()
