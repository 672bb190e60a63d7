"""Persistent warm searcher pool + phrase search from a merged index
(reference serving model: open the mmapped index once — README.md:34
"<10 ms startup" — then stream query batches through it; and positions
preserved at merge, src/indexer/merger.rs).

Builds a small positions-enabled index, serves term queries through a
SearcherPool (batches reuse the same warm actors, each over the compiled
channel ``warm()`` opens to it; ``close()`` tears the channels down and
frees the actors), runs the wide
groupby-term merge, and then answers a PhraseQuery from the MERGED
output — identical hits to the source-segment searcher."""

import ray

if not ray.is_initialized():
    ray.init(address="local", include_dashboard=False,
             logging_level="ERROR")

import shutil
import tempfile

import pyarrow as pa

from tantivy_ray.index.manifest import IndexManifest, write_manifest
from tantivy_ray.index.merge import MergedSearcher, merge_segments
from tantivy_ray.index.segment import build_segment_from_table
from tantivy_ray.search import IndexSearcher, SearcherPool


def main():
    idx = tempfile.mkdtemp(prefix="pool_ix_")
    docs = [
        "the old man and the sea",
        "a man of the people",
        "the sea is rising over the old town",
        "old man winter is coming to town",
        "people of the town meet the sea",
    ]
    metas = []
    for seg, lo in enumerate(range(0, len(docs), 2)):
        t = pa.table({"url": [f"d{i}" for i in range(lo, min(lo + 2, len(docs)))],
                      "text": docs[lo:lo + 2]})
        metas.append(build_segment_from_table(
            t, seg, idx, record_positions=True))
    write_manifest(idx, IndexManifest(record_positions=True, segments=metas))

    # --- persistent pool: index opened once per replica, many batches,
    # each over the replica's compiled channel ---
    pool = SearcherPool(idx, size=2)
    pool.warm()
    queries = [(0, ["old", "man"], "or", 3), (1, ["sea"], "or", 5),
               (2, ["town", "people"], "and", 5)]
    first = pool.search_batch(queries)
    again = pool.search_batch(queries)  # same warm actors, no re-open
    assert first.to_pydict() == again.to_pydict()
    print("pool results:")
    print(first.to_pandas().to_string(index=False))
    pool.close()

    # --- phrase search served from the MERGED index ---
    merged = tempfile.mkdtemp(prefix="pool_merged_")
    merge_segments(idx, merged, salt_block_docs=100)
    ms = MergedSearcher(merged, idx)
    s = IndexSearcher(idx)
    phrase = ["old", "man"]
    assert ms.search_phrase(phrase, 5) == s.search_phrase(phrase, 5)
    print("\nphrase 'old man' from merged index:")
    for score, seg, doc in ms.search_phrase(phrase, 5):
        print(f"  score={score:.4f} segment={seg} doc={doc}")

    shutil.rmtree(idx, ignore_errors=True)
    shutil.rmtree(merged, ignore_errors=True)


if __name__ == "__main__":
    main()
    ray.shutdown()
