"""Index manifest — atomic commit + per-partition lineage + global stats.

Analog of the reference's ``meta.json`` atomic publish
(/root/reference/src/index/index_meta.rs, ARCHITECTURE.md §core): the
manifest is written last, atomically (tmp + rename), and lists every sealed
segment with its lineage (input file, row range) and metrics.  Global BM25
statistics (total_num_docs = Σ max_doc, total_num_tokens = Σ per-segment
counts — reference src/query/bm25.rs:27-50, src/core/searcher.rs:133) are
computed at seal time and stored here so searchers never rescan segments.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

MANIFEST_NAME = "manifest.json"


@dataclass
class IndexManifest:
    analyzer: str = "default"
    text_col: str = "text"
    id_col: str = "url"
    record_positions: bool = False
    segments: List[Dict] = field(default_factory=list)
    total_num_docs: int = 0
    total_num_tokens: int = 0
    created_at: float = 0.0

    @property
    def average_fieldnorm(self) -> float:
        return self.total_num_tokens / max(1, self.total_num_docs)

    def field_average_fieldnorms(self) -> Dict[str, float]:
        """Per-extra-field avg fieldnorm: Σ field tokens / total docs
        (global, from per-segment field_stats)."""
        totals: Dict[str, int] = {}
        for s in self.segments:
            for f, n in (s.get("field_stats") or {}).items():
                totals[f] = totals.get(f, 0) + int(n)
        return {f: float(np.float32(np.float32(n) / np.float32(
            max(1, self.total_num_docs)))) for f, n in totals.items()}

    def to_dict(self) -> Dict:
        return {
            "analyzer": self.analyzer,
            "text_col": self.text_col,
            "id_col": self.id_col,
            "record_positions": self.record_positions,
            "segments": sorted(self.segments, key=lambda s: s["segment_ord"]),
            "total_num_docs": self.total_num_docs,
            "total_num_tokens": self.total_num_tokens,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "IndexManifest":
        m = cls(
            analyzer=d["analyzer"],
            text_col=d["text_col"],
            id_col=d["id_col"],
            record_positions=d.get("record_positions", False),
            segments=d["segments"],
            total_num_docs=d["total_num_docs"],
            total_num_tokens=d["total_num_tokens"],
            created_at=d.get("created_at", 0.0),
        )
        return m


def write_manifest(index_dir: str, manifest: IndexManifest) -> str:
    manifest.created_at = time.time()
    manifest.total_num_docs = sum(s["num_docs"] for s in manifest.segments)
    manifest.total_num_tokens = sum(s["num_tokens"] for s in manifest.segments)
    path = os.path.join(index_dir, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest.to_dict(), f, indent=1)
    os.replace(tmp, path)  # atomic publish
    return path


def load_manifest(index_dir: str) -> IndexManifest:
    with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
        return IndexManifest.from_dict(json.load(f))


def completed_segment_ords(index_dir: str) -> Dict[int, Dict]:
    """Scan segment dirs whose meta.json exists (= sealed) for resume."""
    out: Dict[int, Dict] = {}
    if not os.path.isdir(index_dir):
        return out
    for name in os.listdir(index_dir):
        meta_path = os.path.join(index_dir, name, "meta.json")
        if name.startswith("seg-") and os.path.exists(meta_path):
            try:
                with open(meta_path) as f:
                    meta = json.load(f)
                out[meta["segment_ord"]] = meta
            except (json.JSONDecodeError, KeyError):
                continue
    return out
