from .build import build_index, plan_partitions  # noqa: F401
from .deletes import add_tombstones, clear_tombstones, delete_by_term  # noqa: F401
from .compression import (  # noqa: F401
    COMPRESSION_BLOCK_SIZE,
    TermPostingsReader,
    bit_width,
    bitpack,
    bitunpack,
    decode_postings_batch,
    encode_postings_batch,
    encode_term_postings,
)
from .manifest import (  # noqa: F401
    IndexManifest,
    completed_segment_ords,
    load_manifest,
    write_manifest,
)
from .ram import RamDirectory  # noqa: F401
from .segment import SegmentReader, build_segment_from_table, segment_dir_name  # noqa: F401
