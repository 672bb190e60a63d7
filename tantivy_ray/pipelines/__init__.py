from .pages import (  # noqa: F401
    REFERENCE_QUERY_SET,
    generate_pages_table,
    write_pages_parquet,
)
from .search_pipeline import global_doc_freqs, search_pipeline  # noqa: F401
