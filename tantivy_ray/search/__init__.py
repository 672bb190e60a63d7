from .pool import SearcherPool  # noqa: F401
from .reader import IndexReader, ReloadPolicy  # noqa: F401
from .searcher import IndexSearcher, merge_topk  # noqa: F401
