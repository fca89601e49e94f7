"""Index substrate: sparse matrices, FCT-Index, IFE-Index."""

from .fct_index import EMBEDDING_COUNT_CAP, FCTIndex
from .ife_index import IFEIndex
from .maintenance import IndexPair
from .sparse import SparseCountMatrix

__all__ = [
    "EMBEDDING_COUNT_CAP",
    "FCTIndex",
    "IFEIndex",
    "IndexPair",
    "SparseCountMatrix",
]
