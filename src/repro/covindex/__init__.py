"""Database-wide filter-then-verify coverage engine.

Inverted posting lists over cheap graph invariants (bitsets on a
selectable substrate — vectorized numpy ``uint64`` word arrays by
default, plain-int reference otherwise; see
:mod:`repro.covindex.bitset`) filter containment candidates before VF2
verification, per-vertex signature domains shrink the verifications
that remain, and per-pattern verdict bitsets are maintained
incrementally across :class:`~repro.graph.database.BatchUpdate`
boundaries so a MIDAS round re-verifies only changed graphs.  Off by
default — enable with ``ExecutionConfig(covindex=True)``,
``--covindex on``, or :func:`use_covindex`; pick the substrate with
:func:`use_substrate` or ``CoverageIndex.build(substrate=...)``.
"""

from .bitset import (
    SUBSTRATES,
    available_substrates,
    bits_of,
    count,
    current_substrate,
    ids_of,
    make_ops,
    popcount,
    resolve_substrate,
    set_substrate,
    use_substrate,
)
from .engine import (
    MAX_TRACKED_PATTERNS,
    CoverageEngine,
    covindex_enabled,
    set_covindex,
    use_covindex,
)
from .index import (
    COUNT_CAP,
    DEGREE_CAP,
    CompiledQuery,
    CoverageIndex,
    graph_posting_keys,
    pattern_query_keys,
)

__all__ = [
    "COUNT_CAP",
    "DEGREE_CAP",
    "MAX_TRACKED_PATTERNS",
    "SUBSTRATES",
    "CompiledQuery",
    "CoverageEngine",
    "CoverageIndex",
    "available_substrates",
    "bits_of",
    "count",
    "covindex_enabled",
    "current_substrate",
    "graph_posting_keys",
    "ids_of",
    "make_ops",
    "pattern_query_keys",
    "popcount",
    "resolve_substrate",
    "set_covindex",
    "set_substrate",
    "use_covindex",
    "use_substrate",
]
