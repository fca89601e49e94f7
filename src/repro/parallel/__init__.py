"""Deterministic parallel execution of the maintenance kernels.

See :mod:`repro.parallel.pool` for the executor design (chunked fan-out,
ordered reduction, budget propagation into workers, pytest-safe serial
fallback, persistent epoch-stamped workers),
:mod:`repro.parallel.shared` for the fork-inherited host-view registry
that lets kernels receive graph IDs instead of pickled graphs, and
``docs/PERFORMANCE.md`` for the operator guide.
"""

from .kernels import (
    candidate_score_kernel,
    contains_view_kernel,
    ged_pairs_kernel,
    mccs_kernel,
    pairwise_ged_matrix,
)
from .pool import (
    CHUNKS_PER_WORKER,
    MIN_PARALLEL_ITEMS,
    KernelPool,
    current_pool,
    shared_pool,
    shutdown_shared_pools,
    use_pool,
)
from .shared import (
    HostView,
    get_view,
    publish_view,
    resolve_view,
    retire_view,
    view_epoch,
)

__all__ = [
    "CHUNKS_PER_WORKER",
    "HostView",
    "KernelPool",
    "MIN_PARALLEL_ITEMS",
    "candidate_score_kernel",
    "contains_view_kernel",
    "current_pool",
    "ged_pairs_kernel",
    "get_view",
    "mccs_kernel",
    "pairwise_ged_matrix",
    "publish_view",
    "resolve_view",
    "retire_view",
    "shared_pool",
    "shutdown_shared_pools",
    "use_pool",
    "view_epoch",
]
