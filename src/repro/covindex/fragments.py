"""Shared sub-pattern match network: fragment views under a byte budget.

MIDAS pattern sets are heavily overlapping by construction — FCT mining
grows trees edge by edge, so the displayed patterns are routinely
sub-/supergraphs of one another.  The per-pattern verdict bitsets of
:class:`~repro.covindex.engine.CoverageEngine` ignore that structure:
every pattern re-verifies every filtered candidate independently, so a
round costs O(patterns × delta) VF2 calls even when the patterns share
most of their edges.

:class:`FragmentNetwork` is the discrimination-network layer (Beyhl &
Giese's GDNs, with MV4PG-style materialized-view selection) that turns
the shared structure into shared work:

* **Decomposition** — every registered pattern is decomposed into a
  chain of connected sub-pattern *fragments* (edges → paths → trees),
  one per size from :data:`MIN_FRAGMENT_EDGES` up to one edge short of
  the pattern.  The chain is the lexicographically minimal canonical
  edge-growth sequence (ordered by ``(edge label pair, certificate)``
  per step), so isomorphic patterns decompose identically and patterns
  sharing a canonical core share the fragments covering it.  Fragments
  are keyed by canonical certificate: one node in the network per
  isomorphism class, refcounted across the patterns that use it.
* **Views** — a *materialized* fragment carries a verified-match/seen
  bitset pair over the database view, exactly the engine's verdict
  algebra.  Views are drained lazily parent-first: a fragment's
  candidates are its posting filter intersected with its parent
  fragment's verified matches, so each VF2 call up the chain starts
  from an already-pruned candidate set.  Verification fans out through
  the ambient :class:`~repro.parallel.pool.KernelPool` over a published
  host view (:mod:`repro.parallel.shared`) when worthwhile.
* **Masking** — ``pattern_mask(key)`` intersects the pattern's
  materialized fragment views into one bitset; the engine ANDs it into
  the posting-filter candidates before verification.  Soundness: a
  host containing the pattern contains every fragment of it (compose
  the injections), so ``cover(p) ⊆ match(f)`` for every fragment
  ``f ⊆ p`` and the intersection never drops a true match.  Fragment
  matches are *verified*, not filtered, which is what makes the mask
  strictly stronger than the pattern's own posting filter.
* **Selection** — materializing every fragment of every pattern would
  spend memory proportional to the whole network.  A greedy
  benefit-per-byte selector (score ``refcount × edges`` per estimated
  view bytes) materializes the best fragments under
  ``budget_bytes`` and dematerializes the rest; skipped fragments
  simply contribute nothing to the mask, so the budget trades speed,
  never correctness.

The network is off by default and sits behind the ambient toggle
(:func:`set_fragments` / :func:`use_fragments` /
:func:`fragments_enabled`), surfaced as ``ExecutionConfig(fragments=
True)`` / ``--fragments on``.  Metrics live in the ``covindex.frag.*``
namespace (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import time
import weakref
from collections.abc import Iterable, Mapping
from contextlib import contextmanager

from ..graph.canonical import canonical_certificate
from ..graph.labeled_graph import LabeledGraph
from ..isomorphism.matcher import contains
from ..obs import BoundCounter, get_registry
from ..parallel import shared
from ..parallel.kernels import contains_view_kernel
from ..parallel.pool import current_pool
from .bitset import make_ops
from .index import CoverageIndex

#: Smallest fragment worth a view.  One- and two-edge fragments are
#: exactly reproduced by the posting filter already (``el`` edge-label
#: and ``wg`` wedge keys), so a verified view would never prune a
#: candidate the filter kept — discrimination starts at three edges.
MIN_FRAGMENT_EDGES = 3

#: Default view budget: enough for hundreds of fragment views at
#: serving-scale universes while bounding worst-case residency.
DEFAULT_FRAGMENT_BUDGET = 4 << 20

# Per-drain timing counter, resolved once rather than by name per drain.
_DRAIN_NS = BoundCounter("covindex.frag.drain_ns")


# ----------------------------------------------------------------------
# canonical decomposition
# ----------------------------------------------------------------------
def _growth_chain(pattern: LabeledGraph) -> list[list[tuple]]:
    """The minimal canonical edge-growth order of *pattern*'s edges.

    Returns the edge sets of the chain prefixes (sizes 1..m-1), chosen
    so the per-step key sequence ``(sorted label pair of the added
    edge, certificate of the grown fragment)`` is lexicographically
    minimal over all connected growth orders.  Both key components are
    isomorphism-invariant, so permuted twins produce certificate-equal
    chains, and patterns sharing a canonical core grow through the
    same core fragments (cheaper label pairs are exhausted before a
    decoration edge is ever added).
    """
    edges = list(pattern.edges())
    target = len(edges) - 1
    label_pair = {
        edge: tuple(sorted((pattern.label(edge[0]), pattern.label(edge[1]))))
        for edge in edges
    }
    cert_memo: dict[frozenset, tuple] = {}

    def cert_of(chosen: frozenset) -> tuple:
        cached = cert_memo.get(chosen)
        if cached is None:
            cached = cert_memo[chosen] = canonical_certificate(
                pattern.edge_subgraph(chosen)
            )
        return cached

    chain_memo: dict[frozenset, tuple] = {}

    def best_tail(chosen: frozenset) -> tuple[tuple, tuple]:
        """Minimal ``(key sequence, edge-addition sequence)`` from *chosen*."""
        if len(chosen) == target:
            return (), ()
        cached = chain_memo.get(chosen)
        if cached is not None:
            return cached
        vertices = {v for edge in chosen for v in edge}
        best = None
        for edge in edges:
            if edge in chosen or (edge[0] not in vertices and edge[1] not in vertices):
                continue
            grown = chosen | {edge}
            step = (label_pair[edge], cert_of(grown))
            tail_keys, tail_edges = best_tail(grown)
            candidate = ((step, *tail_keys), (edge, *tail_edges))
            if best is None or candidate[0] < best[0]:
                best = candidate
        chain_memo[chosen] = best
        return best

    seed_best = None
    for edge in edges:
        grown = frozenset((edge,))
        step = (label_pair[edge], cert_of(grown))
        tail_keys, tail_edges = best_tail(grown)
        candidate = ((step, *tail_keys), (edge, *tail_edges))
        if seed_best is None or candidate[0] < seed_best[0]:
            seed_best = candidate
    order = seed_best[1]
    return [list(order[: size + 1]) for size in range(target)]


def decompose(pattern: LabeledGraph) -> list[LabeledGraph]:
    """*pattern*'s fragment chain: connected proper subgraphs of sizes
    :data:`MIN_FRAGMENT_EDGES` .. ``num_edges - 1``, each extending the
    previous by one edge along the canonical growth order.  Patterns
    too small to have such a fragment decompose to the empty chain.
    """
    if pattern.num_edges <= MIN_FRAGMENT_EDGES or not pattern.is_connected():
        return []
    return [
        pattern.edge_subgraph(prefix)
        for prefix in _growth_chain(pattern)
        if len(prefix) >= MIN_FRAGMENT_EDGES
    ]


class _FragmentState:
    """One isomorphism class of sub-pattern, shared across patterns."""

    __slots__ = (
        "key",
        "graph",
        "parent",
        "refcount",
        "materialized",
        "compiled",
        "match_bits",
        "seen_bits",
        "seen_count",
    )

    def __init__(self, key: tuple, graph: LabeledGraph, parent: tuple | None):
        self.key = key
        self.graph = graph
        self.parent = parent
        self.refcount = 0
        self.materialized = False
        self.compiled = None
        self.match_bits = 0
        self.seen_bits = 0
        self.seen_count = 0


class FragmentNetwork:
    """Shared fragment views between a :class:`CoverageIndex` and its
    engine.  The network never answers cover queries itself — it hands
    the engine a sound candidate mask and maintains the views behind it
    incrementally across batches."""

    def __init__(
        self,
        index: CoverageIndex,
        graphs: Mapping[int, LabeledGraph],
        budget_bytes: int | None = None,
    ) -> None:
        self._index = index
        # Shared with the owning engine: apply_update mutates the dict
        # in place, so the network always verifies against the live view.
        self._graphs = graphs
        self.budget_bytes = (
            current_fragment_budget() if budget_bytes is None else budget_bytes
        )
        self._fragments: dict[tuple, _FragmentState] = {}
        self._chains: dict[tuple, list[tuple]] = {}
        self._view_token: int | None = None
        self._publish_gauges()

    def __getstate__(self):
        # Published host views are process-local; copies republish
        # lazily.
        state = self.__dict__.copy()
        state["_view_token"] = None
        return state

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, key: tuple, pattern: LabeledGraph) -> None:
        """Track *pattern* (under its canonical *key*) in the network."""
        if key in self._chains:
            return
        chain: list[tuple] = []
        parent: tuple | None = None
        for fragment in decompose(pattern):
            fragment_key = canonical_certificate(fragment)
            state = self._fragments.get(fragment_key)
            if state is None:
                state = self._fragments[fragment_key] = _FragmentState(
                    fragment_key, fragment, parent
                )
            state.refcount += 1
            chain.append(fragment_key)
            parent = fragment_key
        self._chains[key] = chain
        get_registry().counter("covindex.frag.registrations").add(1)
        self._reselect()

    def discard(self, key: tuple) -> None:
        """Stop tracking *key*; orphaned fragments leave the network."""
        chain = self._chains.pop(key, None)
        if chain is None:
            return
        for fragment_key in chain:
            state = self._fragments[fragment_key]
            state.refcount -= 1
            if state.refcount <= 0:
                del self._fragments[fragment_key]
        self._reselect()

    def tracked(self, key: tuple) -> bool:
        return key in self._chains

    def chain(self, key: tuple) -> list[tuple]:
        """The fragment keys of *key*'s chain, ascending by size."""
        return list(self._chains.get(key, ()))

    def fragment(self, fragment_key: tuple) -> _FragmentState:
        return self._fragments[fragment_key]

    def fragment_keys(self) -> list[tuple]:
        return list(self._fragments)

    # ------------------------------------------------------------------
    # view selection (greedy benefit per byte)
    # ------------------------------------------------------------------
    def _estimated_view_bytes(self) -> int:
        """Upper bound on one materialized view's bytes (match + seen).

        Both bitsets are subsets of the universe, so each is at most
        the universe's own byte width; the actual residency reported by
        :meth:`view_bytes` never exceeds this estimate.
        """
        width = self._index.universe_value.bit_length()
        return 2 * max(8, (width + 7) // 8)

    def _reselect(self) -> None:
        """Re-run the greedy selector; (de)materialize views in place.

        Benefit per byte: every view costs the same estimated bytes, so
        the ranking reduces to ``refcount × edges`` — fragments shared
        by more patterns prune more queries, and larger fragments prune
        harder (their matches are scarcer).  Deterministic tie-break on
        size then certificate repr keeps trajectories reproducible.
        """
        per_view = self._estimated_view_bytes()
        ranked = sorted(
            self._fragments.values(),
            key=lambda st: (
                -st.refcount * st.graph.num_edges,
                -st.graph.num_edges,
                repr(st.key),
            ),
        )
        spent = 0
        evicted = 0
        for state in ranked:
            if spent + per_view <= self.budget_bytes:
                spent += per_view
                if not state.materialized:
                    state.materialized = True
                    if state.compiled is None:
                        state.compiled = self._index.compile(state.graph)
                    state.match_bits = 0
                    state.seen_bits = 0
                    state.seen_count = 0
            elif state.materialized:
                state.materialized = False
                state.match_bits = 0
                state.seen_bits = 0
                state.seen_count = 0
                evicted += 1
        if evicted:
            get_registry().counter("covindex.frag.evictions").add(evicted)
        self._publish_gauges()

    # ------------------------------------------------------------------
    # draining and masking
    # ------------------------------------------------------------------
    def _drain(self, state: _FragmentState) -> None:
        """Bring one materialized fragment view up to date (verify its
        filtered, parent-pruned pending delta)."""
        if state.seen_count == len(self._graphs):
            return
        candidates = self._index.run_query(state.compiled)
        parent = (
            self._fragments.get(state.parent)
            if state.parent is not None
            else None
        )
        if parent is not None and parent.materialized:
            # Parent drained first (chains drain ascending), so its
            # verified matches are current: a host without the parent
            # fragment cannot contain this one.
            candidates &= parent.match_bits
        pending = candidates & ~state.seen_bits
        pending_ids = []
        bits = pending
        while bits:
            low = bits & -bits
            pending_ids.append(low.bit_length() - 1)
            bits ^= low
        if pending_ids:
            verdicts = self._verify(state.graph, pending_ids)
            matched = 0
            for graph_id, verdict in zip(pending_ids, verdicts):
                if verdict:
                    matched |= 1 << graph_id
            state.match_bits |= matched
        state.seen_bits = self._index.universe_value
        state.seen_count = len(self._graphs)

    def _verify(self, fragment: LabeledGraph, pending: list[int]) -> list[bool]:
        """VF2 the fragment against *pending* hosts (pool fan-out when
        worthwhile), seeded with the index's vertex domains."""
        registry = get_registry()
        registry.counter("vf2.cover_calls").add(len(pending))
        registry.counter("covindex.frag.verifications").add(len(pending))
        domains = {
            graph_id: self._index.vertex_domains(
                fragment, graph_id, self._graphs[graph_id]
            )
            for graph_id in pending
        }
        pool = current_pool()
        if pool.worth_parallelizing(len(pending)):
            view = self._host_view()
            return pool.map(
                contains_view_kernel,
                [(graph_id, domains[graph_id]) for graph_id in pending],
                payload=(view.view_id, view.generation, fragment),
            )
        return [
            contains(
                self._graphs[graph_id], fragment, domains=domains[graph_id]
            )
            for graph_id in pending
        ]

    def _host_view(self) -> shared.HostView:
        """The network's published host view (publish on first use)."""
        if self._view_token is not None:
            view = shared.get_view(self._view_token)
            if view is not None and view.graphs is self._graphs:
                return view
        view = shared.publish_view(self._graphs, view_id=self._view_token)
        if self._view_token is None:
            self._view_token = view.view_id
            weakref.finalize(self, shared.retire_view, view.view_id)
        return view

    def pattern_mask(self, key: tuple) -> int | None:
        """The intersection of *key*'s materialized fragment views, or
        ``None`` when the chain has no materialized view.

        Drains the chain ascending so every fragment verifies against
        its parent's already-verified matches.  The mask is a sound
        over-approximation of the pattern's cover — the engine ANDs it
        into the posting-filter candidates before VF2.
        """
        chain = self._chains.get(key)
        if not chain:
            return None
        started = time.perf_counter_ns()
        mask = None
        for fragment_key in chain:
            state = self._fragments[fragment_key]
            if not state.materialized:
                continue
            self._drain(state)
            mask = (
                state.match_bits
                if mask is None
                else mask & state.match_bits
            )
        _DRAIN_NS.add(time.perf_counter_ns() - started)
        if mask is not None:
            get_registry().counter("covindex.frag.mask_queries").add(1)
        return mask

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def apply_update(self, stale_ids: Iterable[int]) -> None:
        """Reconcile with a database batch the owning engine already
        applied to the index and graph view: clear stale verdict bits
        (removed and in-place-replaced graphs) from every view, re-run
        the selector against the possibly-wider universe, and bump the
        published host view's generation so forked workers drop the
        pre-batch graphs.
        """
        stale = list(stale_ids)
        if stale:
            stale_value = 0
            for graph_id in stale:
                stale_value |= 1 << graph_id
            for state in self._fragments.values():
                if not state.materialized:
                    continue
                state.match_bits &= ~stale_value
                state.seen_bits &= ~stale_value
                state.seen_count = state.seen_bits.bit_count()
        if self._view_token is not None:
            shared.publish_view(self._graphs, view_id=self._view_token)
        self._reselect()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def view_bytes(self) -> int:
        """Actual bytes resident in materialized views, as reported by
        the verdict substrate's :meth:`~IntBitsetOps.nbytes`."""
        ops = make_ops("int")
        return sum(
            ops.nbytes(state.match_bits) + ops.nbytes(state.seen_bits)
            for state in self._fragments.values()
            if state.materialized
        )

    def stats(self) -> dict[str, int]:
        materialized = sum(
            1 for state in self._fragments.values() if state.materialized
        )
        return {
            "patterns": len(self._chains),
            "fragments": len(self._fragments),
            "materialized": materialized,
            "view_bytes": self.view_bytes(),
            "budget_bytes": self.budget_bytes,
        }

    def _publish_gauges(self) -> None:
        registry = get_registry()
        registry.gauge("covindex.frag.fragments").set(len(self._fragments))
        registry.gauge("covindex.frag.materialized").set(
            sum(1 for st in self._fragments.values() if st.materialized)
        )
        registry.gauge("covindex.frag.view_bytes").set(self.view_bytes())


# ----------------------------------------------------------------------
# ambient enable flag + budget (mirrors repro.covindex.engine)
# ----------------------------------------------------------------------
_enabled = False
_budget = DEFAULT_FRAGMENT_BUDGET


def set_fragments(enabled: bool, budget_bytes: int | None = None) -> None:
    """Globally enable/disable the network (CLI ``--fragments``)."""
    global _enabled, _budget
    _enabled = enabled
    if budget_bytes is not None:
        _budget = budget_bytes


def fragments_enabled() -> bool:
    return _enabled


def current_fragment_budget() -> int:
    return _budget


@contextmanager
def use_fragments(enabled: bool = True, budget_bytes: int | None = None):
    """Enable (or disable) the network for the dynamic extent of the
    block, optionally pinning the view budget for the same scope."""
    global _enabled, _budget
    previous = (_enabled, _budget)
    _enabled = enabled
    if budget_bytes is not None:
        _budget = budget_bytes
    try:
        yield
    finally:
        _enabled, _budget = previous


__all__ = [
    "DEFAULT_FRAGMENT_BUDGET",
    "MIN_FRAGMENT_EDGES",
    "FragmentNetwork",
    "current_fragment_budget",
    "decompose",
    "fragments_enabled",
    "set_fragments",
    "use_fragments",
]
