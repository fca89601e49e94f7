"""Incremental maintenance of frequent closed trees (FCT).

MIDAS replaces CATAPULT's frequent subtrees with frequent *closed* trees
because closed trees admit an efficient maintenance strategy (paper,
Sections 3.3 and 4.2; Lemmas 3.4 and 4.5):

1. the pool is mined once at a **relaxed** threshold ``sup_min / 2`` so
   that trees whose support rises after deletions (support inflation is
   bounded by 2× while less than half of the database is deleted) are
   already present;
2. on a batch insertion Δ⁺, only Δ⁺ is mined (again at the relaxed
   threshold); trees already pooled get their exact cover sets extended
   from the same mine, which keeps pooled trees at any Δ⁺ support, and
   genuinely new trees get their historic cover computed by a single
   scan — the classic CTMiningAdd merge.  The scan is
   filter-then-verify: support anti-monotonicity bounds a new tree's
   historic cover by its subtrees' covers (:class:`HistoricBound`), a
   tree that cannot reach the relaxed threshold even with that bound is
   neither grown nor scanned, every other tree is verified only against
   its bound, and a scan stops once the tree can no longer reach the
   threshold;
3. on a batch deletion Δ⁻, cover sets simply shed the removed IDs — the
   CTMiningDelete step;
4. closedness is recomputed inside the pool: a tree is non-closed iff an
   equal-support proper supertree exists, and any such supertree chain
   terminates at a pooled tree (support anti-monotonicity keeps every
   intermediate tree at the same support, hence pooled).

The pool stores *all* frequent trees at the relaxed threshold rather than
closed ones only; this costs a little memory but makes the closedness
recomputation self-contained and exact with respect to the mined
universe (trees up to ``max_edges``).  ``fcts()`` reports the frequent
closed trees at the original threshold, and ``frequent_edges()`` /
``infrequent_edge_labels()`` feed the FCT-/IFE-indices.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..graph.labeled_graph import EdgeLabel, LabeledGraph
from ..isomorphism.matcher import contains
from ..obs import get_registry
from .canonical import TreeCode, tree_certificate
from .mining import DEFAULT_MAX_EDGES, GrowthMemo, MinedTree, TreeMiner


class HistoricBound:
    """Supersets of new trees' historic covers, for one CTMiningAdd.

    The historic cover of a tree is the set of *old* graphs (those in
    the database before Δ⁺) containing it.  Support is anti-monotone, so
    it lies inside the historic cover of every subtree.  The superset of
    a tree is therefore the intersection, over its leaf-deleted
    subtrees, of either the subtree's pooled cover restricted to the old
    graphs (exact, because pooled covers are) or the subtree's own
    superset.  A one-edge tree's superset is the set of old graphs
    holding its edge label.

    Only anti-monotonicity is used: a subtree missing from the pool
    just contributes its own superset, so the bound never depends on the
    pool holding every frequent tree.  It does depend on pooled covers
    being exact, which an embedding-cap hit breaks.

    Parameters
    ----------
    pool:
        The FCT pool, covers already extended over Δ⁺.
    old_graphs:
        The database before Δ⁺.
    floor:
        The relaxed minimum support count of the database after Δ⁺.
    """

    def __init__(
        self,
        pool: Mapping[TreeCode, MinedTree],
        old_graphs: Mapping[int, LabeledGraph],
        floor: int,
    ) -> None:
        self._pool = pool
        self._old_graphs = old_graphs
        self._old_ids = frozenset(old_graphs)
        self.floor = floor
        self._supersets: dict[TreeCode, set[int]] = {}
        self._postings: dict[EdgeLabel, set[int]] | None = None

    def superset(self, key: TreeCode, tree: LabeledGraph) -> set[int]:
        """Old graph ids that may contain *tree* (canonical key *key*)."""
        known = self._supersets.get(key)
        if known is not None:
            return known
        pooled = self._pool.get(key)
        if pooled is not None:
            result = pooled.cover & self._old_ids
        elif tree.num_edges == 1:
            (u, v), = tree.edges()
            result = self._edge_postings().get(tree.edge_label(u, v), set())
        else:
            result = None
            for leaf in [v for v in tree.vertices() if tree.degree(v) == 1]:
                subtree = tree.copy()
                subtree.remove_vertex(leaf)
                part = self.superset(tree_certificate(subtree), subtree)
                result = part if result is None else result & part
        self._supersets[key] = result
        return result

    def can_survive(self, tree: MinedTree) -> bool:
        """True unless *tree* (covers over Δ⁺) must fall below the floor.

        Every supertree of a tree that fails has a smaller Δ⁺ cover and
        a smaller superset, so it fails too.
        """
        return len(tree.cover) + len(self.superset(tree.key, tree.tree)) >= (
            self.floor
        )

    def _edge_postings(self) -> dict[EdgeLabel, set[int]]:
        if self._postings is None:
            self._postings = {}
            for graph_id, graph in self._old_graphs.items():
                for label in graph.views().edge_labels:
                    self._postings.setdefault(label, set()).add(graph_id)
        return self._postings


class FCTSet:
    """A maintained pool of frequent (closed) trees with exact covers.

    Parameters
    ----------
    graphs:
        The initial database content as a mapping graph-ID → graph.
    sup_min:
        The FCT support threshold; the pool is mined at ``sup_min / 2``.
    max_edges:
        Largest tree size mined (matches :class:`TreeMiner`).
    """

    #: Whether every pooled cover is exact.  An embedding-cap hit makes
    #: mined covers lower bounds, which :class:`HistoricBound` cannot use;
    #: a rebuild resets it.  Pools revived from checkpoints that predate
    #: the flag read this default and merge without the bound.
    _covers_exact = False

    def __init__(
        self,
        graphs: Mapping[int, LabeledGraph],
        sup_min: float,
        max_edges: int = DEFAULT_MAX_EDGES,
    ) -> None:
        if not 0.0 < sup_min <= 1.0:
            raise ValueError(f"sup_min must be in (0, 1], got {sup_min}")
        self.sup_min = sup_min
        self.max_edges = max_edges
        self._graphs: dict[int, LabeledGraph] = dict(graphs)
        self._pool: dict[TreeCode, MinedTree] = {}
        self._memo: GrowthMemo = {}
        self._delta_counts: dict[int, tuple[LabeledGraph, dict[TreeCode, int]]] = {}
        self.rebuild()

    def __getstate__(self) -> dict:
        # The growth memo is a cache and the Δ⁺ counts serve one index
        # update: neither belongs in a snapshot or a checkpoint.
        state = dict(self.__dict__)
        state.pop("_memo", None)
        state.pop("_delta_counts", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = {}
        self._delta_counts = {}

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def db_size(self) -> int:
        return len(self._graphs)

    @property
    def relaxed_threshold(self) -> float:
        return self.sup_min / 2.0

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    def _min_count(self, threshold: float, db_size: int | None = None) -> int:
        count = (self.db_size if db_size is None else db_size) * threshold
        rounded = int(count)
        return rounded if rounded == count else rounded + 1

    def pool(self) -> list[MinedTree]:
        """Every pooled tree (frequent at the relaxed threshold)."""
        return sorted(
            self._pool.values(), key=lambda t: (t.num_edges, repr(t.key))
        )

    def frequent(self) -> list[MinedTree]:
        """Trees frequent at the original ``sup_min`` threshold."""
        minimum = self._min_count(self.sup_min)
        return [t for t in self.pool() if t.support_count >= minimum]

    def fcts(self) -> list[MinedTree]:
        """Frequent **closed** trees at ``sup_min`` — the FCT features."""
        return [t for t in self.frequent() if t.closed]

    def frequent_edges(self) -> list[MinedTree]:
        """Single-edge frequent trees (the ``E_freq`` of the FCT-Index)."""
        return [t for t in self.frequent() if t.num_edges == 1]

    def infrequent_edge_labels(self) -> set[tuple[str, str]]:
        """Edge labels below ``sup_min`` (the ``E_inf`` of the IFE-Index)."""
        minimum = self._min_count(self.sup_min)
        document_frequency: dict[tuple[str, str], int] = {}
        for graph in self._graphs.values():
            for edge_label in graph.edge_label_set():
                document_frequency[edge_label] = (
                    document_frequency.get(edge_label, 0) + 1
                )
        return {
            label
            for label, frequency in document_frequency.items()
            if frequency < minimum
        }

    def support_of(self, key: TreeCode) -> int:
        """Exact cover size of a pooled tree (KeyError if not pooled)."""
        return self._pool[key].support_count

    def delta_counts(
        self, graph_id: int, graph: LabeledGraph
    ) -> Mapping[TreeCode, int] | None:
        """Embedding counts in *graph* of the trees the last CTMiningAdd
        mined, keyed by tree, or None when that add did not insert this
        graph object or did not take its covers from the mine.

        Counts are uncapped and exact for every pooled tree whose cover
        holds *graph_id*.
        """
        entry = self._delta_counts.get(graph_id)
        if entry is None or entry[0] is not graph:
            return None
        return entry[1]

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Re-mine the pool from scratch at the relaxed threshold."""
        if self._graphs:
            miner = TreeMiner(
                self._graphs, self.relaxed_threshold, self.max_edges
            )
            self._pool = miner.mine(memo=self._memo)
            self._covers_exact = not miner.cap_hit
        else:
            self._pool = {}
            self._covers_exact = True
        self._trim_memo()
        self._recompute_closedness()

    def add_graphs(self, new_graphs: Mapping[int, LabeledGraph]) -> None:
        """CTMiningAdd: merge the trees of Δ⁺ into the pool.

        Existing pool trees are updated by containment tests against the
        *new graphs only*; trees discovered in Δ⁺ that are not yet pooled
        get their historic cover from one filter-then-verify scan over
        the old database.
        """
        if self._add(new_graphs):
            self._recompute_closedness()

    def remove_graphs(self, graph_ids: Iterable[int]) -> None:
        """CTMiningDelete: shed deleted IDs from every cover set."""
        if self._remove(graph_ids):
            self._recompute_closedness()

    def apply(
        self,
        added: Mapping[int, LabeledGraph] | None = None,
        removed: Iterable[int] | None = None,
    ) -> None:
        """Apply a batch update (deletions first, as in Algorithm 1).

        Closedness is recomputed once, after both halves.
        """
        changed = False
        if removed:
            changed = self._remove(removed)
        if added:
            changed = self._add(added) or changed
        if changed:
            self._recompute_closedness()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _add(self, new_graphs: Mapping[int, LabeledGraph]) -> bool:
        if not new_graphs:
            return False
        duplicate_ids = set(new_graphs) & set(self._graphs)
        if duplicate_ids:
            raise ValueError(f"graph ids already present: {sorted(duplicate_ids)}")
        self._delta_counts = {}
        old_graphs = dict(self._graphs)
        # 1. Mine Δ⁺ at the relaxed threshold, growing only trees that
        #    can still be frequent in D ∪ Δ⁺.  While covers are exact the
        #    pool holds every leaf-deleted subtree of each pooled tree,
        #    so the same mine, told to keep pooled trees at any Δ⁺
        #    support, enumerates every pooled tree with a Δ⁺ embedding
        #    that can survive: the bound refuses to grow a tree only
        #    when none of its supertrees can reach the floor.
        floor = self._min_count(
            self.relaxed_threshold, len(old_graphs) + len(new_graphs)
        )
        bound = (
            HistoricBound(self._pool, old_graphs, floor)
            if self._covers_exact
            else None
        )
        delta_miner = TreeMiner(new_graphs, self.relaxed_threshold, self.max_edges)
        if bound is None:
            mined = delta_miner.mine(memo=self._memo)
            from_mine = False
        else:
            mined = delta_miner.mine(
                bound.can_survive, pooled=self._pool, memo=self._memo
            )
            from_mine = not (delta_miner.cap_hit or delta_miner.degraded)
            if delta_miner.cap_hit:
                # Capped Δ⁺ covers are lower bounds, so the bound may
                # have stopped growth a full mine would have done: mine
                # again.
                delta_miner = TreeMiner(
                    new_graphs, self.relaxed_threshold, self.max_edges
                )
                mined = delta_miner.mine(memo=self._memo)
        if delta_miner.cap_hit or delta_miner.degraded:
            bound = None
        containment_tests = 0
        # 2. Extend covers of pooled trees over Δ⁺: from the mine, or by
        #    containment tests against the new graphs where the mine
        #    cannot vouch for them.
        if from_mine:
            for key, tree in mined.items():
                entry = self._pool.get(key)
                if entry is not None:
                    entry.cover |= tree.cover
        else:
            for entry in self._pool.values():
                for graph_id, graph in new_graphs.items():
                    containment_tests += 1
                    if contains(graph, entry.tree):
                        entry.cover.add(graph_id)
        # 3. Merge novel trees with one historic scan each.
        bound_skips = 0
        for key, tree in mined.items():
            if key in self._pool:
                continue  # cover already extended in step 2
            if bound is None:
                scan = list(old_graphs)
            elif bound.can_survive(tree):
                superset = bound.superset(key, tree.tree)
                scan = [graph_id for graph_id in old_graphs if graph_id in superset]
            else:
                bound_skips += 1  # _prune would drop it
                continue
            # _prune drops the tree once its hits plus the graphs left to
            # test cannot reach the floor, so the scan stops there.
            needed = floor - len(tree.cover)
            hits: list[int] = []
            left = len(scan)
            for graph_id in scan:
                if len(hits) + left < needed:
                    break
                left -= 1
                containment_tests += 1
                if contains(old_graphs[graph_id], tree.tree):
                    hits.append(graph_id)
            if len(hits) + left < needed:
                bound_skips += 1
                continue
            tree.cover.update(hits)
            self._pool[key] = tree
        registry = get_registry()
        registry.counter("fct.containment_tests").add(containment_tests)
        registry.counter("fct.bound_skips").add(bound_skips)
        self._covers_exact = self._covers_exact and not delta_miner.cap_hit
        self._graphs.update(new_graphs)
        self._prune()
        if from_mine:
            self._delta_counts = {
                graph_id: (new_graphs[graph_id], counts)
                for graph_id, counts in delta_miner.embedding_counts.items()
            }
        return True

    def _remove(self, graph_ids: Iterable[int]) -> bool:
        removed = set(graph_ids)
        missing = removed - set(self._graphs)
        if missing:
            raise ValueError(f"graph ids not present: {sorted(missing)}")
        if not removed:
            return False
        self._delta_counts = {}
        for graph_id in removed:
            del self._graphs[graph_id]
        for entry in self._pool.values():
            entry.cover -= removed
        self._prune()
        return True

    def _prune(self) -> None:
        minimum = self._min_count(self.relaxed_threshold)
        self._pool = {
            key: entry
            for key, entry in self._pool.items()
            if entry.support_count >= minimum and entry.support_count > 0
        }
        self._trim_memo()
        get_registry().gauge("fct.pool_size").set(len(self._pool))

    def _trim_memo(self) -> None:
        """Keep growth routes of pooled parents only."""
        self._memo = {
            key: routes for key, routes in self._memo.items() if key in self._pool
        }

    def _recompute_closedness(self) -> None:
        """Mark each pooled tree closed iff no equal-support one-edge
        supertree exists in the pool.

        Any equal-support proper supertree chain passes through an
        equal-support tree with exactly one more edge, and that tree is
        frequent at the relaxed threshold, hence pooled (up to the
        ``max_edges`` mining frontier).
        """
        by_size: dict[int, list[MinedTree]] = {}
        for entry in self._pool.values():
            by_size.setdefault(entry.num_edges, []).append(entry)
        closure_checks = 0
        for entry in self._pool.values():
            entry.closed = True
            for candidate in by_size.get(entry.num_edges + 1, ()):
                if candidate.support_count != entry.support_count:
                    continue
                closure_checks += 1
                if contains(candidate.tree, entry.tree):
                    entry.closed = False
                    break
        get_registry().counter("fct.closure_checks").add(closure_checks)
