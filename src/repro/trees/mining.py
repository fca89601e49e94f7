"""Frequent and frequent-closed subtree mining over a graph database.

CATAPULT clusters data graphs by frequent-subtree (FS) feature vectors;
CATAPULT++/MIDAS replace FS with frequent **closed** trees (FCT), mined
with a TreeNat-style recursive/level-wise pattern-growth scheme (paper,
Sections 2.3, 3.3 and 4.2, citing Balcázar–Bifet–Lozano).

Support semantics are transactional: the support of a tree ``f`` is the
fraction of data graphs containing at least one embedding of ``f``.  A
frequent tree is *closed* when no proper supertree has the same support;
because support is anti-monotone under extension, it suffices to check
the one-edge (pendant-vertex) extensions, which are exactly the tree
supertrees with one extra edge.

The miner grows trees level by level from single edges.  For each
frequent tree it enumerates embeddings in its covering graphs (VF2) and
extends every embedding by one pendant host edge; candidates are
deduplicated by their free-tree canonical certificate.  Cover sets (graph
IDs) are tracked exactly, so supports — and hence closedness — are exact
whenever the per-graph embedding cap is not hit.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from ..exceptions import ResilienceError
from ..graph.labeled_graph import LabeledGraph, normalize_edge_label
from ..isomorphism.matcher import find_embeddings
from ..obs import get_registry
from ..resilience.budget import current_budget
from ..resilience.degrade import anytime_degradation, degradation_enabled
from ..resilience.faults import trip
from .canonical import TreeCode, canonical_tokens, tree_certificate

DEFAULT_MAX_EDGES = 4
DEFAULT_EMBEDDING_CAP = 512


@dataclass
class MinedTree:
    """A subtree discovered by the miner, with its exact cover set.

    Attributes
    ----------
    tree:
        A representative copy with vertices relabelled 0..n−1.
    key:
        Free-tree canonical certificate (equal iff isomorphic).
    cover:
        IDs of database graphs containing at least one embedding.
    closed:
        True when no mined one-edge supertree has the same support.
    """

    tree: LabeledGraph
    key: TreeCode
    cover: set[int] = field(default_factory=set)
    closed: bool = True

    @property
    def support_count(self) -> int:
        return len(self.cover)

    def support(self, db_size: int) -> float:
        return len(self.cover) / db_size if db_size else 0.0

    @property
    def num_edges(self) -> int:
        return self.tree.num_edges

    def tokens(self) -> list[str]:
        """Canonical string tokens (for the FCT-Index trie)."""
        return canonical_tokens(self.tree)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MinedTree |E|={self.tree.num_edges} "
            f"sup={len(self.cover)} closed={self.closed}>"
        )


class TreeMiner:
    """Level-wise frequent (closed) subtree miner.

    Parameters
    ----------
    graphs:
        Mapping graph-ID → graph (typically a :class:`GraphDatabase` view).
    min_support:
        Minimum transactional support in (0, 1].
    max_edges:
        Largest subtree size to grow (paper uses small features; trees at
        this frontier cannot have their closedness refuted and are
        reported closed).
    embedding_cap:
        Per-graph cap on enumerated embeddings of a single tree; a safety
        valve for pathological graphs (supports become lower bounds if a
        cap is ever hit, which :attr:`cap_hit` records).
    """

    def __init__(
        self,
        graphs: Mapping[int, LabeledGraph],
        min_support: float,
        max_edges: int = DEFAULT_MAX_EDGES,
        embedding_cap: int = DEFAULT_EMBEDDING_CAP,
    ) -> None:
        if not 0.0 < min_support <= 1.0:
            raise ValueError(f"min_support must be in (0, 1], got {min_support}")
        if max_edges < 1:
            raise ValueError("max_edges must be >= 1")
        self._graphs = dict(graphs)
        self.min_support = min_support
        self.max_edges = max_edges
        self.embedding_cap = embedding_cap
        self.cap_hit = False
        # True when a budget expired mid-mining and the returned pool is
        # the (valid but possibly incomplete) anytime result.
        self.degraded = False

    # ------------------------------------------------------------------
    @property
    def db_size(self) -> int:
        return len(self._graphs)

    def _min_count(self) -> int:
        # Smallest integer cover size meeting the fractional threshold.
        count = self.db_size * self.min_support
        rounded = int(count)
        return rounded if rounded == count else rounded + 1

    def _single_edge_trees(self) -> dict[TreeCode, MinedTree]:
        """Level-1 trees: one per distinct edge label pair, exact covers."""
        discovered: dict[TreeCode, MinedTree] = {}
        for graph_id, graph in self._graphs.items():
            for u, v in graph.edges():
                label_u, label_v = graph.label(u), graph.label(v)
                tree = LabeledGraph()
                la, lb = normalize_edge_label(label_u, label_v)
                tree.add_vertex(0, la)
                tree.add_vertex(1, lb)
                tree.add_edge(0, 1)
                key = tree_certificate(tree)
                entry = discovered.get(key)
                if entry is None:
                    entry = MinedTree(tree=tree, key=key)
                    discovered[key] = entry
                entry.cover.add(graph_id)
        return discovered

    def _grow(
        self, parent: MinedTree
    ) -> dict[TreeCode, MinedTree]:
        """All one-pendant-edge extensions of *parent* present in its cover."""
        children: dict[TreeCode, MinedTree] = {}
        pattern = parent.tree
        new_vertex = pattern.num_vertices  # vertices are 0..n-1
        # A child is fixed by where the pendant edge attaches and the new
        # vertex's label, so each pair is built and canonicalised once.
        child_keys: dict[tuple[int, str], TreeCode] = {}
        for graph_id in parent.cover:
            host = self._graphs[graph_id]
            embeddings = find_embeddings(
                host, pattern, limit=self.embedding_cap
            )
            if len(embeddings) >= self.embedding_cap:
                self.cap_hit = True
            seen_local: set[TreeCode] = set()
            for embedding in embeddings:
                used = set(embedding.values())
                for pattern_vertex, host_vertex in embedding.items():
                    for neighbor in host.neighbors(host_vertex) - used:
                        label = host.label(neighbor)
                        key = child_keys.get((pattern_vertex, label))
                        if key is None:
                            grown = pattern.copy()
                            grown.add_vertex(new_vertex, label)
                            grown.add_edge(pattern_vertex, new_vertex)
                            key = tree_certificate(grown)
                            child_keys[pattern_vertex, label] = key
                            if key not in children:
                                children[key] = MinedTree(
                                    tree=grown.relabeled(), key=key
                                )
                        if key not in seen_local:
                            children[key].cover.add(graph_id)
                            seen_local.add(key)
        return children

    # ------------------------------------------------------------------
    def mine(
        self, grow_filter: Callable[[MinedTree], bool] | None = None
    ) -> dict[TreeCode, MinedTree]:
        """Mine all frequent trees up to ``max_edges``, closedness marked.

        Returns a mapping canonical key → :class:`MinedTree` whose
        ``closed`` flags implement the TreeNat rule: a frequent tree is
        kept closed unless some one-edge supertree matches its support.

        *grow_filter*, when given, is asked about every frequent tree
        below the ``max_edges`` frontier, level by level; a tree it
        rejects is returned but not extended.  The caller must only
        reject trees none of whose supertrees it wants.  Closedness
        flags are then meaningless for the rejected trees.

        Mining is *anytime*: if the ambient budget expires mid-growth
        the trees mined so far are returned (a valid, possibly
        incomplete pool — every returned tree really is frequent) and
        :attr:`degraded` is set.
        """
        trip("fct.mine")
        budget = current_budget()
        min_count = self._min_count()
        frequent: dict[TreeCode, MinedTree] = {}
        level = {
            key: tree
            for key, tree in self._single_edge_trees().items()
            if tree.support_count >= min_count
        }
        try:
            while level:
                if budget is not None:
                    budget.check("fct.mine")
                next_candidates: dict[TreeCode, MinedTree] = {}
                for key, tree in level.items():
                    frequent[key] = tree
                    if tree.num_edges >= self.max_edges:
                        continue
                    if grow_filter is not None and not grow_filter(tree):
                        continue
                    for child_key, child in self._grow(tree).items():
                        entry = next_candidates.get(child_key)
                        if entry is None:
                            next_candidates[child_key] = child
                        else:
                            entry.cover |= child.cover
                        # Closedness: an equal-support supertree refutes it.
                        grown_support = len(
                            next_candidates[child_key].cover
                        )
                        if grown_support == tree.support_count:
                            tree.closed = False
                level = {
                    key: tree
                    for key, tree in next_candidates.items()
                    if tree.support_count >= min_count
                }
        except ResilienceError:
            if not degradation_enabled():
                raise
            # Keep the frontier too — those trees met the threshold.
            for key, tree in level.items():
                frequent.setdefault(key, tree)
            self.degraded = True
            anytime_degradation("fct.mine")
        get_registry().counter("fct.trees_mined").add(len(frequent))
        return frequent

    def mine_frequent(self) -> list[MinedTree]:
        """All frequent trees (the FS features of CATAPULT)."""
        return sorted(
            self.mine().values(),
            key=lambda t: (t.num_edges, repr(t.key)),
        )

    def mine_closed(self) -> list[MinedTree]:
        """Frequent closed trees (the FCT features of CATAPULT++/MIDAS)."""
        return [tree for tree in self.mine_frequent() if tree.closed]


def mine_frequent_trees(
    graphs: Mapping[int, LabeledGraph],
    min_support: float,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> list[MinedTree]:
    """Convenience wrapper: frequent subtrees of *graphs*."""
    return TreeMiner(graphs, min_support, max_edges).mine_frequent()


def mine_closed_trees(
    graphs: Mapping[int, LabeledGraph],
    min_support: float,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> list[MinedTree]:
    """Convenience wrapper: frequent closed subtrees of *graphs*."""
    return TreeMiner(graphs, min_support, max_edges).mine_closed()
