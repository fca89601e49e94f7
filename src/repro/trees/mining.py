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

The miner grows trees level by level from single edges and runs no
subgraph isomorphism test.  Each tree of a level carries its embeddings
in every covering graph, as tuples of host vertices in the tree's
canonical vertex numbering; a child's embeddings are its parent's,
each extended by one pendant host edge and permuted into the child's
numbering.  A memo maps (parent key, attachment vertex, new label) to
the child's key and permutation, so each child shape is canonicalised
once.  Cover sets (graph IDs) are tracked exactly, so supports — and
hence closedness — are exact whenever the per-graph embedding cap is
not hit.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from ..exceptions import ResilienceError
from ..graph.labeled_graph import EdgeLabel, Label, LabeledGraph
from ..obs import get_registry
from ..resilience.budget import current_budget
from ..resilience.degrade import anytime_degradation, degradation_enabled
from ..resilience.faults import trip
from .canonical import (
    TreeCode,
    canonical_order,
    renumbered,
    tree_certificate,
)

DEFAULT_MAX_EDGES = 4
DEFAULT_EMBEDDING_CAP = 512


@dataclass
class MinedTree:
    """A subtree discovered by the miner, with its exact cover set.

    Attributes
    ----------
    tree:
        The representative: vertices numbered 0..n−1 in canonical
        order, so isomorphic trees have identical representatives.
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MinedTree |E|={self.tree.num_edges} "
            f"sup={len(self.cover)} closed={self.closed}>"
        )


#: Host vertices of one embedding, indexed by the tree's canonical
#: vertex numbering (:func:`~repro.trees.canonical.canonical_order`).
Embedding = tuple

#: Growth memo: parent key → (attachment vertex, new vertex label) →
#: (child key, child canonical order over the parent's vertices plus
#: the new vertex, which is numbered ``parent.num_vertices``).
Route = tuple[TreeCode, tuple[int, ...]]
GrowthMemo = dict[TreeCode, dict[tuple[int, Label], Route]]


class _Growing:
    """A tree of the level under construction.

    ``embeddings`` maps each host to its embeddings, capped at the
    miner's ``embedding_cap``; trees at the ``max_edges`` frontier keep
    none.  ``counts`` maps each host to its uncapped embedding count.
    A grown tree's representative is built only if it survives its
    level: until then ``mined.tree`` is None and ``source`` holds
    (parent tree, attachment vertex, new label, canonical order).
    """

    __slots__ = ("mined", "embeddings", "counts", "source")

    def __init__(self, mined: MinedTree, source: tuple | None = None) -> None:
        self.mined = mined
        self.embeddings: dict[int, list[Embedding]] = {}
        self.counts: dict[int, int] = {}
        self.source = source

    def materialize(self) -> None:
        if self.mined.tree is None:
            tree, anchor, label, order = self.source
            self.mined.tree = renumbered(_extended(tree, anchor, label), order)
            self.source = None


def edge_tree(label: EdgeLabel) -> LabeledGraph:
    """The one-edge tree of an edge label in canonical order: the
    smaller end label is vertex 0."""
    first, second = sorted(label)
    tree = LabeledGraph()
    tree.add_vertex(0, first)
    tree.add_vertex(1, second)
    tree.add_edge(0, 1)
    return tree


def _extended(tree: LabeledGraph, anchor: int, label: Label) -> LabeledGraph:
    """*tree* plus a pendant *label* vertex, numbered ``num_vertices``,
    on *anchor*."""
    grown = tree.copy()
    grown.add_vertex(tree.num_vertices, label)
    grown.add_edge(anchor, tree.num_vertices)
    return grown


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
        Per-graph cap on the embeddings of a single tree kept for
        growth; a safety valve for pathological graphs (supports become
        lower bounds if a grown tree reaches the cap, which
        :attr:`cap_hit` records).
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
        #: Host → tree key → embedding count, for every returned tree,
        #: filled by :meth:`mine`.  Exact unless :attr:`cap_hit` or
        #: :attr:`degraded` is set.
        self.embedding_counts: dict[int, dict[TreeCode, int]] = {}

    # ------------------------------------------------------------------
    @property
    def db_size(self) -> int:
        return len(self._graphs)

    def _min_count(self) -> int:
        # Smallest integer cover size meeting the fractional threshold.
        count = self.db_size * self.min_support
        rounded = int(count)
        return rounded if rounded == count else rounded + 1

    def _single_edge_trees(self, frontier: bool) -> dict[TreeCode, _Growing]:
        """Level 1: one tree per edge label pair, each host edge an
        embedding (both orientations when the end labels are equal)."""
        level: dict[TreeCode, _Growing] = {}
        by_label: dict[tuple[Label, Label], _Growing] = {}
        for graph_id, graph in self._graphs.items():
            labels = graph._labels  # direct reads, as in VF2's hot loop
            found: dict[_Growing, list[Embedding]] = {}
            for u, v in graph.edges():
                if labels[v] < labels[u]:
                    u, v = v, u
                pair = (labels[u], labels[v])
                node = by_label.get(pair)
                if node is None:
                    tree = edge_tree(pair)
                    key = tree_certificate(tree)
                    node = by_label[pair] = level[key] = _Growing(
                        MinedTree(tree=tree, key=key)
                    )
                bucket = found.get(node)
                if bucket is None:
                    bucket = found[node] = []
                bucket.append((u, v))
                if pair[0] == pair[1]:
                    bucket.append((v, u))
            self._settle(graph_id, found, not frontier)
        return level

    def _settle(
        self, graph_id: int, found: dict[_Growing, Any], keep: bool
    ) -> None:
        """Record one host's findings for each tree found in it.

        *found* maps each tree to its embeddings in the host, or to
        their count; the embeddings are kept (capped) when *keep* is
        true.
        """
        cap = self.embedding_cap
        for node, got in found.items():
            node.mined.cover.add(graph_id)
            if type(got) is int:
                count = got
            else:
                count = len(got)
                if keep:
                    node.embeddings[graph_id] = got if count <= cap else got[:cap]
            node.counts[graph_id] = count

    def _grow_level(
        self,
        parents: list[_Growing],
        memo: GrowthMemo,
        frontier: bool,
    ) -> dict[TreeCode, _Growing]:
        """Every one-pendant-edge extension of *parents* in their hosts.

        Each parent embedding is extended by every host edge leaving it.
        A child is reached through several (parent, attachment vertex,
        label) routes; only the first route that reaches it in this
        call produces its embeddings.  That route alone yields every
        embedding of the child, once: each child embedding restricts to
        exactly one embedding of that parent plus one pendant host
        vertex, and the parent's embeddings are complete in each of its
        hosts (unless capped, which sets :attr:`cap_hit`).  The other
        routes only tell their parent which children it has, for the
        closedness rule.
        """
        budget = current_budget()
        cap = self.embedding_cap
        level: dict[TreeCode, _Growing] = {}
        for parent in parents:
            if budget is not None:
                budget.check("fct.mine")
            tree = parent.mined.tree
            known = memo.setdefault(parent.mined.key, {})
            routes: dict[tuple[int, Label], tuple[_Growing, Any]] = {}
            for graph_id, embeddings in parent.embeddings.items():
                if len(embeddings) >= cap:
                    self.cap_hit = True
                host = self._graphs[graph_id]
                adjacency = host._adj  # direct reads, as in VF2's hot loop
                labels = host._labels
                found: dict[_Growing, Any] = {}
                for embedding in embeddings:
                    for anchor, host_vertex in enumerate(embedding):
                        for neighbor in adjacency[host_vertex]:
                            if neighbor in embedding:
                                continue
                            route = routes.get((anchor, labels[neighbor]))
                            if route is None:
                                route = routes[anchor, labels[neighbor]] = (
                                    self._route(
                                        tree,
                                        known,
                                        anchor,
                                        labels[neighbor],
                                        level,
                                    )
                                )
                            node, extend = route
                            if extend is None:
                                continue
                            if frontier:
                                found[node] = found.get(node, 0) + 1
                                continue
                            bucket = found.get(node)
                            if bucket is None:
                                bucket = found[node] = []
                            bucket.append(extend(embedding + (neighbor,)))
                self._settle(graph_id, found, not frontier)
            # Closedness: an equal-support supertree refutes it.
            support = parent.mined.support_count
            if any(
                len(node.mined.cover) == support for node, _ in routes.values()
            ):
                parent.mined.closed = False
        return level

    @staticmethod
    def _route(
        tree: LabeledGraph,
        known: dict[tuple[int, Label], Route],
        anchor: int,
        label: Label,
        level: dict[TreeCode, _Growing],
    ) -> tuple[_Growing, Any]:
        """The child reached by a pendant *label* vertex on *anchor*.

        Returns the child and, when this is the first route to it, the
        map from an extended parent embedding to a child embedding.
        """
        memoised = known.get((anchor, label))
        if memoised is None:
            key, order = canonical_order(_extended(tree, anchor, label))
            node = level.get(key)
            if node is not None:
                key = node.mined.key  # routes to one child share its key
            known[anchor, label] = (key, order)
        else:
            key, order = memoised
            node = level.get(key)
        if node is not None:
            return node, None
        node = level[key] = _Growing(
            MinedTree(tree=None, key=key), (tree, anchor, label, order)
        )
        return node, itemgetter(*order)

    # ------------------------------------------------------------------
    def mine(
        self,
        grow_filter: Callable[[MinedTree], bool] | None = None,
        pooled: Container[TreeCode] | None = None,
        memo: GrowthMemo | None = None,
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

        *pooled*, when given, names trees to keep and grow at any
        support: each one found is returned with its exact cover, as
        long as all its leaf-deleted subtrees are found and grown too.

        Every returned tree's embedding count in each graph of its cover
        is recorded in :attr:`embedding_counts`.

        *memo* carries child keys and canonical orders across mines; a
        fresh one is used when it is omitted.

        Mining is *anytime*: if the ambient budget expires mid-growth
        the trees mined so far are returned (a valid, possibly
        incomplete pool — every returned tree really is frequent) and
        :attr:`degraded` is set.
        """
        trip("fct.mine")
        budget = current_budget()
        min_count = self._min_count()
        memo = {} if memo is None else memo
        keep = pooled if pooled is not None else ()
        frequent: dict[TreeCode, _Growing] = {}

        def survivors(
            candidates: dict[TreeCode, _Growing],
        ) -> dict[TreeCode, _Growing]:
            kept = {
                key: node
                for key, node in candidates.items()
                if node.mined.support_count >= min_count or key in keep
            }
            for node in kept.values():
                node.materialize()
            return kept

        level = survivors(self._single_edge_trees(self.max_edges == 1))
        try:
            while level:
                if budget is not None:
                    budget.check("fct.mine")
                frequent.update(level)
                depth = next(iter(level.values())).mined.num_edges
                if depth >= self.max_edges:
                    break
                parents = [
                    node
                    for node in level.values()
                    if grow_filter is None or grow_filter(node.mined)
                ]
                grown = self._grow_level(
                    parents, memo, depth + 1 >= self.max_edges
                )
                for node in level.values():
                    node.embeddings = {}
                level = survivors(grown)
        except ResilienceError:
            if not degradation_enabled():
                raise
            # Keep the frontier too — those trees met the threshold.
            for key, node in level.items():
                frequent.setdefault(key, node)
            self.degraded = True
            anytime_degradation("fct.mine")
        for key, node in frequent.items():
            for graph_id, count in node.counts.items():
                self.embedding_counts.setdefault(graph_id, {})[key] = count
        get_registry().counter("fct.trees_mined").add(len(frequent))
        return {key: node.mined for key, node in frequent.items()}

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
