"""Canonical forms of labelled free trees.

CATAPULT/CATAPULT++ represent frequent (closed) trees by canonical trees
and canonical strings: trees are normalised, then serialised by a
top-down, level-by-level breadth-first scan in which the symbol ``$``
separates families of siblings (paper, Sections 4.2 and 5.1).

The normalisation here is the classic AHU scheme extended with vertex
labels:

* a rooted tree is encoded bottom-up as ``(label, sorted child codes)``;
* a free tree is rooted at its centre (or at the better of the two
  centres when the tree is bicentral) so isomorphic free trees share one
  canonical rooted form.
"""

from __future__ import annotations

from ..graph.labeled_graph import GraphError, LabeledGraph, VertexId

TreeCode = tuple

SIBLING_SEPARATOR = "$"


def tree_centers(tree: LabeledGraph) -> list[VertexId]:
    """Return the 1 or 2 centre vertices of a tree (iterated leaf pruning)."""
    # With n - 1 edges, a graph that is not a tree has a cycle, whose
    # vertices never become leaves: the pruning stalls on it.
    if tree.num_vertices == 0 or tree.num_edges != tree.num_vertices - 1:
        raise GraphError("tree_centers requires a connected acyclic graph")
    if tree.num_vertices == 1:
        return list(tree.vertices())
    degree = {v: tree.degree(v) for v in tree.vertices()}
    leaves = [v for v, d in degree.items() if d <= 1]
    remaining = tree.num_vertices
    while remaining > 2:
        if not leaves:
            raise GraphError("tree_centers requires a connected acyclic graph")
        remaining -= len(leaves)
        next_leaves: list[VertexId] = []
        for leaf in leaves:
            for neighbor in tree.neighbors(leaf):
                degree[neighbor] -= 1
                if degree[neighbor] == 1:
                    next_leaves.append(neighbor)
            degree[leaf] = 0
        leaves = next_leaves
    return sorted(leaves, key=repr)


def rooted_code(
    tree: LabeledGraph, root: VertexId, parent: VertexId | None = None
) -> TreeCode:
    """AHU canonical code of *tree* rooted at *root* (labels included)."""
    children = [v for v in tree.neighbors(root) if v != parent]
    child_codes = sorted(rooted_code(tree, child, root) for child in children)
    return (tree.label(root), tuple(child_codes))


def tree_certificate(tree: LabeledGraph) -> TreeCode:
    """Canonical code of a free labelled tree.

    Isomorphic trees have equal certificates and vice versa.
    """
    centers = tree_centers(tree)
    return min(rooted_code(tree, center) for center in centers)


def _encode(
    tree: LabeledGraph,
    vertex: VertexId,
    parent: VertexId | None,
    codes: dict[VertexId, TreeCode],
) -> TreeCode:
    """:func:`rooted_code`, also recording every vertex's subtree code."""
    code = (
        tree.label(vertex),
        tuple(
            sorted(
                _encode(tree, child, vertex, codes)
                for child in tree.neighbors(vertex)
                if child != parent
            )
        ),
    )
    codes[vertex] = code
    return code


def canonical_order(tree: LabeledGraph) -> tuple[TreeCode, tuple[VertexId, ...]]:
    """Certificate of *tree* and its vertices in canonical numbering.

    The numbering is a breadth-first scan from the canonical root that
    visits each vertex's children in ascending order of their subtree
    codes, the order :func:`canonical_tokens` serialises.  Children
    with equal codes root isomorphic subtrees, so for two isomorphic
    trees position *i* of one order maps to position *i* of the other
    under an isomorphism, and :func:`renumbered` turns both into the
    same graph.
    """
    best: tuple[TreeCode, VertexId, dict[VertexId, TreeCode]] | None = None
    for center in tree_centers(tree):
        codes: dict[VertexId, TreeCode] = {}
        code = _encode(tree, center, None, codes)
        if best is None or code < best[0]:
            best = (code, center, codes)
    key, root, codes = best
    order = [root]
    parent_of: dict[VertexId, VertexId | None] = {root: None}
    for vertex in order:  # grows while it is scanned: breadth-first
        children = [
            child for child in tree.neighbors(vertex) if child != parent_of[vertex]
        ]
        children.sort(key=codes.__getitem__)
        for child in children:
            parent_of[child] = vertex
            order.append(child)
    return key, tuple(order)


def renumbered(tree: LabeledGraph, order: tuple[VertexId, ...]) -> LabeledGraph:
    """Copy of *tree* with vertex ``order[i]`` renamed *i*.

    Edges are inserted by their larger endpoint, so renumbering two
    isomorphic trees by their :func:`canonical_order` gives identical
    graphs.
    """
    position = {vertex: index for index, vertex in enumerate(order)}
    clone = LabeledGraph()
    for vertex in order:
        clone.add_vertex(position[vertex], tree.label(vertex))
    edges = sorted(
        (position[v], position[u])
        for u in order
        for v in tree.neighbors(u)
        if position[u] < position[v]
    )
    for high, low in edges:
        clone.add_edge(low, high)
    return clone


def canonical_root(tree: LabeledGraph) -> VertexId:
    """The centre chosen by :func:`tree_certificate` as canonical root."""
    centers = tree_centers(tree)
    return min(centers, key=lambda c: rooted_code(tree, c))


def _ordered_children(
    tree: LabeledGraph, vertex: VertexId, parent: VertexId | None
) -> list[VertexId]:
    """Children of *vertex* sorted by their canonical subtree code."""
    children = [v for v in tree.neighbors(vertex) if v != parent]
    return sorted(children, key=lambda c: rooted_code(tree, c, vertex))


def canonical_tokens(tree: LabeledGraph) -> list[str]:
    """Canonical string of a tree as a token list.

    Format (paper, Section 5.1): the root label, then a top-down
    level-by-level BFS where each visited vertex emits ``$`` followed by
    the labels of its children in canonical order.  A childless vertex in
    a non-final level still emits its ``$`` so sibling families stay
    separated and the string is uniquely decodable.

    Example: the tree ``O - C - S`` rooted at C serialises to
    ``["C", "$", "O", "S"]``.
    """
    if tree.num_vertices == 0:
        return []
    root = canonical_root(tree)
    tokens: list[str] = [tree.label(root)]
    queue: list[tuple[VertexId, VertexId | None]] = [(root, None)]
    while queue:
        next_queue: list[tuple[VertexId, VertexId]] = []
        emitted_any = False
        pending: list[str] = []
        for vertex, parent in queue:
            children = _ordered_children(tree, vertex, parent)
            pending.append(SIBLING_SEPARATOR)
            for child in children:
                pending.append(tree.label(child))
                next_queue.append((child, vertex))
                emitted_any = True
        if not emitted_any:
            break
        tokens.extend(pending)
        queue = next_queue
    return tokens


def canonical_string(tree: LabeledGraph) -> str:
    """Space-joined form of :func:`canonical_tokens`."""
    return " ".join(canonical_tokens(tree))


def tree_from_tokens(tokens: list[str]) -> LabeledGraph:
    """Rebuild a tree from its canonical token list (inverse of
    :func:`canonical_tokens` up to isomorphism)."""
    if not tokens:
        return LabeledGraph()
    tree = LabeledGraph()
    tree.add_vertex(0, tokens[0])
    next_vertex = 1
    frontier: list[int] = [0]
    position = 1
    while position < len(tokens) and frontier:
        next_frontier: list[int] = []
        for parent in frontier:
            if position >= len(tokens):
                break
            if tokens[position] != SIBLING_SEPARATOR:
                raise ValueError(
                    f"expected {SIBLING_SEPARATOR!r} at token {position}, "
                    f"got {tokens[position]!r}"
                )
            position += 1
            while position < len(tokens) and tokens[position] != SIBLING_SEPARATOR:
                tree.add_vertex(next_vertex, tokens[position])
                tree.add_edge(parent, next_vertex)
                next_frontier.append(next_vertex)
                next_vertex += 1
                position += 1
            # Peek: if the next family belongs to the next parent in this
            # level, the loop continues; handled by outer for.
        frontier = next_frontier
    return tree
