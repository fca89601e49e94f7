"""Inverted posting lists over a graph-database view, keyed by invariants.

:class:`CoverageIndex` indexes every graph of a view under three cheap
invariant families, each a *necessary* condition for a monomorphism
``pattern ⊆ graph`` (the filter half of filter-then-verify):

* ``("vl", label, c)`` — graphs with ≥ *c* vertices labelled *label*;
* ``("el", edge_label, c)`` — graphs with ≥ *c* edges labelled
  *edge_label* (degree-capped: multiplicities saturate at
  :data:`COUNT_CAP`);
* ``("nb", label, nbr_label, c)`` — graphs containing a vertex labelled
  *label* with ≥ *c* neighbours labelled *nbr_label* (the 1-hop
  neighbourhood signature), plus ``("deg", label, d)`` for raw
  degree-capped label/degree pairs;
* ``("degc", label, d, c)`` — graphs with ≥ *c* vertices labelled
  *label* of degree ≥ *d* (the counted strengthening of ``deg``;
  ``c == 1`` is the ``deg`` key itself);
* ``("wg", end_a, mid, end_b, c)`` — graphs with ≥ *c* wedges (2-paths)
  whose endpoint/centre labels form the order-normalized triple:
  vertex-injective embeddings map distinct pattern wedges to distinct
  host wedges.

Posting lists are bitsets (:mod:`repro.covindex.bitset`), so a
pattern's candidate host set is the AND of the posting lists of its
invariant keys intersected with the view's universe — no database scan.
Two substrates store them:

* ``int`` — one Python int per key (the PR-4 reference; byte-identity
  baseline for the differential oracles and the covix figure).
* ``numpy`` — all posting rows of every family stacked into one 2-D
  ``uint64`` matrix.  A pattern filter gathers its keys' row indices
  and evaluates a single ``bitwise_and.reduce`` over the stack — one
  vectorized call, no per-family loop; :meth:`compile` caches the
  row-index plan per pattern; row indices are permanent (emptied rows
  are zeroed, never freed or recycled), so usable plans live forever
  and allocations invalidate only cached impossibility.
  :meth:`run_query` converts the reduced word row to the canonical int
  at the boundary: the vectorized matrix absorbs the O(keys) work,
  while the many tiny per-call set operations downstream (verdict
  deltas, membership tests) stay on big-ints, whose sub-microsecond
  per-op cost beats array-op dispatch overhead at that granularity.

Both substrates expose the same canonical form — :meth:`snapshot` and
:meth:`posting_items` are plain ints — so persistence
(:mod:`repro.store.sqlite`), journal digests and cross-substrate
equality never see substrate internals.

The same per-vertex signatures also seed VF2: :meth:`vertex_domains`
returns, for one surviving candidate host, the admissible host vertices
of every pattern vertex (label equality, degree dominance, 1-hop
neighbour-label multiset dominance via
:func:`~repro.isomorphism.invariants.multiset_dominates`), shrinking the
search tree of the verifications that survive filtering.

Maintenance is incremental: :meth:`add_graph` / :meth:`remove_graph`
update exactly the posting lists a graph participates in (a reverse
key map makes removal O(keys-of-graph)); a from-scratch
:meth:`build` is the fallback, and :meth:`snapshot` gives the canonical
structural form both paths must agree on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from ..graph.labeled_graph import LabeledGraph, VertexId
from ..isomorphism.invariants import multiset_dominates
from ..obs import BoundCounter, get_registry
from .bitset import bits_of, ids_of, make_ops, resolve_substrate, words_to_int

try:
    import numpy as _np
except ImportError:  # pragma: no cover - int substrate only
    _np = None

_WORD_MASK = (1 << 64) - 1

#: Saturation cap for invariant multiplicities.  A pattern needing more
#: than COUNT_CAP occurrences of an invariant queries the capped key —
#: strictly weaker, never unsound — while posting-list count stays
#: bounded per graph.
COUNT_CAP = 4

#: Saturation cap for the high-multiplicity families (``vl`` vertex
#: labels, ``el`` edge labels, ``wg`` wedges).  Molecule-like graphs
#: carry dozens of same-labelled vertices/edges/wedges, so the generic
#: cap saturates immediately and loses all discrimination; a higher cap
#: keeps these families informative for patterns near the size budget.
BULK_COUNT_CAP = 8

#: Saturation cap for vertex degrees in ``("deg", label, d)`` keys.
DEGREE_CAP = 4

# Filter-query counters, resolved once rather than by name per query.
_FILTER_QUERIES = BoundCounter("covindex.filter_queries")
_CANDIDATES_KEPT = BoundCounter("covindex.candidates_kept")
_CANDIDATES_PRUNED = BoundCounter("covindex.candidates_pruned")


def _neighbor_label_counts(
    graph: LabeledGraph, vertex: VertexId
) -> dict[str, int]:
    counts: dict[str, int] = {}
    for neighbor in graph.neighbors(vertex):
        label = graph.label(neighbor)
        counts[label] = counts.get(label, 0) + 1
    return counts


def _neighbor_threshold_counts(graph: LabeledGraph) -> dict[tuple, int]:
    """``(label, nbr_label, c) -> #vertices`` with ≥ *c* such neighbours."""
    counts: dict[tuple, int] = {}
    for vertex in graph.vertices():
        label = graph.label(vertex)
        for nbr_label, n in _neighbor_label_counts(graph, vertex).items():
            for c in range(1, min(n, COUNT_CAP) + 1):
                triple = (label, nbr_label, c)
                counts[triple] = counts.get(triple, 0) + 1
    return counts


def _degree_threshold_counts(graph: LabeledGraph) -> dict[tuple, int]:
    """``(label, d) -> |{v : label(v)=label, degree(v) >= d}|`` (capped d)."""
    counts: dict[tuple, int] = {}
    for vertex in graph.vertices():
        label = graph.label(vertex)
        for d in range(1, min(graph.degree(vertex), DEGREE_CAP) + 1):
            pair = (label, d)
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def _wedge_counts(graph: LabeledGraph) -> dict[tuple, int]:
    """``(end_a, mid, end_b) -> #wedges`` — label triples of 2-paths.

    A wedge is an unordered pair of distinct neighbours of one centre
    vertex; end labels are order-normalized so the triple is invariant
    under reflection.
    """
    counts: dict[tuple, int] = {}
    for mid in graph.vertices():
        nbr_labels = sorted(
            graph.label(n) for n in graph.neighbors(mid)
        )
        if len(nbr_labels) < 2:
            continue
        mid_label = graph.label(mid)
        for i, la in enumerate(nbr_labels):
            for lb in nbr_labels[i + 1 :]:
                triple = (la, mid_label, lb)
                counts[triple] = counts.get(triple, 0) + 1
    return counts


def graph_posting_keys(graph: LabeledGraph) -> set[tuple]:
    """Every invariant key *graph* satisfies (its posting memberships)."""
    keys: set[tuple] = set()
    for label, n in graph.vertex_label_multiset().items():
        for c in range(1, min(n, BULK_COUNT_CAP) + 1):
            keys.add(("vl", label, c))
    for edge_label, n in graph.edge_label_multiset().items():
        for c in range(1, min(n, BULK_COUNT_CAP) + 1):
            keys.add(("el", edge_label, c))
    for vertex in graph.vertices():
        label = graph.label(vertex)
        degree = graph.degree(vertex)
        for d in range(1, min(degree, DEGREE_CAP) + 1):
            keys.add(("deg", label, d))
        for nbr_label, n in _neighbor_label_counts(graph, vertex).items():
            for c in range(1, min(n, COUNT_CAP) + 1):
                keys.add(("nb", label, nbr_label, c))
    for (label, d), n in _degree_threshold_counts(graph).items():
        # c == 1 is exactly the ("deg", label, d) key above.
        for c in range(2, min(n, COUNT_CAP) + 1):
            keys.add(("degc", label, d, c))
    for (label, nbr_label, c), n in _neighbor_threshold_counts(
        graph
    ).items():
        # k == 1 is exactly the ("nb", label, nbr_label, c) key above.
        for k in range(2, min(n, COUNT_CAP) + 1):
            keys.add(("nbc", label, nbr_label, c, k))
    for (la, lm, lb), n in _wedge_counts(graph).items():
        for c in range(1, min(n, BULK_COUNT_CAP) + 1):
            keys.add(("wg", la, lm, lb, c))
    return keys


def pattern_query_keys(pattern: LabeledGraph) -> set[tuple]:
    """The invariant keys a host must satisfy to possibly contain *pattern*.

    Each key is a necessary condition for a monomorphism: label
    multiplicities map injectively, pattern edges map to distinct host
    edges, and each pattern vertex's degree and 1-hop neighbour-label
    multiset must be dominated by its image's.
    """
    keys: set[tuple] = set()
    for label, n in pattern.vertex_label_multiset().items():
        keys.add(("vl", label, min(n, BULK_COUNT_CAP)))
    for edge_label, n in pattern.edge_label_multiset().items():
        keys.add(("el", edge_label, min(n, BULK_COUNT_CAP)))
    for vertex in pattern.vertices():
        label = pattern.label(vertex)
        degree = pattern.degree(vertex)
        if degree:
            keys.add(("deg", label, min(degree, DEGREE_CAP)))
        for nbr_label, n in _neighbor_label_counts(pattern, vertex).items():
            keys.add(("nb", label, nbr_label, min(n, COUNT_CAP)))
    for (label, d), n in _degree_threshold_counts(pattern).items():
        # Distinct pattern vertices map to distinct host vertices, so a
        # host needs >= n vertices of this label at this degree floor;
        # n == 1 is already demanded by the ("deg", label, d) key.
        if n >= 2:
            keys.add(("degc", label, d, min(n, COUNT_CAP)))
    for (label, nbr_label, c), n in _neighbor_threshold_counts(
        pattern
    ).items():
        # Same injectivity argument per neighbourhood signature; the
        # n == 1 case is the ("nb", ...) key above.
        if n >= 2:
            keys.add(("nbc", label, nbr_label, c, min(n, COUNT_CAP)))
    for (la, lm, lb), n in _wedge_counts(pattern).items():
        # Vertex-injective embeddings map distinct wedges to distinct
        # host wedges with the same label triple.
        keys.add(("wg", la, lm, lb, min(n, BULK_COUNT_CAP)))
    # Implied-key elimination: a ("degc", l, d, c) demand subsumes the
    # ("deg", l, d) one — its posting list is a subset — and ("nbc", l,
    # nl, c, k) likewise subsumes ("nb", l, nl, c).  Dropping the
    # implied keys shrinks every filter plan (and the int substrate's
    # AND loop) without changing the intersection.
    for key in [k for k in keys if k[0] == "degc"]:
        keys.discard(("deg", key[1], key[2]))
    for key in [k for k in keys if k[0] == "nbc"]:
        keys.discard(("nb", key[1], key[2], key[3]))
    return keys


class _PostingMatrix:
    """Every posting row of the index, stacked in one uint64 matrix.

    Rows are allocated densely and — crucially for plan stability —
    **never freed**: a posting list whose last bit clears keeps its
    (all-zero) row, so cached :class:`CompiledQuery` row plans survive
    every maintenance round and an emptied key still ANDs to the
    correct zero result.  Maintenance churn would otherwise invalidate
    every cached plan each round, putting an O(keys) gather back on the
    filter hot path.  Row count is bounded by the number of *distinct*
    invariant keys the view has ever exhibited (label-combinatorial,
    small in practice), not by churn volume.  The canonical views
    (:meth:`int_items`, :meth:`row_count`) skip empty rows, so
    snapshots and persistence never see the difference.

    The word width tracks the shared ops instance lazily; row indices
    survive width growth, so only allocation changes the layout (the
    caller bumps its alloc version, which invalidates only cached
    *impossible* verdicts — see :class:`CompiledQuery`).
    """

    def __init__(self, ops) -> None:
        self._ops = ops
        self._rows: dict[tuple, int] = {}
        self._matrix = _np.zeros((0, ops.num_words), dtype=_np.uint64)

    def _sync_width(self) -> None:
        if self._matrix.shape[1] < self._ops.num_words:
            wider = _np.zeros(
                (self._matrix.shape[0], self._ops.num_words),
                dtype=_np.uint64,
            )
            wider[:, : self._matrix.shape[1]] = self._matrix
            self._matrix = wider

    def _alloc_row(self) -> int:
        used = len(self._rows)
        if used == self._matrix.shape[0]:
            grown = _np.zeros(
                (max(4, used * 2), self._matrix.shape[1]),
                dtype=_np.uint64,
            )
            grown[:used] = self._matrix
            self._matrix = grown
        return used

    def set_bit(self, key: tuple, graph_id: int) -> bool:
        """Set *graph_id* in *key*'s row; True when a row was allocated."""
        self._sync_width()
        changed = False
        row = self._rows.get(key)
        if row is None:
            row = self._alloc_row()
            self._rows[key] = row
            changed = True
        self._matrix[row, graph_id >> 6] |= _np.uint64(1 << (graph_id & 63))
        return changed

    def clear_bit(self, key: tuple, graph_id: int) -> None:
        """Clear *graph_id* from *key*'s row (the row itself persists)."""
        row = self._rows.get(key)
        if row is None:
            return
        word = graph_id >> 6
        if word < self._matrix.shape[1]:
            self._matrix[row, word] &= _np.uint64(
                ~(1 << (graph_id & 63)) & _WORD_MASK
            )

    def set_row(self, key: tuple, value) -> bool:
        """Install a whole row for *key*; True when a row was allocated."""
        self._sync_width()
        changed = False
        row = self._rows.get(key)
        if row is None:
            row = self._alloc_row()
            self._rows[key] = row
            changed = True
        self._matrix[row, :] = 0
        self._matrix[row, : value.shape[0]] = value
        return changed

    def get_int(self, key: tuple) -> int:
        row = self._rows.get(key)
        return 0 if row is None else words_to_int(self._matrix[row])

    def int_items(self) -> Iterator[tuple[tuple, int]]:
        """Canonical ``(key, int_bits)`` pairs; emptied rows are skipped
        so snapshots match the int substrate's dropped-posting form."""
        for key, row in self._rows.items():
            bits = words_to_int(self._matrix[row])
            if bits:
                yield key, bits

    def row_count(self) -> int:
        """Non-empty posting rows (the substrate-independent count)."""
        if not self._rows:
            return 0
        used = self._matrix[list(self._rows.values())]
        return int(used.any(axis=1).sum())

    def gather(self, keys):
        """Row indices of *keys*, or None when any key has no row."""
        rows = []
        for key in keys:
            row = self._rows.get(key)
            if row is None:
                return None
            rows.append(row)
        return _np.array(rows, dtype=_np.intp)

    def reduce(self, rows):
        """AND of the posting rows at *rows*, at the current ops width.

        Exactly two array-op dispatches — a fancy-index gather and one
        ``bitwise_and.reduce`` — which matters more than the copies
        they make: under the interleaved serving workload each numpy
        entry costs microseconds of dispatch regardless of data size
        (``np.take`` with a preallocated ``out=``, nominally
        copy-free, measures ~3x slower here than this form).
        """
        self._sync_width()
        return _np.bitwise_and.reduce(self._matrix[rows], axis=0)


class CompiledQuery:
    """A pattern's cached filter plan against one index's row layout.

    On the numpy substrate, running a filter costs a dict lookup per
    invariant key to find its posting row.  Engines run the same
    pattern's filter every round, so the row-index arrays are cached
    here.  Row indices are *permanent* — the matrix only grows, and
    emptied rows are kept (zeroed) rather than freed — so a usable
    plan never goes stale; only a cached *impossible* verdict
    revalidates, and only against the allocation counter, since a new
    row may supply the missing key.  Maintenance rounds therefore
    never put the O(keys) gather back on the filter hot path.
    On the int substrate this is a plain wrapper: keys are recomputed
    per run, exactly the reference behaviour the covix baseline
    measures.
    """

    __slots__ = (
        "pattern", "_keys", "_alloc_seen", "_plan", "_impossible",
    )

    def __init__(self, pattern: LabeledGraph) -> None:
        self.pattern = pattern
        self._keys: set[tuple] | None = None
        self._alloc_seen = -1
        self._plan = None
        self._impossible = False

    def _plan_for(self, index: "CoverageIndex"):
        # Row indices are permanent (the matrix never frees rows), so a
        # usable plan is valid forever; only a cached *impossible*
        # verdict revalidates, and only when an allocation may have
        # supplied the missing key.
        if self._plan is None and (
            not self._impossible
            or index._alloc_version != self._alloc_seen
        ):
            if self._keys is None:
                self._keys = pattern_query_keys(self.pattern)
            self._plan, self._impossible = index._build_plan(self._keys)
            self._alloc_seen = index._alloc_version
        return None if self._impossible else self._plan


def posting_snapshot(graphs: Iterable[tuple[int, LabeledGraph]]) -> tuple:
    """:meth:`CoverageIndex.snapshot` of the index over *graphs*,
    folded one ``(graph_id, graph)`` pair at a time.

    Only the universe and the posting bitsets are kept — no graph and
    no per-graph key set — so a whole out-of-core store can be checked
    against its persisted postings in memory proportional to the
    posting keys, not to the graphs.
    """
    postings: dict[tuple, int] = {}
    ids: list[int] = []
    for graph_id, graph in graphs:
        ids.append(graph_id)
        bit = 1 << graph_id
        for key in graph_posting_keys(graph):
            postings[key] = postings.get(key, 0) | bit
    return bits_of(ids), tuple(sorted(postings.items()))


class CoverageIndex:
    """Bitset posting lists plus per-graph vertex signature tables."""

    def __init__(self, substrate: str | None = None) -> None:
        self.substrate = resolve_substrate(substrate)
        self._ops = make_ops(self.substrate)
        # int substrate: key -> int bitset.  numpy substrate: one
        # posting matrix over all keys (and _postings stays empty).
        self._postings: dict[tuple, int] = {}
        self._matrix: _PostingMatrix | None = (
            _PostingMatrix(self._ops) if self.substrate == "numpy" else None
        )
        # Plan-invalidation counter: allocations never move existing
        # rows (and frees never happen), so only a cached impossibility
        # verdict ever revalidates against it; see CompiledQuery.
        self._alloc_version = 0
        self._keys_by_graph: dict[int, set[tuple]] = {}
        # Always the canonical int, whatever the posting substrate —
        # see run_query for why the boundary sits here.
        self._universe = 0
        # Lazily built per-graph tables for vertex_domains:
        # graph id -> label -> [(vertex, degree, neighbour label counts)].
        self._signature_tables: dict[int, dict] = {}

    @property
    def ops(self):
        """The shared :class:`~repro.covindex.bitset.BitsetOps` instance."""
        return self._ops

    # ------------------------------------------------------------------
    # construction & maintenance
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graphs: Mapping[int, LabeledGraph],
        substrate: str | None = None,
    ) -> "CoverageIndex":
        """Index a whole view from scratch (the rebuild fallback)."""
        index = cls(substrate=substrate)
        for graph_id in sorted(graphs):
            index.add_graph(graph_id, graphs[graph_id])
        get_registry().counter("covindex.rebuilds").add(1)
        return index

    @classmethod
    def from_parts(
        cls,
        postings: Mapping[tuple, int],
        keys_by_graph: Mapping[int, set[tuple]],
        substrate: str | None = None,
    ) -> "CoverageIndex":
        """Reassemble an index from persisted posting lists.

        The out-of-core store keeps postings and per-graph key sets on
        disk (docs/STORAGE.md); this re-creates the exact index
        :meth:`build` would produce — same :meth:`snapshot` — without
        re-deriving any invariant.  Empty posting lists are dropped,
        matching the incremental-maintenance representation.
        """
        index = cls(substrate=substrate)
        index._keys_by_graph = {
            graph_id: set(keys) for graph_id, keys in keys_by_graph.items()
        }
        if index._matrix is None:
            index._postings = {
                key: bits for key, bits in postings.items() if bits
            }
        else:
            if index._keys_by_graph:
                index._ops.ensure_capacity(max(index._keys_by_graph) + 1)
            for key, bits in postings.items():
                if bits:
                    index._matrix.set_row(key, index._ops.from_int(bits))
            index._alloc_version += 1
        index._universe = bits_of(index._keys_by_graph)
        return index

    def add_graph(self, graph_id: int, graph: LabeledGraph) -> None:
        """Insert *graph_id* into every posting list it satisfies."""
        if graph_id in self._keys_by_graph:
            self.remove_graph(graph_id)
        keys = graph_posting_keys(graph)
        if self._matrix is None:
            bit = 1 << graph_id
            for key in keys:
                self._postings[key] = self._postings.get(key, 0) | bit
        else:
            self._ops.ensure_capacity(graph_id + 1)
            changed = False
            for key in keys:
                changed |= self._matrix.set_bit(key, graph_id)
            if changed:
                self._alloc_version += 1
        self._keys_by_graph[graph_id] = keys
        self._universe |= 1 << graph_id

    def remove_graph(self, graph_id: int) -> None:
        """Drop *graph_id* from its posting lists (no full scan)."""
        keys = self._keys_by_graph.pop(graph_id, None)
        if keys is None:
            return
        if self._matrix is None:
            mask = ~(1 << graph_id)
            for key in keys:
                remaining = self._postings[key] & mask
                if remaining:
                    self._postings[key] = remaining
                else:
                    del self._postings[key]
        else:
            # Rows persist when emptied (plan stability), so removal
            # never changes the layout and cached plans stay valid.
            for key in keys:
                self._matrix.clear_bit(key, graph_id)
        self._universe &= ~(1 << graph_id)
        self._signature_tables.pop(graph_id, None)

    # ------------------------------------------------------------------
    # the filter
    # ------------------------------------------------------------------
    @property
    def universe_bits(self) -> int:
        return self._universe

    @property
    def universe_value(self) -> int:
        """The universe — the canonical int on every substrate."""
        return self._universe

    def __contains__(self, graph_id: int) -> bool:
        return bool((self._universe >> graph_id) & 1)

    def __len__(self) -> int:
        return len(self._keys_by_graph)

    def num_postings(self) -> int:
        if self._matrix is None:
            return len(self._postings)
        return self._matrix.row_count()

    def posting_items(self) -> Iterator[tuple[tuple, int]]:
        """All ``(key, int_bits)`` postings, substrate-independent form."""
        if self._matrix is None:
            yield from self._postings.items()
        else:
            yield from self._matrix.int_items()

    def compile(self, pattern: LabeledGraph) -> CompiledQuery:
        """A reusable filter plan for *pattern* (see :class:`CompiledQuery`).

        On the numpy substrate the pattern's invariant keys are derived
        *and* its row plan is gathered here, at compile time, so the
        filter runs themselves pay only the vectorized AND — prepare
        once, execute many (registration is off the timed filter
        phase).  The int substrate leaves the query lazy: its
        reference path recomputes keys per run anyway.
        """
        query = CompiledQuery(pattern)
        if self._matrix is not None:
            query._keys = pattern_query_keys(pattern)
            query._plan_for(self)
        return query

    def _build_plan(self, keys: set[tuple]):
        rows = self._matrix.gather(keys)
        if rows is None:
            # Some key has no posting row: no indexed graph can
            # contain the pattern.
            return None, True
        return rows, False

    def run_query(
        self, compiled: CompiledQuery, within: int | None = None
    ) -> int:
        """AND of the compiled pattern's posting lists, as an int bitset.

        *within* is an int bitset (or None for the whole universe) and
        the result is always the canonical int, whatever substrate the
        postings live on: on numpy the vectorized ``bitwise_and.reduce``
        over the row plan does the O(keys) work and the single reduced
        word row converts to an int right here.  Keeping everything
        downstream on big-ints is deliberate — per-call array-op
        dispatch overhead dwarfs the sub-microsecond big-int set
        operations at view widths of a few hundred graphs, so the
        substrate's win is confined to where the row stack makes it
        real.  This is the engine-facing hot path.
        """
        _FILTER_QUERIES.add(1)
        if self._matrix is None:
            bits = (
                self._universe
                if within is None
                else within & self._universe
            )
            before = bits.bit_count()
            for key in pattern_query_keys(compiled.pattern):
                bits &= self._postings.get(key, 0)
                if not bits:
                    break
            kept = bits.bit_count()
            _CANDIDATES_KEPT.add(kept)
            _CANDIDATES_PRUNED.add(before - kept)
            return bits
        base = (
            self._universe
            if within is None
            else within & self._universe
        )
        before = base.bit_count()
        rows = compiled._plan_for(self)
        if rows is None:
            value = 0
            kept = 0
        else:
            value = base & words_to_int(self._matrix.reduce(rows))
            kept = value.bit_count()
        _CANDIDATES_KEPT.add(kept)
        _CANDIDATES_PRUNED.add(before - kept)
        return value

    def candidate_bits(
        self, pattern: LabeledGraph, within: int | None = None
    ) -> int:
        """AND of *pattern*'s posting lists, restricted to *within*.

        Sound: any graph containing *pattern* survives.  A pattern key
        with no posting list proves no indexed graph can contain the
        pattern, so the result collapses to zero immediately.
        """
        return self.run_query(self.compile(pattern), within)

    def candidate_ids(
        self, pattern: LabeledGraph, within: int | None = None
    ) -> list[int]:
        """Sorted candidate graph IDs (see :meth:`candidate_bits`)."""
        return list(ids_of(self.candidate_bits(pattern, within)))

    # ------------------------------------------------------------------
    # VF2 candidate-domain seeding
    # ------------------------------------------------------------------
    def _signature_table(self, graph_id: int, graph: LabeledGraph) -> dict:
        table = self._signature_tables.get(graph_id)
        if table is None:
            table = {}
            for vertex in graph.vertices():
                entry = (
                    vertex,
                    graph.degree(vertex),
                    _neighbor_label_counts(graph, vertex),
                )
                table.setdefault(graph.label(vertex), []).append(entry)
            self._signature_tables[graph_id] = table
        return table

    def vertex_domains(
        self, pattern: LabeledGraph, graph_id: int, graph: LabeledGraph
    ) -> dict[VertexId, set[VertexId]]:
        """Admissible host vertices per pattern vertex, for VF2 seeding.

        A host vertex is admissible when its label matches, its degree
        dominates and its 1-hop neighbour-label multiset dominates the
        pattern vertex's.  All three are necessary conditions, so the
        domains never exclude a vertex participating in an embedding.
        """
        table = self._signature_table(graph_id, graph)
        domains: dict[VertexId, set[VertexId]] = {}
        for vertex in pattern.vertices():
            degree = pattern.degree(vertex)
            neighbors = _neighbor_label_counts(pattern, vertex)
            domains[vertex] = {
                host_vertex
                for host_vertex, host_degree, host_neighbors in table.get(
                    pattern.label(vertex), ()
                )
                if host_degree >= degree
                and multiset_dominates(neighbors, host_neighbors)
            }
        return domains

    # ------------------------------------------------------------------
    # structural identity (incremental ≡ rebuild)
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """Canonical structural form: ``(universe, sorted postings)``.

        Two indices over the same view must produce equal snapshots no
        matter how they got there (incremental maintenance vs from-
        scratch build) and no matter which substrate holds them; the
        equality test of the maintenance contract.  Both components are
        plain ints, so snapshots compare across substrates.
        """
        return (
            self.universe_bits,
            tuple(sorted(self.posting_items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageIndex):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CoverageIndex |D|={len(self)} "
            f"postings={self.num_postings()} "
            f"substrate={self.substrate}>"
        )


__all__ = [
    "COUNT_CAP",
    "DEGREE_CAP",
    "CompiledQuery",
    "CoverageIndex",
    "graph_posting_keys",
    "pattern_query_keys",
    "posting_snapshot",
]
