"""Coverage-based candidate pruning (Section 5.2).

MIDAS exploits its knowledge of the existing pattern set ``P`` to prune
unpromising candidates early:

* **Promising FCP** (Definition 5.5): a candidate is promising when its
  marginal subgraph coverage beats ``(1 + κ)`` times the *smallest*
  unique coverage of any displayed pattern — otherwise no swap it could
  participate in would satisfy sw1.
* **Early termination** (Equation 2): while a candidate is being grown
  edge by edge, an edge whose own marginal coverage is already below the
  same bound cannot rescue the candidate (coverage is anti-monotone in
  pattern growth), so generation stops — this is the ``edge_gate``
  consumed by :mod:`repro.catapult.candidate`.

Edge-level covers come from the FCT-/IFE-indices when available (frequent
edges via the TG-matrix, infrequent via the EG-matrix) and from a direct
edge-label scan of the oracle's sample otherwise.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graph.labeled_graph import EdgeLabel, LabeledGraph
from ..index.maintenance import IndexPair
from ..patterns.metrics import CoverageOracle, PanelCovers


class PruningContext:
    """Precomputed covers shared by the gate and the promising-FCP test.

    ``panel`` holds the displayed patterns' covers; the maintainer hands
    it on to the swap, which starts from the same panel.
    """

    def __init__(
        self,
        oracle: CoverageOracle,
        patterns: Iterable[LabeledGraph],
        kappa: float,
        index_pair: IndexPair | None = None,
    ) -> None:
        if not 0.0 <= kappa <= 1.0:
            raise ValueError("kappa must be in [0, 1]")
        self.oracle = oracle
        self.kappa = kappa
        self._index_pair = index_pair
        self.panel = PanelCovers(oracle, patterns)
        self._union_cover = self.panel.union
        self._min_unique = self.panel.minimum_unique()
        self._edge_cover_cache: dict[EdgeLabel, frozenset[int]] = {}
        # Gate verdicts and priorities are pure in the context, which
        # lives for one round: memoised per label.
        self._gate_cache: dict[EdgeLabel, bool] = {}
        self._priority_cache: dict[EdgeLabel, float] = {}

    @property
    def threshold(self) -> float:
        """``(1 + κ) × min_p |unique cover|`` — the Equation 2 bound.

        Floored at 1: when some displayed pattern has zero unique
        coverage the raw bound degenerates to 0 and every candidate —
        including ones covering nothing new — would count as promising.
        Requiring at least one uncovered graph keeps swaps meaningful
        (a swap with zero benefit and zero loss is wasted work).
        """
        return max((1.0 + self.kappa) * self._min_unique, 1.0)

    # ------------------------------------------------------------------
    def edge_cover(self, label: EdgeLabel) -> frozenset[int]:
        """``G_scov(e)`` restricted to the oracle's sample."""
        cached = self._edge_cover_cache.get(label)
        if cached is not None:
            return cached
        cover: set[int] | None = None
        if self._index_pair is not None:
            indexed = self._index_pair.graphs_covering_edge(label)
            if indexed is not None:
                cover = indexed & self.oracle.graph_ids()
        if cover is None:
            cover = self.oracle.graphs_with_edge_label(label)
        result = frozenset(cover)
        self._edge_cover_cache[label] = result
        return result

    def edge_gate(self, label: EdgeLabel) -> bool:
        """Equation 2: admit the edge unless its marginal cover is low."""
        verdict = self._gate_cache.get(label)
        if verdict is None:
            marginal = len(self.edge_cover(label) - self._union_cover)
            verdict = self._gate_cache[label] = marginal >= self.threshold
        return verdict

    def edge_priority(self, label: EdgeLabel) -> float:
        """How specific an edge is to the *uncovered* part of the sample.

        ``|G_scov(e) ∖ ⋃ G_scov(P)| / |G_scov(e)|`` ∈ [0, 1]: 1 means the
        edge only occurs in graphs the displayed patterns miss (e.g. a
        newly arrived family's functional group), 0 means it adds
        nothing.  Section 5.2 motivates coverage-based pruning as a way
        to *guide the FCP generation process towards candidates with
        greater potential of replacing existing patterns* — this is the
        guidance signal: the candidate generator biases walk seeds and
        growth toward high-priority edges, complementing the hard gate.
        """
        priority = self._priority_cache.get(label)
        if priority is None:
            cover = self.edge_cover(label)
            priority = (
                len(cover - self._union_cover) / len(cover) if cover else 0.0
            )
            self._priority_cache[label] = priority
        return priority

    # ------------------------------------------------------------------
    def is_promising(self, candidate: LabeledGraph) -> bool:
        """Definition 5.5: candidate's marginal cover beats the bound.

        Only hosts outside ``⋃ G_scov(P)`` can count towards the
        marginal cover, so the oracle tests just those and stops once
        the verdict is settled (:meth:`CoverageOracle.marginal_reaches`).
        """
        return self.oracle.marginal_reaches(
            candidate, self._union_cover, self.threshold
        )
