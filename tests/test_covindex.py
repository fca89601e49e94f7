"""The filter-then-verify coverage engine: soundness, delta, identity.

The load-bearing properties:

* **Filter soundness** — every posting-list key is a necessary condition
  for a monomorphism, so the candidate set always contains the true
  cover set; enabling the engine can never change a cover, only skip
  verifications.
* **Domain soundness** — VF2 seeded with the engine's vertex domains
  returns the same verdicts and embedding counts as unseeded VF2.
* **Incremental ≡ rebuild** — after any batch sequence the incrementally
  maintained index is structurally equal to one built from scratch.
* **Oracle identity** — maintenance trajectories with the engine on and
  off produce identical observable traces (the property test at the
  bottom mirrors the cache-identity test).
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.covindex import (
    CoverageEngine,
    CoverageIndex,
    available_substrates,
    bits_of,
    count,
    covindex_enabled,
    current_substrate,
    graph_posting_keys,
    ids_of,
    make_ops,
    pattern_query_keys,
    resolve_substrate,
    set_covindex,
    use_covindex,
    use_substrate,
)
from repro.datasets import (
    aids_like,
    family_injection,
    mixed_update,
    random_deletions,
    random_insertions,
)
from repro.execution import ExecutionConfig
from repro.graph import BatchUpdate
from repro.cache import graph_key
from repro.isomorphism import contains, count_embeddings
from repro.midas import Midas, MidasConfig
from repro.patterns import CoverageOracle, PatternBudget
from repro.workload import generate_queries

from .conftest import make_graph


# ----------------------------------------------------------------------
# bitsets
# ----------------------------------------------------------------------
class TestBitset:
    def test_roundtrip(self):
        ids = {0, 3, 17, 64, 1000}
        bits = bits_of(ids)
        assert set(ids_of(bits)) == ids
        assert count(bits) == len(ids)

    def test_empty(self):
        assert bits_of([]) == 0
        assert list(ids_of(0)) == []
        assert count(0) == 0

    def test_ids_ascending(self):
        assert list(ids_of(bits_of([9, 2, 5]))) == [2, 5, 9]

    def test_set_algebra(self):
        a, b = bits_of({1, 2, 3}), bits_of({2, 3, 4})
        assert set(ids_of(a & b)) == {2, 3}
        assert set(ids_of(a | b)) == {1, 2, 3, 4}
        assert set(ids_of(a & ~b)) == {1}

    def test_sparse_high_ids(self):
        """ids_of skips zero runs instead of walking every bit position."""
        ids = {2, 100_000, 1_000_000}
        assert list(ids_of(bits_of(ids))) == sorted(ids)


# ----------------------------------------------------------------------
# the index: filter soundness and incremental maintenance
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def molecule_graphs():
    return dict(aids_like(40, seed=11).items())


@pytest.fixture(scope="module")
def query_patterns(molecule_graphs):
    return generate_queries(molecule_graphs, 10, size_range=(2, 6), seed=7)


class TestCoverageIndex:
    def test_pattern_keys_subset_of_own_graph_keys(self, molecule_graphs):
        """A graph always satisfies its own query keys (reflexivity)."""
        for graph in molecule_graphs.values():
            assert pattern_query_keys(graph) <= graph_posting_keys(graph)

    def test_filter_sound(self, molecule_graphs, query_patterns):
        """No true container is ever filtered out."""
        index = CoverageIndex.build(molecule_graphs)
        for pattern in query_patterns:
            truth = {
                gid
                for gid, graph in molecule_graphs.items()
                if contains(graph, pattern)
            }
            candidates = set(index.candidate_ids(pattern))
            assert truth <= candidates

    def test_filter_prunes_something(self, molecule_graphs):
        """A pattern with a label absent from most graphs gets pruned."""
        index = CoverageIndex.build(molecule_graphs)
        pattern = make_graph("CCl", [(0, 1)])
        assert len(index.candidate_ids(pattern)) < len(molecule_graphs)

    def test_unindexed_key_collapses_to_empty(self, molecule_graphs):
        index = CoverageIndex.build(molecule_graphs)
        pattern = make_graph("XY", [(0, 1)])  # labels not in the database
        assert index.candidate_ids(pattern) == []

    def test_domains_preserve_verdicts(
        self, molecule_graphs, query_patterns
    ):
        """Seeded VF2 must agree with unseeded VF2 on every pair."""
        index = CoverageIndex.build(molecule_graphs)
        for pattern in query_patterns[:5]:
            for gid, graph in molecule_graphs.items():
                domains = index.vertex_domains(pattern, gid, graph)
                assert contains(graph, pattern, domains=domains) == contains(
                    graph, pattern
                )

    def test_domains_preserve_counts(self, molecule_graphs, query_patterns):
        index = CoverageIndex.build(molecule_graphs)
        pattern = query_patterns[0]
        for gid in sorted(molecule_graphs)[:8]:
            graph = molecule_graphs[gid]
            # Count through matcher construction with domains by routing
            # the domain-restricted search past the same cap.
            from repro.isomorphism import VF2Matcher

            seeded = VF2Matcher(
                pattern,
                graph,
                domains=index.vertex_domains(pattern, gid, graph),
            ).count_matches(limit=64)
            assert seeded == count_embeddings(graph, pattern, limit=64)

    def test_add_remove_roundtrip(self, molecule_graphs):
        """add_graph then remove_graph restores the exact prior state."""
        index = CoverageIndex.build(molecule_graphs)
        before = index.snapshot()
        extra = make_graph("COSN", [(0, 1), (1, 2), (2, 3)])
        index.add_graph(999, extra)
        assert 999 in index
        index.remove_graph(999)
        assert index.snapshot() == before

    def test_incremental_equals_rebuild_random_batches(self):
        """Random add/remove sequences: maintained index == fresh build."""
        rng = random.Random(23)
        graphs = dict(aids_like(25, seed=4).items())
        index = CoverageIndex.build(graphs)
        next_id = max(graphs) + 1
        fresh_pool = dict(aids_like(30, seed=5).items())
        pool_iter = iter(sorted(fresh_pool))
        for _ in range(12):
            if graphs and rng.random() < 0.5:
                victim = rng.choice(sorted(graphs))
                del graphs[victim]
                index.remove_graph(victim)
            else:
                source = next(pool_iter, None)
                if source is None:
                    continue
                graphs[next_id] = fresh_pool[source]
                index.add_graph(next_id, fresh_pool[source])
                next_id += 1
            assert index == CoverageIndex.build(graphs)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class TestCoverageEngine:
    def test_cover_matches_direct_scan(
        self, molecule_graphs, query_patterns
    ):
        engine = CoverageEngine(molecule_graphs)
        for pattern in query_patterns:
            key = graph_key(pattern)
            engine.register(key, pattern)
            for gid in engine.pending(key):
                engine.commit(
                    key, gid, contains(molecule_graphs[gid], pattern)
                )
            truth = frozenset(
                gid
                for gid, graph in molecule_graphs.items()
                if contains(graph, pattern)
            )
            assert engine.cover_ids(key) == truth

    def test_pending_is_delta_after_update(self, molecule_graphs):
        """After a batch only unverified (new) graphs are pending."""
        engine = CoverageEngine(molecule_graphs)
        pattern = make_graph("CO", [(0, 1)])
        key = graph_key(pattern)
        engine.register(key, pattern)
        for gid in engine.pending(key):
            engine.commit(key, gid, contains(molecule_graphs[gid], pattern))
        assert engine.pending(key) == []
        added_graph = make_graph("CO", [(0, 1)])
        removed = sorted(molecule_graphs)[:2]
        engine.apply_update({5000: added_graph}, removed)
        pending = engine.pending(key)
        assert set(pending) <= {5000}
        for gid in pending:
            engine.commit(key, gid, True)
        assert 5000 in engine.cover_ids(key)
        assert not set(removed) & engine.cover_ids(key)

    def test_removed_graphs_leave_cover(self, molecule_graphs):
        engine = CoverageEngine(molecule_graphs)
        pattern = make_graph("CC", [(0, 1)])
        key = graph_key(pattern)
        engine.register(key, pattern)
        for gid in engine.pending(key):
            engine.commit(key, gid, contains(molecule_graphs[gid], pattern))
        covered = sorted(engine.cover_ids(key))
        assert covered
        engine.apply_update({}, covered[:1])
        assert covered[0] not in engine.cover_ids(key)

    def test_tracked_pattern_bound(self):
        from repro.covindex.engine import MAX_TRACKED_PATTERNS

        graphs = {0: make_graph("CO", [(0, 1)])}
        engine = CoverageEngine(graphs)
        for i in range(MAX_TRACKED_PATTERNS + 5):
            engine.register(("k", i), make_graph("CO", [(0, 1)]))
        assert (
            sum(engine.tracked(("k", i)) for i in range(MAX_TRACKED_PATTERNS + 5))
            == MAX_TRACKED_PATTERNS
        )

    def test_eviction_is_lru_not_fifo(self):
        """A queried pattern survives eviction pressure; an idle one
        registered later is evicted first (register alone is not recency)."""
        from repro.covindex.engine import MAX_TRACKED_PATTERNS

        graphs = {0: make_graph("CO", [(0, 1)])}
        engine = CoverageEngine(graphs)
        for i in range(MAX_TRACKED_PATTERNS):
            engine.register(("k", i), make_graph("CO", [(0, 1)]))
        engine.pending(("k", 0))  # touch the oldest registration
        engine.register(("k", MAX_TRACKED_PATTERNS), make_graph("CO", [(0, 1)]))
        assert engine.tracked(("k", 0))
        assert not engine.tracked(("k", 1))

    def test_replacing_added_graph_clears_stale_verdicts(self):
        """Re-adding an existing graph_id is remove+add: old match/seen
        bits must not survive into the replacement graph's verdict."""
        engine = CoverageEngine({0: make_graph("CO", [(0, 1)])})
        pattern = make_graph("CO", [(0, 1)])
        key = graph_key(pattern)
        engine.register(key, pattern)
        for gid in engine.pending(key):
            engine.commit(key, gid, True)
        assert engine.cover_ids(key) == {0}
        engine.apply_update({0: make_graph("NN", [(0, 1)])}, [])
        remaining = engine.pending(key)
        for gid in remaining:
            engine.commit(
                key, gid, contains(engine.graphs[gid], pattern)
            )
        assert 0 not in engine.cover_ids(key)

    def test_engine_is_deepcopyable(self, molecule_graphs):
        """Copies of the oracle carry the engine with them; a copy must
        be independent of the original."""
        engine = CoverageEngine(molecule_graphs)
        pattern = make_graph("CO", [(0, 1)])
        key = graph_key(pattern)
        engine.register(key, pattern)
        clone = copy.deepcopy(engine)
        clone.apply_update({}, sorted(molecule_graphs)[:3])
        assert len(engine) == len(molecule_graphs)
        assert len(clone) == len(molecule_graphs) - 3


# ----------------------------------------------------------------------
# the toggle
# ----------------------------------------------------------------------
class TestToggle:
    def test_default_off(self):
        assert not covindex_enabled()

    def test_use_covindex_scopes(self):
        assert not covindex_enabled()
        with use_covindex(True):
            assert covindex_enabled()
            with use_covindex(False):
                assert not covindex_enabled()
            assert covindex_enabled()
        assert not covindex_enabled()

    def test_set_covindex(self):
        set_covindex(True)
        try:
            assert covindex_enabled()
        finally:
            set_covindex(False)
        assert not covindex_enabled()

    def test_execution_config_installs_engine(self):
        with ExecutionConfig(covindex=True).apply():
            assert covindex_enabled()
        assert not covindex_enabled()

    def test_execution_config_default_is_additive(self):
        """covindex=False must not clear an enclosing enable."""
        with use_covindex(True):
            with ExecutionConfig().apply():
                assert covindex_enabled()


# ----------------------------------------------------------------------
# oracle integration
# ----------------------------------------------------------------------
class TestOracleEngine:
    def test_cover_identical_on_off(self, molecule_graphs, query_patterns):
        plain = CoverageOracle(molecule_graphs)
        with use_covindex(True):
            fast = CoverageOracle(molecule_graphs)
        assert fast.delta_capable and not plain.delta_capable
        for pattern in query_patterns:
            assert plain.cover(pattern) == fast.cover(pattern)

    def test_engine_skips_verifications(
        self, molecule_graphs, query_patterns
    ):
        plain = CoverageOracle(molecule_graphs)
        with use_covindex(True):
            fast = CoverageOracle(molecule_graphs)
        for pattern in query_patterns:
            plain.cover(pattern)
            fast.cover(pattern)
        assert fast.isomorphism_tests < plain.isomorphism_tests

    def test_oracle_staleness_regression(self, molecule_graphs):
        """Deleting a covered graph must drop scov (the memoised cover
        set was silently served stale before ``apply_update`` existed)."""
        oracle = CoverageOracle(molecule_graphs)
        pattern = make_graph("CC", [(0, 1)])
        covered = oracle.cover(pattern)
        assert covered
        scov_before = oracle.scov(pattern)
        victim = sorted(covered)[0]
        oracle.apply_update({}, [victim])
        assert victim not in oracle.cover(pattern)
        assert oracle.scov(pattern) < scov_before or (
            len(covered) == len(molecule_graphs)
        )
        assert victim not in oracle.graph_ids()

    def test_oracle_staleness_regression_with_engine(self, molecule_graphs):
        with use_covindex(True):
            oracle = CoverageOracle(molecule_graphs)
        pattern = make_graph("CC", [(0, 1)])
        covered = oracle.cover(pattern)
        victim = sorted(covered)[0]
        tests_before = oracle.isomorphism_tests
        oracle.apply_update({}, [victim])
        assert victim not in oracle.cover(pattern)
        # The delta path re-verifies nothing for a pure deletion.
        assert oracle.isomorphism_tests == tests_before

    def test_label_cover_not_stale_after_update(self, molecule_graphs):
        oracle = CoverageOracle(molecule_graphs)
        pattern = make_graph("CO", [(0, 1)])
        lcov_cover = oracle.label_cover(pattern)
        assert lcov_cover
        victim = sorted(lcov_cover)[0]
        oracle.apply_update({}, [victim])
        assert victim not in oracle.label_cover(pattern)

    def test_insertion_joins_cover_incrementally(self, molecule_graphs):
        with use_covindex(True):
            oracle = CoverageOracle(molecule_graphs)
        pattern = make_graph("CO", [(0, 1)])
        oracle.cover(pattern)
        newcomer = make_graph("CO", [(0, 1)])
        oracle.apply_update({7777: newcomer}, [])
        assert 7777 in oracle.cover(pattern)

    def test_permuted_isomorphic_pattern_after_update(self):
        """Isomorphic patterns share the canonical key but may permute
        vertex-ID→label assignments; verification must use the engine's
        stored pattern or the seeded domains exclude valid hosts
        (regression: false-negative containment on the delta path)."""
        pattern_a = make_graph("CO", [(0, 1)])  # vertex 0 is C
        pattern_b = make_graph("OC", [(0, 1)])  # vertex 0 is O
        assert graph_key(pattern_a) == graph_key(pattern_b)
        graphs = {0: make_graph("COS", [(0, 1), (1, 2)])}
        with use_covindex(True):
            oracle = CoverageOracle(graphs)
        assert oracle.cover(pattern_a) == {0}
        oracle.apply_update({1: make_graph("NCO", [(0, 1), (1, 2)])}, [])
        # Cover queried through the permuted twin must still see the
        # newly inserted host.
        assert oracle.cover(pattern_b) == {0, 1}
        plain = CoverageOracle(
            {0: graphs[0], 1: make_graph("NCO", [(0, 1), (1, 2)])}
        )
        assert oracle.cover(pattern_b) == plain.cover(pattern_b)

    def test_reregistration_refreshes_stored_pattern(self):
        """Re-registering a tracked key with a permuted twin replaces
        the stored pattern and recompiles its query: verdict bits
        survive (they are isomorphism-invariant) but :meth:`pattern` /
        :meth:`vertex_domains` must speak the vertex IDs of the latest
        registration (regression: the old code kept the first copy
        forever, so delta-path verification after a twin swap seeded
        VF2 with the wrong vertex-ID→label assignment)."""
        pattern_a = make_graph("CO", [(0, 1)])  # vertex 0 is C
        pattern_b = make_graph("OC", [(0, 1)])  # vertex 0 is O
        key = graph_key(pattern_a)
        assert key == graph_key(pattern_b)
        host = make_graph("COS", [(0, 1), (1, 2)])
        engine = CoverageEngine({0: host})
        engine.register(key, pattern_a)
        for gid in engine.pending(key):
            engine.commit(key, gid, contains(host, engine.pattern(key)))
        assert engine.cover_ids(key) == frozenset({0})
        engine.register(key, pattern_b)
        stored = engine.pattern(key)
        assert stored.labels() == pattern_b.labels()
        # Verdicts survived the refresh — nothing to re-verify ...
        assert engine.cover_ids(key) == frozenset({0})
        assert engine.pending(key) == []
        # ... and the compiled domains follow the new assignment:
        # pattern vertex 0 is O now, matching only host vertex 1.
        domains = engine.vertex_domains(key, 0)
        assert domains[0] == {1}
        assert domains[1] == {0}

    def test_reregistration_same_object_is_cheap_no_refresh(self):
        """Registering the identical copy again only touches recency —
        no recompile, no refresh counter bump."""
        from repro.obs import get_registry

        pattern = make_graph("CO", [(0, 1)])
        key = graph_key(pattern)
        engine = CoverageEngine({0: make_graph("CO", [(0, 1)])})
        engine.register(key, pattern)
        before = get_registry().counter("covindex.pattern_refreshes").value
        engine.register(key, make_graph("CO", [(0, 1)]))
        after = get_registry().counter("covindex.pattern_refreshes").value
        assert after == before


# ----------------------------------------------------------------------
# full-trajectory identity (mirrors the cache identity property test)
# ----------------------------------------------------------------------
def _maintenance_trace(covindex: bool, rounds: int = 3):
    """Bootstrap + *rounds* random updates; returns an observable trace.

    Both invocations draw the same update sequence from the same seeded
    generator, so any divergence between the engine-on and engine-off
    traces would prove the filter changed a result.
    """
    config = MidasConfig(
        budget=PatternBudget(3, 6, 8),
        num_clusters=3,
        sample_cap=50,
        seed=5,
        execution=ExecutionConfig(covindex=covindex),
    )
    midas = Midas.bootstrap(aids_like(30, seed=9), config)
    rng = random.Random(13)
    trace = []
    for _ in range(rounds):
        kind = rng.choice(("insert", "delete", "mixed", "family"))
        seed = rng.randrange(10_000)
        if kind == "insert":
            update = random_insertions(midas.database, 10, seed=seed)
        elif kind == "delete":
            update = random_deletions(midas.database, 8, seed=seed)
        elif kind == "mixed":
            update = mixed_update(midas.database, 8, 8, seed=seed)
        else:
            update = family_injection(10, seed=seed)
        report = midas.apply_update(update)
        trace.append(
            (
                kind,
                report.is_major,
                sorted(midas.database.ids()),
                sorted(graph_key(g) for g in midas.pattern_graphs()),
            )
        )
    return trace


class TestMaintenanceIdentity:
    def test_single_round_identical(self):
        config = MidasConfig(
            budget=PatternBudget(3, 6, 8),
            num_clusters=3,
            sample_cap=50,
            seed=5,
        )
        baseline = Midas.bootstrap(aids_like(25, seed=2), config)
        engine_cfg = MidasConfig(
            budget=PatternBudget(3, 6, 8),
            num_clusters=3,
            sample_cap=50,
            seed=5,
            execution=ExecutionConfig(covindex=True),
        )
        maintained = Midas.bootstrap(aids_like(25, seed=2), engine_cfg)
        update = BatchUpdate.of(
            insertions=[make_graph("COS", [(0, 1), (1, 2)])],
            deletions=[sorted(baseline.database.ids())[0]],
        )
        r1 = baseline.apply_update(update)
        r2 = maintained.apply_update(copy.deepcopy(update))
        assert r1.is_major == r2.is_major
        assert sorted(baseline.database.ids()) == sorted(
            maintained.database.ids()
        )
        assert sorted(
            graph_key(g) for g in baseline.pattern_graphs()
        ) == sorted(graph_key(g) for g in maintained.pattern_graphs())

    @pytest.mark.slow
    def test_maintenance_identical_with_engine(self):
        """Full rounds over random batches: engine on == engine off."""
        baseline = _maintenance_trace(covindex=False)
        with_engine = _maintenance_trace(covindex=True)
        assert with_engine == baseline


# ----------------------------------------------------------------------
# substrate equivalence (int reference vs numpy word arrays)
# ----------------------------------------------------------------------
numpy_available = "numpy" in available_substrates()
needs_numpy = pytest.mark.skipif(
    not numpy_available, reason="numpy substrate unavailable"
)


@needs_numpy
class TestSubstrateEquivalence:
    def test_ops_algebra_on_random_id_sets(self):
        """Property test: every BitsetOps operation agrees between
        substrates on random ID sets, including IDs above 64·k word
        boundaries and the empty/all-set edges."""
        rng = random.Random(41)
        int_ops = make_ops("int")
        np_ops = make_ops("numpy")
        universes = [
            [],
            [0],
            [63], [64], [127], [128],  # word boundaries
            list(range(200)),  # all-set prefix
        ]
        for _ in range(30):
            size = rng.randrange(0, 60)
            high = rng.choice((64, 130, 1000, 5000))
            universes.append(
                sorted(rng.sample(range(high), min(size, high)))
            )
        for ids_a in universes:
            ids_b = rng.sample(
                range(max(ids_a, default=0) + 70),
                min(len(ids_a) + 5, max(ids_a, default=0) + 70),
            )
            a_int, a_np = int_ops.from_ids(ids_a), np_ops.from_ids(ids_a)
            b_int, b_np = int_ops.from_ids(ids_b), np_ops.from_ids(ids_b)
            assert np_ops.to_int(a_np) == a_int
            assert np_ops.ids(a_np) == int_ops.ids(a_int) == sorted(
                set(ids_a)
            )
            assert np_ops.popcount(a_np) == int_ops.popcount(a_int)
            assert np_ops.is_empty(a_np) == int_ops.is_empty(a_int)
            for op in ("union", "intersect", "subtract"):
                got = np_ops.to_int(getattr(np_ops, op)(a_np, b_np))
                want = getattr(int_ops, op)(a_int, b_int)
                assert got == want, (op, ids_a, ids_b)
            probe = rng.randrange(0, 5000)
            assert np_ops.test(a_np, probe) == int_ops.test(a_int, probe)
            assert np_ops.to_int(
                np_ops.set_bit(np_ops.copy(a_np), probe)
            ) == int_ops.set_bit(a_int, probe)
            assert np_ops.to_int(
                np_ops.clear_bit(np_ops.copy(a_np), probe)
            ) == int_ops.clear_bit(a_int, probe)
            assert np_ops.to_int(
                np_ops.from_int(a_int)
            ) == a_int  # int round-trip

    def test_index_snapshots_identical(self, molecule_graphs):
        int_index = CoverageIndex.build(molecule_graphs, substrate="int")
        np_index = CoverageIndex.build(molecule_graphs, substrate="numpy")
        assert int_index.snapshot() == np_index.snapshot()
        assert int_index == np_index

    def test_candidates_identical(self, molecule_graphs, query_patterns):
        int_index = CoverageIndex.build(molecule_graphs, substrate="int")
        np_index = CoverageIndex.build(molecule_graphs, substrate="numpy")
        for pattern in query_patterns:
            assert int_index.candidate_ids(pattern) == np_index.candidate_ids(
                pattern
            )

    def test_incremental_maintenance_identical(self):
        """Random add/remove churn keeps the substrates in lock-step,
        including IDs crossing word boundaries."""
        rng = random.Random(77)
        graphs = dict(aids_like(20, seed=3).items())
        int_index = CoverageIndex.build(graphs, substrate="int")
        np_index = CoverageIndex.build(graphs, substrate="numpy")
        pool = dict(aids_like(25, seed=6).items())
        pool_iter = iter(sorted(pool))
        next_id = 60  # jump past the first word boundary quickly
        for _ in range(15):
            if graphs and rng.random() < 0.4:
                victim = rng.choice(sorted(graphs))
                del graphs[victim]
                int_index.remove_graph(victim)
                np_index.remove_graph(victim)
            else:
                source = next(pool_iter, None)
                if source is None:
                    continue
                graphs[next_id] = pool[source]
                int_index.add_graph(next_id, pool[source])
                np_index.add_graph(next_id, pool[source])
                next_id += rng.choice((1, 7, 63))
            assert int_index.snapshot() == np_index.snapshot()

    def test_engine_verdicts_identical(
        self, molecule_graphs, query_patterns
    ):
        """Both engines, same call sequence: identical exported verdicts."""
        engines = {
            sub: CoverageEngine(molecule_graphs, substrate=sub)
            for sub in ("int", "numpy")
        }
        for pattern in query_patterns[:5]:
            key = graph_key(pattern)
            covers = {}
            for sub, engine in engines.items():
                engine.register(key, pattern)
                for gid in engine.pending(key):
                    engine.commit(
                        key,
                        gid,
                        contains(molecule_graphs[gid], pattern),
                    )
                covers[sub] = engine.cover_ids(key)
            assert covers["int"] == covers["numpy"]
        assert (
            engines["int"].export_verdicts()
            == engines["numpy"].export_verdicts()
        )

    def test_sqlite_posting_roundtrip_across_substrates(
        self, molecule_graphs, tmp_path
    ):
        """Persisted postings are substrate-independent ints: a SQLite
        store written on any substrate reassembles the same index on
        both."""
        from repro.store.sqlite import SQLiteStore

        store = SQLiteStore(str(tmp_path / "postings.db"))
        try:
            store.ingest(molecule_graphs)
            persisted = store.coverage_index()
            for substrate in ("int", "numpy"):
                rebuilt = CoverageIndex.build(
                    molecule_graphs, substrate=substrate
                )
                assert rebuilt.snapshot() == persisted.snapshot()
        finally:
            store.close()

    def test_ambient_substrate_toggle(self):
        assert resolve_substrate(None) in ("int", "numpy")
        with use_substrate("int"):
            assert current_substrate() == "int"
            assert CoverageIndex.build({}).substrate == "int"
        with use_substrate("numpy"):
            assert CoverageIndex.build({}).substrate == "numpy"

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError):
            make_ops("bogus")
        with pytest.raises(ValueError):
            ExecutionConfig(substrate="bogus")
