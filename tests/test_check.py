"""The differential correctness harness: oracles, fuzzing, shrinking, replay.

The load-bearing guarantees:

* **Determinism** — the same ``(seed, case)`` always generates the same
  workload, so every reported failure reproduces from its seed alone.
* **Shrinking** — a failing workload is reduced to a minimal repro that
  still fails with the same mismatch signature; the PR-4 permuted-
  isomorphic-pattern bug shrinks to a handful of graphs.
* **Replay** — a shrunk failure round-trips through a JSON artifact and
  re-evaluates to the same mismatch while the bug is alive (proved here
  with an injected fault), and to a clean pass once fixed.
* **Guards** — armed invariant checks raise a typed
  ``InvariantViolation`` that a transactional maintenance round maps to
  a rollback, never a commit.
* **Identity** — one maintenance round produces the same observable
  report under every on/off combination of {workers, cache, check}.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.cache import graph_key
from repro.check.fuzz import (
    ARTIFACT_FORMAT,
    case_rng,
    load_artifact,
    random_workload,
    recorded_mismatch,
    replay,
    run_oracle,
    write_artifact,
)
from repro.check.invariants import (
    check_enabled,
    check_pattern_budget,
    invariant,
    use_check,
)
from repro.check.oracles import ORACLES, get_oracle, oracle_names
from repro.check.shrink import shrink
from repro.check.workload import (
    Mismatch,
    Workload,
    WorkloadBatch,
    permuted_copy,
    workload_from_dict,
    workload_to_dict,
)
from repro.cli import main
from repro.datasets import aids_like, mixed_update
from repro.exceptions import InvariantViolation, RolledBack
from repro.execution import ExecutionConfig
from repro.isomorphism import contains
from repro.midas import Midas, MidasConfig
from repro.patterns import PatternBudget
from repro.resilience import Fault, inject_faults

from .conftest import make_graph


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _regression_workload() -> Workload:
    """The PR-4 bug shape: permuted twin patterns + a delta insertion."""
    return Workload(
        graphs={0: make_graph("COS", [(0, 1), (1, 2)])},
        patterns=(
            make_graph("CO", [(0, 1)]),
            make_graph("OC", [(0, 1)]),
        ),
        batches=(
            WorkloadBatch(
                added={1: make_graph("NCO", [(0, 1), (1, 2)])}
            ),
        ),
    )


class TestWorkload:
    def test_views_evolve_per_batch(self):
        workload = Workload(
            graphs={0: make_graph("CO", [(0, 1)])},
            batches=(
                WorkloadBatch(added={1: make_graph("NN", [(0, 1)])}),
                WorkloadBatch(removed=(0,)),
            ),
        )
        views = [sorted(view) for view in workload.views()]
        assert views == [[0], [0, 1], [1]]
        assert sorted(workload.final_view()) == [1]

    def test_removal_of_absent_id_is_ignored(self):
        workload = Workload(
            graphs={}, batches=(WorkloadBatch(removed=(42,)),)
        )
        assert workload.final_view() == {}

    def test_json_round_trip_preserves_permuted_assignment(self):
        workload = _regression_workload()
        rebuilt = workload_from_dict(workload_to_dict(workload))
        assert workload_to_dict(rebuilt) == workload_to_dict(workload)
        # The two patterns are isomorphic twins with *different*
        # vertex-ID->label assignments; the round trip must not
        # canonicalise that difference away.
        a, b = rebuilt.patterns
        assert graph_key(a) == graph_key(b)
        assert a.label(0) != b.label(0)

    def test_size_is_the_lexicographic_shrink_objective(self):
        workload = _regression_workload()
        graphs, ops, patterns, edges, vertices, labels = workload.size()
        assert (graphs, ops, patterns) == (2, 1, 2)
        assert edges == 2 + 2 + 1 + 1
        assert vertices == 3 + 3 + 2 + 2
        assert labels == 4  # C, O, S, N

    def test_permuted_copy_is_isomorphic_not_identical(self):
        graph = make_graph("CNOS", [(0, 1), (1, 2), (2, 3)])
        twin = permuted_copy(graph, seed=1)
        assert graph_key(twin) == graph_key(graph)
        assert sorted(twin.vertices()) == sorted(graph.vertices())
        assert any(
            twin.label(v) != graph.label(v) for v in graph.vertices()
        )


class TestFuzzerDeterminism:
    def test_same_seed_same_workload(self):
        for case in range(3):
            first = random_workload(case_rng(11, case))
            second = random_workload(case_rng(11, case))
            assert workload_to_dict(first) == workload_to_dict(second)

    def test_different_cases_differ(self):
        first = random_workload(case_rng(11, 0))
        second = random_workload(case_rng(11, 1))
        assert workload_to_dict(first) != workload_to_dict(second)

    def test_insert_only_workloads_never_remove(self):
        workload = random_workload(
            case_rng(5, 0), insert_only=True, num_batches=3
        )
        assert all(not batch.removed for batch in workload.batches)


class TestOracleRegistry:
    def test_expected_oracles_registered(self):
        assert set(oracle_names()) == {
            "cache",
            "canonical",
            "ged",
            "generate",
            "index",
            "parallel",
            "prune",
            "scov",
            "serve",
            "store",
            "swap",
            "vf2",
        }

    def test_unknown_oracle_is_a_clear_error(self):
        with pytest.raises(ValueError, match="prune"):
            get_oracle("nonesuch")

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_oracle_passes_smoke_budget(self, name):
        report = run_oracle(name, seed=0, budget=2)
        assert report.ok, report.summary()



def _seeded_contains(host, pattern, twin) -> bool:
    """Containment with each pattern vertex restricted to host vertices
    carrying its *twin's* label (brute force over injective maps).

    Right when *twin* is *pattern* itself; a false negative when the
    twin is isomorphic but assigns labels to vertex IDs differently.
    """
    vertices = sorted(pattern.vertices())
    hosts = sorted(host.vertices())
    for image in itertools.permutations(hosts, len(vertices)):
        mapping = dict(zip(vertices, image))
        if all(
            host.label(mapping[v]) == pattern.label(v) == twin.label(v)
            for v in vertices
        ) and all(
            host.has_edge(mapping[u], mapping[v]) for u, v in pattern.edges()
        ):
            return True
    return False


def _prefix_buggy_cover_disagrees(workload: Workload) -> bool:
    """Re-enact an old delta-coverage bug on *workload*: true iff it fires.

    Covers were maintained per batch, and inserted hosts were verified
    with vertex domains keyed by the vertex IDs of the first registrant
    of each canonical key, while the search ran on the caller's
    isomorphic copy — two different vertex-ID->label assignments, so
    the domains could exclude every valid host vertex and report a
    false negative.
    """
    stored: dict = {}
    for pattern in workload.patterns:
        stored.setdefault(graph_key(pattern), pattern)
    view = dict(workload.graphs)
    # Initial registration verifies unseeded (that path was correct).
    covers = [
        {gid for gid, host in view.items() if contains(host, p)}
        for p in workload.patterns
    ]
    for batch in workload.batches:
        for gid in batch.removed:
            view.pop(gid, None)
            for cover in covers:
                cover.discard(gid)
        for gid, host in batch.added.items():
            view[gid] = host
            for i, pattern in enumerate(workload.patterns):
                twin = stored[graph_key(pattern)]
                if _seeded_contains(host, pattern, twin):  # the bug
                    covers[i].add(gid)
    reference = [
        {gid for gid, host in view.items() if contains(host, p)}
        for p in workload.patterns
    ]
    return covers != reference


class TestShrinker:
    def test_reduces_padded_regression_to_minimal_repro(self):
        """Satellite acceptance: the shrinker strips every padding graph
        and leaves <= 3 graphs that still reproduce the bug."""
        base = _regression_workload()
        padded = Workload(
            graphs={
                **base.graphs,
                10: make_graph("CCCC", [(0, 1), (1, 2), (2, 3)]),
                11: make_graph("NOS", [(0, 1), (1, 2)]),
            },
            patterns=(*base.patterns, make_graph("SS", [(0, 1)])),
            batches=(
                *base.batches,
                WorkloadBatch(
                    added={12: make_graph("NN", [(0, 1)])},
                    removed=(10,),
                ),
            ),
        )
        assert _prefix_buggy_cover_disagrees(padded)
        shrunk = shrink(padded, _prefix_buggy_cover_disagrees)
        assert _prefix_buggy_cover_disagrees(shrunk)
        assert shrunk.num_graphs() <= 3
        assert shrunk.size() < padded.size()

    def test_shrink_returns_input_when_predicate_needs_everything(self):
        workload = Workload(graphs={0: make_graph("C", [])})
        same = shrink(workload, lambda w: w.num_graphs() == 1)
        assert same.num_graphs() == 1


# ----------------------------------------------------------------------
# fault injection -> mismatch -> shrink -> artifact -> replay (acceptance)
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestFaultToReplayPipeline:
    def test_injected_fault_is_caught_shrunk_and_replayed(self, tmp_path):
        """A deliberate fault at an existing inject_faults site is caught
        by the oracle, shrunk to a minimal workload, serialised, and the
        artifact replays to the *same* mismatch while the fault plan is
        active — and to a clean pass without it."""
        plan = {"vf2.search": Fault(kind="error", times=None)}
        with inject_faults(plan):
            report = run_oracle("prune", seed=7, budget=5)
        assert not report.ok
        assert report.mismatch.code == "exception"
        assert report.mismatch.detail["type"] == "FaultInjected"
        # Shrinking happened and never grew the workload.
        assert report.workload.size() <= report.original.size()

        path = write_artifact(tmp_path / "fault.json", report)
        artifact = load_artifact(path)
        assert artifact["oracle"] == "prune"

        # Bug still "alive" (fault active): replay reproduces the exact
        # recorded mismatch from the JSON alone.
        with inject_faults(
            {"vf2.search": Fault(kind="error", times=None)}
        ):
            assert replay(artifact) == recorded_mismatch(artifact)

        # Bug "fixed" (no fault): the same artifact replays clean.
        assert replay(artifact) is None


# ----------------------------------------------------------------------
# invariant guards
# ----------------------------------------------------------------------
class TestInvariantGuards:
    def test_disabled_by_default(self):
        assert not check_enabled()

    def test_use_check_scopes_the_flag(self):
        with use_check(True):
            assert check_enabled()
            with use_check(False):
                assert not check_enabled()
            assert check_enabled()
        assert not check_enabled()

    def test_execution_config_arms_the_guards(self):
        with ExecutionConfig(check=True).apply():
            assert check_enabled()
        assert not check_enabled()

    def test_invariant_raises_typed_violation(self):
        invariant(True, "test.ok")
        with pytest.raises(InvariantViolation, match="test.bad"):
            invariant(False, "test.bad", "broke on purpose")

    def test_pattern_budget_guard(self):
        budget = PatternBudget(eta_min=3, eta_max=4, gamma=2)
        ok = make_graph("CCCC", [(0, 1), (1, 2), (2, 3)])
        check_pattern_budget([ok], budget)
        too_small = make_graph("CO", [(0, 1)])
        with pytest.raises(InvariantViolation, match="pattern_size_bound"):
            check_pattern_budget([too_small], budget)
        with pytest.raises(InvariantViolation, match="pattern_count_bound"):
            check_pattern_budget([ok, ok, ok], budget)

    def test_guard_counters_are_emitted(self):
        from repro.obs import get_registry

        registry = get_registry()
        assertions = registry.counter("check.assertions").value
        violations = registry.counter("check.violations").value
        invariant(True, "test.counted")
        with pytest.raises(InvariantViolation):
            invariant(False, "test.counted")
        assert registry.counter("check.assertions").value == assertions + 2
        assert registry.counter("check.violations").value == violations + 1


@pytest.mark.faults
class TestViolationRollsBackRound:
    def test_invariant_violation_maps_to_rolled_back(self):
        """An InvariantViolation mid-round is a generic failure, not a
        budget signal: the transactional wrapper restores the snapshot
        and re-raises RolledBack with the violation chained."""
        config = MidasConfig(
            budget=PatternBudget(3, 6, 8),
            num_clusters=3,
            sample_cap=50,
            seed=5,
        )
        midas = Midas.bootstrap(aids_like(20, seed=4), config)
        ids_before = sorted(midas.database.ids())
        patterns_before = sorted(
            graph_key(g) for g in midas.pattern_graphs()
        )
        update = mixed_update(midas.database, 3, 3, seed=8)
        with inject_faults({"midas.fct": Fault(exc=InvariantViolation)}):
            with pytest.raises(RolledBack) as excinfo:
                midas.apply_update(update)
        assert isinstance(excinfo.value.__cause__, InvariantViolation)
        assert sorted(midas.database.ids()) == ids_before
        assert (
            sorted(graph_key(g) for g in midas.pattern_graphs())
            == patterns_before
        )


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCheckCli:
    def test_list_prints_registry(self, capsys):
        assert main(["check", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ORACLES:
            assert name in out

    def test_fuzz_one_oracle(self, capsys):
        assert main(
            ["check", "--oracle", "canonical", "--budget", "2"]
        ) == 0
        assert "passed" in capsys.readouterr().out

    def test_replay_clean_artifact_exits_zero(self, tmp_path, capsys):
        """An artifact whose recorded mismatch no longer reproduces:
        permuted isomorphic twins that once got different covers."""
        path = tmp_path / "twins.json"
        path.write_text(
            json.dumps(
                {
                    "format": ARTIFACT_FORMAT,
                    "oracle": "prune",
                    "seed": 0,
                    "mismatch": Mismatch(
                        "prune", "cover_after_prune", {"view": 1}
                    ).to_dict(),
                    "workload": workload_to_dict(_regression_workload()),
                    "original_size": None,
                    "shrunk_size": list(_regression_workload().size()),
                }
            )
        )
        code = main(["check", "--replay", str(path)])
        assert code == 0
        assert "clean" in capsys.readouterr().out.lower()

    def test_oracle_or_all_required(self, capsys):
        assert main(["check"]) == 2


# ----------------------------------------------------------------------
# execution-knob identity: one round, all 2^3 combinations
# ----------------------------------------------------------------------
def _knob_fingerprint(execution: ExecutionConfig):
    """One bootstrap + one mixed round under *execution*; every
    observable output of the round, hashable for comparison."""
    config = MidasConfig(
        budget=PatternBudget(3, 6, 8),
        num_clusters=3,
        sample_cap=50,
        seed=5,
        execution=execution,
    )
    midas = Midas.bootstrap(aids_like(20, seed=4), config)
    update = mixed_update(midas.database, 4, 4, seed=11)
    report = midas.apply_update(update)
    return (
        report.is_major,
        report.num_swaps,
        sorted(report.inserted_ids),
        sorted(report.deleted_ids),
        sorted(midas.database.ids()),
        sorted(graph_key(g) for g in midas.pattern_graphs()),
    )


KNOB_COMBOS = list(itertools.product((1, 2), (False, True), (False, True)))

_baseline_fingerprint: list = []


@pytest.mark.slow
@pytest.mark.parametrize(
    "workers,cache,check",
    KNOB_COMBOS,
    ids=[
        f"workers{w}-cache{int(ca)}-check{int(ch)}"
        for w, ca, ch in KNOB_COMBOS
    ],
)
def test_execution_knobs_do_not_change_results(workers, cache, check):
    """Every on/off combination of the execution accelerators (and the
    invariant guards) produces an identical maintenance round — the
    knobs trade speed, never answers."""
    if not _baseline_fingerprint:
        _baseline_fingerprint.append(_knob_fingerprint(ExecutionConfig()))
    fingerprint = _knob_fingerprint(
        ExecutionConfig(
            workers=workers,
            cache=cache,
            check=check,
        )
    )
    assert fingerprint == _baseline_fingerprint[0]
