"""Differential correctness harness (see ``docs/CORRECTNESS.md``).

Three layers:

* :mod:`repro.check.oracles` — a registry of fast-path vs reference
  differential checks and metamorphic properties, each a pure function
  ``(workload) -> Mismatch | None``;
* :mod:`repro.check.fuzz` / :mod:`repro.check.shrink` — a deterministic
  seeded workload fuzzer that drives any oracle, greedily minimises
  failures, and round-trips them through replayable JSON artifacts
  (CLI: ``python -m repro check``);
* :mod:`repro.check.invariants` — cheap runtime invariant guards wired
  into MIDAS maintenance rounds, armed via
  ``ExecutionConfig(check=True)`` / ``--check`` and raising
  :class:`~repro.exceptions.InvariantViolation` on failure.

Only :mod:`~repro.check.invariants` loads eagerly — production modules
(the maintainer) import their guards from here, while the oracle/fuzz
layers import those same production modules; lazy loading below breaks
that cycle.
"""

from .invariants import check_enabled, invariant, set_check, use_check

#: Lazily resolved exports: attribute name -> submodule.
_LAZY = {
    "Mismatch": "workload",
    "Workload": "workload",
    "WorkloadBatch": "workload",
    "permuted_copy": "workload",
    "workload_from_dict": "workload",
    "workload_from_json": "workload",
    "workload_to_dict": "workload",
    "workload_to_json": "workload",
    "ORACLES": "oracles",
    "Oracle": "oracles",
    "get_oracle": "oracles",
    "oracle_names": "oracles",
    "shrink": "shrink",
    "FuzzReport": "fuzz",
    "build_artifact": "fuzz",
    "case_rng": "fuzz",
    "evaluate": "fuzz",
    "load_artifact": "fuzz",
    "random_workload": "fuzz",
    "recorded_mismatch": "fuzz",
    "replay": "fuzz",
    "run_oracle": "fuzz",
    "write_artifact": "fuzz",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "check_enabled",
    "invariant",
    "set_check",
    "use_check",
    *sorted(_LAZY),
]
