"""Persisting pattern sets.

A deployed GUI needs its displayed panel to survive restarts and be
shippable between the maintenance backend and the interface frontend.
These helpers serialise a :class:`~repro.patterns.pattern.PatternSet`
(IDs, provenance and graphs) to JSON and back, preserving pattern IDs
across a reload.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..graph.io import FormatError, graph_from_dict, graph_to_dict
from .pattern import PatternSet

FORMAT_TAG = "repro-patternset-v1"


def pattern_set_to_dict(patterns: PatternSet) -> dict:
    return {
        "format": FORMAT_TAG,
        "patterns": [
            {
                "id": pattern.pattern_id,
                "provenance": pattern.provenance,
                "graph": graph_to_dict(pattern.graph),
            }
            for pattern in patterns
        ],
    }


def pattern_set_from_dict(payload: dict) -> PatternSet:
    if payload.get("format") != FORMAT_TAG:
        raise FormatError(
            f"unsupported pattern set format: {payload.get('format')!r}"
        )
    patterns = PatternSet()
    entries = sorted(payload["patterns"], key=lambda e: e["id"])
    for entry in entries:
        graph = graph_from_dict(entry["graph"])
        # Preserve original IDs by advancing the allocator.
        patterns.reserve_through(entry["id"])
        restored = patterns.add(graph, entry.get("provenance", ""))
        if restored.pattern_id != entry["id"]:
            raise FormatError("non-monotonic pattern ids in payload")
    return patterns


def dumps_pattern_set(patterns: PatternSet) -> str:
    return json.dumps(pattern_set_to_dict(patterns))


def loads_pattern_set(text: str) -> PatternSet:
    return pattern_set_from_dict(json.loads(text))


def write_pattern_set(path: str | Path, patterns: PatternSet) -> None:
    Path(path).write_text(dumps_pattern_set(patterns))


def read_pattern_set(path: str | Path) -> PatternSet:
    return loads_pattern_set(Path(path).read_text())
