"""Documentation health: links resolve, catalogued names exist in code.

Six guarantees:

* every intra-repository markdown link in README.md and docs/*.md points
  at a file that exists;
* every metric and span name catalogued in docs/OBSERVABILITY.md appears
  as a string literal somewhere under src/repro — the catalogue cannot
  drift from the instrumentation;
* the reverse, for the execution-layer namespaces: every ``vf2.*`` /
  ``check.*`` / ``serve.*`` / ``journal.*`` / ``store.*`` metric
  literal under src/repro is catalogued in OBSERVABILITY.md — the
  instrumentation cannot drift from the catalogue;
* the invariant catalogue in docs/CORRECTNESS.md matches the guard
  names raised by ``repro.check.invariants``, in both directions;
* the docs/SERVING.md endpoint table matches ``repro.serve.http.ROUTES``
  exactly, in both directions;
* docs/API.md matches the facade: the table lists exactly
  ``repro.api.__all__``, each row's parameter cell is exactly that
  call's signature, the ExecutionConfig table lists exactly the
  dataclass fields, and the GraphStore method table lists exactly the
  public methods of ``repro.store.GraphStore``.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((REPO_ROOT / "docs").glob("*.md"))
MARKDOWN_FILES = [REPO_ROOT / "README.md", *DOCS]

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
TABLE_NAME_PATTERN = re.compile(r"^\|\s*`([^`\s]+)`\s*\|")


def _links(path: Path) -> list[str]:
    targets = []
    for target in LINK_PATTERN.findall(path.read_text()):
        target = target.split("#", 1)[0]  # drop anchors
        if not target or target.startswith(("http://", "https://", "mailto:")):
            continue
        targets.append(target)
    return targets


@pytest.mark.parametrize(
    "markdown", MARKDOWN_FILES, ids=lambda p: p.name
)
def test_intra_repo_links_resolve(markdown):
    missing = [
        target
        for target in _links(markdown)
        if not (markdown.parent / target).exists()
    ]
    assert not missing, f"{markdown.name}: broken links {missing}"


def _catalogue_names(section_heading: str) -> list[str]:
    """First-column backticked names of every table row in a section."""
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
    names = []
    in_section = False
    for line in text.splitlines():
        if line.startswith("## "):
            in_section = line.strip() == section_heading
            continue
        if in_section:
            match = TABLE_NAME_PATTERN.match(line)
            if match and match.group(1) not in ("Metric", "Span"):
                names.append(match.group(1))
    return names


@pytest.fixture(scope="module")
def source_text():
    return "\n".join(
        path.read_text()
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    )


def test_metric_catalogue_is_nonempty():
    assert len(_catalogue_names("## Metric catalogue")) >= 30


def test_span_catalogue_is_nonempty():
    assert len(_catalogue_names("## Span catalogue")) >= 20


@pytest.mark.parametrize("name", _catalogue_names("## Metric catalogue"))
def test_documented_metric_exists_in_source(name, source_text):
    assert f'"{name}"' in source_text, (
        f"metric {name!r} is documented in OBSERVABILITY.md but no string "
        f"literal emits it under src/repro"
    )


@pytest.mark.parametrize("name", _catalogue_names("## Span catalogue"))
def test_documented_span_exists_in_source(name, source_text):
    assert f'"{name}"' in source_text, (
        f"span {name!r} is documented in OBSERVABILITY.md but no string "
        f"literal opens it under src/repro"
    )


EXECUTION_METRIC_PATTERN = re.compile(
    r'"((?:vf2|check|serve|journal|store)\.'
    r'[a-z_][a-z_.]*)"'
)


def _serve_site_names() -> set[str]:
    from repro.resilience.faults import SERVE_SITES

    return set(SERVE_SITES)


# Budget-check and fault-injection site names share the dotted spelling
# but are not metrics; the crash-injection sites on the serving path
# (``SERVE_SITES``) are excluded the same way, as is the default SQLite
# filename literal "store.db".
EXECUTION_SITE_NAMES = {
    "vf2.search",
    "store.db",
} | _serve_site_names()

DOTTED_NAME_PATTERN = re.compile(r'"([a-z_]+(?:\.[a-z_]+)+)"')


def _invariant_names_in_source() -> set[str]:
    """Guard names raised by repro.check.invariants (not metrics).

    Every dotted string literal in the module is either a guard name or
    one of the two ``check.*`` counters it emits.
    """
    text = (
        REPO_ROOT / "src" / "repro" / "check" / "invariants.py"
    ).read_text()
    return set(DOTTED_NAME_PATTERN.findall(text)) - {
        "check.assertions",
        "check.violations",
    }


def _correctness_invariant_names() -> set[str]:
    """First-column names of the CORRECTNESS.md invariant catalogue."""
    text = (REPO_ROOT / "docs" / "CORRECTNESS.md").read_text()
    names = set()
    for line in text.splitlines():
        match = TABLE_NAME_PATTERN.match(line)
        if match and "." in match.group(1):
            names.add(match.group(1))
    return names


def test_execution_metrics_are_catalogued(source_text):
    """Every vf2./check./serve./journal./store. literal is catalogued."""
    emitted = (
        set(EXECUTION_METRIC_PATTERN.findall(source_text))
        - EXECUTION_SITE_NAMES
        - _invariant_names_in_source()
    )
    assert emitted, "expected vf2.*/serve.* metric literals in src/repro"
    documented = set(_catalogue_names("## Metric catalogue"))
    undocumented = sorted(emitted - documented)
    assert not undocumented, (
        f"metrics emitted under src/repro but missing from the "
        f"OBSERVABILITY.md catalogue: {undocumented}"
    )


def test_invariant_catalogue_matches_source():
    """docs/CORRECTNESS.md and repro.check.invariants agree exactly."""
    in_source = _invariant_names_in_source()
    in_docs = _correctness_invariant_names()
    assert in_source, "expected guard names in repro/check/invariants.py"
    assert in_source == in_docs, (
        f"undocumented guards: {sorted(in_source - in_docs)}; "
        f"documented but not raised: {sorted(in_docs - in_source)}"
    )


ENDPOINT_ROW_PATTERN = re.compile(
    r"^\|\s*`((?:GET|POST|PUT|DELETE) /\S+)`\s*\|", re.MULTILINE
)


def _serving_documented_endpoints() -> set[str]:
    """``METHOD /path`` strings from the SERVING.md endpoint table."""
    text = (REPO_ROOT / "docs" / "SERVING.md").read_text()
    return set(ENDPOINT_ROW_PATTERN.findall(text))


def test_serving_endpoint_table_matches_routes():
    """docs/SERVING.md and repro.serve.http.ROUTES agree exactly."""
    from repro.serve.http import endpoints

    served = set(endpoints())
    documented = _serving_documented_endpoints()
    assert served, "expected routes in repro.serve.http.ROUTES"
    assert served == documented, (
        f"endpoints served but undocumented: {sorted(served - documented)}; "
        f"documented but not served: {sorted(documented - served)}"
    )


BACKTICKED_NAME_PATTERN = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)`")


def _api_table_rows(section_heading: str) -> dict[str, list[str]]:
    """API.md table rows in a section: first-column name -> row cells."""
    text = (REPO_ROOT / "docs" / "API.md").read_text()
    rows = {}
    in_section = False
    for line in text.splitlines():
        if line.startswith("## "):
            in_section = line.strip() == section_heading
            continue
        if in_section:
            match = TABLE_NAME_PATTERN.match(line)
            if match:
                rows[match.group(1)] = line.split("|")[2:-1]
    return rows


def test_api_facade_table_matches_api_module():
    """The API.md facade table lists exactly repro.api.__all__, and each
    row's parameter cell is exactly that call's signature."""
    import inspect

    import repro.api as api

    rows = _api_table_rows("## The facade")
    assert set(rows) == set(api.__all__), (
        f"facade calls undocumented: {sorted(set(api.__all__) - set(rows))}; "
        f"documented but not exported: {sorted(set(rows) - set(api.__all__))}"
    )
    for name, cells in rows.items():
        documented = set(BACKTICKED_NAME_PATTERN.findall(cells[0]))
        actual = set(inspect.signature(getattr(api, name)).parameters)
        assert documented == actual, (
            f"API.md parameters for {name!r} drifted from the signature: "
            f"missing {sorted(actual - documented)}, "
            f"stale {sorted(documented - actual)}"
        )


def test_api_execution_config_table_matches_dataclass():
    """The API.md ExecutionConfig table lists exactly the fields."""
    import dataclasses

    from repro.execution import ExecutionConfig

    documented = set(_api_table_rows("## ExecutionConfig"))
    actual = {field.name for field in dataclasses.fields(ExecutionConfig)}
    assert documented == actual, (
        f"fields undocumented: {sorted(actual - documented)}; "
        f"documented but not fields: {sorted(documented - actual)}"
    )


def test_api_graph_store_table_matches_class():
    """The API.md GraphStore table lists exactly the public methods."""
    from repro.store import GraphStore

    documented = set(_api_table_rows("## GraphStore"))
    actual = {
        name
        for name, member in vars(GraphStore).items()
        if callable(member) and not name.startswith("_")
    }
    assert documented == actual, (
        f"methods undocumented: {sorted(actual - documented)}; "
        f"documented but not methods: {sorted(documented - actual)}"
    )
