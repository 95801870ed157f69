"""Source-level rules for the package."""

import ast
from pathlib import Path

import hodgemoments

SOURCES = sorted(Path(hodgemoments.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"chains.py", "linalg.py", "cli.py"}


def test_no_assert_statements():
    # python -O strips asserts; invariants must raise named exceptions
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_one_elimination_loop():
    # plain and tagged rows share one elimination loop in linalg
    pops = sum(path.read_text().count("heapq.heappop") for path in SOURCES)
    assert pops == 1
