"""The benchmark under bench/ imports names from reqflow modules; a name
that moves or disappears must fail here, in the tier-1 run, and not only
when the benchmark runs."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_imports() -> set[tuple[str, str]]:
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reqflow"):
                names.update((node.module, alias.name) for alias in node.names)
    return names


def test_every_name_the_benchmark_imports_resolves_where_it_imports_it():
    names = _bench_imports()
    assert ("reqflow.synth", "GroundTruth") in names and ("reqflow.synth", "compare") in names
    missing = [
        f"{module}.{name}" for module, name in sorted(names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
