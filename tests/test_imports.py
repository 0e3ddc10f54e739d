"""Every name a package module imports is used in that module, so a
deletion leaves no stale import behind.  __init__.py imports to re-export
and is left out.

Every function, class and method defined in the package is referenced
somewhere in the package or exported in `tauseq.__all__`, so code that
nothing calls is deleted, apart from the helpers that only the tests and
the benchmark call, listed in TEST_AND_BENCH_HELPERS."""

import ast
import pathlib

import pytest

import tauseq

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tauseq"

# called only from tests/ (oracles and checks) or from bench/
TEST_AND_BENCH_HELPERS = {
    "hminus1", "level_item_from_pair", "min_right_approx", "object_cx",
    "ordered_names", "rep_tensor", "root_pairs", "sequence_names",
}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("name", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(name):
    assert _unused_imports(SRC / name) == []


def _definitions_and_references():
    """({defined name: files}, {every name read or attribute taken}) over
    the package; dunder methods are called by Python and left out."""
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and
                        node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(path.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_definition_is_reached():
    defined, referenced = _definitions_and_references()
    unreached = {name: files for name, files in defined.items()
                 if name not in referenced and name not in tauseq.__all__
                 and name not in TEST_AND_BENCH_HELPERS}
    assert unreached == {}
    # an allowlisted helper that is gone, or now called from the package,
    # leaves the list
    assert all(name in defined and name not in referenced
               for name in TEST_AND_BENCH_HELPERS)
