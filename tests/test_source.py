"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hnnkit"


def parsed_sources():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_no_assert_statements():
    # invariants raise VerificationError: an assert vanishes under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_are_stdlib_or_relative():
    # the package has no runtime dependencies; a third-party import would add one
    found = []
    for path, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "hnnkit" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def referenced_names(tree):
    """Every name a module reads, as a bare name, an attribute or a string
    in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(elt.value for elt in node.value.elts)
    return names


def test_no_unused_imports():
    # __init__.py imports only to re-export the public names
    found = []
    for path, tree in parsed_sources():
        if path.name == "__init__.py":
            continue
        used = referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert found == []


def test_no_orphaned_private_definitions():
    # a private helper that nothing in the package calls is dead code
    sources = parsed_sources()
    used = set().union(*(referenced_names(tree) for _, tree in sources))
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in sources
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
    ]
    assert found == []


def test_only_split_decomposes_on_the_left():
    # the carry rule of a normal form (which subgroup a syllable is split
    # by, and which way the carry is mapped) lives in calculus._split alone
    names = ("decompose_left_H", "decompose_left_K")
    found = [
        f"{path.name}:{node.lineno} {func.name}"
        for path, tree in parsed_sources()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and (path.name, func.name) != ("calculus.py", "_split")
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr in names
    ]
    assert found == []


def test_nothing_enumerates_the_tree_through_neighbors():
    # internal tree walks step through tree._child_steps; neighbors builds an
    # EdgeRef per edge and a label per target, and is kept for callers only
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "neighbors" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []
