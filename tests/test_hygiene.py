"""Source hygiene, checked with the `ast` module (the project has no
linter): every import in the package is used, every `__all__` name is
defined, and every top-level function and class has a user."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "microhol"
MODULES = sorted(PACKAGE.glob("*.py"))
# Where a user of the package may live: the package, its tests, the benchmark.
USERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements anywhere in the module -> line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level."""
    out = set(_imports(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return out


def _references(tree: ast.AST) -> Counter:
    """Uses of each name outside `__all__`: loaded or bound names,
    attributes, and strings (the benchmark patches functions by name)."""
    ignored = set()
    for node in getattr(tree, "body", []):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            ignored |= {id(n) for n in ast.walk(node)}
    out = Counter()
    for node in ast.walk(tree):
        if id(node) in ignored:
            continue
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _unused_definitions(module: ast.Module, references: Counter) -> list[ast.AST]:
    """Top-level functions and classes of `module` that `references`
    (counted over every user, the module included) names only inside
    their own definition."""
    return [
        node
        for node in module.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and references[node.name] <= _references(node)[node.name]
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree) | set(_dunder_all(tree))
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(_imports(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_dunder_all_names_are_defined(path):
    tree = _tree(path)
    missing = [name for name in _dunder_all(tree) if name not in _defined(tree)]
    assert not missing, f"{path.name}: __all__ names not defined: {missing}"


def test_every_function_and_class_has_a_user():
    trees = {path: _tree(path) for path in USERS}
    references = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path in MODULES
        for node in _unused_definitions(trees[path], references)
    ]
    assert not unused, "defined but never used:\n" + "\n".join(unused)


def test_checks_catch_what_they_are_for():
    tree = ast.parse(
        "import itertools\nfrom .semantics import Valuation, eval_term\n"
        "__all__ = ['f', 'Gone']\ndef f(): return eval_term\n"
    )
    used = _used_names(tree) | set(_dunder_all(tree))
    assert [n for n in _imports(tree) if n not in used] == ["itertools", "Valuation"]
    assert [n for n in _dunder_all(tree) if n not in _defined(tree)] == ["Gone"]
    tree = ast.parse(
        "__all__ = ['f', 'g']\ndef f(n): return f(n - 1)\ndef g(): return h\ndef h(): pass\n"
    )
    assert [d.name for d in _unused_definitions(tree, _references(tree))] == ["f", "g"]
