"""Source hygiene, checked with the `ast` module (the project has no
linter): every import in the package is used, every `__all__` name is
defined, every top-level function and class and every public method has
a user in the package or the benchmark, every parameter is read, every
slot and dataclass field is read, a theory's signature is written only
by the two definitional rules, only the theory fingerprint builds a
term's byte encoding, and the trusted base (`kernel.py` and `syntax.py`)
stands on its own: it imports nothing else of the package outside a
`__repr__` and catches no exception, only the kernel makes theorems, its
rules leave a theorem's provenance to one helper, its rule table holds
the ten rules, only its frozen base guards attribute writes, and the
kernel holds no audit, which makes none, and only combinations and
abstractions compare structurally (types and atoms are interned);
article replay leaves the check of parsed input against the signature to
the parser; and one walk decides meson's first-order fragment, meson's
symbols are the atoms themselves, only `rewr_conv` signals
`Inapplicable`, the finite-model evaluator builds its compiler in three
places, only the CLI's `main` exits with 2, and only the order walk
writes a binder scope in place.
The README's line count of the trusted base and its list of the
package's modules are checked against the files."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "microhol"
README = ROOT / "README.md"
MODULES = sorted(PACKAGE.glob("*.py"))
# Where a user of the package may live: the package and the benchmark.  A name
# only the tests call is dead code unless it is kept below, with its reason.
USERS = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))
# Where a field may be read: a field only the tests read is still checked.
READERS = USERS + sorted((ROOT / "tests").rglob("*.py"))
UNUSED_BY_DESIGN = {
    "audit.replay_trace": "a test tool: replays a kernel trace through the rules",
    "fuzz.random_kernel_walk": "a test tool: the random kernel walk of criterion 2",
    "semantics.eval_term": "the evaluator's oracle API: one term under one valuation",
    "semantics.carrier_size": "the evaluator's oracle API: the size of a type's carrier",
    "syntax.type_of": "exported by the package",
}


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


# A theory's signature and its definition log, and the only functions
# that may write them: in the package, one way into the signature.
SIGNATURE_FIELDS = {
    "term_constants", "type_constructors", "definitions", "typedefs", "definition_log",
}
SIGNATURE_WRITERS = {
    "kernel.py:Theory.__init__",
    "kernel.py:new_basic_definition",
    "kernel.py:new_basic_type_definition",
}
_MUTATORS = {
    "append", "extend", "insert", "update", "setdefault", "pop", "popitem", "clear", "remove",
    "add", "discard",
}


def _is_field(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in SIGNATURE_FIELDS


def _writes_field(node: ast.AST) -> bool:
    """An item of a signature field assigned or deleted, the field itself
    rebound, or a mutating method called on it."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        return any(_is_field(t) for t in node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return _is_field(node.target)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
        and _is_field(node.func.value)
    )


def _scoped_nodes(node: ast.AST, scope: str = ""):
    """(scope, node) for every node in the code of `node`'s functions and
    classes, scope being the dotted name of the innermost function or
    class holding it (`""` for the module)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        yield scope, child
        yield from _scoped_nodes(child, scope)


def _scopes(tree: ast.Module, hit) -> dict[str, int]:
    """Dotted name of each function or class (`""` for the module) whose
    own code holds a node for which `hit` is true -> the line of the first."""
    out: dict[str, int] = {}
    for scope, node in _scoped_nodes(tree):
        if hit(node):
            out.setdefault(scope, node.lineno)
    return out


def _signature_writers(tree: ast.Module) -> dict[str, int]:
    """Each function that writes a signature field -> its first write."""
    return _scopes(tree, _writes_field)


# The term encoding is a stored value only where the fingerprint hashes it;
# everything else orders terms by the `term_compare` walk.  Each encoder may
# be named (called, or passed as a sort key) only by these functions.
# `alpha_canon` is bound, by import alone, in the `_accel` stub the
# benchmark's tracer wraps, and no module names it.
ENCODER_USERS = {
    "term_order_key": {"kernel.py:Theory.fingerprint"},
    "alpha_canon": set(),
}

# The trusted base and the package modules each may import: `surface`
# only inside a `__repr__`, to print.
TRUSTED_IMPORTS = {"kernel.py": {"syntax"}, "syntax.py": set()}
# What only the kernel may name: its theorem makers and the constructor's token.
KERNEL_PRIVATE = ("_mk", "_derive", "_RULE_TOKEN")
# A theorem's provenance, which the rules leave to `_derive` to decide.
PROVENANCE = ("uses_infinity", "theory")
# What makes no theorem and so lives in `audit.py`, not the kernel.
AUDITS = ("check_type", "check_term", "check_theorem", "replay_trace")


def _package_imports(node: ast.AST) -> set[str]:
    """The package modules an import statement brings in."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            parts = node.module.split(".") if node.module else []
        elif node.module and node.module.split(".")[0] == "microhol":
            parts = node.module.split(".")[1:]
        else:
            return set()
        return {parts[0]} if parts else {alias.name for alias in node.names}
    if isinstance(node, ast.Import):
        return {
            alias.name.split(".")[1]
            for alias in node.names
            if alias.name.startswith("microhol.")
        }
    return set()


def _untrusted_imports(tree: ast.Module, allowed: set[str]) -> list[str]:
    """`scope: module` for each package import outside `allowed`, apart
    from `surface` inside a `__repr__`."""
    return sorted(
        f"{scope}: {module}"
        for scope, node in _scoped_nodes(tree)
        for module in _package_imports(node)
        if module not in allowed
        and not (module == "surface" and scope.split(".")[-1] == "__repr__")
    )


def _makes_theorems(node: ast.AST) -> bool:
    """A node that names a kernel-private maker or calls `Theorem(`."""
    if any(_names(name)(node) for name in KERNEL_PRIVATE):
        return True
    return isinstance(node, ast.Call) and _names("Theorem")(node.func)


def _names(name: str, strings: bool = False):
    """A test for nodes that name `name`: a variable or an attribute, and
    with `strings` also a string (`getattr`, `__slots__`)."""

    def hit(node):
        return (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (strings and isinstance(node, ast.Constant) and node.value == name)
        )

    return hit


def _raises(tree: ast.Module, name: str) -> list[tuple[str, int, str | None]]:
    """(scope, line, message) of every `raise name(...)` or `raise name`,
    the message being the first argument when it is a string literal."""
    out = []
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            call = isinstance(exc, ast.Call)
            if _names(name)(exc.func if call else exc):
                first = exc.args[0] if call and exc.args else None
                message = first.value if isinstance(first, ast.Constant) else None
                out.append((scope, node.lineno, message))
    return out


def _rules_reading_provenance(tree: ast.Module) -> dict[str, int]:
    """Each `@_traced` function that names a provenance attribute -> the
    line of the first."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(
            _names("_traced")(d) for d in node.decorator_list
        ):
            for n in ast.walk(node):
                if any(_names(attr, strings=True)(n) for attr in PROVENANCE):
                    out.setdefault(node.name, n.lineno)
    return out


def _unused_definitions(module: ast.Module, references: Counter) -> list[str]:
    """Dotted names of the top-level functions and classes of `module`, and
    of the public methods of its classes, that `references` (counted over
    every user, the module included) names only inside their own definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in module.body:
        if not isinstance(node, defs):
            continue
        if references[node.name] <= _references(node)[node.name]:
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{method.name}"
                for method in node.body
                if isinstance(method, defs[:2])
                and not method.name.startswith("_")
                and references[method.name] <= _references(method)[method.name]
            ]
    return out


def _reads(node: ast.AST) -> set[str]:
    """The names `node`'s code reads: loaded, or updated in place (`+=`)."""
    return {
        n.id if isinstance(n, ast.Name) else n.target.id
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name))
    }


def _functions(node: ast.AST, scope: str = ""):
    """(dotted name, node) for every function and method in `node`'s code."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{scope}.{child.name}" if scope else child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, scope)


def _unread_parameters(tree: ast.Module) -> list[str]:
    """`function: parameter` for each parameter its function's body never
    reads, apart from `self`, `cls`, `_`-prefixed names and the parameters
    of dunder methods, whose signatures their protocol fixes."""
    out = []
    for name, node in _functions(tree):
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        params += [p.arg for p in (a.vararg, a.kwarg) if p]
        reads = set().union(*map(_reads, node.body))
        out += [
            f"{name}: {p}"
            for p in params
            if p not in reads and p not in ("self", "cls") and not p.startswith("_")
        ]
    return out


def _fields(tree: ast.AST) -> list[tuple[str, str]]:
    """(class, field) for each `__slots__` entry and each dataclass field
    of every class in `tree`."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        dataclass = any(
            _names("dataclass")(d.func if isinstance(d, ast.Call) else d)
            for d in cls.decorator_list
        )
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(map(_names("__slots__"), node.targets)):
                out += [(cls.name, s) for s in ast.literal_eval(node.value)]
            elif dataclass and isinstance(node, ast.AnnAssign):
                out.append((cls.name, node.target.id))
    return out


def _attribute_reads(tree: ast.AST) -> set[str]:
    """The attribute names `tree` reads: loaded, or updated in place (`+=`)."""
    return {
        n.attr if isinstance(n, ast.Attribute) else n.target.attr
        for n in ast.walk(tree)
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute))
    }


# What guards an object's attributes; in the trusted base only `_Frozen`,
# the base of every type, term and theorem, may define or name one.
ATTRIBUTE_HOOKS = ("__setattr__", "__delattr__")
# What makes equality structural: types and atoms are interned, so in
# `syntax.py` only `Comb` and `Abs` may define one.
EQUALITY_HOOKS = ("__eq__", "__hash__")


def _classes_defining(tree: ast.AST, hooks: tuple[str, ...]) -> set[str]:
    """Each class whose body defines or assigns one of `hooks`."""
    return {
        cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(
            (isinstance(node, ast.FunctionDef) and node.name in hooks)
            or (
                isinstance(node, ast.Assign)
                and any(_names(h)(t) for t in node.targets for h in hooks)
            )
            for node in cls.body
        )
    }


def _attribute_hooks(tree: ast.Module) -> list[str]:
    """Each class that defines `__setattr__` or `__delattr__`, and each
    scope that names one (`object.__setattr__`, `__delattr__ = ...`)."""
    out = _classes_defining(tree, ATTRIBUTE_HOOKS)
    out |= set(_scopes(tree, lambda n: any(_names(h)(n) for h in ATTRIBUTE_HOOKS)))
    return sorted(out)


def _re_encoded_atom(node: ast.AST) -> bool:
    """A tuple that spells a constant or a variable as meson's old
    `("c" | "w", name, type)` symbol."""
    return (
        isinstance(node, ast.Tuple)
        and bool(node.elts)
        and isinstance(node.elts[0], ast.Constant)
        and node.elts[0].value in ("c", "w")
    )


# The parameters that carry the binders in scope down a term walk.  A walker
# hands each binder's body a new scope value; only the order walk, the hot
# path behind `alpha_equiv` and `term_compare`, writes one shared scope and
# restores it.  A walker is a function that opens binders (its own code reads
# a `.bvar`) or hands one of these parameters to a walker.  Elsewhere these
# names are no scope: `type_match`'s `env` and `bootstrap._match`'s `tenv`
# are the matches being built, and the evaluator's closures fill their `env`
# list by slot.
SCOPE_PARAMETERS = {"bound", "env", "binders", "tenv", "uenv"}
SCOPE_WRITERS = {"syntax.py:_order"}


def _writes_name(node: ast.AST, names: set[str]) -> bool:
    """An item of one of `names` assigned or deleted, or a mutating method
    called on one of them."""
    if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
        target = node.value
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
    ):
        target = node.func.value
    else:
        return False
    return isinstance(target, ast.Name) and target.id in names


def _scope_writers(tree: ast.Module) -> dict[str, int]:
    """Each walker that writes a binder-scope parameter in place -> the
    line of its first write."""
    own: dict[str, list[ast.AST]] = {}
    for scope, node in _scoped_nodes(tree):
        own.setdefault(scope, []).append(node)
    params = {}
    for name, node in _functions(tree):
        a = node.args
        params[name] = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)} & SCOPE_PARAMETERS
    walkers = {
        name
        for name in params
        if any(isinstance(n, ast.Attribute) and n.attr == "bvar" for n in own.get(name, []))
    }
    while True:  # a function that hands its scope to a walker walks too
        short = {name.split(".")[-1] for name in walkers}
        more = {
            name
            for name, scope in params.items()
            for n in own.get(name, [])
            if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) in short
            and any(isinstance(arg, ast.Name) and arg.id in scope for arg in n.args)
        } - walkers
        if not more:
            break
        walkers |= more
    out = {}
    for name in sorted(walkers):
        lines = [n.lineno for n in own.get(name, []) if _writes_name(n, params[name])]
        if lines:
            out[name] = min(lines)
    return out


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
    unused = {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _unused_definitions(trees[path], references)
    }
    stray = sorted(unused - set(UNUSED_BY_DESIGN))
    assert not stray, "no user in the package or the benchmark:\n" + "\n".join(stray)
    stale = sorted(set(UNUSED_BY_DESIGN) - unused)
    assert not stale, f"kept as unused, but used or gone: {stale}"


def test_every_parameter_is_read():
    unread = [
        f"{path.name}: {entry}" for path in MODULES for entry in _unread_parameters(_tree(path))
    ]
    assert not unread, "parameters never read:\n" + "\n".join(unread)


def test_every_field_is_read():
    reads = set().union(*(_attribute_reads(_tree(path)) for path in READERS))
    unread = [
        f"{path.name}: {cls}.{field}"
        for path in MODULES
        for cls, field in _fields(_tree(path))
        if field not in reads
    ]
    assert not unread, "fields never read:\n" + "\n".join(unread)


@pytest.mark.parametrize("name", sorted(TRUSTED_IMPORTS))
def test_only_the_frozen_base_guards_attributes(name):
    want = ["_Frozen"] if name == "syntax.py" else []
    assert _attribute_hooks(_tree(PACKAGE / name)) == want


def test_only_combinations_and_abstractions_compare_structurally():
    classes = _classes_defining(_tree(PACKAGE / "syntax.py"), EQUALITY_HOOKS)
    assert sorted(classes) == ["Abs", "Comb"]


def test_meson_symbols_are_the_atoms():
    stray = _scopes(_tree(PACKAGE / "auto.py"), _re_encoded_atom)
    assert not stray, f"auto.py re-encodes atoms as symbol tuples: {stray}"


def test_only_the_definitional_rules_write_the_signature():
    writers = {
        f"{path.name}:{scope}": line
        for path in MODULES
        for scope, line in _signature_writers(_tree(path)).items()
    }
    stray = [
        f"{name} (line {line})"
        for name, line in writers.items()
        if name not in SIGNATURE_WRITERS
    ]
    assert not stray, "signature written outside the rules:\n" + "\n".join(stray)
    assert set(writers) == SIGNATURE_WRITERS


@pytest.mark.parametrize("name", sorted(ENCODER_USERS))
def test_only_the_fingerprint_encodes_terms(name):
    users = {
        f"{path.name}:{scope}"
        for path in MODULES
        for scope in _scopes(_tree(path), _names(name))
    }
    assert users == ENCODER_USERS[name], f"{name} named by {sorted(users)}"


@pytest.mark.parametrize("name", sorted(TRUSTED_IMPORTS))
def test_trusted_base_imports_no_other_module(name):
    stray = _untrusted_imports(_tree(PACKAGE / name), TRUSTED_IMPORTS[name])
    assert not stray, f"{name} imports outside the trusted base:\n" + "\n".join(stray)


def _handlers(tree: ast.Module) -> dict[str, int]:
    return _scopes(tree, lambda n: isinstance(n, ast.ExceptHandler))


@pytest.mark.parametrize("name", sorted(TRUSTED_IMPORTS))
def test_trusted_base_catches_nothing(name):
    # each rule and term walk decides locally: no error raised in one
    # place changes what another computes (`tracing`'s `finally` is no handler)
    stray = _handlers(_tree(PACKAGE / name))
    assert not stray, f"{name} catches exceptions: {stray}"


def test_readme_counts_the_trusted_base():
    # the figure is `wc -l` of the two files, which counts newlines
    text = " ".join(README.read_text(encoding="utf-8").split())
    figure = re.search(r"`kernel\.py` and `syntax\.py`, ([\d,]+) lines together", text)
    assert figure, "the README gives no line count for the trusted base"
    files = [(PACKAGE / name).read_text(encoding="utf-8") for name in TRUSTED_IMPORTS]
    assert int(figure[1].replace(",", "")) == sum(f.count("\n") for f in files)


def test_readme_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    layout = text.split("\nsrc/microhol/\n", 1)[1].split("\n```", 1)[0]
    assert sorted(re.findall(r"^  (\S+\.py) ", layout, re.M)) == [p.name for p in MODULES]


def test_the_kernel_defines_no_audit():
    defined = sorted(_defined(_tree(PACKAGE / "kernel.py")))
    audits = [name for name in defined if name.startswith("check_") or name in AUDITS]
    assert not audits, f"kernel.py defines audits: {audits}"
    assert set(AUDITS) <= _defined(_tree(PACKAGE / "audit.py"))


def test_the_parser_alone_checks_article_input():
    # a parsed article line meets the signature in the parser, once
    stray = _scopes(_tree(PACKAGE / "article.py"), lambda n: "audit" in _package_imports(n))
    assert not stray, f"article.py imports `audit`: {stray}"


def test_only_the_kernel_makes_theorems():
    stray = [
        f"{path.name}:{line} ({scope or 'module'})"
        for path in MODULES
        if path.name != "kernel.py"
        for scope, line in _scopes(_tree(path), _makes_theorems).items()
    ]
    assert not stray, "theorems made outside the kernel:\n" + "\n".join(stray)


def test_the_rules_leave_provenance_to_one_helper():
    stray = _rules_reading_provenance(_tree(PACKAGE / "kernel.py"))
    assert not stray, f"rules that decide provenance themselves: {stray}"


def test_the_rule_table_holds_the_ten_rules():
    from microhol import kernel

    assert len(kernel.PRIMITIVE_RULES) == 10
    for name, rule in kernel.PRIMITIVE_RULES.items():
        assert rule is getattr(kernel, name), name


def test_the_fragment_is_decided_in_one_place():
    # one walk over a problem decides meson's fragment
    stray = [
        f"auto.py:{line} ({scope or 'module'})"
        for scope, line, _ in _raises(_tree(PACKAGE / "auto.py"), "OutOfFragment")
        if scope.partition(".")[0] != "_Symbols"
    ]
    assert not stray, "the fragment decided outside `_Symbols`:\n" + "\n".join(stray)


# Where the finite-model evaluator builds a compiler: once per type
# assignment of a search, and once per call of its two oracle functions.
# Closed terms compile in the compiler that meets them.
COMPILER_BUILDERS = {"semantics.py:_search", "semantics.py:eval_term", "semantics.py:carrier_size"}


def test_only_rewriting_signals_inapplicable():
    # the other conversions run where their caller holds a redex; only a
    # match can miss, and only a search that tries equations in turn
    # needs to hear of it
    raises = [
        (path.name, scope, line)
        for path in MODULES
        for scope, line, _ in _raises(_tree(path), "Inapplicable")
    ]
    stray = [
        f"{name}:{line} ({scope or 'module'})"
        for name, scope, line in raises
        if (name, scope.partition(".")[0]) != ("bootstrap.py", "rewr_conv")
    ]
    assert raises, "`rewr_conv` no longer signals `Inapplicable`"
    assert not stray, "`Inapplicable` raised outside `rewr_conv`:\n" + "\n".join(stray)


def test_compilers_are_built_in_three_places():
    builders = {
        f"{path.name}:{scope}"
        for path in MODULES
        for scope in _scopes(
            _tree(path), lambda n: isinstance(n, ast.Call) and _names("_Compiler")(n.func)
        )
    }
    assert builders == COMPILER_BUILDERS, f"`_Compiler` built by {sorted(builders)}"


def test_no_module_imports_accel():
    stray = [
        f"{path.name}:{line}"
        for path in MODULES
        for line in _scopes(_tree(path), lambda n: "_accel" in _package_imports(n)).values()
    ]
    assert not stray, "`_accel` imported:\n" + "\n".join(stray)


def test_no_kind_tags():
    # the term walkers dispatch on the node classes themselves
    stray = [
        f"{path.name}:{line}"
        for path in MODULES
        for line in _scopes(_tree(path), _names("KIND")).values()
    ]
    assert not stray, "a `KIND` tag is back:\n" + "\n".join(stray)


def test_no_encoding_cache_on_terms():
    stray = [
        f"{path.name}:{line}"
        for path in MODULES
        for line in _scopes(_tree(path), _names("_canon", strings=True)).values()
    ]
    assert not stray, "a `_canon` slot or attribute is back:\n" + "\n".join(stray)


def test_only_the_order_walk_writes_a_binder_scope():
    writers = {
        f"{path.name}:{scope}": line
        for path in MODULES
        for scope, line in _scope_writers(_tree(path)).items()
    }
    assert set(writers) == SCOPE_WRITERS, f"binder scopes written in place: {writers}"


def _returns_two(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Return)
        and isinstance(node.value, ast.Constant)
        and node.value.value == 2
    )


def test_only_main_exits_with_two():
    # a command returns 0 or 1 and raises the rest, which `main` reports
    returns = _scopes(_tree(PACKAGE / "cli.py"), _returns_two)
    assert list(returns) == ["main"], f"`return 2` in {sorted(returns)}"


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
        "class C:\n"
        "    def used(self): return self._helper()\n"
        "    def gone(self): return self.gone()\n"
        "    def _helper(self): pass\n"
        "    def __repr__(self): return ''\n"
        "C().used()\n"
    )
    assert _unused_definitions(tree, _references(tree)) == ["f", "g", "C.gone"]
    tree = ast.parse(
        "def f(a, b, _c, *args, d=1, **kw): return a + d\n"
        "def g(out): out += b'x'\n"
        "def h(x):\n"
        "    def inner(y): return x\n"
        "    return inner\n"
        "class C:\n"
        "    def m(self, n): return self\n"
        "    @classmethod\n"
        "    def k(cls, n): return n\n"
        "    def __exit__(self, *exc): pass\n"
    )
    assert _unread_parameters(tree) == ["f: b", "f: args", "f: kw", "h.inner: y", "C.m: n"]
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Info:\n"
        "    tyvars: tuple\n"
        "    rep_type: object\n"
        "    def f(self): return self.tyvars\n"
        "class Node:\n"
        "    __slots__ = ('rator', '_h')\n"
        "    def __init__(self): self._h = None\n"
        "class Plain:\n"
        "    size: int\n"
        "def count(r): r.n += 1\n"
    )
    assert _fields(tree) == [
        ("Info", "tyvars"), ("Info", "rep_type"), ("Node", "rator"), ("Node", "_h"),
    ]
    assert _attribute_reads(tree) == {"tyvars", "n"}
    tree = ast.parse(
        "class _Frozen:\n"
        "    def __setattr__(self, *_): raise AttributeError\n"
        "    __delattr__ = __setattr__\n"
        "class HolType(_Frozen):\n"
        "    def __delattr__(self, name): pass\n"
        "class Var(HolType):\n"
        "    __slots__ = ('name',)\n"
        "def build(ty): object.__setattr__(ty, '_enc', b'')\n"
    )
    assert _attribute_hooks(tree) == ["HolType", "_Frozen", "build"]
    tree = ast.parse(
        "class _Atom:\n"
        "    def __eq__(self, other): return self.name == other.name\n"
        "class Var(_Atom):\n"
        "    __hash__ = object.__hash__\n"
        "class Comb:\n"
        "    def __hash__(self): return 0\n"
        "def sym(head): return ('c', head.name, head.ty)\n"
        "def sk(i): return ('sk', i), ()\n"
        "w = ('w', 'P', None)\n"
    )
    assert _classes_defining(tree, EQUALITY_HOOKS) == {"_Atom", "Var", "Comb"}
    assert _scopes(tree, _re_encoded_atom) == {"sym": 7, "": 9}
    tree = ast.parse(
        "class Theory:\n"
        "    def _add(self, n, t): self.term_constants[n] = t\n"
        "    def replay(cls, evs):\n"
        "        thy = cls(); thy.definition_log.append(evs[0]); return thy\n"
        "def drop(thy, n): del thy.definitions[n]\n"
        "def grow(thy, d): thy.typedefs.update(d); thy.type_constructors['t'] = 0\n"
        "def read(thy, n): return thy.term_constants[n], thy.definition_log[-1]\n"
    )
    assert sorted(_signature_writers(tree)) == ["Theory._add", "Theory.replay", "drop", "grow"]
    tree = ast.parse(
        "class Theory:\n"
        "    def fingerprint(self): return term_order_key(self.t)\n"
        "def by_key(ts): return sorted(ts, key=syntax.term_order_key)\n"
        "def key(t):\n"
        "    c = t._canon\n"
        "    return c or alpha_canon(t)\n"
        "class Comb:\n"
        "    __slots__ = ('rator', '_canon')\n"
    )
    assert sorted(_scopes(tree, _names("term_order_key"))) == ["Theory.fingerprint", "by_key"]
    assert sorted(_scopes(tree, _names("alpha_canon"))) == ["key"]
    assert _scopes(tree, _names("_canon")) == {"key": 5}
    assert _scopes(tree, _names("_canon", strings=True)) == {"key": 5, "Comb": 8}
    tree = ast.parse(
        "from .syntax import BOOL\n"
        "from . import fuzz\n"
        "import microhol.auto\n"
        "from ._accel import alpha_canon\n"
        "class Theorem:\n"
        "    def __repr__(self):\n"
        "        from .surface import print_sequent\n"
        "    def show(self):\n"
        "        from .surface import print_term\n"
    )
    assert _untrusted_imports(tree, {"syntax"}) == [
        ": _accel", ": auto", ": fuzz", "Theorem.show: surface",
    ]
    assert _scopes(tree, lambda n: "_accel" in _package_imports(n)) == {"": 4}
    tree = ast.parse(
        "from .audit import check_term\n"
        "import microhol.audit as a\n"
        "from . import audit\n"
        "from .auditing import x\n"
        "def f():\n"
        "    from microhol.audit import check_type\n"
    )
    assert _scopes(tree, lambda n: "audit" in _package_imports(n)) == {"": 1, "f": 6}
    assert sum("audit" in _package_imports(n) for n in ast.walk(tree)) == 4
    tree = ast.parse(
        "def forge(c): return kernel._mk((), c, False)\n"
        "def token(c): return Theorem((), c, _token=_RULE_TOKEN)\n"
        "def build(c): return kernel.Theorem((), c)\n"
        "def check(th): return isinstance(th, Theorem)\n"
        "class Var:\n"
        "    KIND = 0\n"
        "Const.KIND = 1\n"
    )
    assert sorted(_scopes(tree, _makes_theorems)) == ["build", "forge", "token"]
    assert _scopes(tree, _names("KIND")) == {"Var": 6, "": 7}
    tree = ast.parse(
        "@_traced\n"
        "def good(th): return _derive(th.assumptions, th.conclusion, th)\n"
        "@_traced\n"
        "def flag(th): return _mk((), th.conclusion, th.uses_infinity)\n"
        "@_traced\n"
        "def thy(th): return _mk((), th.conclusion, False, getattr(th, 'theory'))\n"
        "def helper(th): return th.theory\n"
    )
    assert _rules_reading_provenance(tree) == {"flag": 4, "thy": 6}
    tree = ast.parse(
        "class W:\n"
        "    def f(self): raise E('no')\n"
        "def g(m):\n"
        "    raise E\n"
        "def h(m): raise F(m) from E(m)\n"
        "def k(m): raise errors.E(m)\n"
    )
    assert _raises(tree, "E") == [("W.f", 2, "no"), ("g", 4, None), ("k", 6, None)]
    tree = ast.parse(
        "def main(argv):\n"
        "    try:\n"
        "        return run(argv)\n"
        "    except E:\n"
        "        return 2\n"
        "def cmd(args):\n"
        "    code = 2\n"
        "    if args.bad:\n"
        "        return 2\n"
        "    return 0 if args.ok else 1\n"
    )
    assert _scopes(tree, _returns_two) == {"main": 5, "cmd": 9}
    assert _handlers(tree) == {"main": 4}
    tree = ast.parse(
        "def tracing(log):\n"
        "    try:\n"
        "        yield log\n"
        "    finally:\n"
        "        log.clear()\n"
        "def inst(t):\n"
        "    try:\n"
        "        return walk(t)\n"
        "    except Clash:\n"
        "        raise\n"
    )
    assert _handlers(tree) == {"inst": 9}
    tree = ast.parse(
        "def walk(t, bound):\n"
        "    bound[t.bvar] = 0\n"
        "    return walk(t.body, bound)\n"
        "def scan(t, env, binders):\n"
        "    v = t.bvar\n"
        "    binders.append(v); walk(t.body, binders); binders.pop(); del env[v]\n"
        "def count(t, *, tenv): tenv[t.bvar] += 1\n"
        "def extend(t, uenv): return extend(t.body, {**uenv, t.bvar: 0})\n"
        "def match(p, tenv): tenv[p] = p\n"
        "def outer(t, bound):\n"
        "    def beta(env): env[0] = 1\n"
        "    return beta, t.bvar, bound\n"
        "def other(t, seen): seen[t.bvar] = 0\n"
        "def binder(v, body, binders):\n"
        "    binders.append(v); return walk(body, binders)\n"
        "def run(prog, env): env[0] = 1; return prog(env)\n"
    )
    assert _scope_writers(tree) == {"binder": 15, "count": 7, "scan": 6, "walk": 2}
