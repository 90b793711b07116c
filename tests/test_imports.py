"""Every import in a haarlab module is used by that module, and every
function, method and class it defines is referenced from the package, the
demos or the benchmark.

No linter ships with the toolchain, so these are the unused-import and
dead-definition checks.  `__init__.py` is exempt from the import check: its
imports are the package's re-exports.  One more check keeps the file
formats in `io`: no other module defines JSON code, and only `io` and
`cli` import a JSON library.  Another keeps the max-ratio fold in `opnorm`:
no other module calls a norm's certified bound, and `norms` imports neither
the synthesis nor the tie-break that scoring needs.  Another keeps scipy
off `import haarlab`: only `shift` imports it, and only inside a function.
Another keeps helper threads in one place: only `studies` imports the
thread machinery, and only its `helpers` imports concurrent.futures.  A
last one keeps one failure boundary in the CLI: in `cli`, only `main`
handles the input-file error `FormatError`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "haarlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# where a definition in src/haarlab must be referenced from: a definition
# that only tests reach is dead code
DEFINITION_DIRS = ("src", "demos", "perfbench")
# where a defaulted parameter of a definition in src/haarlab may be passed from
DEFAULT_DIRS = ("src", "tests", "demos", "perfbench")
# the benchmark tracer, which names the attributes it wraps as strings
TRACER = Path("perfbench", "tracing.py")


def _annotation_names(node: ast.AST):
    # a quoted annotation such as -> "StepFunction" names a type too
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield from _names(ast.parse(node.value, mode="eval"))


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield from _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield from _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            yield from _annotation_names(node.annotation)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = set(_names(tree))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\n" \
        "def f(x: 'Path') -> 'dumps':\n    return system.argv\n"
    assert unused_imports(source) == ["os (line 1)", "loads (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def _references(tree: ast.AST):
    """Names a module reads: bare or quoted in an annotation, as an
    attribute, or in a from-import."""
    yield from _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def string_names(source: str) -> set[str]:
    """The dotted parts of every string constant: the names in attribute
    paths, such as "CanonicalShift.to_general", that a module spells as text."""
    return {
        part
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
        if part.isidentifier()
    }


def unreferenced_definitions(
    defining: dict[str, str], others: list[str], named: set[str]
) -> list[str]:
    """Non-dunder definitions in `defining` (file name -> source) whose name
    no module in `defining` or `others` references and `named` lacks."""
    trees = {name: ast.parse(source) for name, source in defining.items()}
    used = set(named)
    for tree in [*trees.values(), *map(ast.parse, others)]:
        used.update(_references(tree))
    return sorted(
        f"{file}:{line} {name}"
        for file, tree in trees.items()
        for name, line in _definitions(tree)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )


def test_checker_flags_an_unreferenced_definition():
    defining = {
        "m.py": "class A:\n    def used(self): pass\n    def dead(self): pass\n"
        "    def __repr__(self): pass\ndef helper(): pass\ndef orphan(): pass\n"
        "def f() -> 'A':\n    return helper()\n",
    }
    others = ["from m import f\nf().used()\n"]
    assert unreferenced_definitions(defining, others, set()) == ["m.py:3 dead", "m.py:6 orphan"]


def package_definitions(root: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted((root / "src" / "haarlab").glob("*.py"))}


def reference_sources(root: Path, dirs: tuple[str, ...]) -> list[str]:
    """The sources under `dirs` of `root`, outside the package itself."""
    package = root / "src" / "haarlab"
    return [
        p.read_text() for d in dirs for p in sorted((root / d).rglob("*.py")) if p.parent != package
    ]


def dead_definitions(root: Path) -> list[str]:
    """Package definitions that neither the package, the demos nor the
    benchmark references, by name or by the tracer's attribute paths."""
    return unreferenced_definitions(
        package_definitions(root),
        reference_sources(root, DEFINITION_DIRS),
        string_names((root / TRACER).read_text()),
    )


def test_references_from_tests_do_not_count(tmp_path):
    sources = {
        "src/haarlab/m.py": "def used(): pass\ndef traced(): pass\ndef tested(): pass\n",
        "demos/d.py": "from haarlab.m import used\nused()\n",
        "perfbench/tracing.py": 'TARGETS = [("m", f"{1}.traced")]\n',
        "tests/test_m.py": "from haarlab.m import tested\ntested()\n",
    }
    for name, source in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    assert dead_definitions(tmp_path) == ["m.py:3 tested"]


def test_no_unreferenced_definitions():
    assert dead_definitions(ROOT) == []


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _defaulted_parameters(tree: ast.AST):
    """(call name, line, parameter, position or None) for every defaulted
    parameter.  A method's bound first argument is not counted as a position,
    and `__init__` is called by its class name."""
    for cls in [None, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        body = tree.body if cls is None else cls.body
        for fn in body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            bound = 1 if cls is not None and not static else 0
            positional = [*fn.args.posonlyargs, *fn.args.args][bound:]
            name = cls.name if cls is not None and fn.name == "__init__" else fn.name
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(fn.args.defaults):
                    yield name, fn.lineno, arg.arg, i
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, fn.lineno, arg.arg, None


def unpassed_defaults(defining: dict[str, str], others: list[str]) -> list[str]:
    """Defaulted parameters of functions in `defining` (file name -> source)
    that no call in `defining` or `others` passes, by keyword or by position.
    Calls match by bare or attribute name; a call with *args or **kwargs
    passes every parameter."""
    trees = {name: ast.parse(source) for name, source in defining.items()}
    passed: dict[str, list[tuple[float, set[str]]]] = {}
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or _call_name(call) is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            )
            n_pos = float("inf") if starred else len(call.args)
            passed.setdefault(_call_name(call), []).append(
                (n_pos, {k.arg for k in call.keywords})
            )
    return sorted(
        f"{file}:{line} {name}({param})"
        for file, tree in trees.items()
        for name, line, param, pos in _defaulted_parameters(tree)
        if not any(
            param in keys or n_pos == float("inf") or (pos is not None and n_pos > pos)
            for n_pos, keys in passed.get(name, [])
        )
    )


def test_checker_flags_an_unpassed_default():
    defining = {
        "m.py": "class A:\n    def __init__(self, x, y=1): pass\n"
        "    def run(self, a, b=2, *, c=3): pass\n"
        "def f(p, q=1, r=2): pass\ndef g(s=0): pass\ndef h(t=0): pass\n",
    }
    others = [
        "from m import A, f, g, h\nA(0).run(1, c=4)\nf(0, 1)\nargs = ()\n"
        "g(*args)\nh\n",
    ]
    assert unpassed_defaults(defining, others) == [
        "m.py:2 A(y)", "m.py:3 run(b)", "m.py:4 f(r)", "m.py:6 h(t)",
    ]


def test_no_unpassed_defaults():
    others = reference_sources(ROOT, DEFAULT_DIRS)
    assert unpassed_defaults(package_definitions(ROOT), others) == []


# the one module that knows the file formats, and the modules that may
# import a JSON library (cli writes its reports and manifests with json)
FORMAT_OWNER = "io.py"
JSON_IMPORTERS = ("io.py", "cli.py")


def json_definitions(source: str) -> list[str]:
    """Functions and methods, and module or class constants, whose name
    contains "json"."""
    tree = ast.parse(source)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        for node in scope.body:
            targets = [*getattr(node, "targets", []), getattr(node, "target", None)]
            found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.lineno))
    return [f"{name} (line {line})" for name, line in sorted(found, key=lambda x: x[1])
            if "json" in name.lower()]


def json_imports(source: str) -> list[str]:
    """Imports of json or orjson, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append((node.module, node.lineno))
    return [f"{name} (line {line})" for name, line in sorted(found, key=lambda x: x[1])
            if name.split(".")[0] in ("json", "orjson")]


def test_checker_flags_json_code():
    source = "import json, os\nfrom orjson import loads\nNODE_JSON = 1\nclass A:\n" \
        "    def to_json(self): pass\n    x_json: int = 2\n" \
        "def f():\n    import orjson.x\n    local_json = 3\n"
    assert json_definitions(source) == [
        "NODE_JSON (line 3)", "to_json (line 5)", "x_json (line 6)",
    ]
    assert json_imports(source) == ["json (line 1)", "orjson (line 2)", "orjson.x (line 8)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_io_knows_file_formats(path):
    source = path.read_text()
    if path.name != FORMAT_OWNER:
        assert json_definitions(source) == []
    if path.name not in JSON_IMPORTERS:
        assert json_imports(source) == []


# the one module that scores rows against a running maximum, and the names
# that only it may call or import to do so
FOLD_OWNER = "opnorm.py"


def called_names(source: str) -> set[str]:
    """The bare or attribute names of every call."""
    return {
        name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (name := _call_name(node)) is not None
    }


def imported_names(source: str) -> set[str]:
    """The names bound by every from-import."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_checker_flags_fold_code():
    source = "from .martingale import first_max as fm, synthesize_rows\n" \
        "def f(spec, B, mu):\n    return spec.upper_rows(B, mu), upper_rows(B)\n"
    assert called_names(source) == {"upper_rows"}
    assert imported_names(source) == {"first_max", "synthesize_rows"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_opnorm_scores_rows_against_a_maximum(path):
    source = path.read_text()
    if path.name != FOLD_OWNER:
        assert "upper_rows" not in called_names(source)
    if path.name == "norms.py":
        assert {"synthesize_rows", "first_max"}.isdisjoint(imported_names(source))


# the one module that may import scipy, and only inside a function body:
# scipy costs a cold start about 0.3 s, which commands that apply no shift
# need not pay
SCIPY_IMPORTER = "shift.py"


def imports_of(source: str, roots: tuple[str, ...]) -> list[tuple[str, int, str | None]]:
    """(module, line, function) for every import of a module under `roots`;
    function is the name of the innermost function body the import is in,
    or None where it runs when the module is imported."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module and not child.level:
                names = [child.module]
            found.extend((name, child.lineno, function) for name in names
                         if name.split(".")[0] in roots)
            function_body = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if function_body else function)

    visit(ast.parse(source), None)
    return found


def test_checker_flags_scipy_imports():
    source = "import os, scipy\nif True:\n    from scipy.linalg import svd\n" \
        "class A:\n    import scipy.sparse as sp\n    def f(self):\n" \
        "        import scipy.sparse as sp\ndef g():\n    from scipy import linalg\n" \
        "from .scipy import x\n"
    assert imports_of(source, ("scipy",)) == [
        ("scipy", 1, None), ("scipy.linalg", 3, None), ("scipy.sparse", 5, None),
        ("scipy.sparse", 7, "f"), ("scipy", 9, "g"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_shift_imports_scipy_and_only_on_use(path):
    found = imports_of(path.read_text(), ("scipy",))
    if path.name != SCIPY_IMPORTER:
        assert found == []
    assert [(name, line) for name, line, function in found if function is None] == []


# the one function that starts threads, `studies.helpers`, and the modules
# that only its module may import: concurrent.futures loads logging, queue
# and traceback, so it is imported inside `helpers` alone
THREAD_OWNER = ("studies.py", "helpers")
THREAD_MODULES = ("concurrent", "contextvars", "threading")


def test_checker_flags_thread_imports():
    source = "import contextvars, threading as th\nfrom concurrent.futures import Future\n" \
        "def f():\n    from concurrent import futures\n    import queue\n"
    assert imports_of(source, THREAD_MODULES) == [
        ("contextvars", 1, None), ("threading", 1, None), ("concurrent.futures", 2, None),
        ("concurrent", 4, "f"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_helpers_import_a_thread_pool(path):
    found = imports_of(path.read_text(), THREAD_MODULES)
    owner, function = THREAD_OWNER
    if path.name != owner:
        assert found == []
    pools = {scope for name, _, scope in found if name.split(".")[0] == "concurrent"}
    assert pools == ({function} if path.name == owner else set())


# the one function of `cli` that turns an unreadable input file into its
# exit code: a handler elsewhere would repeat that rule
FORMAT_ERROR_HANDLER = ("cli.py", "main")


def format_error_handlers(source: str) -> list[tuple[int, str | None]]:
    """(line, function) for every `except` clause whose exception names
    FormatError, bare or as an attribute; function is the name of the
    innermost function body the clause is in, or None."""
    found = []

    def names_format_error(expr: ast.AST | None) -> bool:
        return expr is not None and any(
            (isinstance(n, ast.Name) and n.id == "FormatError")
            or (isinstance(n, ast.Attribute) and n.attr == "FormatError")
            for n in ast.walk(expr)
        )

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and names_format_error(child.type):
                found.append((child.lineno, function))
            function_body = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if function_body else function)

    visit(ast.parse(source), None)
    return found


def test_checker_flags_format_error_handlers():
    source = "try:\n    pass\nexcept hio.FormatError:\n    pass\n" \
        "def f():\n    try:\n        pass\n    except (ValueError, FormatError) as e:\n" \
        "        pass\n    except ValueError:\n        pass\n" \
        "class A:\n    def g(self):\n        try:\n            pass\n        except:\n" \
        "            pass\n        except io.FormatErrorish:\n            pass\n"
    assert format_error_handlers(source) == [(3, None), (8, "f")]


def test_only_main_handles_format_errors():
    path, function = FORMAT_ERROR_HANDLER
    found = format_error_handlers((SRC / path).read_text())
    assert [scope for _, scope in found] == [function]
