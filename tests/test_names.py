"""Every global name a library module loads is defined there or in
builtins: an undefined-name check that needs only the standard library.
The top-level package exports exactly what its callers outside the
package take from it, every library name the benchmark's tracer wraps
exists, every library definition has a reference somewhere, no library
line is longer than 120 columns, and importing the library loads none of
the heavy introspection modules."""

import ast
import builtins
import dis
import importlib
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import doctrines

MODULES = ["doctrines"] + sorted(
    f"doctrines.{m.name}" for m in pkgutil.iter_modules(doctrines.__path__) if m.name != "__main__"
)


def global_loads(code):
    """Names loaded by LOAD_GLOBAL in `code` and every code object nested in it."""
    for ins in dis.get_instructions(code):
        if ins.opname == "LOAD_GLOBAL":
            yield ins.argval
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from global_loads(const)


@pytest.mark.parametrize("name", MODULES)
def test_global_names_defined(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        code = compile(fh.read(), module.__file__, "exec")
    namespace = vars(module)
    undefined = sorted({n for n in global_loads(code) if n not in namespace and not hasattr(builtins, n)})
    assert undefined == []


ROOT = Path(__file__).resolve().parents[1]


def top_level_names(tree):
    """Names taken from the top-level package by ``from doctrines import``
    or as ``doctrines.<name>``; dunders such as ``__file__`` are not API."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "doctrines" and node.level == 0:
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "doctrines" and not node.attr.startswith("__")):
            yield node.attr


def test_all_is_what_callers_use():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n+```python\n(.*?)```", readme, re.S).group(1)
    sources = [sketch] + [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = {name for source in sources for name in top_level_names(ast.parse(source))}
    assert len(doctrines.__all__) == len(set(doctrines.__all__))
    assert set(doctrines.__all__) == used
    assert all(hasattr(doctrines, name) for name in used)


def test_traced_names_exist():
    """Each (module, class, attribute) in ``perfbench/spans.py``'s SPANS is
    where the tracer looks it up: a name of the module, or an attribute
    defined on the class itself."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPANS"])
    missing = []
    for mod_name, owner, attr in spans:
        module = importlib.import_module(f"doctrines.{mod_name}")
        where = vars(module) if owner is None else vars(getattr(module, owner, object))
        if attr not in where:
            missing.append((mod_name, owner, attr))
    assert spans and missing == []


def referenced_names(tree, strings=False):
    """Names and attribute names `tree` refers to; with `strings`, also its
    string constants that are identifiers (getattr lists, the tracer's
    SPANS)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def test_every_definition_is_referenced():
    """Each function, method and class defined in the library is referred
    to, by name or as an attribute, in the library, the tests, the
    benchmark or the README's python blocks.  Special methods are called by
    Python itself and are exempt."""
    library = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "src" / "doctrines").glob("*.py")}
    others = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = set()
    for tree in library.values():
        used.update(referenced_names(tree))
    for path in others:
        used.update(referenced_names(ast.parse(path.read_text(encoding="utf-8")), strings=True))
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used.update(referenced_names(ast.parse(block)))
    unreferenced = []
    for name, tree in sorted(library.items()):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in used):
                unreferenced.append(f"{name}:{node.lineno} {node.name}")
    assert unreferenced == []


def test_library_lines_fit():
    """No line of the library runs over 120 columns, so a change cannot
    shorten a module by joining lines."""
    long_lines = [
        f"{path.name}:{n} ({len(line)} columns)"
        for path in sorted((ROOT / "src" / "doctrines").glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 120
    ]
    assert long_lines == []


def test_every_canonical_map_is_memo_checked():
    """Each structure map memoized with ``fincat._canonical`` is named in
    ``tests/test_fincat.py::TestCanonicalMemo``, whose tests hold it equal
    to a fresh build and shared between requests."""
    tests = ast.parse((ROOT / "tests" / "test_fincat.py").read_text(encoding="utf-8"))
    memo_tests = next(node for node in tests.body
                      if isinstance(node, ast.ClassDef) and node.name == "TestCanonicalMemo")
    checked = set(referenced_names(memo_tests, strings=True))
    canonical = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted((ROOT / "src" / "doctrines").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(getattr(d, "id", getattr(d, "attr", None)) == "_canonical" for d in node.decorator_list)
    ]
    assert canonical and [c for c in canonical if c.split()[1] not in checked] == []


# what ``dataclasses`` pulls in; no hot path of the library needs any of it
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def loaded_modules(code, names):
    """Which of `names` are in ``sys.modules`` after running `code` in a
    bare interpreter (``-S``, no site packages) that imports from this
    source tree.  The answer is the last line printed, after any output
    of `code`."""
    src = str(Path(doctrines.__file__).resolve().parents[1])
    script = f"import sys; sys.path.insert(0, {src!r}); {code}; print(' '.join(m for m in {names!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1].split()


def test_import_footprint():
    """``import doctrines, doctrines.cli`` loads none of the heavy
    introspection modules, which a cold command-line call would otherwise
    pay for.  ``import doctrines`` loads neither the file-input layer nor
    ``json``, and a law run from the command line leaves the file-input
    layer unloaded; a command that reads a doctrine file loads it."""
    assert loaded_modules("import doctrines, doctrines.cli", HEAVY) == []
    assert loaded_modules("import doctrines", ("doctrines.tables", "json")) == []
    law_run = ("import doctrines.cli; assert doctrines.cli.main(['--json', 'verify-laws', '--suite', 'duality', "
               "'--max-card', '1', '--no-timing']) == 0")
    assert loaded_modules(law_run, ("doctrines.tables",)) == []
    check_run = "import doctrines.cli; assert doctrines.cli.main(['check-doctrine', '{}']) == 3"
    assert loaded_modules(check_run, ("doctrines.tables",)) == ["doctrines.tables"]
