"""Every global name a library module loads is defined there or in
builtins: an undefined-name check that needs only the standard library."""

import builtins
import dis
import importlib
import pkgutil
import types

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
