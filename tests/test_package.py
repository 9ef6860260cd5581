"""The package surface: lazy exports, and no cache outside the modules that
every CLI call loads."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

import substal

# Every functools cache reachable from the loaded substal modules and their
# classes, found the way verdictbench/spans.find_caches finds them, first
# after `import substal.cli` and again after importing every module.
_CACHES = """
import importlib, json, pkgutil, sys
import substal.cli

def caches():
    found = set()
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "substal"
                                  or key.startswith("substal.")):
            continue
        for value in list(vars(module).values()):
            members = [value]
            if isinstance(value, type):
                members += list(vars(value).values())
            for obj in members:
                if callable(getattr(obj, "cache_clear", None)):
                    found.add("%s.%s" % (getattr(obj, "__module__", key),
                                         getattr(obj, "__qualname__", "?")))
    return sorted(found)

first = caches()
for info in pkgutil.iter_modules(substal.__path__, "substal."):
    importlib.import_module(info.name)
print(json.dumps([first, caches()]))
"""


def test_every_cache_is_loaded_with_the_cli():
    """A benchmark (or any caller) that empties the caches it finds after
    importing substal.cli empties all of them: no cache lives in a module
    that a command loads later."""
    proc = subprocess.run([sys.executable, "-c", _CACHES],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    on_import, everything = json.loads(proc.stdout)
    assert "substal.monoid.monoid_table" in on_import
    assert "substal.monoid.generators" in on_import
    assert on_import == everything


def test_generator_symbols_are_built_once_per_cache_fill():
    """generators gives one tuple per (n, mode) until its cache is
    emptied, and a fresh one after, equal to the first."""
    from substal.monoid import generators
    first = generators(3, "full")
    assert isinstance(first, tuple) and generators(3, "full") is first
    generators.cache_clear()
    again = generators(3, "full")
    assert again is not first and again == first
    assert all(hash(g) == hash(h) for g, h in zip(first, again))


def test_exports_are_the_objects_their_modules_define():
    for name in substal.__all__:
        value = getattr(substal, name)
        home = getattr(value, "__module__", None)
        if name == "MODES":            # a tuple, with no home of its own
            home = "substal.monoid"
        assert value is getattr(sys.modules[home], name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from substal import *", namespace)
    assert set(substal.__all__) <= set(namespace)
    for name in substal.__all__:
        assert namespace[name] is getattr(substal, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        substal.no_such_name
    assert not hasattr(substal, "no_such_name")


def test_submodules_import_through_the_package():
    code = ("import sys, substal\n"
            "assert not [m for m in sys.modules if m.startswith('substal.')]\n"
            "from substal import terms\n"
            "assert terms is sys.modules['substal.terms']\n"
            "assert substal.parse is terms.parse\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _substal_imports(tree):
    """(node, module) for each import of a substal module in a parsed
    module of the package, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node, node.module.split(".")[0]
            elif node.level == 1:
                for alias in node.names:
                    yield node, alias.name
            elif (node.module or "").startswith("substal."):
                yield node, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("substal."):
                    yield node, alias.name.split(".")[1]


def test_modules_import_in_layers():
    """Only cli imports substal modules inside functions (each command
    loads what it needs), and the imports between modules, wherever they
    stand, have no cycle."""
    graph, local = {}, []
    for path in sorted(pathlib.Path(substal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        graph[path.stem] = set()
        for node, module in _substal_imports(tree):
            graph[path.stem].add(module)
            if id(node) not in top and path.stem != "cli":
                local.append((path.stem, module, node.lineno))
    assert not local
    done, path = set(), []

    def visit(name):
        assert name not in path, "import cycle: %s" % " -> ".join(
            path[path.index(name):] + [name])
        if name not in done:
            path.append(name)
            for dep in sorted(graph.get(name, ())):
                visit(dep)
            path.pop()
            done.add(name)

    for name in graph:
        visit(name)
    assert graph["logic"] == {"monoid", "terms"}
    assert graph["setalg"] == {"monoid"}
    assert graph["frames"] == {"monoid", "setalg"}
    assert graph["represent"] == {"monoid", "setalg", "frames"}
