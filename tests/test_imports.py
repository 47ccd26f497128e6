"""Every imported name is read, and no module reads another's private names.

The `ast` of each module of the package and of each test file is walked,
and a name that an import binds but no expression loads is an error.  The
package's `__init__.py` imports names to re-export them; those listed in
its `__all__` count as read.  Within the package, a module imports no
underscore name of another lbcalc module and reads none as an attribute.
"""

import ast
from pathlib import Path

import lbcalc

SOURCES = sorted(Path(lbcalc.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


def unread_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    if path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} imports {name}" for name, line in bound.items() if name not in read]


def private_reads(path: Path) -> list:
    tree = ast.parse(path.read_text(), str(path))
    modules, hits = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("lbcalc")):
            for alias in node.names:
                if node.module is None or node.module == "lbcalc":  # from . import catalog
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    hits.append(f"{path.name}:{node.lineno} imports {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            hits.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return hits


def test_no_module_reads_another_modules_private_names():
    package = sorted(Path(lbcalc.__file__).parent.glob("*.py"))
    assert [hit for path in package for hit in private_reads(path)] == []


def test_every_imported_name_is_read():
    assert len(SOURCES) > 20
    assert [hit for path in SOURCES for hit in unread_imports(path)] == []
