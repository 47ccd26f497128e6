"""Every imported name is read.

The `ast` of each module of the package and of each test file is walked,
and a name that an import binds but no expression loads is an error.  The
package's `__init__.py` imports names to re-export them; those listed in
its `__all__` count as read.
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


def test_every_imported_name_is_read():
    assert len(SOURCES) > 20
    assert [hit for path in SOURCES for hit in unread_imports(path)] == []
