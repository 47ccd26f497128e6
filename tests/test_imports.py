"""Every imported name and every stored field is read, and no module reads another's private names.

The `ast` of each module of the package and of each test file is walked,
and a name that an import binds but no expression loads is an error.  The
package's `__init__.py` imports names to re-export them; those listed in
its `__all__` count as read.  Within the package, a module imports no
underscore name of another lbcalc module and reads none as an attribute.
A field or attribute that a package class stores is read by name as an
attribute somewhere in the package or the benchmark; tests do not count.
Nor do they count for functions and options: every public function, class
and method of the package is loaded by name in the package or the
benchmark, and every defaulted parameter is passed by some call there.
"""

import ast
import tomllib
from pathlib import Path

import lbcalc

PACKAGE = sorted(Path(lbcalc.__file__).parent.glob("*.py"))
SOURCES = PACKAGE + sorted(Path(__file__).parent.glob("*.py"))
ROOT = Path(__file__).parents[1]
BENCH = sorted((ROOT / "bench").glob("*.py"))


def dunder_all(tree: ast.Module) -> set:
    """The names a module lists in its `__all__`."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def unread_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    if path.name == "__init__.py":
        read |= dunder_all(tree)
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
    assert [hit for path in PACKAGE for hit in private_reads(path)] == []


def test_every_imported_name_is_read():
    assert len(SOURCES) > 20
    assert [hit for path in SOURCES for hit in unread_imports(path)] == []


def stored_fields(path: Path) -> list:
    """(class, name) of each field, class attribute and attribute set on self, dunders left out."""
    stored = []
    for cls in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = []
        for node in cls.body:
            if isinstance(node, ast.Assign):
                names += [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.append(node.target.id)
        names += [n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"]
        stored += [(cls.name, name) for name in names if not name.startswith("__")]
    return stored


def attribute_loads(path: Path) -> set:
    tree = ast.parse(path.read_text(), str(path))
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_stored_field_is_read():
    assert len(PACKAGE) > 10 and len(BENCH) >= 4
    read = set().union(*(attribute_loads(path) for path in PACKAGE + BENCH))
    unread = {f"{cls}.{name}" for path in PACKAGE for cls, name in stored_fields(path) if name not in read}
    assert sorted(unread) == []


def exported_names() -> set:
    """The package's `__all__` and the console entry that pyproject names."""
    names = dunder_all(ast.parse(Path(lbcalc.__file__).read_text()))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return names | {entry.rsplit(":", 1)[1] for entry in scripts.values()}


def public_definitions(path: Path) -> list:
    """(qualified name, name) of each public module-level function and class and of their public methods."""
    found = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [(f"{path.stem}.{node.name}.{m.name}", m.name) for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return found


def name_loads(path: Path) -> set:
    tree = ast.parse(path.read_text(), str(path))
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_public_function_and_method_is_loaded():
    read = exported_names().union(*(name_loads(path) | attribute_loads(path) for path in PACKAGE + BENCH))
    unread = {qual for path in PACKAGE for qual, name in public_definitions(path) if name not in read}
    assert sorted(unread) == []


# Parameters whose default only a test overrides, each kept as a seam for tests:
# `execute(out)` lets a test read the report from its own stream, and
# `main(argv)` lets a test run the command line without touching sys.argv.
TEST_SEAMS = {"cli.execute(out)", "cli.main(argv)"}


def defaulted_parameters(path: Path) -> list:
    """(callee, qualified name, parameter, position) for each defaulted parameter.

    The callee is the name a call uses: a function's or method's own name,
    or for `__init__` and for dataclass fields with a default, the class's.
    The position counts the call's positional arguments, after self or cls;
    keyword-only parameters and dataclass fields have none.
    """
    def params(fn, callee, qual, skip):
        a = fn.args
        pos = a.posonlyargs + a.args
        out = [(callee, qual, p.arg, i - skip) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
        return out + [(callee, qual, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]

    found = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef):
            found += params(node, node.name, f"{path.stem}.{node.name}", 0)
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                    callee = node.name if m.name == "__init__" else m.name
                    found += params(m, callee, f"{path.stem}.{node.name}.{m.name}", 0 if static else 1)
                elif isinstance(m, ast.AnnAssign) and m.value is not None and isinstance(m.target, ast.Name):
                    found.append((node.name, f"{path.stem}.{node.name}", m.target.id, None))
    return found


def passes(call: ast.Call, param: str, position) -> bool:
    """Whether a call passes the parameter; a *args or **kwargs call may pass anything."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg in (None, param) for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def test_every_defaulted_parameter_is_passed():
    calls = {}
    for path in PACKAGE + BENCH:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unpassed = {f"{qual}({param})" for path in PACKAGE for callee, qual, param, position in defaulted_parameters(path)
                if not any(passes(call, param, position) for call in calls.get(callee, ()))}
    assert sorted(unpassed) == sorted(TEST_SEAMS)
