"""Every public definition of the package is reached by a run.

Every public module-level function and class in `src/voxevo`, and every
public method of those classes, must be used by the package itself or by
the benchmark in `perfbench/`, not by the tests alone. Matching is by name:
a definition counts as used when its name is read anywhere in those
sources, whichever object the read reaches, so a method shares its uses
with every other definition of that name. Uses are found in the syntax
tree, so a name in a comment, a docstring or an import does not count,
and neither does a use inside the name's own definition.

The package namespace is its modules: each name is imported from the
module that defines it, each name a module imports is read there, and each
module imports when it is the first of the package to be loaded.
"""

import ast
import importlib
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "voxevo"

# read by tools outside the package: population checkpoints are loaded for
# inspection and resumption
EXEMPT = {"load_population"}

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# every file that imports from the package
IMPORTERS = [p for folder in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
             for p in sorted(folder.glob("*.py"))]


class _Uses(ast.NodeVisitor):
    """Names read outside the definition of the same name."""

    def __init__(self):
        self.names: set[str] = set()
        self._defining: list[str] = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def _use(self, name: str):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def used_names() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    uses = _Uses()
    for path in sources:
        uses.visit(_parse(path))
    return uses.names


def public_definitions() -> list[tuple[str, str]]:
    """`(name, qualified name)` of each public module-level function and
    class of the package and each public method of those classes."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append((node.name, f"{path.stem}.{node.name}"))
            if isinstance(node, ast.ClassDef):
                found += [(item.name, f"{path.stem}.{node.name}.{item.name}")
                          for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def test_every_public_definition_is_used_outside_the_tests():
    defined = public_definitions()
    assert EXEMPT <= {name for name, _ in defined}
    used = used_names()
    unused = sorted(qualified for name, qualified in defined
                    if name not in used and name not in EXEMPT)
    assert unused == [], f"defined but reached only from tests: {unused}"


def module_definitions(module: str) -> set[str]:
    """The names `module` binds at its top level by a definition or an
    assignment; a name it imports is not its definition."""
    names = set()
    for node in _parse(PACKAGE / f"{module}.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def package_imports(path: pathlib.Path):
    """`(line, module, name)` of each name that `path` imports from the
    package, with `module` None for a name imported from the package itself."""
    for node in ast.walk(_parse(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        # a relative import is one from the package inside it
        relative = "voxevo." if node.level and path.parent == PACKAGE else ""
        package, _, module = (relative + (node.module or "")).rstrip(".").partition(".")
        if package == "voxevo":
            for alias in node.names:
                yield node.lineno, module or None, alias.name


def test_each_name_is_imported_from_its_defining_module():
    definitions = {name: module_definitions(name) for name in MODULES}
    checked, relayed = 0, []
    for path in IMPORTERS:
        for line, module, name in package_imports(path):
            checked += 1
            # a module imported from the package is its own definition
            defined = MODULES if module is None else definitions.get(module, set())
            if name not in defined:
                relayed.append(f"{path.relative_to(ROOT)}:{line}: {name} from {module}")
    assert checked > 100  # the walk reached the imports
    assert relayed == [], f"names imported from a module that does not define them: {relayed}"


def test_each_imported_name_is_read_where_it_is_imported():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unread.append(f"{path.name}:{node.lineno}: {bound}")
    assert unread == [], f"imported but never read: {unread}"


def test_package_namespace_binds_only_its_modules():
    package = importlib.import_module("voxevo")
    for name in MODULES:
        importlib.import_module(f"voxevo.{name}")
    public = {name: value for name, value in vars(package).items() if not name.startswith("_")}
    assert public == {name: sys.modules[f"voxevo.{name}"] for name in MODULES}


# without a facade that imports every module in one order, an import cycle
# would fail only the entry points that load one of its modules first
def test_each_module_imports_first():
    child = textwrap.dedent("""
        import importlib, sys
        sys.path.insert(0, sys.argv[1])
        for name in sys.argv[2:]:
            for loaded in [m for m in sys.modules if m.partition(".")[0] == "voxevo"]:
                del sys.modules[loaded]
            importlib.import_module(f"voxevo.{name}")
    """)
    proc = subprocess.run([sys.executable, "-c", child, str(PACKAGE.parent), *MODULES],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
