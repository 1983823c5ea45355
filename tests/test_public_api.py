"""The package exports only what a run reaches.

Every function and class that `voxevo/__init__.py` re-exports must be used
by the package itself or by the benchmark in `perfbench/`, not by the tests
alone. Uses are found in the syntax tree, so a name in a comment, a docstring
or an import does not count, and neither does a use inside the name's own
definition.
"""

import ast
import inspect
import pathlib

import voxevo

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "voxevo"

# read by tools outside the package: population checkpoints are loaded for
# inspection and resumption, and config text is parsed without a file
EXEMPT = {"load_population", "parse_config"}


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


def used_names() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    uses = _Uses()
    for path in sources:
        uses.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return uses.names


def reexported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    return [name for name in names
            if inspect.isfunction(getattr(voxevo, name))
            or inspect.isclass(getattr(voxevo, name))]


def test_every_reexported_function_and_class_is_used_outside_the_tests():
    exported = reexported()
    assert EXEMPT <= set(exported)
    unused = sorted(set(exported) - used_names() - EXEMPT)
    assert unused == [], f"re-exported but reached only from tests: {unused}"
