"""Every public module-level function and class of ``src/multigram`` has a
caller in the program: in the package, outside its own definition and
``__init__.py``, in ``scripts/`` or in ``perfbench/``.  A helper that only
tests call belongs in ``tests/``."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multigram"


def used_names(tree: ast.AST) -> set[str]:
    """The identifiers ``tree`` uses: names, attributes, imported names, and
    strings that are one identifier (the benchmark's tracer looks functions
    up by name)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and str(node.value).isidentifier():
            names.add(node.value)
    return names


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_library_name_has_a_program_caller():
    modules = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    callers = [
        (statement, used_names(statement))
        for path, tree in modules.items() if path.name != "__init__.py"
        for statement in tree.body
    ]
    for path in sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        tree = parse(path)
        callers.append((tree, used_names(tree)))
    uncalled = [
        f"{path.stem}.{node.name}"
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for caller, names in callers if caller is not node)
    ]
    assert uncalled == []
