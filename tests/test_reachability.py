"""Every public function, class and method of the package is run by a
command or by the benchmark: code that only the tests call belongs in the
tests. A public name passes when some code in ``src/dsae`` outside its own
definition, or in ``perfbench/*.py``, refers to it; the benchmark's tracer
refers to its targets by ``"module:attribute"`` strings. Names are matched
by their identifier alone, so a method passes when any attribute of that
name is read."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dsae").rglob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
TARGET = re.compile(r"dsae(?:\.\w+)*:(\w+)")

# analyses the ROADMAP plans to wire into a command, with the item that will
ALLOWED = {
    "dsae.normalize:pos_tag": "ROADMAP item 3, POS tags",
    "dsae.evaluate:cohen_kappa": "ROADMAP item 7, wire in the analyses",
    "dsae.evaluate:paired_t_test": "ROADMAP item 7, compare",
    "dsae.pipeline:error_propagation_check": "ROADMAP item 7, wire in the analyses",
}


def _module(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions():
    """(module:name, defining node) of every public module-level function
    and class, and of every public method, as module:Class.method."""
    for path in SOURCES:
        module = _module(path)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                yield f"{module}:{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield f"{module}:{node.name}.{item.name}", item


def _references(tree: ast.AST) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(TARGET.findall(node.value))
    return found


def unreferenced() -> list[str]:
    everywhere = Counter()
    for path in SOURCES + BENCHMARK:
        everywhere += _references(ast.parse(path.read_text(encoding="utf-8")))
    return [qualified for qualified, node in definitions()
            if everywhere[node.name] <= _references(node)[node.name]]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert [name for name in unreferenced() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_unreferenced():
    """An analysis that gets wired in leaves the allowlist."""
    defined = {name for name, _ in definitions()}
    unwired = set(unreferenced())
    assert [name for name in ALLOWED if name not in defined or name not in unwired] == []
