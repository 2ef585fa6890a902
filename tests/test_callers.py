"""Every function, method and property defined in src/ has a reader outside
tests/.

A name search over the syntax trees: a definition counts as read when its
name is loaded (a call, an attribute read, a reference) somewhere in src/,
demos/, tools/ or perfbench/, outside test files and outside its own body,
or when it is named in perfbench/spans.py's ENTRY_POINTS, which wraps entry
points by their string names. Imports and __all__ entries are not reads.
Dunder methods, which the interpreter calls, are not checked.

A name that only tests read either moves into the tests or is kept in
KEPT with the reason it is API.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wsn_pathosim"
READER_DIRS = ("src", "demos", "tools", "perfbench")
SPANS = ROOT / "perfbench" / "spans.py"

# Definitions that only tests read, kept on purpose.
KEPT = {
    "EventQueue.peek_time": "the stepping API: the time of the next live event, which "
                            "tests read to step a queue by hand to a limit",
    "EventQueue.pending": "the stepping API, and with SimEvent.live, which it reads, the "
                          "oracle for Simulation.frames_in_flight and for len(queue)",
    "RngStream.uniform": "the stream's documented draw (the class docstring); tests pin "
                         "it to random.Random and check that sigma 0 consumes none",
    "decode_frame": "the documented codec, exported in __all__: the inverse of "
                    "encode_frame for anyone reading the wire bytes; tests round-trip "
                    "every frame kind through it",
}


def _definitions() -> dict[str, str]:
    """Each module-level function, and each method or property of a
    module-level class, of the package: its qualified name, by its name."""
    found: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        found[f"{node.name}.{item.name}"] = item.name
    return found


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names loaded in tree, as plain names or attributes. A definition's
    own body does not read its name."""
    names: set[str] = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names |= _loaded_names(node) - {node.name}
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        names |= _loaded_names(node)
    return names


def _entry_point_names() -> set[str]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "ENTRY_POINTS"
                for target in node.targets):
            return {entry.elts[2].value for entry in node.value.elts}
    raise AssertionError(f"no ENTRY_POINTS in {SPANS}")


def _readers() -> set[str]:
    names = _entry_point_names()
    for directory in READER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            names |= _loaded_names(ast.parse(path.read_text()))
    return names


def unread_definitions() -> list[str]:
    readers = _readers()
    return sorted(qualified for qualified, name in _definitions().items()
                  if name not in readers)


def test_every_definition_has_a_reader_outside_the_tests():
    unread = [name for name in unread_definitions() if name not in KEPT]
    assert unread == [], "read only by tests: move them into the tests, or give a reason in KEPT"


def test_every_kept_name_is_defined_and_still_unread():
    definitions = _definitions()
    assert set(KEPT) <= set(definitions)
    assert set(KEPT) <= set(unread_definitions())


def test_a_name_read_only_in_its_own_body_or_imported_is_unread():
    tree = ast.parse("from ledger import spent, used\n"
                     "class Ledger:\n    def spent(self):\n        return self.spent()\n"
                     "    def used(self):\n        return 0\n"
                     "def total(ledger):\n    return ledger.used()\n")
    assert _loaded_names(tree) == {"ledger", "self", "used"}
