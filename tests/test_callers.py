"""Every function, method and property defined in src/ has a reader outside
tests/.

A name search over the syntax trees of src/, demos/, tools/ and
perfbench/, test files left out. A module-level function counts as read
when its name is loaded there, as a plain name or an attribute
(`encode_frame(...)`, `protocol.encode_frame`); a method or property only
when it is loaded as an attribute (`ledger.advance`), so a local variable
named like a property reads nothing. A load inside a function or method of
the package counts only once that definition is read itself, so a name read
only by unread code, or only by its own body, is unread; the check iterates
to a fixed point. A name in perfbench/spans.py's ENTRY_POINTS, which wraps
entry points by their string names, counts as read. Imports and __all__
entries are not reads. Dunder methods, which the interpreter calls, are not
checked, and what they load counts.

What the check still misses: a definition is matched by its name, not by
its owner, so a test-only method or property named like an attribute that
other code loads (a field of another class, say) passes.

A name that only tests read either moves into the tests or is kept in
KEPT with the reason it is API.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
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
    "SimEvent.live": "read only by the kept EventQueue.peek_time and pending: whether an "
                     "event will run, the one test of a superseded event outside pop_due, "
                     "which inlines it on the per-event path",
    "RngStream.uniform": "the stream's documented draw (the class docstring); tests pin "
                         "it to random.Random and check that sigma 0 consumes none",
    "decode_frame": "the documented codec, exported in __all__: the inverse of "
                    "encode_frame for anyone reading the wire bytes; tests round-trip "
                    "every frame kind through it",
}


def _parts(tree: ast.Module) -> Iterator[tuple[str | None, ast.AST]]:
    """Each top-level part of tree, a class's parts taken one by one, with
    the qualified name of the checked definition it is: a module-level
    function, or a method or property of a module-level class, but no
    dunder method. None for any other part."""
    def checked(node: ast.AST) -> bool:
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__") and node.name.endswith("__")))

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for part in ast.iter_child_nodes(node):
                yield (f"{node.name}.{part.name}" if checked(part) else None), part
        else:
            yield (node.name if checked(node) else None), node


def _definitions_in(tree: ast.Module) -> dict[str, str]:
    """Each checked definition of tree: its qualified name, by its name."""
    return {qualified: qualified.rsplit(".", 1)[-1]
            for qualified, _ in _parts(tree) if qualified is not None}


def _definitions() -> dict[str, str]:
    found: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _definitions_in(ast.parse(path.read_text()))
    return found


Loads = dict[str | None, set[tuple[bool, str]]]


def _loads_in(tree: ast.Module, package: bool) -> Loads:
    """The names loaded in tree, as (loaded as an attribute, name), by the
    checked definition they are loaded in if tree is a package module, else
    by None: a load under None counts always."""
    loads: Loads = {}
    for owner, part in _parts(tree):
        names = loads.setdefault(owner if package else None, set())
        for node in ast.walk(part):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add((False, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add((True, node.attr))
    return loads


def _unread(definitions: dict[str, str], loads: list[Loads], entry_points: set[str]) -> list[str]:
    """The definitions nothing reads: a load counts when it is outside every
    checked definition, or inside one already found read; repeated until no
    more are found."""
    read: set[str] = set()
    while True:
        plain, attributes = set(entry_points), set(entry_points)
        for found in loads:
            for owner, names in found.items():
                if owner is None or owner in read:
                    for is_attribute, name in names:
                        (attributes if is_attribute else plain).add(name)
        now_read = {qualified for qualified, name in definitions.items()
                    if name in attributes or ("." not in qualified and name in plain)}
        if now_read == read:
            return sorted(set(definitions) - read)
        read = now_read


def _entry_point_names() -> set[str]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "ENTRY_POINTS"
                for target in node.targets):
            return {entry.elts[2].value for entry in node.value.elts}
    raise AssertionError(f"no ENTRY_POINTS in {SPANS}")


def unread_definitions() -> list[str]:
    loads = []
    for directory in READER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            loads.append(_loads_in(ast.parse(path.read_text()), path.parent == PACKAGE))
    return _unread(_definitions(), loads, _entry_point_names())


def test_every_definition_has_a_reader_outside_the_tests():
    unread = [name for name in unread_definitions() if name not in KEPT]
    assert unread == [], "read only by tests: move them into the tests, or give a reason in KEPT"


def test_every_kept_name_is_defined_and_still_unread():
    definitions = _definitions()
    assert set(KEPT) <= set(definitions)
    assert set(KEPT) <= set(unread_definitions())


def _unread_in(source: str) -> list[str]:
    tree = ast.parse(source)
    return _unread(_definitions_in(tree), [_loads_in(tree, True)], set())


def test_a_name_read_only_in_its_own_body_or_imported_is_unread():
    assert _unread_in("from ledger import orphan, spent, used\n"
                      "class Ledger:\n    def spent(self):\n        return self.spent()\n"
                      "    def used(self):\n        return 0\n"
                      "def orphan():\n    return 0\n"
                      "def total(ledger):\n    return ledger.used()\n"
                      "print(total)\n") == ["Ledger.spent", "orphan"]


def test_a_method_is_read_only_as_an_attribute():
    assert _unread_in("class Event:\n    @property\n    def live(self):\n        return 1\n"
                      "def integrate():\n    live = 0\n    return live\n"
                      "integrate()\n") == ["Event.live"]


def test_a_load_in_an_unread_definition_reads_nothing():
    assert _unread_in("def start():\n    return middle()\n"
                      "def middle():\n    return Event().live\n"
                      "def orphan():\n    return Event().dead\n"
                      "class Event:\n    @property\n    def live(self):\n        return 1\n"
                      "    @property\n    def dead(self):\n        return 0\n"
                      "start()\n") == ["Event.dead", "orphan"]
