"""Every public name in the package is reached by something besides unit tests.

A public top-level function or class has to appear as a name token, and a
public method, property, nested class or class attribute as an attribute
access ``.name``, in the package outside its own definition, in the
benchmark scripts (``bench/*.py``) or in the acceptance suite; the traced
``TARGETS`` strings of ``bench/tracer.py`` reach every name they spell.
A member's bare name does not reach it: a local variable or argument of
the same name is no use of the member.  Dataclass fields are left out:
``asdict`` and f-strings read them, which a token scan does not see.  A
name that only unit tests reach is dead weight; the names a planned
ROADMAP item will wire in are reserved below.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spectral_transfer"

# name -> the ROADMAP item that will reach it
RESERVED = {
    "sampling_setting": "item 4",
    "random_sampled_laplacian": "item 4",
    "two_graph_error": "item 4",
    "nonasymptotic_filter_bound": "item 4",
}


def _name_tokens(path: Path) -> list:
    """``(name, line, attribute)`` of every NAME token of a Python file,
    ``attribute`` when a ``.`` comes right before it."""
    found, previous = [], None
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type == tokenize.NAME:
            found.append((token.string, token.start[0], previous == "."))
        previous = token.string
    return found


def _definitions(path: Path) -> list:
    """``(qualified name, name, first line, last line)`` of every public
    top-level function or class and every public class member."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        found.append((node.name, node.name, node.lineno, node.end_lineno))
        for member in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(member, (ast.FunctionDef, ast.ClassDef)):
                names = [member.name]
            elif isinstance(member, ast.Assign):
                names = [t.id for t in member.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(f"{node.name}.{name}", name, member.lineno, member.end_lineno)
                      for name in names]
    return [d for d in found if not d[1].startswith("_")]


def _traced_names() -> set:
    """Every dotted part of the qualified names that the tracer wraps."""
    for node in ast.parse((ROOT / "bench" / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {part for _, qualname in ast.literal_eval(node.value)
                    for part in qualname.split(".")}
    raise AssertionError("bench/tracer.py defines no TARGETS")


def unreached_names() -> list:
    """Public names of the package that nothing but unit tests reaches."""
    sources = sorted(SRC.glob("*.py"))
    uses = {}  # name -> [(path, line, attribute)]
    for path in [*sources, *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        for name, line, attribute in _name_tokens(path):
            uses.setdefault(name, []).append((path, line, attribute))
    for name in _traced_names():
        uses.setdefault(name, []).append((None, 0, True))
    return [
        f"{path.name}: {qualname}"
        for path in sources
        for qualname, name, first, last in _definitions(path)
        if not any(
            (attribute or "." not in qualname) and (other != path or not first <= line <= last)
            for other, line, attribute in uses.get(name, ())
        )
    ]


def test_every_public_name_is_reached_outside_unit_tests():
    unreached = [q for q in unreached_names() if q.split(": ")[1] not in RESERVED]
    assert unreached == []


def test_every_reservation_names_a_defined_name_nothing_reaches_yet():
    # a reservation whose name is gone, or is now reached, is stale
    reserved = {q.split(": ")[1] for q in unreached_names()} & set(RESERVED)
    assert reserved == set(RESERVED)
