"""Source hygiene: every name a package module imports is used in it, every
attribute it stores is read somewhere in the package, node kinds, twin
levels and slice names are compared as enum members only, only the loader
builds node and link records, every function has a caller in the program,
and every parameter is read."""

import ast
from pathlib import Path

import pytest

from twinslice.network import NodeKind
from twinslice.slices import SliceClass
from twinslice.twins import TwinLevel

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twinslice"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as an identifier anywhere in the
    module, including annotations quoted or not, or as a string in `__all__`.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.parse(part.value, mode="eval")
                    used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def _annotations(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_names_in_annotations_and_all():
    source = ("from typing import Any, Optional\nimport os.path\nfrom .x import w, y, z\n"
              "__all__ = ['y']\ndef f(a: Any) -> 'list[w]':\n    os.path.join('z')\n")
    assert unused_imports(source) == ["Optional", "z"]


def write_only_attributes(sources: list[str]) -> list[str]:
    """Attribute names stored in these modules that none of them ever reads.

    A store is `self.x = ...` (plain, annotated or augmented) or an annotated
    field in a class body; a read is any `obj.x` load. Names are matched
    without their owner, so a field counts as read when an attribute of that
    name is read on anything. The `_: KW_ONLY` marker is not a field.
    """
    stored: set[str] = set()
    loaded: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    stored.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                stored |= {item.target.id for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                           and not (isinstance(item.annotation, ast.Name)
                                    and item.annotation.id == "KW_ONLY")}
    return sorted(stored - loaded)


def test_every_stored_attribute_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert write_only_attributes(sources) == []


def test_the_attribute_scan_sees_fields_self_stores_and_reads_across_modules():
    fields = ("from dataclasses import KW_ONLY, dataclass\n@dataclass\nclass S:\n"
              "    a: int\n    _: KW_ONLY\n    b: int = 0\n    c = 1\n")
    methods = ("class T:\n    def __init__(self, s):\n        self.d = s.a\n        self.e = 0\n"
               "        self.f: int = 0\n        self.e += 1\n        s.g = 2\n"
               "    def get(self):\n        return self.f\n")
    assert write_only_attributes([fields, methods]) == ["b", "d", "e"]


VOCABULARY = {m.value for enum in (NodeKind, TwinLevel, SliceClass) for m in enum}


def vocabulary_literals(source: str) -> list[str]:
    """String literals naming a node kind, twin level or slice that the module
    compares with, or tests membership in (a tuple, list or set of literals).

    The enums are the one list of these names: code that compares their
    values as strings keeps a second copy.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                parts = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
                found += [p.value for p in parts if isinstance(p, ast.Constant)
                          and isinstance(p.value, str) and p.value in VOCABULARY]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_vocabularies_are_compared_as_enum_members(path):
    assert vocabulary_literals(path.read_text()) == []


def test_the_vocabulary_scan_sees_comparisons_and_membership():
    source = ("a = kind == 'edge'\nb = 'core' != kind\nc = kind in ('device', 'link')\n"
              "d = level not in {'global_core'}\ne = cls in ['ERLLC']\nf = kind == 'link'\n"
              "g = 'edge'\nh = {'umMTC': 1}\ni = f'{kind}' == 'core-ish'\n")
    assert sorted(vocabulary_literals(source)) == ["ERLLC", "core", "device", "edge", "global_core"]


RECORDS = {"Node", "Link"}


def record_builds(source: str) -> list[str]:
    """Calls that build a node or link record, by name or as a module attribute.

    The loader builds each record once, and every run of the scenario reads
    those records and keeps its own state in `Topology`: a record built
    anywhere else is a second copy of a loaded fact.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in RECORDS:
                found.append(name)
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "scenario.py"],
                         ids=lambda p: p.name)
def test_only_the_loader_builds_records(path):
    assert record_builds(path.read_text()) == []


def test_the_record_scan_sees_calls_by_name_and_attribute():
    source = ("a = Node(0, kind)\nb = network.Link(0, 1, 2, 3, 4)\n"
              "c = [Node(n.id, n.kind) for n in nodes]\nd = NodeKind('core')\ne = Link\n"
              "f = isinstance(x, Node)\ng = make_link(1)\nh = build()(Link)\n")
    assert record_builds(source) == ["Link", "Node", "Node"]


ROOT = PACKAGE.parent.parent
# Functions that nothing in the program names, each with its caller: NumPy
# calls a bit generator's seed source through `generate_state`.
CALLED_FROM_OUTSIDE = {"generate_state"}


def unreferenced_functions(package: list[str], others: list[str]) -> list[str]:
    """Functions and methods defined in `package` that no source names outside their own body.

    A reference is an identifier, an attribute (`obj.name`) or a string
    constant that spells the name: `perfbench/tracer.py` wraps methods by
    name. Names are matched without their owner, and dunder methods are
    called by Python itself. So a name-only scan can be fooled by an
    attribute of another object: `self.gen.random()` in `RngStream.bernoulli`
    is a call on NumPy's generator, yet it counts as a reference to
    `RngStream.random`.
    """
    def names(tree: ast.AST) -> list[str]:
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.append(node.id)
            elif isinstance(node, ast.Attribute):
                found.append(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                found.append(node.value)
        return found

    trees = [ast.parse(source) for source in package + others]
    counts: dict[str, int] = {}
    for tree in trees:
        for name in names(tree):
            counts[name] = counts.get(name, 0) + 1
    defs = [node for tree in trees[:len(package)] for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted(d.name for d in defs
                  if not (d.name.startswith("__") and d.name.endswith("__"))
                  and counts.get(d.name, 0) == names(d).count(d.name))


def test_every_function_has_a_caller_in_the_program():
    # Tests do not count as callers, perfbench's own tests included.
    others = [p.read_text() for folder in ("scripts", "perfbench")
              for p in sorted((ROOT / folder).rglob("*.py")) if "tests" not in p.parts]
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    # An entry of the allowlist that the scan no longer finds is stale.
    assert unreferenced_functions(package, others) == sorted(CALLED_FROM_OUTSIDE)


def test_the_function_scan_sees_calls_attributes_strings_and_own_bodies():
    package = ("def used(): pass\ndef by_attr(): pass\ndef by_name(): pass\n"
               "def recursive(n):\n    return recursive(n - 1)\ndef unused(): pass\n"
               "class C:\n    def __init__(self): pass\n    def method(self): return self.method\n"
               "    def wrapped(self): pass\n")
    other = "used()\nx.by_attr\nsetattr(C, 'wrapped', f)\ny = [by_name]\n"
    assert unreferenced_functions([package], [other]) == ["method", "recursive", "unused"]


def unread_parameters(source: str) -> list[str]:
    """Parameters, as `function.parameter`, that their function's body never reads.

    A read is a load of the name anywhere in the body, nested functions and
    lambdas included. `self`, `cls` and names that start with `_` are not
    checked: the underscore marks a parameter that a fixed calling
    convention passes, such as the `now` of an event callee, but this body
    has no use for.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg)
                      if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{node.name}.{p}" for p in params
                      if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_the_parameter_scan_sees_every_kind_of_parameter_and_nested_reads():
    source = ("def f(a, /, b, *args, c, d=1, **kw):\n    return a + kw['x']\n"
              "class C:\n    def m(self, now, _now, x):\n        x = 1\n"
              "    @classmethod\n    def k(cls, y):\n        return lambda: y\n"
              "def g(z):\n    def inner(w):\n        return z\n    return inner\n")
    assert unread_parameters(source) == ["f.b", "f.args", "f.c", "f.d", "m.now", "m.x", "inner.w"]
