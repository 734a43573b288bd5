"""Source hygiene checks that need no linter: only the standard library."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kmgroups"


def bound_names(node):
    """The names an import statement binds."""
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def unused_imports(tree):
    """Names bound by the module's top-level imports and never read."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in bound_names(node):
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def own_nodes(function):
    """The nodes of a function's body, leaving out the bodies of the
    functions and classes defined inside it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_local_imports(tree):
    """(line, name) of each name bound by an import inside a function and
    never read in that function (nested functions included)."""
    unused = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
        unused += [
            (node.lineno, name)
            for node in own_nodes(function)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in bound_names(node)
            if name not in read
        ]
    return sorted(unused)


def test_unused_imports_are_found():
    tree = ast.parse("import os\nfrom a import b as c, d\nimport x.y\nd(x)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "c")]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_every_top_level_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_local_imports_are_found():
    tree = ast.parse(
        "def f():\n"
        "    import os, sys\n"
        "    from a import b as c\n"
        "    def g():\n"
        "        from x import y\n"
        "        return os\n"
        "    return g, c\n"
        "class K:\n"
        "    def m(self):\n"
        "        from z import w\n"
        "y(sys, w)\n"
    )
    assert unused_local_imports(tree) == [(2, "sys"), (5, "y"), (10, "w")]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_every_local_import_is_used(path):
    # a handler that stops using an engine must stop importing it
    assert unused_local_imports(ast.parse(path.read_text())) == []


JSON_WRITERS = {"dump", "dumps"}


def json_writes(tree):
    """(line, name) of each use of ``json.dump`` or ``json.dumps``, called
    or not, and of each import of either name from ``json``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [(node.lineno, a.name) for a in node.names if a.name in JSON_WRITERS]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in JSON_WRITERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            found.append((node.lineno, f"json.{node.attr}"))
    return sorted(found)


def test_json_writes_are_found():
    tree = ast.parse(
        "import json\n"
        "from json import dumps as d, loads\n"
        "json.loads(s)\n"
        "json.dump(x, fh, indent=2)\n"
        "f = json.dumps\n"
        "other.dumps(x)\n"
    )
    assert json_writes(tree) == [(2, "dumps"), (4, "json.dump"), (5, "json.dumps")]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_second_json_writer(path):
    # envelopes and matrices are written by ``cli._emit`` alone
    assert json_writes(ast.parse(path.read_text())) == []


FORBIDDEN_MODULES = {"argparse", "gettext", "locale"}


def forbidden_imports(tree):
    """(line, module) of each import of a module in ``FORBIDDEN_MODULES``
    or below one, at any depth of the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] in FORBIDDEN_MODULES]
    return sorted(found)


def test_forbidden_imports_are_found():
    tree = ast.parse(
        "import argparse\n"
        "import os, locale as loc\n"
        "def f():\n"
        "    from gettext import gettext\n"
        "from . import argparse\n"
        "import argparser\n"
    )
    assert forbidden_imports(tree) == [(1, "argparse"), (2, "locale"), (4, "gettext")]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_module_imports_argparse(path):
    # `km` reads a plain command line off ``cli.COMMANDS`` itself; argparse,
    # with the gettext and locale it loads, reads every other line, and is
    # imported inside ``cli._argparse`` alone
    tree = ast.parse(path.read_text())
    allowed = []
    if path == SRC / "cli.py":
        reader = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "_argparse")
        allowed = forbidden_imports(reader)
        assert [module for _, module in allowed] == ["argparse"]
    assert forbidden_imports(tree) == allowed


def private_definitions(tree):
    """Top-level functions and classes, and methods of top-level classes,
    whose names are private (a leading underscore, not a dunder)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *members]:
            if isinstance(d, defs) and d.name.startswith("_") and not d.name.endswith("__"):
                yield d


def names_read(node):
    """How often each name or attribute occurs under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced_private(trees):
    """(file, line, name) of each private definition that nothing outside
    its own body refers to, over a {file: module tree} map."""
    everywhere = sum((names_read(t) for t in trees.values()), Counter())
    return sorted(
        (path, d.lineno, d.name)
        for path, tree in trees.items()
        for d in private_definitions(tree)
        if everywhere[d.name] == names_read(d)[d.name]
    )


def test_unreferenced_private_helpers_are_found():
    main = ast.parse(
        "def _used(): pass\n"
        "def _dead(): pass\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "class _Kept:\n"
        "    def __init__(self): self._step()\n"
        "    def _step(self): pass\n"
        "    def _orphan(self):\n"
        "        def _inner(): pass\n"
        "        return _inner\n"
        "_Kept()\n"
    )
    other = ast.parse("import main\nmain._used()\n")
    assert unreferenced_private({"main": main, "other": other}) == [
        ("main", 2, "_dead"), ("main", 3, "_recursive"), ("main", 7, "_orphan"),
    ]


def test_every_private_helper_is_referenced():
    # a replaced helper must leave with its last caller
    trees = {str(p.relative_to(SRC)): ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    assert unreferenced_private(trees) == []


def public_definitions(tree):
    """(qualified name, node) of each public top-level function and class
    and each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *members]:
            if isinstance(d, defs) and not d.name.startswith("_"):
                yield (d.name if d is node else f"{node.name}.{d.name}"), d


def attributes_read(node):
    """How often each attribute occurs under ``node``."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unreferenced_public(trees):
    """(file, line, qualified name) of each public definition whose name
    nothing outside its own body reads, over a {file: module tree} map.
    A method is reached only by an attribute read: a bare name of the same
    spelling (``itertools.chain``, a parameter) is no reference, and nor is
    a string, such as an ``_EXPORTS`` entry."""
    names = sum((names_read(t) for t in trees.values()), Counter())
    attributes = sum((attributes_read(t) for t in trees.values()), Counter())
    return sorted(
        (path, d.lineno, name)
        for path, tree in trees.items()
        for name, d in public_definitions(tree)
        for everywhere, read in [(attributes, attributes_read) if "." in name
                                 else (names, names_read)]
        if everywhere[d.name] == read(d)[d.name]
    )


def test_unreferenced_public_routines_are_found():
    main = ast.parse(
        "_EXPORTS = {'main': ('dead', 'Kept')}\n"
        "def used(): pass\n"
        "def dead(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Kept:\n"
        "    def step(self): return self.helper()\n"
        "    def helper(self): pass\n"
        "    def orphan(self):\n"
        "        def inner(): pass\n"
        "        return inner\n"
        "    def _private(self): pass\n"
        "    def chain(self): pass\n"
        "class Unused: pass\n"
        "Kept().step()\n"
    )
    # a name spelled as a method (a function, a parameter) does not reach it
    other = ast.parse("import main\nfrom itertools import chain\n"
                      "main.used(chain, lambda step: step)\n")
    assert unreferenced_public({"main": main, "other": other}) == [
        ("main", 3, "dead"), ("main", 4, "recursive"), ("main", 8, "Kept.orphan"),
        ("main", 12, "Kept.chain"), ("main", 13, "Unused"),
    ]


# public routines that only documented examples and tests call, with where
# each is documented
DOCUMENTED_API = {
    ("catalog/__init__.py", "load"): "README: the catalog is usable from Python",
    ("coxeter.py", "CoxeterDiagram.spherical_type"): "README: the library quick start",
    ("roots.py", "reflection_of"): "tests/test_acceptance.py, criterion 08",
    ("gcm.py", "GeneralizedCartanMatrix.entry"): "the class doctest",
    ("weyl.py", "WeylGroup.generator"): "the class doctest",
}


def test_every_public_routine_is_reached():
    # a public name that nothing in the package reads is a second surface
    # to keep; it goes, or it is documented here
    trees = {str(p.relative_to(SRC)): ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    found = [(path, name) for path, _, name in unreferenced_public(trees)]
    assert found == sorted(DOCUMENTED_API)


def products(function):
    """Line numbers of the ``*`` and ``**`` operators in a function, the
    augmented forms included; ``*`` unpacking is not a product."""
    return sorted(
        node.lineno
        for node in ast.walk(function)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, (ast.Mult, ast.Pow))
    )


def test_products_are_found():
    tree = ast.parse("def f(a, b):\n    c = a * b\n    c **= 2\n    return (*a, c)\n")
    assert products(tree.body[0]) == [2, 3]


@pytest.mark.parametrize(
    "name", ["_conjugate_generator_set", "deodhar_move", "standard_conjugacy"]
)
def test_conjugacy_routines_make_no_dense_product(name):
    # moves and witnesses go one generator at a time; the dense route of
    # products lives in tests/oracles.py
    tree = ast.parse((SRC / "parabolics.py").read_text())
    function = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    assert products(function) == []


def test_parabolics_makes_no_dense_product():
    # moves, witnesses and closure candidates go one generator at a time;
    # the dense routes of products and inverses live in the tests
    # (tests/oracles.py, and dense_closure in tests/test_parabolics.py)
    tree = ast.parse((SRC / "parabolics.py").read_text())
    assert products(tree) == []
    inverses = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inverse"
    ]
    assert inverses == []


def component_splits(function):
    """Line numbers of the ``.components(`` calls in a function, apart from
    those inside an assignment to ``shapes``."""
    shapes = {
        id(inner)
        for node in ast.walk(function)
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["shapes"]
        for inner in ast.walk(node)
    }
    return sorted(
        node.lineno
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and id(node) not in shapes
        and getattr(node.func, "attr", None) == "components"
    )


def test_component_splits_are_found():
    tree = ast.parse(
        "def f(d, j):\n"
        "    shapes = [d.components(x) for x in j]\n"
        "    return next(c for c in d.components(j) if 0 in c), components(j)\n"
    )
    assert component_splits(tree.body[0]) == [3]


@pytest.mark.parametrize("name", ["deodhar_move", "standard_conjugacy"])
def test_moves_grow_one_component(name):
    # the component of s is one flood from s; splitting J + {s} into all its
    # components, to keep the one holding s, was most of the walk's time
    tree = ast.parse((SRC / "parabolics.py").read_text())
    function = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    assert component_splits(function) == []


def layer_hooks():
    """``HOOKS`` of ``perfbench/layer_trace.py``, read from its source:
    hook name -> (module, attribute path, hot leaf?)."""
    tree = ast.parse((ROOT / "perfbench" / "layer_trace.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"]
    )


@pytest.mark.parametrize("hook", sorted(layer_hooks().items()), ids=lambda h: h[0])
def test_every_layer_hook_resolves(hook):
    # the tracer wraps these by name: a rename would break ``--trace 1``
    name, (module, path, _) = hook
    owner = importlib.import_module(module)
    for part in path.split("."):
        assert hasattr(owner, part), f"hook {name}: {module}.{path} has no {part!r}"
        owner = getattr(owner, part)


INSTANCE_DICT_WRITERS = {"update", "setdefault", "pop", "popitem", "clear"}


def is_instance_dict(node):
    """Whether ``node`` is ``vars(self)`` or ``self.__dict__``."""
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "vars"
                and [getattr(a, "id", None) for a in node.args] == ["self"])
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def hand_made_immutability(tree):
    """(line, what) of each ``__setattr__`` or ``__delattr__`` a class
    defines, and of each write through ``vars(self)`` or ``self.__dict__``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found += [(d.lineno, d.name) for d in node.body
                      if isinstance(d, ast.FunctionDef)
                      and d.name in ("__setattr__", "__delattr__")]
        elif (
            isinstance(node, ast.Attribute) and node.attr in INSTANCE_DICT_WRITERS
            or isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
        ) and is_instance_dict(node.value):
            found.append((node.lineno, "instance dict write"))
    return sorted(found)


def test_hand_made_immutability_is_found():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self, x):\n"
        "        vars(self).update(x=x)\n"
        "    def __setattr__(self, name, value): pass\n"
        "    def __delattr__(self, name): pass\n"
        "    def f(self):\n"
        "        self.__dict__['y'] = vars(self).get('x')\n"
        "        del vars(self)['x']\n"
        "        return vars(self)['y'], vars(other).update(z=1)\n"
    )
    assert hand_made_immutability(tree) == [
        (3, "instance dict write"), (4, "__setattr__"), (5, "__delattr__"),
        (7, "instance dict write"), (8, "instance dict write"),
    ]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_records_take_their_immutability_from_the_tuple(path):
    # a record that caches derived data subclasses the collections.namedtuple
    # of its fields and declares no __slots__; it does not guard assignment
    # by hand
    assert hand_made_immutability(ast.parse(path.read_text())) == []


def typing_records(tree):
    """(line, record) of each class or call that builds a record on
    ``typing.NamedTuple``, imported by name (under any alias) or read off
    ``typing``."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            names |= {a.asname or a.name for a in node.names if a.name == "NamedTuple"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "typing"}

    def is_named_tuple(node):
        if isinstance(node, ast.Attribute):
            return (node.attr == "NamedTuple" and isinstance(node.value, ast.Name)
                    and node.value.id in modules)
        return isinstance(node, ast.Name) and node.id in names

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(is_named_tuple, node.bases)):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Call) and is_named_tuple(node.func):
            found.append((node.lineno, "call"))
    return sorted(found)


def test_typing_records_are_found():
    tree = ast.parse(
        "import typing, typing as t\n"
        "from typing import NamedTuple, NamedTuple as NT\n"
        "from collections import namedtuple\n"
        "class A(NamedTuple): x: int\n"
        "class B(t.NamedTuple): x: int\n"
        "class C(namedtuple('C', 'x')): pass\n"
        "D = NT('D', [('x', int)])\n"
        "E = typing.NamedTuple('E', x=int)\n"
        "class F(other.NamedTuple, C): pass\n"
    )
    assert typing_records(tree) == [(4, "A"), (5, "B"), (7, "call"), (8, "call")]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_record_is_a_typing_named_tuple(path):
    # typing.NamedTuple calls compile() once per annotated field (each
    # annotation is a string under ``from __future__ import annotations``),
    # and every `km` process builds its record classes afresh
    assert typing_records(ast.parse(path.read_text())) == []


def bare_records(tree):
    """(line, class) of each subclass of a ``namedtuple(...)`` call whose
    body is a docstring and ``__slots__ = ()``, and nothing else."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Call) and called_name(b) == "namedtuple"
                for b in node.bases)):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if (len(body) == 1 and isinstance(body[0], ast.Assign)
                and [ast.unparse(x) for x in body[0].targets] == ["__slots__"]
                and ast.unparse(body[0].value) == "()"):
            found.append((node.lineno, node.name))
    return sorted(found)


def test_bare_records_are_found():
    tree = ast.parse(
        "import collections\n"
        "from collections import namedtuple\n"
        "class A(namedtuple('A', 'x')):\n"
        "    'A record.'\n"
        "    __slots__ = ()\n"
        "class B(collections.namedtuple('B', 'x')):\n"
        "    __slots__ = ()\n"
        "class C(namedtuple('C', 'x')):\n"
        "    'One method.'\n"
        "    __slots__ = ()\n"
        "    def f(self): return self.x\n"
        "class D(namedtuple('D', 'x')):\n"
        "    'No __slots__: it keeps an instance dict.'\n"
        "E = namedtuple('E', 'x')\n"
        "E.__doc__ = 'A record.'\n"
        "class F(tuple):\n"
        "    __slots__ = ()\n"
    )
    assert bare_records(tree) == [(3, "A"), (6, "B")]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_records_without_behaviour_are_their_namedtuple(path):
    # a subclass that adds only a docstring and __slots__ = () is a second
    # class to build in every process; the namedtuple takes the docstring
    assert bare_records(ast.parse(path.read_text())) == []


def budget_none_tests(tree):
    """(line, function) of each comparison of a parameter named ``budget``
    with None, in the function that takes it or in one nested in it."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = function.args
        params = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
        if "budget" not in {a.arg for a in params}:
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Name) and o.id == "budget" for o in operands)
                    and any(isinstance(o, ast.Constant) and o.value is None
                            for o in operands)):
                found.append((node.lineno, function.name))
    return sorted(found)


def test_budget_none_tests_are_found():
    tree = ast.parse(
        "def f(n, budget=None):\n"
        "    if budget is not None and n > budget:\n"
        "        return None == budget\n"
        "    return budget < n\n"
        "def g(*, budget):\n"
        "    return [x for x in range(3) if budget != None]\n"
        "def h(limit):\n"
        "    return budget is None\n"
    )
    assert budget_none_tests(tree) == [(2, "f"), (3, "f"), (6, "g")]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_budgets_are_plain_ints(path):
    # every enumeration counts against a budget; None (no budget) is no option
    assert budget_none_tests(ast.parse(path.read_text())) == []


def module_name(path):
    """``kmgroups.a.b`` for ``src/kmgroups/a/b.py``, the package for
    ``__init__.py``."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def public_routines(tree):
    """(qualified name, node, parameters) of each public top-level function
    and each public method of a top-level class; a method's parameters
    leave out its first, ``self`` or ``cls``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *methods]:
            if isinstance(d, defs) and not d.name.startswith("_"):
                args = d.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                if d is node:
                    yield d.name, d, params
                else:
                    yield f"{node.name}.{d.name}", d, params[1:]


def dotted(node):
    """Whether ``node`` is a name or a chain of attributes read off one."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name)


def forwards(node, params):
    """Whether ``node`` calls a dotted name on exactly ``params``."""
    if not (isinstance(node, ast.Call) and dotted(node.func)):
        return False
    passed = [*node.args, *(k.value for k in node.keywords)]
    return all(isinstance(a, ast.Name) for a in passed) and (
        sorted(a.id for a in passed) == sorted(params))


def forwarders(tree):
    """(line, qualified name) of each public function or method whose one
    statement, past a docstring and local imports, is ``return g(...)`` on
    exactly its own parameters, maybe with one ``.attr`` or ``.method()``
    read off the result."""
    found = []
    for name, function, params in public_routines(tree):
        body = [s for s in function.body
                if not isinstance(s, (ast.Import, ast.ImportFrom))
                and not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        value = body[0].value
        candidates = [value]
        if isinstance(value, ast.Call) and not value.args and not value.keywords:
            value = value.func  # g(...).method()
        if isinstance(value, ast.Attribute):
            candidates.append(value.value)  # g(...).attr
        if any(forwards(c, params) for c in candidates):
            found.append((function.lineno, name))
    return sorted(found)


def test_forwarders_are_found():
    tree = ast.parse(
        "def plain(a, b):\n"
        "    '''Doc.'''\n"
        "    from m import g\n"
        "    return g(b, a=a)\n"
        "def field(x): return f(x).value\n"
        "def method(x): return f(x).items()\n"
        "def _private(x): return f(x)\n"
        "def more(x): return f(x, 1)\n"
        "def fewer(x, y): return f(x)\n"
        "def two_fields(x): return f(x).a.b\n"
        "def method_with_args(x): return f(x).m(x)\n"
        "def not_a_call(x): return x.value\n"
        "def two_statements(x):\n"
        "    y = f(x)\n"
        "    return y\n"
        "class K:\n"
        "    def m(self, x): return self.g.h(x)\n"
        "    @classmethod\n"
        "    def c(cls): return cls.make()\n"
        "    def _p(self, x): return g(x)\n"
        "    def w(self, x): return g(self, x)\n"
    )
    assert forwarders(tree) == [
        (1, "plain"), (5, "field"), (6, "method"), (17, "K.m"), (19, "K.c"),
    ]


def test_no_public_forwarders():
    # a public routine that only forwards is a second name for one question;
    # the perfbench hooks stay, since the tracer times them by name
    hooks = {(module, path) for module, path, _ in layer_hooks().values()}
    found = [
        (str(p.relative_to(SRC)), line, name)
        for p in sorted(SRC.rglob("*.py"))
        for line, name in forwarders(ast.parse(p.read_text()))
        if (module_name(p), name) not in hooks
    ]
    assert found == []


def called_name(call):
    """The name a call reads, as a plain name or an attribute, else None."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def callers(tree, callee):
    """(line, function) of each call of ``callee``, as a name or an
    attribute, with the innermost function around it (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and called_name(child) == callee:
                found.append((child.lineno, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return sorted(found)


def test_callers_are_found():
    tree = ast.parse(
        "x = spherical_subsets(b)\n"
        "def f(d):\n"
        "    def g():\n"
        "        return d.spherical_subsets(b)\n"
        "    return d.spherical_subsets, g()\n"
        "class K:\n"
        "    def m(self): return self.spherical_subsets(b)\n"
        "    def _spherical_subsets(self): return other(b)\n"
    )
    assert callers(tree, "spherical_subsets") == [(1, None), (4, "g"), (7, "m")]


def test_one_route_lists_every_spherical_set():
    # only the two outputs that list every spherical set enumerate them; the
    # structural questions read the minimal and maximal sets
    found = [
        (str(p.relative_to(SRC)), line, name)
        for p in sorted(SRC.rglob("*.py"))
        for line, name in callers(ast.parse(p.read_text()), "spherical_subsets")
    ]
    names = {name for *_, name in found}
    assert names == {"_spherical_subsets", "locally_normal_report"}, found


def test_torsion_cap_and_poset_enumerate_no_spherical_sets(monkeypatch, catalog_gcms):
    from kmgroups import GeneralizedCartanMatrix, coxeter_matrix
    from kmgroups.coxeter import CoxeterDiagram
    from kmgroups.parabolics import EssentialPoset

    calls = []
    enumerate_all = CoxeterDiagram.spherical_subsets

    def counting(self, base):
        calls.append(base)
        return enumerate_all(self, base)

    monkeypatch.setattr(CoxeterDiagram, "spherical_subsets", counting)
    complete = GeneralizedCartanMatrix.from_rows(
        [[2 if i == j else -2 for j in range(6)] for i in range(6)])
    for gcm in [*catalog_gcms.values(), complete]:
        diagram = coxeter_matrix(gcm)
        diagram.max_finite_order(diagram.index_set)
        EssentialPoset.build(diagram)
    assert calls == []
    coxeter_matrix(complete).nerve()  # the stub does see the nerve's call
    assert calls == [range(6)]


def process_exits(tree):
    """(line, function, callee) of each call of ``_exit`` or ``exit``, as a
    name or an attribute (``os._exit``, ``sys.exit``)."""
    return sorted((line, function, callee) for callee in ("_exit", "exit")
                  for line, function in callers(tree, callee))


def test_process_exits_are_found():
    tree = ast.parse(
        "import os, sys\n"
        "def run():\n"
        "    os._exit(main())\n"
        "def f():\n"
        "    sys.exit(1)\n"
        "    def g(): return _exit(2)\n"
        "exit()\n"
        "f.__exit__()\n"
    )
    assert process_exits(tree) == [
        (3, "run", "_exit"), (5, "f", "exit"), (6, "g", "_exit"), (7, None, "exit"),
    ]


def test_only_the_entry_point_ends_the_process():
    # os._exit skips the teardown, so only ``cli.run`` may call it, after
    # ``main`` has flushed; the engine returns or raises and never exits
    found = [
        (str(p.relative_to(SRC)), function, callee)
        for p in sorted(SRC.rglob("*.py"))
        for _, function, callee in process_exits(ast.parse(p.read_text()))
    ]
    assert [f for f in found if f[2] == "_exit"] == [("cli.py", "run", "_exit")], found
    assert all(module == "cli.py" for module, *_ in found), found


CACHES = {"cache", "lru_cache"}


def unbounded_caches(tree):
    """(line, name) of each ``functools`` cache that can grow without bound:
    every ``cache``, and every ``lru_cache`` not called with an integer
    ``maxsize``, whether imported from ``functools`` or read off it."""
    names = {  # local name -> the functools name it binds
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHES
    }
    bounded = set()  # the callees called with one integer size
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int):
                bounded.add(node.func)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            name = names[node.id]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            name = node.attr
        else:
            continue
        if name == "cache" or node not in bounded:
            found.append((node.lineno, name))
    return sorted(found)


def test_unbounded_caches_are_found():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, cached_property, lru_cache, lru_cache as lc\n"
        "@lru_cache(maxsize=1)\n"
        "def a(): pass\n"
        "@lc(2)\n"
        "def b(): pass\n"
        "@lru_cache\n"
        "def c(): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def d(): pass\n"
        "@cache\n"
        "def e(): pass\n"
        "f = functools.cache(g)\n"
        "h = lru_cache()(g)\n"
        "k = functools.lru_cache(maxsize=True)(g)\n"
        "m = lc(maxsize=size)(g)\n"
        "n = functools.lru_cache(8)(cached_property)\n"
    )
    assert unbounded_caches(tree) == [
        (7, "lru_cache"), (9, "lru_cache"), (11, "cache"), (13, "cache"),
        (14, "lru_cache"), (15, "lru_cache"), (16, "lru_cache"),
    ]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_every_cache_is_bounded(path):
    # a cache that outlives its command must not grow with the inputs seen
    assert unbounded_caches(ast.parse(path.read_text())) == []
