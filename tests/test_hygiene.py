"""Source hygiene checks that need no linter: only the standard library."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kmgroups"


def unused_imports(tree):
    """Names bound by the module's top-level imports and never read."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    tree = ast.parse("import os\nfrom a import b as c, d\nimport x.y\nd(x)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "c")]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_every_top_level_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


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
