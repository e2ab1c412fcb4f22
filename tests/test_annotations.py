"""Every name that an annotation in ``src/csm`` reads is bound in its
module, at run time or under ``if TYPE_CHECKING:``, so a static checker
resolves each name the annotations spell."""

import ast
import builtins
from pathlib import Path

import pytest

import csm

MODULES = sorted(Path(csm.__file__).parent.glob("*.py"))


def module_bindings(tree: ast.Module) -> set[str]:
    """The names the module's top level binds, inside ``if`` and ``try``
    blocks too: imports, assignments, and function and class statements."""
    bound = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                todo += getattr(node, block, [])
        elif isinstance(node, ast.ExceptHandler):
            todo += node.body
    return bound


def annotations(tree: ast.Module):
    """Every annotation in the module: of parameters, returns and annotated
    assignments, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            yield from (p.annotation for p in params if p is not None and p.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def names_read(annotation: ast.expr):
    """The names an annotation reads; a string annotation is parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from names_read(ast.parse(node.value, mode="eval").body)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_annotation_names_are_bound(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = module_bindings(tree) | set(dir(builtins))
    unbound = {name for ann in annotations(tree) for name in names_read(ann)} - bound
    assert not unbound, f"{path.name} annotates with unbound names {sorted(unbound)}"
