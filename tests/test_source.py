"""Checks over the package source: every module-level name earns its place, and
every numpy error state is the one uniform guard."""

import ast
from pathlib import Path

import fiberpol

PACKAGE = Path(fiberpol.__file__).parent


def _bound(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def test_every_module_level_name_is_used_or_exported():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    loaded = {name: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load)}
              for name, tree in modules.items()}
    # (module, name) for each name a sibling takes by a relative import
    imported = {(node.module or "__init__", alias.name)
                for tree in modules.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    exported = set(fiberpol.__all__)
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            for name in _bound(node):
                if not (name.startswith("__") or name in loaded[module]
                        or (module, name) in imported or name in exported):
                    unused.append(f"{module}.{name}")
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in loaded[module] and not (module == "__init__" and name in exported):
                        unused.append(f"{module}: import of {name}")
    assert unused == []


def _error_states(tree: ast.AST) -> list[str]:
    """The source of every np.errstate call in tree."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.errstate"]


def test_every_error_state_ignores_all_and_the_cli_sets_none():
    # a guard ignores every flag, and its result is checked: one that missed a
    # flag let a raw warning out, and a blanket state in cli.run would hide that
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    states = {module: _error_states(tree) for module, tree in trees.items()}
    assert any(states.values())
    uniform = ast.unparse(ast.parse('np.errstate(all="ignore")'))
    assert {module: calls for module, calls in states.items()
            if any(call != uniform for call in calls)} == {}
    run = next(node for node in trees["cli"].body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert _error_states(run) == []
