"""The package ships only code that runs: every module-level function and
class of `src/oihilbert` is referenced somewhere in the package outside
its own definition, is exported by `oihilbert.__all__`, or is looked up
by name by the benchmark's tracing (`perfbench/spans.py`).  Oracles that
only the tests use live in `tests/`.  Dunder hooks such as a module's
`__getattr__` are called by the interpreter and count as used.  Every
method of a package class that `oihilbert.__all__` does not export,
dunders aside, is read somewhere in the package outside its own
definition too, so a method does not outlive its last caller.  Likewise every module-level import and assignment is read somewhere
in its own module, unless it is exported by `oihilbert.__all__`, a dunder
name, or a `from __future__` import."""

import ast
from pathlib import Path

import oihilbert

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oihilbert"


def _references(tree, skip):
    """Names loaded or read as attributes in tree, outside the nodes of
    skip; a name that is only assigned is not read."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _patched_names():
    """The attribute names `perfbench/spans.py` hands to its patch
    helper: patch(owner, "name", ...)."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return {node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "patch"
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)}


def test_patched_names_found():
    assert {"module_dfa", "determinize", "generating_function",
            "kpoly"} <= _patched_names()


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _package_trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_module_level_definition_is_used():
    trees = _package_trees()
    defs = [(name, node) for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]
    allowed = set(oihilbert.__all__) | _patched_names()
    unused = []
    for module, node in defs:
        if node.name in allowed or _is_dunder(node.name):
            continue
        if not any(node.name in _references(tree, {node})
                   for tree in trees.values()):
            unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, unused


def test_every_method_of_an_unexported_class_is_used():
    # a method counts as used when its name is read anywhere in the
    # package outside its own definition, by any receiver
    trees = _package_trees()
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if (not isinstance(cls, ast.ClassDef)
                    or cls.name in oihilbert.__all__):
                continue
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                        or _is_dunder(node.name)):
                    continue
                if not any(node.name in _references(t, {node})
                           for t in trees.values()):
                    unused.append(
                        f"{module}:{node.lineno} {cls.name}.{node.name}")
    assert not unused, unused


def _bound_names(node):
    """The names a module-level import or assignment binds."""
    if isinstance(node, ast.ImportFrom):
        if node.module == "__future__":
            return []
        return [a.asname or a.name for a in node.names]
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def test_every_module_level_import_and_assignment_is_read():
    allowed = set(oihilbert.__all__)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            names = [name for name in _bound_names(node)
                     if name not in allowed
                     and not _is_dunder(name)]
            read = _references(tree, {node}) if names else set()
            unread += [f"{path.name}:{node.lineno} {name}"
                       for name in names if name not in read]
    assert not unread, unread
