"""Guards on the shape of the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dbmf"

# Definitions kept although nothing in ``src/`` uses them yet, each with why:
# ``log_likelihood`` is the train log-likelihood that ``gibbs_run`` is to
# record in its per-sweep trace (ROADMAP 3(c)).
ALLOWED_UNUSED = {"log_likelihood"}


def test_every_definition_is_used_by_the_package():
    """A module-level function or class, or a method of a module-level
    class, that only tests call belongs in ``tests/oracles.py`` or nowhere:
    each must have a ``Name`` or ``Attribute`` reference somewhere in
    ``src/`` besides its definition.  An attribute of a module imported from
    outside the package (``np.load``, ``json.load``) is not such a
    reference.  Dunder methods are called implicitly and are exempt."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert trees, f"no modules under {SRC}"
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    tops = [node for tree in trees for node in tree.body
            if isinstance(node, (*functions, ast.ClassDef))]
    methods = [node for cls in tops if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, functions)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    defined = {node.name for node in tops + methods}
    referenced = set()
    for tree in trees:
        outside = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and not getattr(node, "level", 0) for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in outside):
                    referenced.add(node.attr)
    unused = sorted(defined - referenced - ALLOWED_UNUSED)
    assert not unused, f"defined in src/dbmf but used only outside it: {unused}"


def test_every_module_level_name_is_read():
    """A module-level assignment in ``src/dbmf`` must be read in its own
    module, or referenced from another package module as ``module.NAME`` or
    through ``from .module import NAME``; dunder names are exempt."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules under {SRC}"
    reads = {stem: {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for stem, tree in trees.items()}
    mentions = {stem: {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                | {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
                for stem, tree in trees.items()}
    unused = []
    for stem, tree in trees.items():
        for node in tree.body:
            targets = ([node.target] if isinstance(node, ast.AnnAssign)
                       else node.targets if isinstance(node, ast.Assign) else [])
            for name in (leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name)):
                if (name.startswith("__") or name in reads[stem]
                        or any(name in mentions[other] for other in trees if other != stem)):
                    continue
                unused.append(f"{stem}.{name}")
    assert not unused, f"assigned at module level in src/dbmf but never read: {unused}"


def test_package_does_not_import_scipy_linalg():
    """``scipy.linalg`` adds about 8 MB of resident memory to every run and
    pool worker; the package's linear algebra is numpy's."""
    code = ("import sys, dbmf.cli, dbmf.pipeline; "
            "print('scipy.linalg' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
