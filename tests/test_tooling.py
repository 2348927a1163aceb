"""Guards on the shape of the package source itself."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import numpy as np

from dbmf import cli, data, pipeline

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dbmf"
README = SRC.parents[1] / "README.md"

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
    reference.  Dunder methods are called implicitly and are exempt.  Each
    ``ALLOWED_UNUSED`` name must still be defined and still be unused, so
    the list cannot go stale."""
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
    stale = sorted(ALLOWED_UNUSED - (defined - referenced))
    assert not stale, f"ALLOWED_UNUSED but no longer defined, or now used, in src/dbmf: {stale}"


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


def test_readme_names_resolve():
    """Every backticked ``dbmf.<name>`` or ``<module>.<name>`` in README.md,
    for a module of the package, names something the package defines (a file
    name such as ``sampler.py`` is not a reference), and the "Library entry
    points" import block runs, so a rename cannot leave the README stale."""
    text = README.read_text(encoding="utf-8")
    modules = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    refs = [ref for ref in re.findall(rf"`((?:dbmf|{'|'.join(modules)})(?:\.\w+)+)", text)
            if not ref.endswith(".py")]
    assert refs, "no package references found in README.md"
    missing = []
    for ref in refs:
        parts = ref.split(".")
        parts[:0] = [] if parts[0] == "dbmf" else ["dbmf"]
        obj = importlib.import_module("dbmf")
        for n, part in enumerate(parts[1:], start=2):
            try:  # an attribute, or else a submodule not yet imported
                obj = (getattr(obj, part) if hasattr(obj, part)
                       else importlib.import_module(".".join(parts[:n])))
            except ImportError:
                missing.append(ref)
                break
    assert not missing, f"README.md names what the package does not define: {missing}"
    block = re.search(r"## Library entry points\s+```python\n(.*?)```", text, re.S)
    assert block, "README.md has no Library entry points import block"
    exec(block.group(1), {})


def test_readme_lists_exactly_the_run_keys():
    """README's ``run`` paragraph lists every key that ``dbmf run`` takes as
    a flag and a ``--config`` key, and no other."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"a `--config` key of the same name: (.*?)\. ", text)
    assert listed, "README.md has no list of run keys"
    assert set(re.findall(r"`([\w-]+)`", listed.group(1))) == set(cli.RUN_CONFIG_KEYS)


def test_fit_layer_builds_no_random_generator():
    """``approx.py`` constructs no random generator (``default_rng``,
    ``Generator``, ``RandomState``) and calls no ``np.random`` function
    other than ``SeedSequence``: a posterior fit is a pure function of its
    samples, and a block's only random stream is its chain."""
    tree = ast.parse((SRC / "approx.py").read_text(encoding="utf-8"))
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    random_calls = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "random"}
    found = names & {"default_rng", "Generator", "RandomState"}
    found |= random_calls - {"SeedSequence"}
    assert not found, f"approx.py builds or uses a random generator: {sorted(found)}"


# Where single precision is allowed: the indicator product of the sampler's
# sufficient statistics, whose sums are cast back to float64 at once.
SINGLE_PRECISION_FUNCTIONS = {("sampler", "_side_matrices"), ("sampler", "_side_stats")}


def test_reduced_precision_only_in_the_indicator_product():
    """A reduced-precision float type (``np.float32``, ``np.float16`` or a
    dtype string naming one) occurs in ``src/dbmf`` only inside the
    functions of ``SINGLE_PRECISION_FUNCTIONS``, and in each of them, so the
    list cannot go stale."""
    types = {"float32", "float16", "single", "half"}
    dtype_strings = types | {"f4", "<f4", "f2", "<f2"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if ((isinstance(node, ast.Attribute) and node.attr in types)
                        or (isinstance(node, ast.Name) and node.id in {"float32", "float16"})
                        or (isinstance(node, ast.Constant) and node.value in dtype_strings)):
                    found.add((path.stem, owner))
    assert found == SINGLE_PRECISION_FUNCTIONS, (
        f"reduced precision found in {sorted(found, key=str)}, "
        f"allowed only in {sorted(SINGLE_PRECISION_FUNCTIONS)}")


def test_artifacts_and_result_are_double_precision(tmp_path):
    """Every numeric array in every posterior, chain and aggregate file of a
    small pp run, and every array of its ``FactorizationResult``, is
    float64: the sampler's float32 sums do not leak into artifacts or
    aggregation."""
    matrix, _ = data.simulate(40, 30, 2, 1.0, seed=1)
    train, _ = data.split_random(matrix, 0.5, seed=2)
    config = pipeline.RunConfig(n_factors=2, tau=1.0, n_iters=20, burn_in=10, thin=2,
                                seed=3, workers=1, save_chains=True, approximation="gmm",
                                partition_rows=2, partition_cols=2)
    result = pipeline.run_pp(train, config, run_dir=str(tmp_path))
    dtypes = {}
    for path in sorted(tmp_path.rglob("*.npz")):
        with np.load(path) as npz:
            for key in npz.files:
                if npz[key].dtype.kind != "U":  # headers and configs are JSON text
                    dtypes[f"{path.relative_to(tmp_path).as_posix()}:{key}"] = npz[key].dtype
    for name in ("x_mean", "w_mean", "x_precisions", "w_precisions"):
        dtypes[f"FactorizationResult.{name}"] = getattr(result, name).dtype
    assert {key.split("/")[0] for key in dtypes} >= {
        "stage1", "stage2", "stage3", "aggregate", "chains"}
    narrow = sorted(key for key, dtype in dtypes.items() if dtype != np.float64)
    assert not narrow, f"arrays not float64: {narrow}"
