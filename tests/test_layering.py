"""Library modules never import the brute-force oracle, and the oracle's
polynomial arithmetic never imports the kernels it checks."""

import ast
from pathlib import Path

import polymatkit

ORACLE_USERS = {"cli.py", "oracle.py"}
SRC = Path(polymatkit.__file__).parent


def _imported_modules(tree: ast.AST) -> set[str]:
    """Last components of every module a file imports, ``from . import x`` included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.split(".")[-1])
            found.update(al.name for al in node.names)
        elif isinstance(node, ast.Import):
            found.update(al.name.split(".")[-1] for al in node.names)
    return found


def test_only_cli_imports_oracle():
    offenders = [
        f.name for f in sorted(SRC.glob("*.py"))
        if f.name not in ORACLE_USERS and "oracle" in _imported_modules(ast.parse(f.read_text()))
    ]
    assert offenders == []


def test_poly_imports_no_product_kernel():
    # Polynomial products are the reference for pm_mul (oracle.naive_mul)
    imported = _imported_modules(ast.parse((SRC / "poly.py").read_text()))
    assert imported.isdisjoint({"ntt", "linalg"})


def test_sweep_callers_import_no_series_or_list_products():
    # the kernel sweep and the recursion levels run on residue arrays, not on
    # SeriesMatrix objects, lists of PolyMatrix products or the public order basis
    for name in ("nullspace.py", "solvers.py"):
        imported = _imported_modules(ast.parse((SRC / name).read_text()))
        assert imported.isdisjoint({"SeriesMatrix", "pm_mul_batch", "pmbasis"}), name


def test_expansion_engine_imports_no_matrix_products():
    # truncated_inverse and the lifting multiply residue arrays through _mul_stacked
    imported = _imported_modules(ast.parse((SRC / "fraction.py").read_text()))
    assert imported.isdisjoint({"pm_mul", "pm_mul_batch"})


def test_reduction_helper_and_workspace_live_in_linalg():
    # one modular-arithmetic kernel module: only linalg defines the reduction
    # helper and the workspace, calls floor_divide or keeps per-thread buffers
    kernel_names = {"_reduce", "_workspace"}
    offenders = []
    for f in sorted(SRC.glob("*.py")):
        if f.name == "linalg.py":
            continue
        tree = ast.parse(f.read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if defined & kernel_names or names & {"floor_divide", "local"}:
            offenders.append(f.name)
        if "threading" in _imported_modules(tree):
            offenders.append(f.name)
    assert offenders == []
    linalg = ast.parse((SRC / "linalg.py").read_text())
    assert kernel_names <= {node.name for node in linalg.body if isinstance(node, ast.FunctionDef)}
