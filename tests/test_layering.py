"""Library modules never import the brute-force oracle."""

import ast
from pathlib import Path

import polymatkit

ORACLE_USERS = {"cli.py", "oracle.py"}


def _imports_oracle(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {al.name for al in node.names}
            if module.split(".")[-1] == "oracle" or "oracle" in names:
                return True
        elif isinstance(node, ast.Import):
            if any(al.name.split(".")[-1] == "oracle" for al in node.names):
                return True
    return False


def test_only_cli_imports_oracle():
    src = Path(polymatkit.__file__).parent
    offenders = [
        f.name for f in sorted(src.glob("*.py"))
        if f.name not in ORACLE_USERS and _imports_oracle(ast.parse(f.read_text()))
    ]
    assert offenders == []
