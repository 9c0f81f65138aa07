import ast
from pathlib import Path

import clext

SOURCES = sorted(Path(clext.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # runtime checks must survive python -O, which strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_no_matrix_products_in_fock_or_verify():
    # a and adag are bands and N, T, P_mu diagonals: building a rep and
    # verifying it needs elementwise products only, never a dense one
    scanned = [path for path in SOURCES if path.name in ("fock.py", "verify.py")]
    found = [
        f"{path.name}:{node.lineno}"
        for path in scanned
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(getattr(node, "op", None), ast.MatMult)  # x @ y and x @= y
    ]
    assert len(scanned) == 2
    assert found == []
