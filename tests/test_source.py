import ast
from pathlib import Path

import pytest

import clext
from clext import verify

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


MATRIX_PRODUCTS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def _call_name(node):
    """The name called by f(...) or x.f(...); None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _is_matrix_product(node) -> bool:
    """x @ y, x @= y, or a call to np.dot, x.dot, matmul, einsum and kin."""
    if isinstance(getattr(node, "op", None), ast.MatMult):
        return True
    return _call_name(node) in MATRIX_PRODUCTS


def _matrix_products(path, allowed=()):
    """file:line of each matrix product outside the functions named in ``allowed``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in allowed
        for node in ast.walk(func)
    }
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if _is_matrix_product(node) and id(node) not in exempt
    ]


def test_no_matrix_products_in_fock_or_verify():
    # a and adag are bands and N, T, P_mu diagonals: building a rep and
    # verifying it needs elementwise products only, never a dense one
    scanned = [path for path in SOURCES if path.name in ("fock.py", "verify.py")]
    assert len(scanned) == 2
    assert [hit for path in scanned for hit in _matrix_products(path)] == []


def _calls(source: str, names) -> list[int]:
    """Line of each call to a function named in ``names``, as f(...) or x.f(...)."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if _call_name(node) in names]


def test_verify_neither_classifies_nor_rolls():
    # build_fock_rep classifies once and records rep.exact; a shift is two
    # slices, without np.roll's generic set-up on every call
    (path,) = [path for path in SOURCES if path.name == "verify.py"]
    assert _calls(path.read_text(encoding="utf-8"), {"classify", "roll"}) == []
    sample = "classify(spec)\nnp.roll(x, 1)\nalgebra.classify(s)\nnp.concatenate(x)"
    assert _calls(sample, {"classify", "roll"}) == [1, 2, 3]


def test_pssqm_multiplies_dense_words_only_in_the_multilinear_sum():
    # the supercharge is a +1 band, so its powers, nilpotency, [H, Q], ssqm and
    # the double commutator are band arithmetic; the multilinear sum of
    # khare_check, in its own function, is the one dense path left
    (path,) = [path for path in SOURCES if path.name == "pssqm.py"]
    assert _matrix_products(path, allowed={"_multilinear_lhs"}) == []
    # Q^p Qd, Q^(p-k) Qd Q^k and Qd Q^p: four sites, 2p products at run time
    assert len(_matrix_products(path)) == 4
    assert "ladder_matrices" not in path.read_text(encoding="utf-8")


def test_matrix_product_scan_sees_every_form():
    snippets = ("a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "numpy.matmul(a, b)",
                "np.einsum('ij,jk', a, b)", "np.tensordot(a, b)", "np.inner(a, b)",
                "np.vdot(a, b)", "matmul(a, b)")
    for snippet in snippets:
        assert any(map(_is_matrix_product, ast.walk(ast.parse(snippet)))), snippet
    assert not any(map(_is_matrix_product, ast.walk(ast.parse("np.multiply(a, b) * c"))))


@pytest.mark.parametrize("lam", (3, 64))
def test_verify_yields_one_difference_per_relation(lam):
    # a family of lam relations is one (lam, dim) array operation, so the
    # number of differences does not grow with lam
    rep = clext.build_fock_rep(clext.from_alpha(lam, [0.0] * lam), 2 * lam)
    for checks, count in ((verify._defining_checks, 17), (verify._projector_algebra_checks, 4)):
        diffs = list(checks(rep))
        assert len(diffs) == count
        assert all(diff.shape == (rep.dim,) for _, _, diff in diffs)
