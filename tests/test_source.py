import ast
import inspect
import itertools
import typing
from pathlib import Path

import pytest

import clext
import clext.cli
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


#: Calls that build a dense matrix whatever their arguments.
DENSE_CONSTRUCTORS = {"diag", "diagflat", "eye", "identity", "outer"}
#: Calls that build a dense matrix when given a shape of two or more axes.
ALLOCATORS = {"zeros", "ones", "empty", "full"}


def _is_dense_constructor(node) -> bool:
    """np.diag(v, k), np.eye(n) and kin, or an allocation such as np.zeros((dim, dim))."""
    name = _call_name(node)
    if name in DENSE_CONSTRUCTORS:
        return True
    shape = node.args[0] if name in ALLOCATORS and node.args else None
    return isinstance(shape, ast.Tuple) and len(shape.elts) >= 2


#: Generic types, whose subscripts in annotations such as tuple[float, bool] index nothing.
GENERICS = {"tuple", "dict", "list", "type"}


def _is_two_axis_index(node) -> bool:
    """x[i, j] (two or more axes), or np.diagonal, which reads one band of a matrix."""
    if isinstance(node, ast.Subscript):
        return (isinstance(node.slice, ast.Tuple) and len(node.slice.elts) >= 2
                and getattr(node.value, "id", None) not in GENERICS)
    return _call_name(node) == "diagonal"


def _matrix_products(path, allowed=(), is_site=_is_matrix_product):
    """file:line of each matrix product (or other ``is_site`` node) outside the
    functions named in ``allowed``."""
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
        if is_site(node) and id(node) not in exempt
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
    # khare_check, in its own function, is the one dense path left, and it
    # alone forms a dense matrix, each factor from its band
    (path,) = [path for path in SOURCES if path.name == "pssqm.py"]
    assert _matrix_products(path, allowed={"_multilinear_lhs"}) == []
    # Q^p Qd, Q^(p-k) Qd Q^k and Qd Q^p: four sites, 2p products at run time
    assert len(_matrix_products(path)) == 4
    assert _matrix_products(path, {"_multilinear_lhs"}, _is_dense_constructor) == []
    assert len(_matrix_products(path, is_site=_is_dense_constructor)) == 1
    # it returns the sum's one band, so no other function indexes a 2-D array
    assert _matrix_products(path, {"_multilinear_lhs"}, _is_two_axis_index) == []
    assert len(_matrix_products(path, is_site=_is_two_axis_index)) == 1
    assert "ladder_matrices" not in path.read_text(encoding="utf-8")


def test_cli_expands_no_band_into_a_matrix():
    # every generator is one diagonal of its matrix, so dump writes each
    # column's one entry from the band; the dense ladder_matrices serve the
    # tests as an oracle only
    (path,) = [path for path in SOURCES if path.name == "cli.py"]
    source = path.read_text(encoding="utf-8")
    assert _matrix_products(path) == []
    assert _numpy_calls(ast.parse(source), {"diag", "diagflat"}) == []
    assert "ladder_matrices" not in source


def test_argparse_only_splits_argv():
    # every flag text meets cli._convert, as every config value does, so a bad
    # value gets the same one-line report whichever way it was given
    calls = [node for node in ast.walk(_source("cli.py")) if _call_name(node) == "add_argument"]
    assert calls
    assert [(node.lineno, keyword.arg) for node in calls for keyword in node.keywords
            if keyword.arg in ("type", "choices")] == []


def test_one_vector_check():
    # each door of the library checks a parameter vector's length and entries
    # through algebra.require_vector, which alone tests finiteness
    finite = [(path.name, owner) for path in SOURCES
              for owner, _ in _numpy_calls(ast.parse(path.read_text(encoding="utf-8")),
                                           {"isfinite"})]
    assert finite == [("algebra.py", "require_vector")]
    doors = (clext.AlgebraSpec.__post_init__, clext.from_alpha, clext.from_kappa,
             clext.pssqm._normalized_eta, clext.PssqmConfig.__post_init__,
             clext.solve_and_check, clext.beckers_debergh_check, clext.bd_scan,
             clext.shifted_hamiltonian)
    assert [door.__qualname__ for door in doors
            if "require_vector(" not in inspect.getsource(door)] == []


def test_matrix_product_scan_sees_every_form():
    snippets = ("a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "numpy.matmul(a, b)",
                "np.einsum('ij,jk', a, b)", "np.tensordot(a, b)", "np.inner(a, b)",
                "np.vdot(a, b)", "matmul(a, b)")
    for snippet in snippets:
        assert any(map(_is_matrix_product, ast.walk(ast.parse(snippet)))), snippet
    assert not any(map(_is_matrix_product, ast.walk(ast.parse("np.multiply(a, b) * c"))))


def test_dense_constructor_scan_sees_every_form():
    snippets = ("np.diag(v, -1)", "np.diagflat(v)", "np.eye(dim)", "np.identity(dim)",
                "np.outer(u, v)", "np.zeros((dim, dim))", "np.empty((n, n), dtype)",
                "np.ones((dim, dim), complex)", "np.full((dim, dim), 0.0)")
    for snippet in snippets:
        assert any(map(_is_dense_constructor, ast.walk(ast.parse(snippet)))), snippet
    for snippet in ("np.zeros(lam, dtype=complex)", "np.empty(p)", "np.diagonal(m, -1)"):
        assert not any(map(_is_dense_constructor, ast.walk(ast.parse(snippet)))), snippet


def test_two_axis_index_scan_sees_every_form():
    for snippet in ("m[rows, cols]", "m[1:, :-1]", "m[:, None]", "np.diagonal(m, -1)"):
        assert any(map(_is_two_axis_index, ast.walk(ast.parse(snippet)))), snippet
    for snippet in ("x[1:]", "x[n]", "rep.P[mu]", "x[k : k + count]", "tuple[float, bool]"):
        assert not any(map(_is_two_axis_index, ast.walk(ast.parse(snippet)))), snippet


@pytest.mark.parametrize("lam", (3, 64))
def test_verify_yields_one_difference_per_relation(lam):
    # a family of lam relations is one (lam, width) array operation on a
    # block of states, so the number of differences grows with neither lam
    # nor dim; blocks are counted down from the top, and none is wider than
    # the byte budget allows for a (lam, width) complex array (or 64 states)
    widest = max(64, verify._BLOCK_BYTES // (16 * lam))
    dim = 2 * widest + 5
    rep = clext.build_fock_rep(clext.from_alpha(lam, [0.0] * lam), dim)
    blocks = list(verify._blocks(dim, verify._block_width(lam, dim)))
    assert len(blocks) == 3
    assert [edge for block in blocks for edge in block] == [
        0, 5, 5, 5 + widest, 5 + widest, dim]
    for checks, count in ((verify._defining_checks, 15), (verify._projector_algebra_checks, 4)):
        for lo, hi in blocks:
            diffs = list(checks(rep, lo, hi))
            assert len(diffs) == count
            assert all(diff.shape == (hi - lo,) for diff in diffs)
    # the two commutators alone have a scale, one entry per state of the block
    for lo, hi in blocks:
        scales = {name: verify._scale(rep, lo, hi, name)
                  for name in verify._DEFINING.names + verify._PROJECTOR_ALGEBRA.names}
        assert {name for name, scale in scales.items() if scale is not None} == {
            "commutator_T", "commutator_P"}
        assert all(scales[name].shape == (hi - lo,) and scales[name].min() >= 1
                   for name in ("commutator_T", "commutator_P"))


def _source(name: str) -> ast.Module:
    (path,) = [path for path in SOURCES if path.name == name]
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported(tree) -> dict[str, set[str]]:
    """The names each module in ``tree`` imports (empty for ``import m``),
    relative modules with their leading dots."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.name, set()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.setdefault(module, set()).update(alias.name for alias in node.names)
    return imported


def test_each_relation_has_one_report():
    # a relation checked by both reports would need its residual computed
    # twice or kept between the calls; verify keeps no state across calls
    assert set(verify._DEFINING.names).isdisjoint(verify._PROJECTOR_ALGEBRA.names)
    imported = _imported(_source("verify.py"))
    assert "numpy" in imported and "weakref" not in imported


#: numpy calls that pad, wrap or join arrays: the ways to spell a neighbour read.
PADDING = {"append", "concatenate", "hstack", "pad", "roll"}


def _numpy_calls(tree, names) -> list[tuple[str | None, str]]:
    """(innermost enclosing function, name) of each np.<name>(...) call."""
    owner = {}
    for func in ast.walk(tree):  # breadth first: an inner def overwrites its outer one
        if isinstance(func, ast.FunctionDef):
            owner.update((id(node), func.name) for node in ast.walk(func))
    return [(owner.get(id(node)), node.func.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _dotted(node.func) in {f"np.{n}" for n in names}]


def test_one_way_to_read_a_neighbour():
    # fock.py defines the band format, so it alone reads a neighbour: every
    # other module shifts through its lower_shift and upper_shift, and reads
    # no private copy of them (pssqm's _lo or verify's wrapping _window)
    pads = {path.name: _numpy_calls(ast.parse(path.read_text(encoding="utf-8")), PADDING)
            for path in SOURCES}
    assert sorted(pads.pop("fock.py")) == [("lower_shift", "concatenate"),
                                           ("upper_shift", "concatenate")]
    # the one join elsewhere rotates P_(m-1) into row m, along the sector axis
    assert {name: calls for name, calls in pads.items() if calls} == {
        "verify.py": [("_defining_checks", "concatenate")]}
    for name in ("pssqm.py", "verify.py"):
        imported = _imported(_source(name))
        assert {"lower_shift", "upper_shift", "per_state_rule"} <= imported[".fock"], name
    assert ".verify" not in _imported(_source("pssqm.py"))
    assert _numpy_calls(ast.parse("np.append(x, 0)\nxs.append(0)\nnp.roll(x, 1)"),
                        PADDING) == [(None, "append"), (None, "roll")]


def test_one_completeness_rule():
    # the levels that every sector's progression reaches inside the truncation
    # are found once, in pssqm.py; khare_check and classify_breaking take them
    # from there and ssqm_check from classify_breaking, and no positional cut
    # of the top states remains in the library
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    defined = [(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_complete_levels"]
    assert defined == [("pssqm.py", "_complete_levels")]
    clustering = {func.name: {_call_name(node) for node in ast.walk(func)}
                  for func in ast.walk(trees["pssqm.py"]) if isinstance(func, ast.FunctionDef)}
    assert {name for name, calls in clustering.items() if "_complete_levels" in calls} == {
        "khare_check", "classify_breaking"}
    assert "classify_breaking" in clustering["ssqm_check"]
    assert [(name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and node.arg == "drop_top"] == []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        assert "cluster_cut" not in text and "surviving_clusters" not in text, path.name


def test_one_rule_per_pssqm_condition():
    # the norm condition sum |eta|^2 = 2p raises from one site, and the chain
    # of sectors mu + nu, nu = 1 .. p, is built once
    tree = _source("pssqm.py")
    raises = [node.lineno for node in ast.walk(tree)
              if _call_name(node) == "EtaNormViolationError"]
    assert len(raises) == 1
    chains = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
              and "np.arange(1, lam)" in ast.unparse(node.left)]
    assert chains == ["(mu + np.arange(1, lam)) % lam"]


def _band_products(tree) -> list[str]:
    """Each product with rep.a read on one side and rep.adag on the other, such as
    ``rep.adag * rep.a``: a Hamiltonian built from the bands it would check."""
    bands = {"rep.a", "rep.adag"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            left, right = ({_dotted(sub) for sub in ast.walk(side)} & bands
                           for side in (node.left, node.right))
            if left and right and left | right == bands:
                found.append(ast.unparse(node))
    return found


def test_ssqm_hamiltonian_is_not_built_from_the_checked_bands():
    # ssqm_check takes H from the sector table, the array its breaking report
    # clusters, so a and adag changed alike cannot cancel out of {Qd, Q} - H
    assert _band_products(_source("pssqm.py")) == []
    sample = "h = (rep.adag * rep.a) * low + upper_shift(rep.a * rep.adag) * high\nrep.a * 2"
    assert _band_products(ast.parse(sample)) == ["rep.adag * rep.a", "rep.a * rep.adag"]


def test_one_per_state_rule():
    # every residual of verify and the pssqm checkers is decided by one rule,
    # within tol or within RELATIVE_TOL of the state's scale (tol alone
    # without a scale), defined once in fock.py beside the truncation rule
    functions = {(path.name, node.name): node for path in SOURCES
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.FunctionDef)}
    assert [key for key in functions if key[1] == "per_state_rule"] == [
        ("fock.py", "per_state_rule")]
    assert not {"_relative", "_per_state_rule", "interior_max_abs"} & {
        name for _, name in functions}
    reading = {key for key, func in functions.items() for node in ast.walk(func)
               if isinstance(node, ast.Name) and node.id == "RELATIVE_TOL"}
    assert reading == {("fock.py", "per_state_rule")}
    deciding = {key for key, func in functions.items()
                if "per_state_rule" in map(_call_name, ast.walk(func))}
    assert deciding == {("verify.py", "_evaluate"), ("pssqm.py", "khare_check"),
                        ("pssqm.py", "ssqm_check"), ("pssqm.py", "beckers_debergh_check")}
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        assert "_per_state_rule" not in text and "interior_max_abs" not in text, path.name
    # pssqm's public RELATIVE_TOL is the rule's own
    assert clext.pssqm.RELATIVE_TOL is clext.fock.RELATIVE_TOL == 1e-13


def test_energies_have_one_derivation():
    # E_n is the closed form of the sector table; hamiltonian_h0 does not
    # derive it a second time through F(n) to compare the two
    tree = _source("spectrum.py")
    assert [node.lineno for node in ast.walk(tree)
            if _call_name(node) == "structure_values"] == []
    assert "structure_values" not in _imported(tree).get(".algebra", set())


def _sector_broadcasts(tree) -> list[str]:
    """Each comparison with an operand broadcast along a new axis, such as
    ``n % lam == np.arange(lam)[:, None]``, which builds a (lam, dim) array."""
    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for operand in (node.left, *node.comparators) for sub in ast.walk(operand)
            if isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Tuple)
            and any(isinstance(item, ast.Constant) and item.value is None
                    for item in sub.slice.elts)]


def test_fock_stores_one_projector_period():
    # the rows of P are windows onto one period of dim + lam - 1 entries,
    # never lam rows compared out of the sector index
    assert _sector_broadcasts(_source("fock.py")) == []
    sample = "p = (sector == np.arange(lam)[:, None])\nq = n % lam == lam - 1"
    assert _sector_broadcasts(ast.parse(sample)) == ["sector == np.arange(lam)[:, None]"]


def test_block_width_is_not_a_parameter():
    # the width derives from lam and the byte budget, so callers cannot
    # trade memory for speed by accident
    for func in (clext.verify_defining_relations, clext.verify_projector_algebra):
        assert str(inspect.signature(func)) == (
            "(rep: 'TruncatedFockRep', tol: 'float' = 1e-12) -> 'ResidualReport'")


def test_spec_and_rep_builders_take_no_new_knobs():
    # per-lam phase tables and the spec's own beta are kept without an
    # option: a cache switch or a precision knob would be a second code path
    assert str(inspect.signature(clext.from_alpha)) == "(lam: 'int', alpha) -> 'AlgebraSpec'"
    assert str(inspect.signature(clext.from_kappa)) == "(lam: 'int', kappa) -> 'AlgebraSpec'"
    assert str(inspect.signature(clext.build_fock_rep)) == (
        "(spec: 'AlgebraSpec', dim: 'int', dtype=<class 'numpy.complex128'>)"
        " -> 'TruncatedFockRep'")


def test_samplers_take_no_box_cap_or_tolerance():
    # the draw box, the draw cap and the null tolerance are module constants:
    # no caller set them, so an option for each was a second code path
    assert str(inspect.signature(clext.sample_bfb_alpha)) == (
        "(lam: 'int', rng: 'np.random.Generator') -> 'np.ndarray'")
    assert str(inspect.signature(clext.sample_ground_energies)) == (
        "(lam: 'int', mu: 'int', count: 'int', rng: 'np.random.Generator')")
    assert str(inspect.signature(clext.find_null_ground_alpha)) == (
        "(lam: 'int', mu: 'int', rng: 'np.random.Generator', max_tries: 'int' = 500)"
        " -> 'np.ndarray'")


BENCH_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _dotted(node) -> str | None:
    """``clext.cli.run`` for an attribute chain on a name, None otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _module_dict(tree, name):
    """The dict literal assigned to the module-level ``name``."""
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == [name]]
    assert isinstance(value, ast.Dict), name
    return value


def _resolve(name: str):
    """The object that a dotted ``clext.`` name binds."""
    target = clext
    for attr in name.split(".")[1:]:
        assert hasattr(target, attr), name
        target = getattr(target, attr)
    return target


def _argument_names(node, functions) -> set[str]:
    """String keys subscripted anywhere in ``node``, and in the body of each
    module-level function that ``node`` calls by name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Constant):
            names.add(sub.slice.value)
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in functions:
            names |= _argument_names(functions[sub.func.id], functions)
    return names


def test_benchmark_bindings_resolve():
    # the benchmark's tracer binds public names and reads call arguments by
    # name; a rename in clext must fail here, not in a benchmark run
    tree = ast.parse(BENCH_TRACING.read_text(encoding="utf-8"))
    bound = {name for node in ast.walk(tree)
             if (name := _dotted(node)) and name.startswith("clext.")}
    assert {"clext.khare_check", "clext.cli.parse_config", "clext.cli.run"} <= bound
    for name in bound:
        _resolve(name)

    table = _module_dict(tree, "PUBLIC")
    public = {key.value: _dotted(value) for key, value in zip(table.keys, table.values)}
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    ops = _module_dict(tree, "OPS")
    read = {}
    for key, value in zip(ops.keys, ops.values):
        assert key.value in public, key.value
        read[key.value] = _argument_names(value, functions)
        parameters = inspect.signature(_resolve(public[key.value])).parameters
        missing = read[key.value] - set(parameters)
        assert not missing, (key.value, missing)
    assert read["pssqm.khare_check"] == {"rep", "charge"}
    assert read["verify.defining_relations"] == {"rep"}


BENCH_CASES = BENCH_TRACING.with_name("cases.py")

#: The type of each name that the outcome functions of ``bench/cases.py``
#: read report fields from.
OUTCOME_ROOTS = {
    "outcome_of_pssqm": {"run": clext.KhareRun},
    "outcome_of_verify": {"report": clext.ResidualReport, "entry": clext.RelationResidual},
}


def _attribute_reads(func, constants):
    """(root name, attribute names) of each attribute chain read in ``func``:
    ``x.a.b``, and ``getattr(x, f"a_{name}")`` with ``name`` bound by a
    comprehension over a module-level tuple in ``constants``."""
    bound = {gen.target.id: constants[gen.iter.id] for gen in ast.walk(func)
             if isinstance(gen, ast.comprehension) and isinstance(gen.target, ast.Name)
             and getattr(gen.iter, "id", None) in constants}
    reads = []
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and (name := _dotted(node)):
            root, *attrs = name.split(".")
            reads.append((root, attrs))
        elif (_call_name(node) == "getattr" and (name := _dotted(node.args[0]))
              and isinstance(node.args[1], ast.JoinedStr)):
            root, *attrs = name.split(".")
            parts = [[part.value] if isinstance(part, ast.Constant) else bound[part.value.id]
                     for part in node.args[1].values]
            reads += [(root, [*attrs, "".join(pick)]) for pick in itertools.product(*parts)]
    return reads


def _read_field(owner: type, attr: str):
    """The declared type of field ``attr`` of ``owner``, None for a property."""
    hints = typing.get_type_hints(owner)
    if attr in hints:
        return hints[attr]
    assert isinstance(getattr(owner, attr, None), property), (owner.__name__, attr)
    return None


def test_benchmark_case_reads_resolve():
    # the benchmark's oracle calls public names and reads report fields by
    # attribute; a rename in clext must fail here, not in a benchmark run
    tree = ast.parse(BENCH_CASES.read_text(encoding="utf-8"))
    called = {name for node in ast.walk(tree)
              if (name := _dotted(node)) and name.startswith("clext.")}
    assert {"clext.from_alpha", "clext.solve_r", "clext.ground_energy"} <= called
    for name in called:
        _resolve(name)

    constants = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                 and isinstance(node.value, ast.Tuple)
                 and all(isinstance(item, ast.Constant) for item in node.value.elts)}
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    read = set()
    for func, roots in OUTCOME_ROOTS.items():
        for root, attrs in _attribute_reads(functions[func], constants):
            owner = roots.get(root)
            for attr in attrs:
                if not (isinstance(owner, type) and owner.__module__.startswith("clext.")):
                    break
                read.add(f"{owner.__name__}.{attr}")
                owner = _read_field(owner, attr)
    assert {"KhareRun.solved_r", "PssqmReport.residual_multilinear",
            "BreakingReport.excited_multiplicities", "ResidualReport.entries",
            "RelationResidual.passed"} <= read
