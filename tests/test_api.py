"""The package's public names, its error contract and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import inkbasis
from inkbasis import errors

SRC = Path(inkbasis.__file__).parent
CONTRACT = {"InkBasisError", "ParseError", "InvalidParameterError", "InvalidDataError",
            "BasisMismatchError"}


def test_all_names_resolve():
    missing = [name for name in inkbasis.__all__ if not hasattr(inkbasis, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(inkbasis.__all__)) == len(inkbasis.__all__)


def test_all_is_one_name_per_job():
    assert sorted(inkbasis.__all__) == sorted([
        "BASIS_KINDS", "DEFAULT_LAMBDA", "BasisMismatchError", "CoeffTable", "DensePoly",
        "InkBasisError", "InkTrace", "InnerProductSpec", "InvalidDataError",
        "InvalidParameterError", "LabeledDataset", "OrthoBasis", "ParseError", "PiecewisePoly",
        "SplineKind", "SymbolCoeffs", "Weight", "accuracy_sweep", "arc_length_normalize",
        "build_basis", "build_named_basis", "coeff_distance_sq", "inner_closed_form",
        "knn_accuracy", "knn_classify", "load_basis", "load_inkml", "load_pendigits",
        "match_symbol", "merge_strokes", "parse_inkml", "parse_pendigits", "project",
        "read_coeffs_jsonl", "reconstruct", "representation_error", "save_basis",
        "symbol_coeffs", "synthesize", "to_coeffs", "write_coeffs_jsonl",
    ])


def test_internal_types_live_in_their_modules():
    # callers pass kind strings, and a NormalizedTrace is what arc_length_normalize returns
    from inkbasis.ink import NormalizedTrace
    from inkbasis.poly import BasisKind

    assert BasisKind("chebyshev") is inkbasis.DensePoly("chebyshev", [1.0]).basis
    trace = inkbasis.InkTrace([(0, 0), (1, 1)])
    assert isinstance(inkbasis.arc_length_normalize(trace), NormalizedTrace)
    for name in ("BasisKind", "NormalizedTrace", "spec_for_kind", "basis_to_json_dict",
                 "basis_from_json_dict"):
        assert not hasattr(inkbasis, name), name


def test_cli_import_loads_no_scipy():
    # a fresh process, so modules the tests import do not count
    env = dict(os.environ, PYTHONPATH=str(Path(inkbasis.__file__).parents[1]))
    code = "import sys, inkbasis.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_commands_and_queries_load_no_numpy_polynomial(tmp_path):
    # only DensePoly.derivative uses numpy.polynomial, and it imports it where it
    # is used; a fresh process runs a command of each kind and a query
    golden = Path(__file__).parent / "data" / "cli_golden"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (
        "import sys, inkbasis\n"
        "from inkbasis.cli import main\n"
        f"g, out = {str(golden)!r}, {str(tmp_path)!r}\n"
        "for argv in (['knn-eval', g + '/pendigits.txt', '--spline', 'cubic'],\n"
        "             ['error-sweep', g + '/walk_0.inkml', '--d-max', '12'],\n"
        "             ['build-basis']):\n"
        "    assert main([*argv, '--out', out + '/o']) == 0\n"
        "b = inkbasis.build_named_basis('chebyshev-sobolev', 10)\n"
        "t = inkbasis.merge_strokes(inkbasis.parse_inkml('<ink><trace>0 0, 3 1, 4 4</trace></ink>'))\n"
        "q = inkbasis.to_coeffs(inkbasis.arc_length_normalize(t, 'cubic'), b)\n"
        "ds = inkbasis.LabeledDataset((inkbasis.SymbolCoeffs(q.basis_id, q.xs, q.ys, '1'),) * 4)\n"
        "inkbasis.match_symbol(q, ds, b), inkbasis.knn_classify(ds, q, 3, b)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_every_raise_names_a_contract_class():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else None
            if name not in CONTRACT:
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_errors_defines_only_the_contract():
    tree = ast.parse(Path(errors.__file__).read_text(encoding="utf-8"))
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == CONTRACT
    assert all(issubclass(getattr(errors, name), errors.InkBasisError) for name in CONTRACT)
    assert issubclass(errors.BasisMismatchError, errors.InvalidDataError)
    for name in ("InvalidParameterError", "InvalidDataError"):
        assert issubclass(getattr(errors, name), ValueError)



def _identifiers(node) -> list[str]:
    """The names a node spells: a name, an attribute, or what an import names."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or "", *(alias.name for alias in node.names)]
    return []


def test_package_calls_no_blas_or_lapack():
    # a BLAS kernel's last bits depend on the CPU: no matrix product or factorization,
    # and no Gauss nodes or polynomial roots (leggauss, polyroots), which numpy takes
    # from a LAPACK eigensolver
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"@ at {path.name}:{node.lineno}")
            found += [f"{name} at {path.name}:{node.lineno}" for name in _identifiers(node)
                      if name == "dot" or "linalg" in name or "cholesky" in name.lower()]
            if isinstance(node, ast.Call):
                found += [f"{name}() at {path.name}:{node.lineno}"
                          for name in _identifiers(node.func) if name.endswith(("gauss", "roots"))]
    assert found == []


def test_package_calls_no_transcendental_function():
    # numpy picks its loops for these per CPU, and their last bits move with
    # the choice; +, -, *, / and sqrt are exactly rounded on every CPU
    banned = {"arccos", "arcsin", "arctan", "arctan2", "sin", "cos", "tan", "exp", "log"}
    found = [f"{name} at {path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             for name in _identifiers(node) if name in banned]
    assert found == []
