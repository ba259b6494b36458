import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "latq"


def test_no_assert_statements_in_src():
    # an assert vanishes under `python -O`, so no check in the package is one
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_matrix_product(node: ast.AST) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name in {"matmul", "dot", "einsum", "tensordot", "inner"}
    return False


def test_no_uint8_matrix_products_in_src():
    # a uint8 product counts paths modulo 256, so 256 paths read as none
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if _is_matrix_product(node) and \
                    "uint8" in ast.get_source_segment(text, node):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _writes_to_console(node: ast.AST) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "print"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "sys" and node.attr in {"stdout", "stderr"}
    if isinstance(node, ast.ImportFrom) and node.module == "sys":
        return any(a.name in {"stdout", "stderr"} for a in node.names)
    return False


def test_library_modules_print_nothing():
    # diagnostics go through logging; only the command line writes to the
    # console
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"]
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _writes_to_console(node)
    ]
    assert found == []


def test_star_import_names_are_pinned():
    # sha256 of the sorted names `from latq import *` binds, joined by
    # newlines: no import may add or drop a public name unnoticed
    names = {}
    exec("from latq import *", names)
    names.pop("__builtins__")
    joined = "\n".join(sorted(names)).encode()
    assert hashlib.sha256(joined).hexdigest() == \
        "d65e2377c27ef07396c01c6eabbc710e8dfbdd1d031c4e80e1fcee287e1159af"


def test_every_python_file_parses_as_python_3_10():
    # the package supports Python 3.10, so no file may use later syntax
    # (a `match` is fine, a PEP 695 `type` alias or an `except*` is not).
    # This checks syntax only: a library call added after 3.10 still
    # parses, and only a 3.10 interpreter finds it
    files = [path for top in ("src", "tests", "scripts", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, 10))


def test_each_catalogued_mutant_applies_to_one_place_and_names_real_tests():
    # scripts/mutants.py mutates a copy by exact replacement: each old text
    # occurs once in src/ and in its own file, and each test it expects to
    # catch the mutant is a test function of the file it names
    catalogue = json.loads((ROOT / "scripts" / "mutants.json").read_text())
    assert len(catalogue) >= 8
    assert len({m["name"] for m in catalogue}) == len(catalogue)
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    for m in catalogue:
        assert m["old"] != m["new"] and m["tests"], m["name"]
        assert sum(text.count(m["old"]) for text in sources) == 1, m["name"]
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["name"]
        for test in m["tests"]:
            path, name = test.split("[")[0].split("::")
            tree = ast.parse((ROOT / path).read_text())
            assert name in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}, test


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # under the project's pytest settings, which turn warnings into errors,
    # a failing @given test must exit 1 with its report; a warning raised
    # while hypothesis reports the failure would make it an INTERNALERROR,
    # exit 3, and end the run
    test = tmp_path / "test_failing_given.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_negative(x):\n"
        "    assert x < 0\n")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed" in out.stdout
