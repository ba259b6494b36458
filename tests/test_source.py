import ast
import hashlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latq"


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
        "e4225881c8ed29cf3a68e67c0255005c2f9352af7a63b756798d532edd624d43"
