"""No product in the package calls matrix BLAS.

A 2-D ``@``, ``matmul`` or ``dot`` goes through OpenBLAS gemm or gemv,
whose level-2/3 kernels every run would then fault into memory; the
products are ``np.einsum`` calls, which do not call BLAS unless asked to
optimize.  The one ``@`` allowed is the 1-D step norm of
``integrator._weighted_l1``: a ``ddot``, which ``np.convolve`` calls anyway.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gencoag"
ALLOWED_MATMUL = {("integrator.py", "_weighted_l1")}
BLAS_CALLS = {"matmul", "dot", "vdot", "inner", "tensordot", "linalg"}


def offences(path):
    """(line, what) for each BLAS product in the file at ``path``, outside the allowed scopes."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope is None else scope
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            if (path.name, scope) not in ALLOWED_MATMUL:
                found.append((node.lineno, "@"))
        if isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS:
            found.append((node.lineno, node.attr))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum":
            if any(kw.arg == "optimize" for kw in node.keywords):
                found.append((node.lineno, "einsum(optimize=...)"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_no_source_file_makes_a_blas_product():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = {path.name: offences(path) for path in sources}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_a_matrix_product(tmp_path):
    path = tmp_path / "diagnostics.py"
    path.write_text("def f(a, b):\n    c = a @ b\n    c @= b\n    return np.dot(a, b)\n")
    assert offences(path) == [(2, "@"), (3, "@"), (4, "dot")]
    path = tmp_path / "integrator.py"
    path.write_text("def _weighted_l1(w, v):\n    return w @ v\n\n\ndef g(a, b):\n    return a @ b\n")
    assert offences(path) == [(6, "@")]
