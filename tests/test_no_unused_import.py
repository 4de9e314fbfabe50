"""Every module-level import in the package is used by its module.

A name that a module imports and never reads is code that nothing needs:
it is compiled and loaded on every run, and it outlives the code that
called it.  The check walks each source file for the names its top-level
``import`` statements bind and looks for a read of each anywhere in the
file, annotations included.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gencoag"


def unused_imports(path):
    """(line, name) for each name a top-level import in the file at ``path`` binds, never read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_no_source_file_imports_a_name_it_never_reads():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = {path.name: unused_imports(path) for path in sources}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "experiments.py"
    path.write_text("from __future__ import annotations\n\nimport os.path\nimport numpy as np\n"
                    "from .kernels import Kernel, truncate\nfrom .sizedomain import (\n"
                    "    weight_values,\n    write_csv,\n)\n\n\n"
                    "def run(kernel: Kernel):\n    import json\n\n"
                    "    return write_csv(np.zeros(2), kernel)\n")
    assert unused_imports(path) == [(3, "os"), (5, "truncate"), (6, "weight_values")]
