"""The test oracles import nothing private, and no submodule's name, from the package.

An oracle that borrows a helper of the code it checks runs that code, so a
fault in the helper shows on both sides of the comparison and the
cross-check passes.  ``tests/oracles.py`` may use the names the package
exports (the grid, the kernels' ``eval``) and submodules imported as
modules, but no ``_``-prefixed module or name of ``gencoag``, and no name
imported from a submodule (``from gencoag.<module> import <name>``).
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def refused_imports(path):
    """(line, dotted name) for each ``_``-prefixed module or name that ``path`` imports from
    gencoag, and each name it imports from a submodule of gencoag."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gencoag":
            names = [f"{node.module}.{a.name}" for a in node.names]
            from_submodule = node.module != "gencoag"
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "gencoag"]
            from_submodule = False
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if from_submodule or any(part.startswith("_") for part in name.split("."))]
    return found


def test_oracles_import_nothing_private():
    assert refused_imports(ORACLES) == []


def test_the_check_sees_a_private_import(tmp_path):
    path = tmp_path / "oracles.py"
    path.write_text("import numpy as np\n"
                    "from gencoag import SizeGrid, testfuncs\n"
                    "from gencoag.operators import LagScheme, _PairSet\n"
                    "import gencoag._private\n"
                    "from gencoag import _helper as helper\n"
                    "from numpy import _core\n"
                    "import gencoag.testfuncs\n"
                    "from gencoag.sizedomain import weight_values\n")
    assert refused_imports(path) == [(3, "gencoag.operators.LagScheme"),
                                     (3, "gencoag.operators._PairSet"),
                                     (4, "gencoag._private"),
                                     (5, "gencoag._helper"),
                                     (8, "gencoag.sizedomain.weight_values")]
