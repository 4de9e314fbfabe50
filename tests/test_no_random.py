"""No source file draws random numbers, so every run is deterministic.

The kernel's bound constants are proven in closed form; a random scan would
make a run's verdicts depend on a seed.  The check walks the source for an
import of a ``random`` module and for any ``.random`` attribute, such as
``np.random``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gencoag"


def random_references(path):
    """(line, name) for each reference to a ``random`` module in the file at ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if "random" in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [a.name for a in node.names]
            if "random" in names:
                found.append((node.lineno, node.module))
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            found.append((node.lineno, "random"))
    return sorted(found)


def test_no_source_file_references_a_random_module():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = {path.name: random_references(path) for path in sources}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_a_random_module(tmp_path):
    path = tmp_path / "kernels.py"
    path.write_text("import random\nimport numpy.random as npr\nfrom numpy import random\n"
                    "from random import uniform\n\n\ndef f(np):\n    return np.random.default_rng(0)\n")
    assert random_references(path) == [(1, "random"), (2, "numpy.random"), (3, "numpy"),
                                       (4, "random"), (8, "random")]
