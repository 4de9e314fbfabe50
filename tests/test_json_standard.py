"""Every JSON document the package writes is standard JSON.

RFC 8259 has no Infinity or NaN, which ``json.dump`` writes by default.  A
writer maps a number that is not finite to null where it builds its
document, and every ``json.dump``/``json.dumps`` call in the package passes
``allow_nan=False``, so a value that slips through raises instead of being
written.
"""

import ast
from pathlib import Path

import pytest

from gencoag import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "gencoag"
DUMPS = {"dump", "dumps"}


def json_writes(path):
    """(line, passes allow_nan=False) for each json.dump/dumps call in the file at ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        named = isinstance(func, ast.Name) and func.id in DUMPS
        attr = (isinstance(func, ast.Attribute) and func.attr in DUMPS
                and getattr(func.value, "id", None) == "json")
        if named or attr:
            strict = any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                         and kw.value.value is False for kw in node.keywords)
            found.append((node.lineno, strict))
    return found


def test_every_json_writer_refuses_non_finite_numbers():
    writes = {path.name: json_writes(path) for path in sorted(SRC.glob("*.py"))}
    assert sum(len(w) for w in writes.values()) >= 2  # cli._dump_json and the report
    assert {name: [line for line, strict in w if not strict]
            for name, w in writes.items() if not all(strict for _, strict in w)} == {}


def test_the_check_sees_a_lenient_writer(tmp_path):
    path = tmp_path / "writer.py"
    path.write_text("import json\nfrom json import dumps\n\n"
                    "json.dump(x, fh)\njson.dumps(x, allow_nan=True)\ndumps(x)\n"
                    "json.dump(x, fh, allow_nan=False)\n")
    assert json_writes(path) == [(4, False), (5, False), (6, False), (7, True)]


def test_a_non_finite_number_that_slips_through_raises(tmp_path):
    with pytest.raises(ValueError):
        cli._dump_json({"bound": float("inf")}, tmp_path / "out.json")
