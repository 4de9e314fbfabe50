"""The CLI reads a config value only through its key table's reader.

``cli.KEYS`` decides each key's kind, range and default, and ``cli.read``
is the one function that looks a value up in a config.  A ``.get(...)`` or
a subscript on a config or one of its sections anywhere else would read a
key past the table: with a default of its own, or none, and unchecked.
The check walks each function of ``cli.py`` but the reader, marks the
names that hold a config (``cfg``, and whatever is assigned from a config,
a section of one, ``load_config(...)`` or ``_section(...)``) and refuses
each ``.get(...)`` or subscript on one of them.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "gencoag" / "cli.py"

#: the functions that may look a value up in a config
READERS = {"read"}

#: calls that return a config or a section of one
CONFIG_CALLS = {"load_config", "_section"}


def _holds_config(node, names):
    """True for an expression that evaluates to a config or a section of one."""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Subscript):
        return _holds_config(node.value, names)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in CONFIG_CALLS
        return (isinstance(func, ast.Attribute) and func.attr == "get"
                and _holds_config(func.value, names))
    return False


def config_reads(path):
    """(line, function) of each .get(...) or subscript on a config outside the reader."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name in READERS:
            continue
        names = {"cfg"}
        for node in ast.walk(func):  # a name assigned from a config holds one
            if isinstance(node, ast.Assign) and _holds_config(node.value, names):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and _holds_config(node.value, names):
                hits.append((node.lineno, func.name))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get" and _holds_config(node.func.value, names)):
                hits.append((node.lineno, func.name))
    return sorted(set(hits))


def test_cli_reads_config_values_only_through_the_key_table():
    assert config_reads(CLI) == []


def test_the_check_sees_a_read_past_the_table(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("def read(cfg, name):\n"
                    "    return cfg.get(name)\n\n\n"
                    "def cmd(args):\n"
                    "    cfg = load_config(args.config)\n"
                    "    run = _section(cfg, 'run')\n"
                    "    model = run.get('model')\n"
                    "    n = cfg['grid']['n']\n"
                    "    out = _section(cfg, 'output').get('directory', 'out')\n"
                    "    values = {'grid.n': read(cfg, 'grid.n')}\n"
                    "    return model, n, out, values['grid.n'], args.config\n")
    assert config_reads(path) == [(8, "cmd"), (9, "cmd"), (10, "cmd")]
