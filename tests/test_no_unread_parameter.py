"""Every parameter a function in the package takes is read by its body.

A parameter that nothing reads is a setting that changes nothing: callers
pass it, readers believe it matters, and it outlives the code that read
it.  The check walks each function and lambda in the source for its
parameters and looks for a read of each name anywhere in its body, nested
functions included.  A method's ``self`` or ``cls`` is not a parameter a
caller sets, and a body that only raises (an abstract method) reads
nothing by design.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gencoag"

#: (file, function, parameter) that the package never reads but must keep:
#: the benchmark's trace binds run_model's arguments by name and reads the grid's size
EXEMPT = {("experiments.py", "run_model", "grid")}


def _raises_only(body):
    """True for a body of an optional docstring and one ``raise``."""
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def unread_parameters(path):
    """(line, function, parameter) for each parameter of a function in ``path`` its body never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
            if _raises_only(body):
                continue
        elif isinstance(node, ast.Lambda):
            name, body = "<lambda>", [node.body]
        else:
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for part in body for n in ast.walk(part)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        hits += [(node.lineno, name, p.arg) for p in params
                 if p.arg not in read and p.arg not in ("self", "cls")
                 and (path.name, name, p.arg) not in EXEMPT]
    return sorted(hits)


def test_no_function_takes_a_parameter_it_never_reads():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = {path.name: unread_parameters(path) for path in sources}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_an_unread_parameter(tmp_path):
    path = tmp_path / "diagnostics.py"
    path.write_text("class Check:\n"
                    "    def rate(self, lo, hi):\n"
                    "        \"\"\"Abstract.\"\"\"\n"
                    "        raise NotImplementedError\n\n"
                    "    def bound(self, series, sigma=0.0):\n"
                    "        return max(series)\n\n\n"
                    "def modulus(traj, omega, *, gauge2, **kw):\n"
                    "    def inner(t):\n"
                    "        return omega(t)\n"
                    "    gauge2 = None\n"
                    "    return [inner(t) for t in traj]\n\n\n"
                    "scale = lambda x, y: 2 * x\n")
    assert unread_parameters(path) == [(6, "bound", "sigma"), (10, "modulus", "gauge2"),
                                       (10, "modulus", "kw"), (17, "<lambda>", "y")]
