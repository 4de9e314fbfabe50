"""No config value ends a command in a traceback.

A property test over (command, section.key, value): one key of a small
base config, or one whole section, takes a value from a family of hostile
ones (huge and negative integers, NaN, infinities, 1e308, booleans, null,
strings, lists and mappings), and ``main`` runs in process on it.  It
must return 0, 1 or 2 and raise nothing; a RuntimeWarning is an error
under the suite's settings.  On exit 1 it prints one ``error:`` line and
leaves no output directory.

An accepted extreme value can cost a real solve: ``time.horizon: 1e308``
with one snapshot takes about 4 s on the base grid, and ``sweep`` to that
horizon about 10 s.  So the examples are derandomized, every run tries the
same 150, and the test takes about 3 s on a 2-core host; a wider search
runs the same test with a larger ``max_examples`` and ``derandomize=False``.
"""

import contextlib
import copy
import io
import os
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gencoag import cli

_SOLVE = {"run": {"threads": 1}, "kernel": {"family": "constant", "rate": 1.0},
          "grid": {"n": 10.0, "cells_per_decade": 4}, "initial": {"profile": "exponential"},
          "time": {"horizon": 0.3}, "output": {"directory": "out"}}
_SIMULATE = {**_SOLVE, "run": {"model": "generalized", "eps": 0.5, "threads": 1},
             "time": {"horizon": 0.3, "snapshots": 1},
             "diagnostics": {"omegas": ["one"], "lambdas": [1.0]}}
#: command -> a config of a few cells and one snapshot that it runs in milliseconds
BASE = {"simulate": _SIMULATE, "check-kernel": _SIMULATE, "validate": _SOLVE,
        "sweep": {**_SOLVE, "sweep": {"eps_list": [1.0]}}}

#: every key of the table, the kernel's parameters and every section, whole
TARGETS = sorted({*cli.KEYS, *(f"kernel.{key}" for key in ("family", "rate", "k", "sigma", "path")),
                  *(name.partition(".")[0] for name in cli.KEYS)})

_ATOMS = st.one_of(
    st.integers(min_value=-10**400, max_value=10**400),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308, True, False, None]),
    st.sampled_from(["", "abc", "one", "bump:1:1e308", "monodisperse", "singular_power",
                     "user_tabulated", "ohs", "sce"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
)
VALUES = st.one_of(_ATOMS, st.lists(_ATOMS, max_size=3),
                   st.dictionaries(st.text(max_size=3), _ATOMS, max_size=2))


@contextlib.contextmanager
def _inside(directory):
    here = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(here)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(cli.COMMANDS)), target=st.sampled_from(TARGETS),
       value=VALUES)
def test_no_config_value_ends_in_a_traceback(command, target, value):
    cfg = copy.deepcopy(BASE[command])
    section, _, key = target.partition(".")
    if key:
        cfg[section] = {**cfg.get(section, {}), key: value}
    else:
        cfg[section] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        Path("run.yaml").write_text(yaml.safe_dump(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", "run.yaml"])
        left = sorted(os.listdir())
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert [line for line in err.getvalue().splitlines() if line.startswith("error:")] == \
            err.getvalue().splitlines()[:1] and err.getvalue().count("\n") == 1
        assert left == ["run.yaml"]
