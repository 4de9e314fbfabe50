"""Correctness gate applied to every CLI run the benchmark makes.

A run fails when it exits non-zero, prints a line starting with ``FAIL``,
emits JSON that does not validate against the package's schemas, reports
``passed: false`` or failed sweep members, or breaks a mass ledger.
"""

from __future__ import annotations

import json

import jsonschema

from workloads import SRC

SCHEMAS = SRC / "gencoag" / "schemas"
# the file each command must emit
REQUIRED = {"simulate": ("manifest.json", "report.json"),
            "validate": ("validate.json",),
            "sweep": ("summary.json",)}
LEDGER_CLOSURE_MAX = 1e-12


def check(command, returncode, stdout, out_dir):
    """Return the list of reasons the run failed; empty when it passed."""
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    if any(line.startswith("FAIL") for line in stdout.splitlines()):
        reasons.append("a check printed FAIL")
    docs = {}
    for path in sorted(out_dir.glob("*.json")):
        try:
            docs[path.name] = doc = json.loads(path.read_text())
        except ValueError as exc:
            reasons.append(f"{path.name}: not JSON ({exc})")
            continue
        schema = SCHEMAS / f"{path.stem}.schema.json"
        if schema.exists():
            try:
                jsonschema.validate(doc, json.loads(schema.read_text()))
            except jsonschema.ValidationError as exc:
                reasons.append(f"{path.name}: schema: {exc.message}")
    for name in REQUIRED[command]:
        if name not in docs:
            reasons.append(f"{name} missing")
    for name in ("validate.json", "summary.json"):
        if docs.get(name, {}).get("passed") is False:
            reasons.append(f"{name}: passed is false")
    if docs.get("summary.json", {}).get("failed_members"):
        reasons.append("summary.json: failed members")
    closure = docs.get("report.json", {}).get("ledger", {}).get("max_closure_rel", 0.0)
    if not closure <= LEDGER_CLOSURE_MAX:
        reasons.append(f"report.json: ledger closure {closure:.3g} > {LEDGER_CLOSURE_MAX:g}")
    mc = docs.get("validate.json", {}).get("mass_conservation")
    if mc is not None and not mc["max_closure_rel"] <= mc["tolerance"]:
        reasons.append("validate.json: mass closure above its tolerance")
    return reasons
