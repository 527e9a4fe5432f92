#!/usr/bin/env python
"""Validate an ``obs.to_jsonl()`` export against the committed JSON schema.

CI runs ``examples/observability.py --out`` and feeds the dump through this
validator, so the export format cannot drift from
``schemas/obs_export.schema.json`` without the change being deliberate (and
committed alongside a schema update).

The validator implements the JSON-Schema subset the schema actually uses —
``type`` (including union types), ``const``, ``enum``, ``required``,
``properties``, ``additionalProperties``, ``items``, ``minimum``,
``minLength`` and ``oneOf`` — with no third-party dependency.

Usage::

    python tools/validate_obs_export.py spans.jsonl
    python tools/validate_obs_export.py spans.jsonl --schema schemas/obs_export.schema.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SCHEMA = ROOT / "schemas" / "obs_export.schema.json"

_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    # bool is an int subclass in Python; JSON Schema keeps them distinct.
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def validate(value, schema: dict, path: str = "$") -> list[str]:
    """Return a list of violation messages (empty means valid)."""
    errors: list[str] = []

    if "oneOf" in schema:
        branch_errors = []
        matches = 0
        for index, branch in enumerate(schema["oneOf"]):
            errs = validate(value, branch, path)
            if not errs:
                matches += 1
            else:
                branch_errors.append((index, errs))
        if matches != 1:
            if matches == 0:
                detail = "; ".join(
                    f"branch {index}: {errs[0]}" for index, errs in branch_errors
                )
                errors.append(f"{path}: matches no oneOf branch ({detail})")
            else:
                errors.append(f"{path}: matches {matches} oneOf branches, wanted 1")
        return errors

    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")

    declared = schema.get("type")
    if declared is not None:
        allowed = declared if isinstance(declared, list) else [declared]
        if not any(_TYPE_CHECKS[name](value) for name in allowed):
            errors.append(
                f"{path}: expected type {'/'.join(allowed)}, "
                f"got {type(value).__name__}"
            )
            return errors  # structural checks below assume the right type

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                errors.extend(validate(item, properties[key], f"{path}.{key}"))
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                errors.extend(validate(item, additional, f"{path}.{key}"))
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            errors.extend(validate(item, schema["items"], f"{path}[{index}]"))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
        # Written so that NaN fails too: every comparison with NaN is False.
        if "maximum" in schema and not value <= schema["maximum"]:
            errors.append(
                f"{path}: {value} is not a number <= maximum {schema['maximum']}"
            )
    elif isinstance(value, str):
        if "minLength" in schema and len(value) < schema["minLength"]:
            errors.append(f"{path}: shorter than minLength {schema['minLength']}")

    return errors


def validate_file(export: Path, schema_path: Path) -> int:
    schema = json.loads(schema_path.read_text())
    failures = 0
    lines = 0
    for lineno, line in enumerate(export.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        lines += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as error:
            print(f"{export}:{lineno}: not JSON: {error}")
            failures += 1
            continue
        for message in validate(obj, schema, path=f"line {lineno}"):
            print(f"{export}:{lineno}: {message}")
            failures += 1
    if lines == 0:
        print(f"{export}: empty export (nothing validated)")
        return 1
    if failures:
        print(f"{export}: {failures} schema violation(s) across {lines} lines")
        return 1
    print(f"{export}: {lines} lines valid against {schema_path.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("export", type=Path, help="JSONL file from obs.to_jsonl()")
    parser.add_argument(
        "--schema",
        type=Path,
        default=DEFAULT_SCHEMA,
        help="schema to validate against (default: the committed one)",
    )
    args = parser.parse_args(argv)
    return validate_file(args.export, args.schema)


if __name__ == "__main__":
    sys.exit(main())
