#!/usr/bin/env python3
"""Self-test of the benchmark: its checks pass, catch corruption, and its
output and trace export have the promised shape.

Run from the repository root::

    python3 e2e_bench/selftest.py

For every workload, with small inputs (``--quick``):

* untraced and traced runs exit 0, report ``correct: true`` with no failed
  operation, and print exactly the metric names (and units) of
  ``BENCHMARK.json``;
* a run whose first repetition gets one event (or one query) dropped from a
  copy of its inputs (``--corrupt``) reports ``correct: false`` and counts
  the damaged operation as failed;
* the traced run's span export passes ``tools/validate_obs_export.py``
  (run read-only).

It also checks ``BENCHMARK.json`` against the limits of its format (key
sets, name and unit syntax, bounds of at most 0.25, ``setup_s`` with the
largest bound), and that the benchmark, copied into a directory without the
program, exits non-zero without printing a result.  Exits non-zero on the
first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SEED = 3
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def result_of(process: subprocess.CompletedProcess, label: str) -> dict:
    if process.returncode != 0:
        fail(f"{label}: exit code {process.returncode}\n{process.stderr[-2000:]}")
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{label}: the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        fail(f"{label}: failed {result['failed']!r}")
    return result


def check_spec(spec: dict) -> None:
    expected_keys = {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    if set(spec) != expected_keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = []
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200:
            fail(f"workload entry {workload}")
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"}:
            fail(f"end_to_end entry {metric}")
        if not 0 < metric["bound"] <= 0.25:
            fail(f"bound of {metric['name']}")
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            fail(f"per_layer entry {metric}")
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("higher", "lower"):
            fail(f"unit or direction of {metric['name']}")
    bad = [name for name in names if not NAME.match(name)]
    if bad or len(set(names)) != len(names):
        fail(f"names not unique or malformed: {bad}")
    setup = [metric for metric in spec["end_to_end"] if metric["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must exist and carry the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        fail("workload count or run_seconds out of range")
    if spec["paths"] != [HERE.name] or spec["command"][1] != f"{HERE.name}/run.py":
        fail("command must run this directory's run.py")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    units = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    common = ["--seed", str(SEED), "--seconds", "1", "--quick"]
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            result = result_of(run("--workload", workload, "--trace", str(trace), *common), label)
            if not result["correct"] or result["failed"]:
                fail(f"{label}: reported incorrect ({result['failed']} failed)")
            metrics = result["metrics"]
            if list(metrics) != list(units[trace]):
                fail(f"{label}: metric names {list(metrics)}")
            for name, entry in metrics.items():
                value = entry["value"]
                if entry["unit"] != units[trace][name] or not math.isfinite(value):
                    fail(f"{label}: {name} = {entry}")
                if trace == 0 and value == 0:
                    fail(f"{label}: end-to-end metric {name} is 0")
            print(f"ok  {label}: {result['attempted']} operations checked")
        export = OUT / f"trace-{workload}-seed{SEED}.jsonl"
        validation = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "validate_obs_export.py"), str(export)],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if validation.returncode != 0:
            fail(f"{export.name} fails validate_obs_export.py:\n{validation.stdout}")
        print(f"ok  {export.relative_to(ROOT)} passes tools/validate_obs_export.py")
        label = f"{workload} --corrupt"
        result = result_of(
            run("--workload", workload, "--trace", "0", "--corrupt", *common), label
        )
        if result["correct"] or result["failed"] < 1:
            fail(f"{label}: corruption not detected: {result}")
        print(f"ok  {label}: reported incorrect, {result['failed']} failed operation(s)")

    stripped = OUT / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    shutil.copytree(HERE, stripped / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    process = run("--workload", spec["workloads"][0]["name"], *common, cwd=stripped)
    shutil.rmtree(stripped)
    if process.returncode == 0 or '"metrics"' in process.stdout:
        fail("without the program the benchmark must exit non-zero and print no result")
    print(f"ok  without the program: exit code {process.returncode}, no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
