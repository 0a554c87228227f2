"""Tiny-size self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` once untraced and once traced on
a 300-page corpus, and checks each result line against the contract: the
exact top-level keys, whole-number counts, no failed operation, and exactly
the declared metrics with their declared units.  It also checks that the
benchmark refuses to run, quickly and without a result line, in a directory
that holds only ``BENCHMARK.json`` and the benchmark.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_result(line: str, declared: dict[str, str]) -> list[str]:
    errs = []
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"top-level keys {sorted(res)}")
    if res.get("correct") is not True:
        errs.append("correct is not true")
    for k in ("attempted", "failed"):
        if not isinstance(res.get(k), int) or isinstance(res.get(k), bool):
            errs.append(f"{k} is not a whole number")
    if res.get("attempted", 0) < 1 or res.get("failed") != 0:
        errs.append(f"attempted={res.get('attempted')} failed={res.get('failed')}")
    metrics = res.get("metrics", {})
    if set(metrics) != set(declared):
        errs.append(f"metrics {sorted(set(metrics) ^ set(declared))} "
                    "differ from BENCHMARK.json")
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errs.append(f"{name} value {v!r}")
        if m.get("unit") != declared.get(name):
            errs.append(f"{name} unit {m.get('unit')!r}")
    return errs


def run(args: list[str], cwd: str, timeout: float):
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=timeout)
    return p, time.monotonic() - t0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            p, took = run(["--workload", wl["name"], "--seed", "7",
                           "--seconds", "2", "--trace", str(trace),
                           "--docs", "300"], ROOT, 200)
            lines = p.stdout.strip().splitlines()
            errs = ([f"exit {p.returncode}: {p.stderr[-1500:]}"]
                    if p.returncode or not lines
                    else check_result(lines[-1], declared))
            print(f"{wl['name']:8s} trace={trace} {took:5.1f}s "
                  f"{'ok' if not errs else errs}")
            failures += errs

    bare = os.path.join(ROOT, ".bench_cache", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    p, took = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0"], bare, 180)
    bare_ok = p.returncode != 0 and not p.stdout.strip() and took < 180
    print(f"bare dir  exit {p.returncode} {took:5.1f}s "
          f"{'ok' if bare_ok else 'printed a result or exited 0'}")
    shutil.rmtree(bare, ignore_errors=True)
    if not bare_ok:
        failures.append("bare directory")
    print("PASS" if not failures else f"FAIL ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
