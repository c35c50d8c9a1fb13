#!/usr/bin/env python3
"""Checks the repo benchmark against the CI ratchet table.

Usage (from the repo root):

    python3 scripts/ratchet.py

Each workload that scripts/ratchets.tsv names runs once, at seed 1 for 2 seconds, untraced.
The check fails when a run exits non-zero or reports "correct": false (its
oracle failed), or when any of the workload's rows reads above its limit.
"""

import json
import subprocess
import sys


def read_table(path):
    """Returns {workload: [(metric, limit), ...]} in table order."""
    rows = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != 3:
                sys.exit(f"{path}:{n}: want 'workload metric limit', got {line.strip()!r}")
            workload, metric, limit = fields
            rows.setdefault(workload, []).append((metric, float(limit)))
    return rows


def run(workload):
    """Runs the workload once; returns (exit status, the result object or None)."""
    p = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return p.returncode, None


def main():
    path = "scripts/ratchets.tsv"
    failed = False
    for workload, checks in read_table(path).items():
        status, out = run(workload)
        if status != 0 or out is None or out.get("correct") is not True:
            correct = None if out is None else out.get("correct")
            print(f"{workload}: oracle failed (exit {status}, correct={correct})")
            failed = True
            continue
        for metric, limit in checks:
            value = out["metrics"][metric]["value"]
            ok = value <= limit
            failed |= not ok
            print(f"{workload} {metric}={value} (limit {limit}){'' if ok else '  FAIL'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
