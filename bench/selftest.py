#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it runs the harness untraced and
traced, on one corpus entry per input class at the default seed, for one
second each, and checks that:

- the last stdout line is the result object with exactly its four keys;
- every metric BENCHMARK.json names for that mode is in it with its unit,
  and is printed in the summary lines as `name = value unit`;
- every end-to-end metric is a positive number;
- no op failed (fail_ratio 0) and the run reports itself correct, which
  at the default seed includes matching the reference digests.

It also checks that the harness refuses to run under `python -O`.
Exits 1 if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
TIMEOUT_S = 300


def run(args, optimize=False):
    cmd = [sys.executable] + (["-O"] if optimize else []) + [str(RUN)] + args
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec, workload, trace, seed):
    problems = []
    proc = run(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--per-class", "1"]
    )
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    expected = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        missing = {m["name"] for m in expected} - set(got)
        extra = set(got) - {m["name"] for m in expected}
        problems.append(f"metrics missing {sorted(missing)}, extra {sorted(extra)}")
    for m in expected:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {entry['unit']!r}, expected {m['unit']!r}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or (not trace and not value > 0):
            problems.append(f"{m['name']}: value {value!r}")
        if not any(
            line.startswith(f"{m['name']} = ") and line.split()[3] == m["unit"]
            for line in lines[:-1]
        ):
            problems.append(f"{m['name']}: not in the summary with its unit")
    if result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"failed {result['failed']} of {result['attempted']}")
    if result["correct"] is not True:
        problems.append(f"run not correct: {proc.stderr.strip()[-500:]}")
    return problems


def main():
    sys.path.insert(0, str(BENCH))
    from run import DEFAULT_SEED

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, w["name"], trace, DEFAULT_SEED)
            status = "FAIL" if problems else "PASS"
            print(f"{status} {w['name']} trace={trace}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    proc = run(["--workload", spec["workloads"][0]["name"], "--seconds", "1"], optimize=True)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'PASS' if refused else 'FAIL'} refuses python -O")
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
