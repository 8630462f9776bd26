#!/usr/bin/env python3
"""End-to-end benchmark of icilk-repro: builds perfbench from source, runs it.

    python3 perfbench/run.py --workload proxy_hit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare before.txt after.txt

A run prints a human-readable summary, a `perfbench-record:` line with the
comparability record (hardware threads, CPU model, workers, rates, seed) and,
as its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Save a run's stdout to a file to --compare it with another; the
comparison refuses records taken on hosts with different hardware threads.

The build goes to .bench_build/perfbench under the checkout root.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RECORD = "perfbench-record: "


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) == 0


def load_record(path):
    with open(path) as f:
        for line in f:
            if line.startswith(RECORD):
                return json.loads(line[len(RECORD):])
    raise SystemExit(f"{path}: no '{RECORD.strip()}' line")


def compare(before_path, after_path):
    before, after = load_record(before_path), load_record(after_path)
    bi, ai = before["info"], after["info"]
    if bi.get("hardware_threads") != ai.get("hardware_threads"):
        print(f"refusing to compare: hardware_threads {bi.get('hardware_threads')}"
              f" vs {ai.get('hardware_threads')}", file=sys.stderr)
        return 3
    for key in ("workload", "trace", "seconds"):
        if bi.get(key) != ai.get(key):
            print(f"refusing to compare: {key} {bi.get(key)} vs {ai.get(key)}",
                  file=sys.stderr)
            return 3
    if bi.get("cpu_model") != ai.get("cpu_model"):
        print(f"note: cpu_model differs: {bi.get('cpu_model')!r} vs "
              f"{ai.get('cpu_model')!r}")
    print(f"{'metric':40} {'before':>14} {'after':>14} {'after/before':>13}")
    for name, m in before["metrics"].items():
        b = m["value"]
        a = after["metrics"].get(name, {}).get("value")
        ratio = f"{a / b:13.4f}" if a is not None and b else f"{'-':>13}"
        print(f"{name:40} {b:14.6g} {a if a is not None else float('nan'):14.6g}"
              f" {ratio}  {m['unit']}")
    return 0


def main(argv):
    """--compare is handled here; every other argument goes to the binary,
    whose strict parser is the one place that validates the command line."""
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print("usage: run.py --compare BEFORE AFTER", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.call([BINARY] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
