#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

The first form builds the benchmark program (the Cargo package in this
directory) in release mode, runs one pass of one workload and passes its
output through. It fails unless the last line is a result object whose
metrics are exactly those BENCHMARK.json lists for that pass: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The build goes to $CARGO_TARGET_DIR, or perfbench/target when unset.

The second form prints every workload and metric by name with its unit,
direction and bound, and for each per-layer metric what it measures and
what it should move (ledger.json).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load(path):
    with open(path) as f:
        return json.load(f)


def list_metrics():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    ledger = load(os.path.join(HERE, "ledger.json"))["metrics"]
    print("workloads:")
    for w in bench["workloads"]:
        print(f"  {w['name']:<12} {w['why']}")
    print("end-to-end (--trace 0):")
    for m in bench["end_to_end"]:
        print(f"  {m['name']:<28} {m['unit']:<9} {m['better']:<7} bound {m['bound']}")
    print("per-layer (--trace 1):")
    for m in bench["per_layer"]:
        entry = ledger[m["name"]]
        print(f"  {m['name']:<28} {m['unit']:<9} {m['better']:<7} {entry['what']}")
        if entry["moves"]:
            print(f"  {'':<28} moves: {', '.join(entry['moves'])}")
        if entry["no_change"]:
            print(f"  {'':<28} no change: {', '.join(entry['no_change'])}")


def check_result(line, trace):
    """Why `line` is not a valid result for the pass, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return f"the result keys are not {sorted(RESULT_KEYS)}"
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    return None


def main(argv):
    if argv == ["--list"]:
        list_metrics()
        return 0
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench"), *argv],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.writelines(line + "\n" for line in lines)
        return run.returncode or 1
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    problem = check_result(lines[-1], trace)
    if problem:
        print("\n".join(lines[:-1]))
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
