#!/usr/bin/env python3
"""Quick self-check of the benchmark at toy sizes (under a minute).

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it asserts that
  * an untraced run prints exactly the `end_to_end` metrics, with their
    units, all nonzero, and `correct: true`;
  * a traced run prints exactly the `per_layer` metrics;
  * a run whose expected counts are deliberately off by one
    (`--expect-offset 1`) fails its output check: `correct: false`,
    exit code 1;
and that in a directory holding only BENCHMARK.json and the benchmark's
own files the command exits nonzero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def expect(cond, msg, proc=None):
    if not cond:
        if proc is not None:
            sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"selfcheck FAILED: {msg}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        common = ["--workload", w, "--seed", "7", "--seconds", "1", "--toy"]

        proc, res = run(common + ["--trace", "0"])
        expect(proc.returncode == 0 and res is not None, f"{w}: untraced run failed", proc)
        expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{w}: result keys {set(res)}")
        expect(res["correct"] is True and res["attempted"] >= 1, f"{w}: not correct")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == e2e, f"{w}: end-to-end metrics {sorted(got)} != {sorted(e2e)}")
        zero = [k for k, v in res["metrics"].items() if not v["value"]]
        expect(not zero, f"{w}: zero end-to-end metrics {zero}")

        proc, res = run(common + ["--trace", "1"])
        expect(proc.returncode == 0 and res is not None, f"{w}: traced run failed", proc)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == layer, f"{w}: per-layer metrics differ: {sorted(set(got) ^ set(layer))}")

        for trace in ("0", "1"):
            proc, res = run(common + ["--trace", trace, "--expect-offset", "1"])
            expect(
                proc.returncode == 1 and res is not None and res["correct"] is False,
                f"{w} trace {trace}: a wrong expected count did not fail the check",
                proc,
            )
        print(f"selfcheck: {w} ok", flush=True)

    bare = os.path.join(ROOT, ".bench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("target")
        )
        proc, res = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and res is None, "a bare directory must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck: bare directory fails as required")
    print("selfcheck: all ok")


if __name__ == "__main__":
    main()
