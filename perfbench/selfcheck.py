"""Fast self-check of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

For every workload it runs one untraced and one traced pass on 12-note
pieces and checks that the outputs pass, that every metric name and unit
matches BENCHMARK.json for its mode, and that the traced run decodes exactly
what the untraced runs decode (same digest), so wrapping changes neither
the results nor the RNG stream.  It then checks that the command fails,
printing no result, in a directory holding only the benchmark's own files.
Takes about 20 seconds; exits non-zero on the first mismatch.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run  # pins the thread variables before numpy loads

TINY_LENGTHS = (12,)


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")


def check_workload(name: str, spec: dict) -> None:
    reports = {}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        report, result = run.run(name, seed=7, seconds=0, trace=trace,
                                 lengths=TINY_LENGTHS, setup_samples=2)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{name}: result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0,
               f"{name} trace={trace}: failures {report['failures']}")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"{name} trace={trace}: metrics {got} != BENCHMARK.json {want}")
        expect(all(isinstance(v["value"], float | int) for v in result["metrics"].values()),
               f"{name} trace={trace}: non-numeric metric value")
        reports[trace] = report
    digests = {reports[False]["digest"], reports[True]["digest"], reports[True]["untraced_digest"]}
    expect(len(digests) == 1, f"{name}: digests differ {digests}")
    print(f"selfcheck {name}: ok, digest {digests.pop()}")


def check_needs_source(spec: dict) -> None:
    """Without the library source the command must fail without a result."""
    bare = run.ROOT / "perfbench-out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "command succeeded without the library source")
    expect('"metrics"' not in proc.stdout, "command printed a result without the library source")
    print("selfcheck bare checkout: fails as it should")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        check_workload(w["name"], spec)
    check_needs_source(spec)
    print("selfcheck: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
