#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

usage (from the repository root):  python3 perfbench/selftest.py

Builds perfbench like run.py does, then, at --size tiny:
  - runs every workload twice untraced and twice traced, and checks that each
    run is correct, prints exactly the metrics BENCHMARK.json names with
    their units, and that the exact counts (outcomes line, digest, and every
    count-valued per-layer metric) repeat between the two runs;
  - checks that bad arguments exit 2 with a message naming the argument;
  - checks that a copy holding only BENCHMARK.json and the benchmark's own
    directories fails without printing a result.
Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run as bench  # noqa: E402

EXACT_UNITS = {"count", "hash32", "bytes", "flop"}
failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def invoke(exe, workload, trace, seed="7"):
    cmd = [str(exe), "--out-dir", str(bench.BUILD / "selftest"), "--workload", workload,
           "--seed", seed, "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-400:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    outcomes = next(json.loads(l) for l in lines if l.startswith('{"perfbench": "outcomes"'))
    context = next(json.loads(l) for l in lines if l.startswith('{"perfbench": "context"'))
    return result, outcomes, context


def check_result(name, result, defs):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{name}: result keys {sorted(result)}")
    expect(result.get("correct") is True and result.get("failed") == 0,
           f"{name}: correct={result.get('correct')} failed={result.get('failed')}")
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
           f"{name}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    expect(list(metrics) == [d["name"] for d in defs],
           f"{name}: metric names differ from BENCHMARK.json")
    for d in defs:
        m = metrics.get(d["name"], {})
        expect(set(m) == {"value", "unit"} and m.get("unit") == d["unit"],
               f"{name}: {d['name']} printed as {m}, want unit {d['unit']}")
        expect(isinstance(m.get("value"), (int, float)), f"{name}: {d['name']} not a number")


def exact(result, defs):
    units = {d["name"]: d["unit"] for d in defs}
    return {k: v["value"] for k, v in result["metrics"].items() if units[k] in EXACT_UNITS}


def check_bad_arguments(exe):
    nproc = os.cpu_count() or 1
    cases = [
        (["--workload", "nosuch"], "--workload"),
        (["--workload", "fleet_escalation", "--seed", "-1"], "--seed"),
        (["--workload", "fleet_escalation", "--seed", "abc"], "--seed"),
        (["--workload", "fleet_escalation", "--seed", "18446744073709551616"], "--seed"),
        (["--workload", "fleet_escalation", "--threads", "0"], "--threads"),
        (["--workload", "fleet_escalation", "--threads", str(nproc + 1)], "--threads"),
        (["--workload", "fleet_escalation", "--seconds", "-3"], "--seconds"),
        (["--workload", "fleet_escalation", "--trace", "2"], "--trace"),
        (["--workload", "fleet_escalation", "--bogus", "1"], "--bogus"),
        (["--seed", "1"], "--workload"),
    ]
    for args, named in cases:
        proc = subprocess.run([str(exe), *args], capture_output=True, text=True, timeout=60)
        expect(proc.returncode == 2 and named in proc.stderr and not proc.stdout,
               f"{args}: exit {proc.returncode}, stderr {proc.stderr.strip()[:120]!r}")


def check_isolated_copy():
    """Only BENCHMARK.json and the benchmark directories: must fail cleanly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    iso = bench.BUILD / "selftest-isolated"
    shutil.rmtree(iso, ignore_errors=True)
    iso.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", iso / "BENCHMARK.json")
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, iso / p)
    proc = subprocess.run([*spec["command"], "--workload", spec["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=iso, capture_output=True, text=True, timeout=180)
    shutil.rmtree(iso, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"isolated copy: exit {proc.returncode}, stdout {proc.stdout.strip()[-120:]!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exe = bench.build()
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, defs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            runs = [invoke(exe, w, trace) for _ in range(2)]
            for i, (result, _, context) in enumerate(runs):
                check_result(f"{w} trace={trace} run {i}", result, defs)
                expect(all(k in context for k in ("nproc", "simd_isa", "build_type")),
                       f"{w}: context line lacks machine context")
            (r0, o0, _), (r1, o1, _) = runs
            expect(o0["counts"] == o1["counts"] and o0["digest"] == o1["digest"],
                   f"{w} trace={trace}: outcomes differ between runs")
            if trace:
                expect(exact(r0, defs) == exact(r1, defs),
                       f"{w}: exact per-layer counts differ between runs")
    check_bad_arguments(exe)
    check_isolated_copy()
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
