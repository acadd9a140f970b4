#!/usr/bin/env python3
"""Paired performance gate: perfbench at a base ref against this checkout.

usage (from anywhere in the repository):
  python3 tools/perf_ab.py <base-ref>

Checks <base-ref> out into a git worktree in a temporary directory (removed
at exit), builds perfbench there and here with each tree's own
perfbench/run.py, and runs PAIRS pairs, alternating which side goes first:
every BENCHMARK.json workload untraced, plus one traced PROBE_WORKLOAD run
for the per-layer probes. Workloads, metrics, directions and bounds come
from this BENCHMARK.json.

Verdict per (workload, metric), with `worse` the change of this checkout's
median against the base's (positive is worse in the metric's `better`
direction) and `spread` the base's IQR/median over its runs:
  regressed   worse > bound, and spread <= bound
  unresolved  spread > bound (printed, does not fail)
  ok          everything else
  new         the base has no samples (its perfbench lacks the workload)
Each BENCHMARK.json `<stage>_ms.p50` probe uses the wall_s bound: noise
synthesis is over half of a waveform trial, so a 1.3x slower stage moves
wall_s by less than its bound while its probe shows the full 30%. A probe is
judged per trial from the `<stage>` spans of the traced run (medians over
its trials of each trial's change, spread and median), because its p50 over
trials is bimodal: 100 and 200 m trials take about half as long as 300 and
400 m ones, so that p50 jumps between the groups from run to run.

Exit codes: 0 ok; 1 a metric regressed, a run printed "correct": false or
crashed, or this checkout failed a larger share of its checks than the base;
2 usage or build error. The last stdout line is one JSON summary.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 5
SEED = "1"
RUN_ARGS = ["--seed", SEED, "--seconds", "1"]
# The campaign probes re-run its own warmed trials. fleet_dense_mcs skips the
# waveform warm-up, so its probes time cold FFT plans and workspaces.
PROBE_WORKLOAD = "waveform_campaign"
PROBE_SUFFIX = "_ms.p50"


class BuildError(Exception):
    pass


def quartiles(xs):
    """(q1, median, q3) of the samples; a single sample is its own spread."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def relative(x, ref):
    return x / ref if ref else (0.0 if x == 0 else float("inf"))


def rule(bench, metric):
    """(better, bound) of a metric: end-to-end metrics carry their own bound,
    per-layer probes borrow wall_s's."""
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    if metric in e2e:
        return e2e[metric]["better"], e2e[metric]["bound"]
    layer = {m["name"]: m for m in bench["per_layer"]}
    return layer[metric]["better"], e2e["wall_s"]["bound"]


def verdict(base, head, better, bound):
    """Judges head against base for one metric. `base` and `head` map each
    trial to its samples over the runs; an end-to-end metric is one trial."""
    trials = [t for t in base if t in head]
    b = [quartiles(base[t]) for t in trials]
    h = [quartiles(head[t]) for t in trials]
    sign = 1.0 if better == "lower" else -1.0
    worse = statistics.median(sign * relative(hm - bm, bm)
                              for (_, bm, _), (_, hm, _) in zip(b, h))
    spread = statistics.median(relative(b3 - b1, bm) for b1, bm, b3 in b)
    v = "unresolved" if spread > bound else "regressed" if worse > bound else "ok"

    def side(qs):
        return {"median": statistics.median(q[1] for q in qs),
                "iqr": statistics.median(q[2] - q[0] for q in qs)}
    return {"base": side(b), "head": side(h), "trials": len(trials),
            "worse": worse, "spread": spread, "bound": bound, "verdict": v}


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def perfbench(tree, workload, *args):
    return subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, *args],
        cwd=tree, capture_output=True, text=True)


def trace_path(tree):
    """Where the tree's run.py has perfbench write the probe's span file."""
    return (tree / ".bench_build" / "perfbench" / "run" /
            f"trace-{PROBE_WORKLOAD}-seed{SEED}.json")


def stage_spans(path, stages):
    """{stage: {trial: duration_ms}} from a span file, where a span's group id
    names its probe trial."""
    out = {}
    for s in json.loads(path.read_text())["spans"]:
        if s["name"] in stages:
            out.setdefault(s["name"], {})[s["group"]] = (s["end_ns"] - s["start_ns"]) / 1e6
    return out


def refresh(tree):
    """Loads the tree's perfbench from a new file for the next run: identical
    binaries ran the probes up to 30% apart, for minutes at a time, depending
    on the file they were loaded from. The copy keeps the binary's mtime, so
    run.py's build stays a no-op."""
    exe = tree / ".bench_build" / "perfbench" / "perfbench"
    shutil.copy2(exe, exe.with_suffix(".new"))
    os.replace(exe.with_suffix(".new"), exe)


def build(side, tree):
    """Builds the tree's perfbench through a tiny run of its own run.py."""
    print(f"perf_ab: building {side} ({tree})", file=sys.stderr)
    p = perfbench(tree, PROBE_WORKLOAD, "--size", "tiny", "--seconds", "0.01",
                  "--trace", "0")
    if p.returncode != 0:
        raise BuildError(f"{side} build failed (exit {p.returncode}):\n{p.stderr[-2000:]}")


def run_once(side, tree, workload, trace):
    """One perfbench run: its result dict, or None when the tree's perfbench
    does not know the workload."""
    refresh(tree)
    p = perfbench(tree, workload, *RUN_ARGS, "--trace", str(trace))
    lines = p.stdout.strip().splitlines()
    if p.returncode == 2 and not lines:
        return None
    try:
        res = json.loads(lines[-1])
        if isinstance(res, dict) and isinstance(res.get("metrics"), dict):
            return res
    except (IndexError, ValueError):
        pass
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
            "crash": f"{side} {workload} trace={trace}: exit {p.returncode}, "
                     f"no result line: {p.stderr[-500:]!r}"}


def measure(bench, trees):
    """Runs the pairs; returns per-side samples, unknown workloads, incorrect
    runs and check tallies. samples[side][(workload, metric)] maps a trial
    to its values over the runs."""
    workloads = [w["name"] for w in bench["workloads"]]
    probes = {m["name"][:-len(PROBE_SUFFIX)]: m["name"] for m in bench["per_layer"]
              if m["name"].endswith(PROBE_SUFFIX)}
    samples = {side: {} for side in trees}
    unknown = {side: set() for side in trees}
    incorrect = []
    checks = {side: [0, 0] for side in trees}  # attempted, failed
    sides = list(trees)
    for pair in range(PAIRS):
        for side in sides if pair % 2 == 0 else sides[::-1]:
            tree = trees[side]
            for workload, trace in [(w, 0) for w in workloads] + [(PROBE_WORKLOAD, 1)]:
                if workload in unknown[side]:
                    continue
                if trace:
                    trace_path(tree).unlink(missing_ok=True)
                res = run_once(side, tree, workload, trace)
                if res is None:
                    unknown[side].add(workload)
                    continue
                if not res.get("correct", False):
                    incorrect.append(res.get("crash") or
                                     f"{side} {workload} trace={trace}: \"correct\": false")
                checks[side][0] += res.get("attempted", 0)
                checks[side][1] += res.get("failed", 0)
                if trace and trace_path(tree).exists():
                    for stage, durations in stage_spans(trace_path(tree), probes).items():
                        per_trial = samples[side].setdefault((workload, probes[stage]), {})
                        for trial, ms in durations.items():
                            per_trial.setdefault(trial, []).append(ms)
                elif not trace:
                    for name, m in res["metrics"].items():
                        samples[side].setdefault((workload, name), {}).setdefault(
                            None, []).append(m["value"])
                print(f"perf_ab: pair {pair + 1}/{PAIRS} {side} {workload} trace={trace}",
                      file=sys.stderr)
    return samples, unknown, incorrect, checks


def judge(bench, samples):
    rows = []
    for (workload, metric), head in sorted(samples["head"].items()):
        better, bound = rule(bench, metric)
        base = samples["base"].get((workload, metric), {})
        row = (verdict(base, head, better, bound) if any(t in head for t in base)
               else {"bound": bound, "verdict": "new"})
        rows.append({"workload": workload, "metric": metric, **row})
    return rows


def report(rows):
    def cell(s):
        return "-" if s is None else f"{s['median']:.4g} ({s['iqr']:.2g})"

    def pct(x, sign="+"):
        return "-" if x is None else f"{x:{sign}.1%}"
    print(f"{'workload':18} {'metric':31} {'base median (IQR)':>22} "
          f"{'head median (IQR)':>22} {'spread':>7} {'worse':>8} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:18} {r['metric']:31} {cell(r.get('base')):>22} "
              f"{cell(r.get('head')):>22} {pct(r.get('spread'), ''):>7} "
              f"{pct(r.get('worse')):>8} {r['bound']:>6.0%}  {r['verdict']}")


def error(e):
    """Reports a usage or build error (a failed git call by its stderr)."""
    print(f"perf_ab: {(getattr(e, 'stderr', None) or str(e)).strip()}", file=sys.stderr)
    return 2


def main(argv):
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python3 tools/perf_ab.py <base-ref>", file=sys.stderr)
        return 2
    try:
        base_sha = git("rev-parse", "--verify", f"{argv[0]}^{{commit}}")
        head = git("describe", "--always", "--dirty")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        return error(e)

    tmp = Path(tempfile.mkdtemp(prefix="perf_ab-"))
    base_tree = tmp / "base"
    try:
        git("worktree", "add", "--detach", str(base_tree), base_sha)
        trees = {"base": base_tree, "head": ROOT}
        for side, tree in trees.items():
            build(side, tree)
        samples, unknown, incorrect, checks = measure(bench, trees)
    except (BuildError, subprocess.CalledProcessError) as e:
        return error(e)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                        str(base_tree)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)

    if unknown["head"]:
        print(f"perf_ab: this checkout's perfbench rejects BENCHMARK.json "
              f"workloads {sorted(unknown['head'])}", file=sys.stderr)
        return 2
    rows = judge(bench, samples)
    report(rows)
    failed_share = {side: f / a if a else 0.0 for side, (a, f) in checks.items()}
    regressed = [f"{r['workload']} {r['metric']}" for r in rows if r["verdict"] == "regressed"]
    for line in incorrect:
        print(f"perf_ab: INCORRECT RUN: {line}")
    if failed_share["head"] > failed_share["base"]:
        print(f"perf_ab: head failed {failed_share['head']:.3g} of its checks, "
              f"base {failed_share['base']:.3g}")
    if regressed:
        print(f"perf_ab: REGRESSED: {', '.join(regressed)}")
    ok = not regressed and not incorrect and failed_share["head"] <= failed_share["base"]
    print(json.dumps({"perf_ab": "summary", "base": base_sha, "head": head,
                      "pairs": PAIRS, "ok": ok, "regressed": regressed,
                      "incorrect": incorrect, "failed_share": failed_share,
                      "results": rows}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
