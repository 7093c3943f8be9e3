#!/usr/bin/env python3
"""Detect drift between committed BENCH_*.json artifacts and a fresh run.

For every BENCH_<experiment>.json in the repository root, rerun that
experiment through the bench runner with --stable at the committed seed
count, then compare the committed and regenerated documents after stripping
every host-dependent field:

  * the named keys: jobs, wall_seconds, solver_seconds_total,
    solver_seconds, counters, runtime, dists, timers — anywhere in the tree;
  * any key ending in `_ms` — measured wall times are data for experiments
    like table1, but they are the *subject* under measurement, not a
    deterministic metric, so they never gate.

What remains is the deterministic metric payload (energies, savings,
counts, parameters), which the frozen-oracle policy pins: any delta is a
silent behaviour change and fails the job.

A per-experiment delta table is written to $GITHUB_STEP_SUMMARY when set
(and always echoed to stdout). Exit status: 0 clean, 1 drift or a failed
rerun, 2 usage error.

Usage: check_bench_regression.py [--runner PATH] [--repo DIR] [--jobs N]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

STRIP_KEYS = {
    "jobs",
    "wall_seconds",
    "solver_seconds_total",
    "solver_seconds",
    "counters",
    "runtime",
    "dists",
    "timers",
}

MAX_DELTAS_SHOWN = 10


def normalize(node):
    """Drop host-dependent keys/suffixes everywhere in the tree."""
    if isinstance(node, dict):
        return {
            k: normalize(v)
            for k, v in node.items()
            if k not in STRIP_KEYS and not k.endswith("_ms")
        }
    if isinstance(node, list):
        return [normalize(v) for v in node]
    return node


def diff_leaves(old, new, path="", out=None):
    """Collect (path, old, new) for every differing leaf."""
    if out is None:
        out = []
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(set(old) | set(new)):
            if k not in old:
                out.append((f"{path}/{k}", "<absent>", "<added>"))
            elif k not in new:
                out.append((f"{path}/{k}", "<removed>", "<absent>"))
            else:
                diff_leaves(old[k], new[k], f"{path}/{k}", out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append((path, f"len {len(old)}", f"len {len(new)}"))
        for i, (a, b) in enumerate(zip(old, new)):
            diff_leaves(a, b, f"{path}[{i}]", out)
    elif old != new:
        out.append((path, old, new))
    return out


def rerun(runner, name, seeds, jobs, out_path):
    cmd = [runner, "--filter", name, "--stable", "--quiet",
           "--jobs", str(jobs), "--out", out_path]
    if seeds is not None:
        cmd += ["--seeds", str(seeds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return f"runner exited {proc.returncode}: {proc.stderr.strip()[:500]}"
    if not os.path.exists(out_path):
        return "runner produced no output file"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runner", default="build/tools/sdem_bench_runner",
                    help="bench runner binary (default build/tools/...)")
    ap.add_argument("--repo", default=".", help="repository root")
    ap.add_argument("--jobs", type=int, default=2,
                    help="runner --jobs (any value must not change --stable "
                         "output; default 2)")
    args = ap.parse_args()

    committed = sorted(
        f for f in os.listdir(args.repo)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not committed:
        print("no committed BENCH_*.json artifacts found", file=sys.stderr)
        return 2
    if not os.path.exists(args.runner):
        print(f"runner not found: {args.runner}", file=sys.stderr)
        return 2

    rows = []
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for fname in committed:
            name = fname[len("BENCH_"):-len(".json")]
            with open(os.path.join(args.repo, fname)) as f:
                old_doc = json.load(f)
            seeds = old_doc.get("seeds")
            out_path = os.path.join(tmp, fname)
            err = rerun(args.runner, name, seeds, args.jobs, out_path)
            if err:
                rows.append((name, "RERUN FAILED", [err]))
                failed = True
                continue
            with open(out_path) as f:
                new_doc = json.load(f)

            old_n, new_n = normalize(old_doc), normalize(new_doc)
            if old_n == new_n:
                rows.append((name, "ok", []))
            else:
                deltas = diff_leaves(old_n, new_n)
                shown = [f"`{p}`: {a} -> {b}"
                         for p, a, b in deltas[:MAX_DELTAS_SHOWN]]
                if len(deltas) > MAX_DELTAS_SHOWN:
                    shown.append(f"... and {len(deltas) - MAX_DELTAS_SHOWN} more")
                rows.append((name, f"DRIFT ({len(deltas)} metrics)", shown))
                failed = True

    lines = ["# Bench regression check", "",
             "| experiment | status | deltas |",
             "|---|---|---|"]
    for name, status, details in rows:
        detail = "<br>".join(str(d) for d in details) if details else "—"
        lines.append(f"| {name} | {status} | {detail} |")
    report = "\n".join(lines)
    print(report)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(report + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
