#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark (perfbench/NOTES.md).

Run from the repository root:

  python3 perfbench/run.py --workload serve-paper|serve-backlog|paper-sweep \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

BENCHMARK.json gates serve-paper and paper-sweep. serve-backlog runs the
same way but is not gated: host contention moves its solver-bound figures
by more than the largest allowed bound (perfbench/NOTES.md).

The first run configures and builds perfbench/CMakeLists.txt (the library,
sdem_service, sdem_bench_runner and perfbench_harness) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Each run prints
the stream digests, host-noise diagnostics and every metric with its unit,
then one JSON result line. A failed output check prints correct=false and
exits 1; a build failure exits 1 without a result line.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Payloads are compared after the repository's own normalisation, which
# strips host-dependent timings and counters and any key ending in _ms.
sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
sys.path.insert(0, os.path.join(ROOT, "tools"))
try:
    from check_bench_regression import normalize
except ImportError as e:
    sys.exit(f"perfbench: run from a full checkout ({e})")
BUILD = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
SERVICE = os.path.join(BUILD, "sdem", "tools", "sdem_service")
RUNNER = os.path.join(BUILD, "sdem", "tools", "sdem_bench_runner")

# Every registered experiment except the wall-clock ones (table1,
# service_throughput), in registration order.
EXPERIMENTS = [
    "fig6a", "fig6b", "fig7a", "fig7b", "table4", "ablation_blocks",
    "online_vs_offline", "policy_poles", "islands", "contention",
    "dram_abstraction", "rank_granularity", "slack_reclamation",
    "access_sensitivity", "ablation_discrete", "ablation_procrastination",
    "ablation_sleep_discipline", "governor_ladder",
]
# Experiments whose payload is committed as BENCH_<name>.json.
COMMITTED = ["fig6a", "ablation_blocks", "governor_ladder"]
JOBS = len(os.sched_getaffinity(0))  # nproc
# The runner's --jobs. With --jobs 1 it builds no pool, and its pool coming
# up is how set-up's end is seen, so a 1-CPU host still runs two workers.
RUNNER_JOBS = max(2, JOBS)
HOST_CPUS = os.cpu_count() or 1  # the CPUs /proc/stat sums steal over
SWEEP_PASSES = 6
SWEEP_SETUP_ONLY = 4  # extra runner launches that only measure set-up

# name -> (harness shape, daemon launches, of which the last `measured`
# replay the whole stream; the others only set up)
SERVE = {"serve-paper": ("paper", 15, 3), "serve-backlog": ("backlog", 3, 1)}
# paper-sweep takes its serve-side metrics from measured serve-paper
# launches (no set-up-only ones).
SWEEP_PROBE = "paper"
PROBE_LAUNCHES = 2


def log(msg):
    print(msg, flush=True)


def fail_build(what, logfile):
    with open(logfile) as f:
        tail = f.read()[-4000:]
    sys.stderr.write(f"perfbench: {what} failed\n{tail}\n")
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    with open(logfile, "w") as out:
        steps = [
            (["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "configure"),
            (["cmake", "--build", BUILD, "-j", str(JOBS), "--target",
              "perfbench_harness", "sdem_service", "sdem_bench_runner"],
             "build"),
        ]
        for cmd, what in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                fail_build(what, logfile)


def harness(*args):
    proc = subprocess.run([HARNESS, *args], capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"attempted": 1, "failed": 1, "mismatches": 0,
                "errors": [f"harness {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}"],
                "metrics": {}, "info": {}}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def committed_payload(name):
    with open(os.path.join(ROOT, f"BENCH_{name}.json")) as f:
        doc = json.load(f)
    return normalize({"seeds": doc["seeds"], "data": doc["data"]})


def check_payloads(out_dir, names, pattern):
    """Count experiments whose output is missing, unparsable or (for the
    committed ones) different from the committed payload."""
    errors = []
    missing = 0
    for name in names:
        path = os.path.join(out_dir, pattern.format(name))
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            missing += 1
            errors.append(f"{name}: no payload ({e})")
            continue
        if name in COMMITTED:
            got = normalize({"seeds": doc["seeds"], "data": doc["data"]})
            if got != committed_payload(name):
                errors.append(f"{name}: payload differs from BENCH_{name}.json")
    return missing, errors


class Result:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors = []

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def absorb(self, doc, keep=None):
        """Fold a harness result in; `keep` limits which metrics to take."""
        self.attempted += doc["attempted"]
        self.failed += doc["failed"]
        self.mismatches += doc.get("mismatches", 0)
        self.errors += doc["errors"]
        for name, m in doc["metrics"].items():
            if keep is None or name in keep:
                self.metrics[name] = m


def spans_path(workload, part):
    """One file per workload and part, overwritten by each traced run."""
    return os.path.join(BUILD, f"spans-{workload}-{part}.json")


def serve_workload(workload, shape, launches, measured, seed, trace):
    args = ["serve", "--shape", shape, "--seed", str(seed), "--service",
            SERVICE, "--trace", str(trace), "--launches", str(launches),
            "--measured", str(measured)]
    if trace:
        args += ["--spans", spans_path(workload, "serve")]
    doc = harness(*args)
    for s in doc["info"].get("streams", []):
        log(f"stream {shape} conn{s['conn']} digest={s['digest']} "
            f"submits={s['submits']} queries={s['queries']} "
            f"warmup={s['warmup']}")
    info = doc["info"]
    if "tasks" in info:
        log(f"serve {shape}: {info['on_time']}/{info['tasks']} tasks on time, "
            f"{info['deadline_misses']} misses, {info['starving_islands']} of "
            f"{info['islands']} islands left work unfinished")
        log(f"serve {shape}: {info['rescued']} request(s) unanswered after "
            f"{info['rescue_after_ms']} ms were rescued by a STATS barrier "
            "(lost wake-up, perfbench/NOTES.md)")
        log(f"serve {shape}: calm segments hold {info['calm_share']:.0%} of "
            f"requests, samples submit={info['submit_samples']} "
            f"query={info['query_samples']}; steal share "
            f"{info['steal_share']:.3f} (calm {info['calm_steal_share']:.3f})")
        log(f"serve {shape}: set-up daemon CPU s "
            f"{[round(x, 4) for x in info['setup_cpu_samples_s']]}, wall s "
            f"{[round(x, 4) for x in info['setup_samples_s']]}")
        # Printed with every serve run, not gated (perfbench/NOTES.md).
        log(f"metric submit_p99_ms = {info['submit_p99_ms']:.6g} ms (not gated)")
        log(f"metric query_p99_ms = {info['query_p99_ms']:.6g} ms (not gated)")
    return doc


def spawn_runner(out_dir, names):
    """Start the runner in `out_dir`; return (pid, launch time, set-up
    seconds, or None when the runner exited before its pool was up).
    Set-up ends when the runner's worker pool is up, the last step before
    its first experiment starts."""
    os.makedirs(out_dir, exist_ok=True)
    argv = [RUNNER, "--filter", ",".join(names), "--stable", "--quiet",
            "--jobs", str(RUNNER_JOBS)]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, "/dev/null", os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, "/dev/null", os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(out_dir, "runner.log"),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    cwd = os.getcwd()
    os.chdir(out_dir)  # the runner writes BENCH_<name>.json to its cwd
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(RUNNER, argv, os.environ, file_actions=actions)
    finally:
        os.chdir(cwd)
    tasks = f"/proc/{pid}/task"
    while True:
        try:
            if len(os.listdir(tasks)) > RUNNER_JOBS:
                return pid, t0, time.perf_counter() - t0
        except FileNotFoundError:
            return pid, t0, None
        if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT):
            return pid, t0, None
        # A sleep would wake late on a busy host and stretch the reading;
        # yielding gives way to the runner should the two share a CPU.
        os.sched_yield()


def steal_seconds():
    """CPU seconds the hypervisor has stolen from this host (all CPUs)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def calm_passes(passes):
    """Of each adjacent pair of passes, the one with less host steal per
    second, or both when they tie (as on a host with no steal)."""
    share = [p["steal"] / p["wall"] for p in passes]
    keep = []
    for i in range(0, len(passes), 2):
        pair = list(range(i, min(i + 2, len(passes))))
        if len(pair) == 2 and share[pair[0]] != share[pair[1]]:
            pair = [min(pair, key=share.__getitem__)]
        keep += [passes[k] for k in pair]
    return keep


def runner_pass(out_dir, names):
    """One sweep through the runner, timed and checked."""
    steal0 = steal_seconds()
    pid, t0, setup = spawn_runner(out_dir, names)
    _, status, ru = os.wait4(pid, 0)
    end = time.perf_counter()
    return {"setup": setup, "wall": end - t0,
            "sweep": end - t0 - setup if setup is not None else None,
            "cpu": ru.ru_utime + ru.ru_stime, "rss": ru.ru_maxrss / 1024.0,
            "steal": steal_seconds() - steal0,
            "code": os.waitstatus_to_exitcode(status)}


def sweep_workload(names, seed, trace, passes, probe, res):
    root = os.path.join(BUILD, f"sweep-{seed}-{os.getpid()}")
    runs = []
    res.attempted += len(names) * passes
    for k in range(passes):
        out_dir = os.path.join(root, f"pass{k}")
        run = runner_pass(out_dir, names)
        missing, errors = check_payloads(out_dir, names, "BENCH_{}.json")
        if run["code"] != 0:
            errors.append(f"runner exited {run['code']}")
        if run["setup"] is None:
            errors.append(f"pass {k}: runner exited before its pool was up")
        else:
            runs.append(run)
        res.failed += missing
        res.errors += errors
    setups = [r["setup"] for r in runs]
    sweeps = [r["sweep"] for r in runs]
    for k in range(0 if trace else SWEEP_SETUP_ONLY):
        pid, _, setup = spawn_runner(os.path.join(root, f"setup{k}"), names)
        if setup is None:
            res.errors.append(f"set-up launch {k}: runner exited before its "
                              "pool was up")
        else:
            setups.append(setup)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.wait4(pid, 0)
    if not runs:
        shutil.rmtree(root, ignore_errors=True)
        return res
    log(f"sweep: {len(names)} experiments x {passes} pass(es), "
        f"jobs={RUNNER_JOBS}; "
        f"sweep_s samples {[round(s, 4) for s in sweeps]}; steal share "
        f"{[round(r['steal'] / r['wall'] / HOST_CPUS, 3) for r in runs]}; "
        f"setup samples {[round(s, 4) for s in setups]}")

    if trace:
        out_dir = os.path.join(root, "traced")
        os.makedirs(out_dir, exist_ok=True)
        doc = harness("sweep", "--experiments", ",".join(names), "--jobs",
                      str(RUNNER_JOBS), "--out-dir", out_dir, "--spans",
                      spans_path("paper-sweep", "sweep"))
        res.absorb(doc)
        missing, errors = check_payloads(out_dir, names, "{}.json")
        res.failed += missing
        res.errors += errors
        probe_doc = serve_workload("paper-sweep", probe, 1, 1, seed, 1)
        res.absorb(probe_doc, keep={
            k for k in probe_doc["metrics"] if k not in res.metrics})
    else:
        calm = calm_passes(runs)
        res.metric("setup_s", statistics.median(setups), "s")
        res.metric("sweep_s", statistics.median(r["sweep"] for r in calm), "s")
        # CPU time is not selected by steal: every pass counts.
        res.metric("cpu_s", statistics.median(r["cpu"] for r in runs), "s")
        res.metric("peak_rss_mb", max(r["rss"] for r in runs), "MB")
        probe_doc = serve_workload("paper-sweep", probe, PROBE_LAUNCHES,
                                   PROBE_LAUNCHES, seed, 0)
        res.absorb(probe_doc, keep={
            "submit_p50_ms", "query_p50_ms", "events_per_s",
            "deadline_met_frac", "energy_mj_per_ontime_mcycle"})
    shutil.rmtree(root, ignore_errors=True)
    return res


def run_workload(workload, seed, trace, sweep_names=None, serve_shape=None):
    res = Result()
    if workload in SERVE:
        shape, launches, measured = SERVE[workload]
        doc = serve_workload(workload, serve_shape or shape, launches,
                             measured, seed, trace)
        res.absorb(doc)
        if trace:
            for name in EXPERIMENTS:  # serve runs no experiment
                res.metric(f"bench.{name}_s", 0.0, "s")
    else:
        passes = 1 if sweep_names or trace else SWEEP_PASSES
        sweep_workload(sweep_names or EXPERIMENTS, seed, trace, passes,
                       serve_shape or SWEEP_PROBE, res)
        if trace:
            for name in EXPERIMENTS:
                res.metrics.setdefault(f"bench.{name}_s",
                                       {"value": 0.0, "unit": "s"})
    return res


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def report(res, trace):
    """Print every metric; return the result line's fields."""
    want = expected_metrics(trace)
    for name in want:
        m = res.metrics.get(name)
        if m is None:
            res.errors.append(f"metric {name} missing")
            continue
        log(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for e in res.errors[:12]:
        log(f"check: {e}")
    correct = (not res.errors and res.failed == 0 and res.mismatches == 0
               and all(res.metrics.get(n, {}).get("unit") == u
                       for n, u in want.items()))
    return {
        "correct": correct,
        "attempted": max(1, res.attempted),
        "failed": res.failed,
        "metrics": {n: res.metrics[n] for n in want if n in res.metrics},
    }


def host_noise_start():
    with open("/proc/loadavg") as f:
        load = float(f.read().split()[0])
    wake = harness("wake")["info"].get("wake_late_p99_ms", float("nan"))
    return load, wake, steal_seconds(), time.monotonic()


def host_noise_end(start):
    load, wake, steal0, t0 = start
    elapsed = max(time.monotonic() - t0, 1e-9)
    steal = (steal_seconds() - steal0) / (elapsed * HOST_CPUS)
    log(f"host: loadavg_1m_at_start={load:.2f} wake_late_p99_ms={wake:.3f} "
        f"steal_share={steal:.4f} over {elapsed:.1f}s "
        "(diagnostics, not metrics)")


def smoke():
    """The benchmark's own test: a tiny stream and one small experiment,
    traced and untraced; every named metric must appear with its unit and
    both modes must pass the same output checks."""
    ok = True
    for workload in ("serve-paper", "paper-sweep"):
        for trace in (0, 1):
            res = run_workload(workload, 1, trace, sweep_names=["fig6a"],
                               serve_shape="smoke")
            line = report(res, trace)
            log(f"smoke {workload} trace={trace}: correct={line['correct']} "
                f"attempted={line['attempted']} failed={line['failed']}")
            ok = ok and line["correct"]
    log("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["serve-paper", "serve-backlog", "paper-sweep"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20,
                    help="nominal run length; every workload is a fixed "
                         "amount of work sized to about this")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload or --smoke is required")

    build()
    if args.smoke:
        return smoke()
    noise = host_noise_start()
    log(f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    res = run_workload(args.workload, args.seed, args.trace)
    host_noise_end(noise)
    line = report(res, args.trace)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
