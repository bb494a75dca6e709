#!/usr/bin/env python3
"""Wall-clock MCL benchmark front end (see perfbench/README.md).

    python3 perfbench/run.py --workload eukarya-t1 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, untraced
    python3 perfbench/run.py --quick         # self-check: tiny sizes, every check

Run from the repository root. Builds perfbench/ (and ../src with it) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs each
workload in a child process of its own. A child that dies on a signal is
reported with every job it had planned counted as failed, and the next
workload still runs. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["eukarya-t1", "eukarya-t4", "svc-stream"]
CHILD_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "mcl_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "mcl_bench")


def run_child(binary, build_dir, workload, seed, seconds, trace, quick):
    """One workload run in its own process. Returns (result, info, notes)."""
    workdir = os.path.join(build_dir, "work-%d-%s" % (os.getpid(), workload))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    # A thread drains stdout, so the deadline holds even when the child
    # hangs without printing.
    lines = []
    reader = threading.Thread(target=lambda: lines.extend(proc.stdout))
    reader.start()
    timed_out = False
    try:
        proc.wait(timeout=CHILD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
        shutil.rmtree(workdir, ignore_errors=True)
    planned, setup_s, last = 0, None, None
    for line in lines:
        line = line.strip()
        if line.startswith("@round "):
            planned += int(line.split()[1])
        elif line.startswith("@setup_s "):
            setup_s = float(line.split()[1])
        elif line:
            last = line
    rc = proc.returncode
    if rc == 0 and not timed_out and last and last.startswith("{"):
        out = json.loads(last)
        result = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
        return result, out.get("info", {}), out.get("notes", [])
    if rc < 0 or timed_out:
        why = "timed out" if timed_out else "died on " + signal.Signals(-rc).name
        planned = max(planned, 1)
        metrics = {}
        if setup_s is not None and not trace:
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        note = "%s: run %s; %d planned jobs counted as failed" % (workload, why, planned)
        return ({"correct": True, "attempted": planned, "failed": planned,
                 "metrics": metrics}, {}, [note])
    log("perfbench: %s exited with code %d" % (workload, rc))
    return None, {}, []


def show(workload, result, info, notes):
    print("== %s: attempted %d, failed %d, correct %s" % (
        workload, result["attempted"], result["failed"], result["correct"]))
    for name, m in result["metrics"].items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, v in info.items():
        print("  info %-35s %14.6g" % (name, v))
    for n in notes:
        print("  note " + n)
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--quick", action="store_true",
                    help="self-check: every workload and check at tiny sizes")
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)

    if args.quick:
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
        seconds = 1
    elif args.workload == "all":
        runs = [(w, args.trace) for w in WORKLOADS]
        seconds = args.seconds
    else:
        runs = [(args.workload, args.trace)]
        seconds = args.seconds

    results = []
    for workload, trace in runs:
        result, info, notes = run_child(binary, build_dir, workload, args.seed,
                                        seconds, trace, args.quick)
        if result is None:
            sys.exit(1)
        show("%s (trace %d)" % (workload, trace), result, info, notes)
        results.append((workload, trace, result))

    if len(results) == 1:
        final = results[0][2]
    else:
        final = {"correct": all(r["correct"] for _, _, r in results),
                 "attempted": sum(r["attempted"] for _, _, r in results),
                 "failed": sum(r["failed"] for _, _, r in results),
                 "metrics": {"%s.%s%s" % (w, "trace." if t else "", k): m
                             for w, t, r in results for k, m in r["metrics"].items()}}
    print(json.dumps(final))


if __name__ == "__main__":
    main()
