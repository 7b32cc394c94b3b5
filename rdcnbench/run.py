#!/usr/bin/env python3
"""Build rdcnbench from source and run one workload, or everything.

  python3 rdcnbench/run.py --workload sim_paper --seed 1 --seconds 10 --trace 0
  python3 rdcnbench/run.py --all        # every workload, untraced and traced
  python3 rdcnbench/run.py --selftest   # tests of the benchmark's helpers

Run from the root of a source checkout.  The build goes to
$CARGO_TARGET_DIR (default .bench_build); daemon sockets, journals and
caches live in .bench_tmp/<pid> and are removed when the run ends, also
on failure or interruption; span files of traced runs go to .bench_out.
The benchmark runs in its own process group with a parent-death signal,
so nothing it started outlives this script.
"""
import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim_paper", "sim_stream", "serve_mix"]
RUN_TIMEOUT_S = 170
PR_SET_PDEATHSIG = 1


def die_with_parent():
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def build():
    """Configures (once) and builds; returns the build directory."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise SystemExit("rdcnbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    targets = ["rdcnbench", "rdcnbench_selftest", "example_rdcn_serve"]
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise SystemExit("rdcnbench: build failed")
    return build_dir


def run_child(argv):
    """Runs argv in its own process group; returns its exit code.  The group
    is killed and reaped however this ends."""
    child = subprocess.Popen(argv, cwd=ROOT, start_new_session=True,
                             preexec_fn=die_with_parent)

    def stop(signum, _frame):
        raise KeyboardInterrupt(signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("rdcnbench: run timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 130
    finally:
        kill_group(child)
        for s, handler in old.items():
            signal.signal(s, handler)


def kill_group(child):
    """SIGKILLs the child's process group, reaps the child and waits until
    no member is left (a daemon orphaned by a killed benchmark is reaped by
    init, not by us)."""
    for attempt in range(1000):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if attempt == 0:
            child.wait()
        time.sleep(0.01)
    print("rdcnbench: process group %d did not go away" % child.pid,
          file=sys.stderr)


def remove_stale_work_dirs():
    """Removes work dirs of runs that were killed before their cleanup."""
    parent = os.path.join(ROOT, ".bench_tmp")
    for name in os.listdir(parent) if os.path.isdir(parent) else []:
        try:
            os.kill(int(name), 0)
        except (ValueError, ProcessLookupError):
            shutil.rmtree(os.path.join(parent, name), ignore_errors=True)
        except PermissionError:
            pass


def run_workload(build_dir, workload, seed, seconds, trace, extra):
    remove_stale_work_dirs()
    work_dir = os.path.join(".bench_tmp", str(os.getpid()))
    argv = [os.path.join(build_dir, "rdcnbench"),
            "--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%d" % seconds, "--trace=%d" % trace,
            "--daemon=" + os.path.join(build_dir, "rdcn", "examples", "rdcn_serve"),
            "--work-dir=" + work_dir, "--out-dir=.bench_out",
            "--anchors=" + os.path.join(HERE, "anchors.txt"), *extra]
    try:
        return run_child(argv)
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--anchors-out",
                        help="append the observed final ledgers to this file")
    args = parser.parse_args()
    if not (args.all or args.selftest or args.workload):
        parser.error("give --workload, --all or --selftest")

    build_dir = build()
    if args.selftest:
        return run_child([os.path.join(build_dir, "rdcnbench_selftest")])
    extra = ["--anchors-out=" + os.path.abspath(args.anchors_out)] if args.anchors_out else []
    if not args.all:
        return run_workload(build_dir, args.workload, args.seed, args.seconds,
                            args.trace, extra)
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code = run_workload(build_dir, workload, args.seed, args.seconds, trace, extra)
            worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
