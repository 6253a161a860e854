#!/usr/bin/env python3
"""CheCL cycle benchmark runner.

    python3 cyclebench/run.py --workload kernels|cycle|bulk --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds the CheCL libraries, checl_proxyd and
the benchmark binary from source (into $CARGO_TARGET_DIR or .bench_build),
scrubs CHECL_* configuration overrides from the environment, runs one
workload in a private temporary root, checks that no shared-memory segment
or proxy process outlived it, and prints one JSON object as the last line
of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, and the Chrome trace-event JSON of
the traced run is kept under <build>/traces/.  Exits non-zero, without a
result line, when the build fails; exits non-zero after the result line when
any op failed or a read-back differed from the host model.
"""
import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Helper-binary paths are the only CHECL_* settings a measured run keeps.
KEEP_ENV = ("CHECL_PROXYD", "CHECL_SNAPD")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "cyclebench")


def build(bdir):
    """Configures and builds; returns False (after logging why) on failure."""
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "build.log")
    with open(logf, "w") as out:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(os.path.join(bdir, "CMakeFiles"), ignore_errors=True)
                try:
                    os.remove(os.path.join(bdir, "CMakeCache.txt"))
                except OSError:
                    pass
                return fail_build(logf)
        cmd = ["cmake", "--build", bdir, "--target", "cyclebench", "checl_proxyd",
               "-j", str(min(4, os.cpu_count() or 1))]
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            return fail_build(logf)
    return True


def fail_build(logf):
    with open(logf) as f:
        log("".join(f.readlines()[-30:]))
    log("cyclebench: build failed (see %s)" % logf)
    return False


def settle(path):
    """Flushes the checkout's filesystem, so writeback and discards left by
    the build or an earlier run do not land inside this run's timings."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        fd = os.open(path, os.O_RDONLY)
        try:
            libc.syncfs(fd)
        finally:
            os.close(fd)
    except (OSError, AttributeError):
        pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def shm_segments(pid):
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(n for n in names if n.startswith("checl-%d-" % pid))


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def stop_group(pgid):
    """Kills what is left of the run's process group and waits for it."""
    if not group_alive(pgid):
        return False
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return True
    deadline = time.time() + 10
    while group_alive(pgid) and time.time() < deadline:
        time.sleep(0.05)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-readback", action="store_true",
                    help="flip one byte of one read-back (tests the failure path)")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("cyclebench: unknown workload %r (have %s)" % (args.workload, names))
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("CHECL_")}
    scrubbed = sorted(k for k in os.environ if k.startswith("CHECL_") and k not in KEEP_ENV)
    if scrubbed:
        log("cyclebench: ignoring configuration overrides %s" % ", ".join(scrubbed))
    env["CHECL_PROXYD"] = os.path.join(bdir, "checl", "proxy", "checl_proxyd")

    run_root = os.path.join(bdir, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_root, ignore_errors=True)
    os.makedirs(run_root)
    cmd = [os.path.join(bdir, "cyclebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--root", run_root]
    if args.trace:
        tdir = os.path.join(bdir, "traces")
        os.makedirs(tdir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(tdir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.corrupt_readback:
        cmd.append("--corrupt-readback")

    settle(run_root)
    problems = []
    cpu0 = cpu_times()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        out, _ = proc.communicate()
        problems.append("timed out")
    finally:
        if stop_group(proc.pid):
            problems.append("processes outlived the run")
        shutil.rmtree(run_root, ignore_errors=True)
    cpu1 = cpu_times()
    leaked = shm_segments(proc.pid)
    for name in leaked:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    if leaked:
        problems.append("left /dev/shm segments behind: %s" % ", ".join(leaked))

    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result else lines:
        print(line)
    if cpu0 and cpu1 and cpu1[1] > cpu0[1]:
        # CPU time the hypervisor gave to other guests: a high share means
        # this run's wall times are slowed by the host, not by the program.
        print("host steal: %.1f%% of CPU time during the run"
              % (100.0 * (cpu1[0] - cpu0[0]) / (cpu1[1] - cpu0[1])))
    if result:
        # The program's own result line, with clocks and sample counts.
        print("detail " + lines[-1])
    if result is None:
        log("cyclebench: no result from %s (exit %s)" % (args.workload, proc.returncode))
        return 1

    want = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in want:
        g = got.get(m["name"])
        if g is None:
            problems.append("metric %s missing" % m["name"])
            continue
        if g["unit"] != m["unit"]:
            problems.append("metric %s has unit %s, not %s" % (m["name"], g["unit"], m["unit"]))
        v = g["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("metric %s is not a finite number" % m["name"])
        elif not args.trace and v == 0:
            problems.append("metric %s is 0" % m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    for p in problems:
        log("cyclebench: " + p)
    failed = int(result["failed"]) + (1 if problems else 0)
    correct = bool(result["correct"]) and not problems and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
