#!/usr/bin/env python3
"""Step-ledger benchmark: builds, runs and reports.

Builds the repository and the benchmark from source (Release, into
.bench_build/ at the repository root), runs one workload -- or all of them --
and prints every metric by name and unit. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

    python3 stepbench/run.py --workload convnet_direct --seed 1 --seconds 16 --trace 0
    python3 stepbench/run.py --workload all --seed 1 --seconds 16 --trace 1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. Each run also writes stepbench/out/<workload>-seed<n>-
trace<t>.json: the machine and provenance record, the workload parameters,
the loss trajectory or request counts, and the full per-layer detail. Traced
runs leave a Chrome trace next to it.

The exit code is 0 only when every output check passed and no worker
process outlived the run.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "bin", "stepbench")
WORKER = os.path.join(BUILD, "bin", "worker_main")
WORKLOADS = ["convnet_direct", "lm_ps_socket", "serve_open"]
# Never used while the benchmark or a change measured with it is written:
# a claimed gain must also hold on this seed.
HELD_OUT_SEED = 9001
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log("stepbench: repository sources not found next to %s" % HERE)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "stepbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(build_log, "a") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                out.flush()
                with open(build_log) as f:
                    log("".join(f.readlines()[-40:]))
                log("stepbench: build failed (%s); see %s"
                    % (" ".join(cmd), build_log))
                sys.exit(1)


def read_first(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def compile_flags(source_suffix):
    """The compiler command line actually used for one source file."""
    try:
        with open(os.path.join(BUILD, "compile_commands.json")) as f:
            for entry in json.load(f):
                if entry["file"].endswith(source_suffix):
                    args = entry.get("command", "").split()
                    return " ".join(a for a in args[1:] if a.startswith(("-O", "-g", "-m", "-f", "-D", "-std")))
    except (OSError, ValueError, KeyError):
        pass
    return None


def git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(args):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            pass
    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "mem_total": read_first("/proc/meminfo", "MemTotal"),
        "kernel": platform.release(),
        "compiler": version or compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "program_flags": compile_flags("src/kernels/matmul_ops.cc"),
        "benchmark_flags": compile_flags("stepbench/src/main.cc"),
        "git_sha": sha if sha else "unknown (not a git checkout)",
        "git_dirty": (dirty != "") if dirty is not None else None,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def leftover_workers():
    """Pids of worker_main processes of this build still alive."""
    found = []
    target = os.path.realpath(WORKER)
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                argv0 = f.read().split(b"\0")[0].decode(errors="replace")
            with open("/proc/%s/stat" % pid) as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if state != "Z" and argv0 and os.path.realpath(argv0) == target:
            found.append(int(pid))
    return found


def kill_leftovers():
    pids = leftover_workers()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return pids


def run_one(workload, args, child_holder):
    """Runs one workload; returns (result dict or None, exit code)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    child_holder[0] = child
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.terminate()  # its handler reaps the worker processes
        try:
            stdout, _ = child.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            child.kill()
            stdout, _ = child.communicate()
        log("stepbench: %s timed out after %ds" % (workload, RUN_TIMEOUT_S))
    finally:
        child_holder[0] = None
    rc = child.returncode
    leftovers = kill_leftovers()
    if leftovers:
        log("stepbench: worker processes outlived the run: %s" % leftovers)
        rc = rc or 1

    lines = stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    for line in lines:
        if not line.startswith("detail "):  # merged into the report below
            print(line)
    if result is None:
        return None, rc or 1
    if leftovers:
        result["correct"] = False

    stem = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    detail = None
    try:
        with open(os.path.join(OUT, stem + ".detail.json")) as f:
            detail = json.load(f)
        os.remove(os.path.join(OUT, stem + ".detail.json"))
    except (OSError, ValueError):
        pass
    prov = provenance(argparse.Namespace(**dict(vars(args), workload=workload)))
    print("provenance " + json.dumps(prov, sort_keys=True))
    with open(os.path.join(OUT, stem + ".json"), "w") as f:
        json.dump({"provenance": prov, "result": result, "report": detail}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    print("report %s" % os.path.join(OUT, stem + ".json"))
    return result, rc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    child_holder = [None]

    def forward(signum, _frame):
        child = child_holder[0]
        if child is not None and child.poll() is None:
            child.send_signal(signum)
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        kill_leftovers()
        sys.exit(128 + signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)

    started = time.time()
    build()
    log("stepbench: build ready in %.1fs" % (time.time() - started))

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results, worst_rc = {}, 0
    for workload in workloads:
        print("== %s (seed %d, %gs, trace %d)" % (workload, args.seed,
                                                  args.seconds, args.trace))
        result, rc = run_one(workload, args, child_holder)
        worst_rc = worst_rc or rc
        if result is None:
            log("stepbench: %s produced no result" % workload)
            sys.exit(worst_rc or 1)
        results[workload] = result

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, name): m
                        for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    sys.exit(worst_rc)


if __name__ == "__main__":
    main()
