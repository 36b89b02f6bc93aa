#!/usr/bin/env python3
"""Self-test of the step-ledger benchmark.

    python3 stepbench/tests/selftest.py

Builds the benchmark, runs the ledger unit tests, checks that BENCHMARK.json
lists exactly the metrics the binary reports, and checks process hygiene:
a normal lm_ps_socket run, one interrupted with SIGINT through run.py, one
interrupted directly, and a run in a directory without the repository all
leave no worker_main process behind. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (stepbench/run.py)

RUN_PY = os.path.join(run.HERE, "run.py")


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def wait_for_workers(timeout_s):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if len(run.leftover_workers()) >= 3:
            return True
        time.sleep(0.05)
    return False


def interrupted(cmd, what):
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, cwd=run.ROOT)
    check(wait_for_workers(120), what + ": worker processes started")
    time.sleep(1.0)
    child.send_signal(signal.SIGINT)
    rc = child.wait(timeout=60)
    check(rc != 0, what + ": exits non-zero (%d)" % rc)
    time.sleep(0.2)
    check(run.leftover_workers() == [], what + ": no worker_main left")


def main():
    run.build()
    check(run.leftover_workers() == [], "no worker_main running before the test")

    subprocess.check_call(["cmake", "--build", run.BUILD, "--target",
                           "ledger_test"], stdout=subprocess.DEVNULL)
    rc = subprocess.call([os.path.join(run.BUILD, "bin", "ledger_test")],
                         stdout=subprocess.DEVNULL)
    check(rc == 0, "ledger_test passes")

    listed = json.loads(subprocess.check_output([run.BINARY, "--list-metrics"]))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for key in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in bench[key]]
        reported = [(m["name"], m["unit"]) for m in listed[key]]
        check(declared == reported, "BENCHMARK.json %s matches the binary" % key)

    out = subprocess.run([sys.executable, RUN_PY, "--workload", "lm_ps_socket",
                          "--seed", "5", "--seconds", "2", "--trace", "0"],
                         capture_output=True, text=True, cwd=run.ROOT)
    check(out.returncode == 0, "short lm_ps_socket run exits 0")
    result = json.loads(out.stdout.splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "result line has exactly the four keys")
    check(run.leftover_workers() == [], "normal run leaves no worker_main")

    interrupted([sys.executable, RUN_PY, "--workload", "lm_ps_socket",
                 "--seed", "6", "--seconds", "30", "--trace", "0"],
                "SIGINT to run.py")
    interrupted([run.BINARY, "--workload", "lm_ps_socket", "--seed", "7",
                 "--seconds", "30", "--trace", "0", "--out-dir", run.OUT],
                "SIGINT to stepbench")

    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "stepbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    started = time.time()
    out = subprocess.run([sys.executable, "stepbench/run.py", "--workload",
                          "serve_open", "--seed", "1", "--seconds", "2",
                          "--trace", "0"], capture_output=True, text=True,
                         cwd=bare, timeout=180)
    check(out.returncode != 0, "without the repository: exits non-zero")
    check(out.stdout.strip() == "", "without the repository: prints no result")
    check(time.time() - started < 180, "without the repository: within 180 s")
    shutil.rmtree(bare)
    check(run.leftover_workers() == [], "no worker_main left at the end")


if __name__ == "__main__":
    main()
