#!/usr/bin/env python3
"""Builds mei-kge and runs one workload of its benchmark.

    python3 kgebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 kgebench/run.py --smoke      # self-test of the checks + every workload, small

Run from the root of a checkout. The program is built from source in its
default configuration (the tier-1 one) under .bench_build/, the
program-written inputs are cached under .bench_build/inputs/, and the
kgebench binary does the measuring. Its last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}. See kgebench/README.md.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("train_wn18like", "serve_100k_open", "serve_1m_hot")
WN18_ENTITIES = 40943
SMOKE_ENTITIES = 3000

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "kgebench")
BUILD_BASE = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_BASE, "cmake")
INPUTS_DIR = os.path.join(BUILD_BASE, "inputs")
RUNS_DIR = os.path.join(BUILD_BASE, "runs")
KGEBENCH = os.path.join(CMAKE_DIR, "kgebench")
TOOLS_DIR = os.path.join(CMAKE_DIR, "kge", "tools")


def fail(message, code=1):
    print("kgebench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(argv, log_path):
    """Runs argv with output appended to log_path; dies with its tail on error."""
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(argv) + "\n")
        log.flush()
        status = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
    if status != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail("command failed (%s):\n%s" % (" ".join(argv), tail))


def build():
    """Configures once and builds incrementally (a no-op when up to date)."""
    log_path = os.path.join(BUILD_BASE, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure, log_path)
    run_logged(["cmake", "--build", CMAKE_DIR, "-j", jobs], log_path)


def prepare_checkpoint(scale):
    path = os.path.join(INPUTS_DIR, "quaternion_%s.kge" % scale)
    if not (os.path.exists(path) and os.path.exists(path + ".shape")):
        run_logged([KGEBENCH, "prepare", "--scale", scale,
                    "--inputs-dir", INPUTS_DIR],
                   os.path.join(BUILD_BASE, "prepare.log"))


def prepare_dataset(entities, seed):
    """WN18-size TSVs of `seed`, written by the program's kge_datagen."""
    out = os.path.join(INPUTS_DIR, "wordnet_%d_seed%d" % (entities, seed))
    if os.path.isdir(out):
        return
    temp = out + ".tmp"
    shutil.rmtree(temp, ignore_errors=True)
    run_logged([os.path.join(TOOLS_DIR, "kge_datagen"), "--family=wordnet",
                "--entities=%d" % entities, "--seed=%d" % seed,
                "--out=" + temp], os.path.join(BUILD_BASE, "prepare.log"))
    os.rename(temp, out)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    head = os.path.join(ROOT, ".git")
    if os.path.exists(head):
        try:
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def setup(smoke, seed, need_dataset):
    """Builds and writes the cached inputs under an exclusive lock."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the root of a mei-kge checkout (no CMakeLists.txt "
             "and src/ next to kgebench/)", 2)
    for directory in (BUILD_BASE, INPUTS_DIR, RUNS_DIR):
        os.makedirs(directory, exist_ok=True)
    with open(os.path.join(BUILD_BASE, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build()
        for scale in (("small",) if smoke else ("medium", "xl")):
            prepare_checkpoint(scale)
        if need_dataset:
            prepare_dataset(SMOKE_ENTITIES if smoke else WN18_ENTITIES, seed)


def workload_argv(workload, seed, seconds, trace, smoke, ident):
    argv = [KGEBENCH, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--inputs-dir", INPUTS_DIR, "--tools-dir", TOOLS_DIR,
            "--out-dir", RUNS_DIR, "--source-id", ident]
    return argv + ["--smoke"] if smoke else argv


def run_kgebench(argv, capture=False):
    """Runs kgebench in its own process group, so a kge_serve left behind
    by a crashed run is still found, stopped and waited for. Returns the
    exit status and, with `capture`, the standard output."""
    child = subprocess.Popen(argv, cwd=ROOT, start_new_session=True,
                             stdout=subprocess.PIPE if capture else None,
                             text=True)
    out, _ = child.communicate()
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        return child.returncode, out
    for _ in range(600):
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return child.returncode, out


def smoke_test():
    """Self-test of the checks, then every workload and the traced run at
    small sizes; exits 0 only if each is correct."""
    setup(True, 1, True)
    if run_kgebench([KGEBENCH, "selftest"])[0] != 0:
        fail("self-test of the checks failed")
    ident = source_id()
    for workload in WORKLOADS:
        for trace in (False, True) if workload == WORKLOADS[0] else (False,):
            status, out = run_kgebench(
                workload_argv(workload, 1, 2, trace, True, ident), capture=True)
            last = out.strip().splitlines()[-1:] or [""]
            ok = status == 0 and '"correct":true' in last[0]
            print("smoke %-16s trace=%d %s" % (workload, trace,
                                                "ok" if ok else "FAILED"))
            if not ok:
                sys.stderr.write(out)
                sys.exit(1)
    print("smoke: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test the checks and run every workload "
                             "at small sizes")
    args = parser.parse_args()
    if args.smoke:
        smoke_test()
        return
    if args.workload is None:
        parser.error("--workload is required")
    need_dataset = args.trace == 1 or args.workload == "train_wn18like"
    setup(False, args.seed, need_dataset)
    sys.exit(run_kgebench(workload_argv(args.workload, args.seed, args.seconds,
                                        args.trace == 1, False,
                                        source_id()))[0])


if __name__ == "__main__":
    main()
