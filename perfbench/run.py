#!/usr/bin/env python3
"""Build and run the Engine-served pmcf benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME "all" runs the four workloads one after another (each output ends with
its own JSON line; the exit code is the worst of theirs).

The first call configures and builds perfbench/ (which builds the pmcf
library from src/) into .bench_build/perfbench; later calls only re-check the
build. pmcf_perfbench's output is passed through: "metric" lines, then a JSON
result as the last line. Traced runs also write their span file under
.bench_build/spans/. Exits non-zero, without a result, when the sources or
the build are missing.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pmcf_perfbench")
WORKLOADS = ("cold_reference", "cold_robust", "resolve_stream", "batch_pool")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """Digest of the library and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_digest()


def build(targets):
    """Configure (once) and build `targets`; False when that is impossible."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no pmcf sources (src/CMakeLists.txt) in the current directory")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                              "-DCMAKE_BUILD_TYPE=Release"] + gen,
                             stdout=sys.stderr, stderr=sys.stderr, check=False)
        if cfg.returncode != 0:
            log("configure failed")
            return False
    jobs = str(os.cpu_count() or 1)
    res = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets,
                         stdout=sys.stderr, stderr=sys.stderr, check=False)
    if res.returncode != 0:
        log("build failed")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not build(["pmcf_perfbench"]):
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(w, args) for w in workloads)


def run_one(workload, args):
    tag = f"{workload}-seed{args.seed}"
    spans = os.path.join(".bench_build", "spans", f"{tag}.json")
    work = os.path.join(".bench_build", "work", f"{tag}-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--spans", spans, "--work-dir", work, "--commit", commit_id()]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                             check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        shutil.rmtree(work, ignore_errors=True)
        return 3
    shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(res.stderr)
    if res.returncode == 2:  # usage error: no result was printed
        return 2
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
