#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a qgnn checkout.

    python3 perfbench/run.py --workload paper_pipeline|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]
    python3 perfbench/run.py --make-model perfbench/model/serve_gcn.txt

Builds the qgnn libraries (Release, no tests/benches/examples) and the
benchmark binary into .bench_build/, then runs it. Its last line of
standard output is the result JSON; build output goes to
.bench_build/build.log and is shown on stderr only when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "qgnn"
BIN_BUILD = BUILD / "perfbench"
BINARY = BIN_BUILD / "qgnn_perfbench"
JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    log.write(("$ " + " ".join(str(c) for c in cmd) + "\n").encode())
    log.flush()
    proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    return proc.returncode == 0


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not the root of a qgnn source tree")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "wb") as log:
        steps = [
            ["cmake", "-S", ROOT, "-B", LIB_BUILD,
             "-DCMAKE_BUILD_TYPE=Release", "-DQGNN_BUILD_TESTS=OFF",
             "-DQGNN_BUILD_BENCH=OFF", "-DQGNN_BUILD_EXAMPLES=OFF"],
            ["cmake", "--build", LIB_BUILD, "-j", JOBS],
            ["cmake", "-S", ROOT / "perfbench", "-B", BIN_BUILD,
             "-DCMAKE_BUILD_TYPE=Release", f"-DQGNN_BUILD_DIR={LIB_BUILD}"],
            ["cmake", "--build", BIN_BUILD, "-j", JOBS],
        ]
        for step in steps:
            if not run_logged(step, log):
                log.close()
                sys.stderr.write(log_path.read_text(errors="replace")[-8000:])
                fail("build failed (log: .bench_build/build.log)")
    build_type = ""
    for line in (LIB_BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        fail(f"library build type '{build_type}' keeps asserts on; "
             "refusing to measure it")


def main():
    build()
    args = sys.argv[1:]
    if not args:
        fail("no arguments; see perfbench/README.md")
    # The binary sets threads and observability itself; an inherited
    # override of these would change what is measured.
    env = {k: v for k, v in os.environ.items()
           if k not in ("QGNN_OBS", "QGNN_TRACE", "QGNN_SIMD",
                        "QGNN_NUM_THREADS")}
    proc = subprocess.run([str(BINARY), "--out-dir", str(BUILD / "out"),
                           "--model", str(ROOT / "perfbench/model/serve_gcn.txt")]
                          + args, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
