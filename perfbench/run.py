#!/usr/bin/env python3
"""Build and run the Urbane benchmark.

    python3 perfbench/run.py --workload brush --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits non-zero without a result when the
sources are missing, the build fails or an output check fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, base))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("Urbane sources (src/) not found next to perfbench/")
    build_dir = os.path.join(build_base(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, target)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main(argv):
    if argv == ["--self-test"]:
        binary = build("perfbench_selftest")
        return subprocess.run([binary]).returncode

    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    binary = build("urbane_perfbench")
    base = build_base()
    traces = os.path.join(base, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [binary] + argv + [
        "--work-dir", os.path.join(base, "run"),
        "--commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    if args.get("--trace", "0") != "0":
        command += ["--trace-out", os.path.join(
            traces, f"{args['--workload']}-seed{args.get('--seed', '1')}.json")]
    sys.stdout.flush()
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
