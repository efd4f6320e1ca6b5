#!/usr/bin/env python3
"""Build and run one workload of the inf2vec benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stream-digg --seed 1 --seconds 20 --trace 0

Builds `perfbench/` (its own Cargo workspace) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the benchmark binary in
a scratch directory under `.bench_work/`, removes that directory, and
exits with the binary's code. The last line of standard output is the
result JSON; the line before it is the detail JSON with the fingerprint.

The result carries every metric `BENCHMARK.json` lists for the mode:
an untraced result that lacks an end-to-end metric is an error, and a
per-layer metric of a layer the workload does not exercise is reported
as 0.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train-digg", "stream-digg", "online-100k", "serve-100k")
# A run measures for --seconds plus set-up; anything near this is a hang.
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "results"))
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def fs_type(path):
    try:
        out = subprocess.run(
            ["stat", "-f", "-c", "%T", path], capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build():
    """Builds the benchmark; returns the binary path or None."""
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository's crates/ are missing", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        return None
    return os.path.join(target, "release", "inf2vec-perfbench")


def complete(result, trace):
    """Checks or fills `result` against BENCHMARK.json; returns an error or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = result["metrics"]
    if trace:
        for spec in bench["per_layer"]:
            metrics.setdefault(spec["name"], {"value": 0.0, "unit": spec["unit"]})
        return None
    missing = [m["name"] for m in bench["end_to_end"] if m["name"] not in metrics]
    return f"result lacks end-to-end metrics {missing}" if missing else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
        "--source-rev", source_rev(),
        "--fs-type", fs_type(work),
    ]
    # SIGTERM unwinds through the `finally` below, which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # Anything the libraries put in the temporary directory stays in the
    # work directory too.
    env = dict(os.environ, TMPDIR=work)
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        code = child.returncode
        lines = stdout.splitlines()
        if code == 0:
            result = json.loads(lines[-1])
            error = complete(result, args.trace)
            if error:
                print(f"perfbench: {error}", file=sys.stderr)
                code = 1
            lines[-1] = json.dumps(result)
        print("\n".join(lines))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
