#!/usr/bin/env python3
"""Build the repository and run benchmark workloads.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds `repro` (the root workspace) and the `perfbench` binary (its own
workspace in this directory) in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it. Build output goes to
stderr; the last stdout line is the JSON result. Exits 2
without a result when the repository's sources are missing or do not
build.
"""

import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ["fig9-sweep", "cold-8k", "scenario-surface", "serve-mix"]


def source_id():
    """The commit when run from a git checkout, else a hash of the
    sources the benchmark builds (crates, manifests, lock files and
    the benchmark itself), so every record names the code it timed."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        lines = head.stdout.split()
        if head.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT,
                capture_output=True,
                text=True,
            ).stdout.strip()
            return lines[1] + ("-dirty" if dirty else "")
    except OSError:
        pass
    h = hashlib.sha1()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates"))
    ):
        print("perfbench: the repository's sources are not here", file=sys.stderr)
        return 2
    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["-p", "sbgp-experiments", "--bin", "repro"],
        ["--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "-q"] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    env["PERFBENCH_COMMIT"] = source_id()
    release = os.path.join(target, "release")
    args = sys.argv[1:]
    runs = [args]
    # `--workload all` runs every workload, each in a process of its
    # own, and fails if any of them does.
    for i in range(len(args) - 1):
        if args[i : i + 2] == ["--workload", "all"]:
            runs = [args[: i + 1] + [w] + args[i + 2 :] for w in WORKLOADS]
    status = 0
    for run_args in runs:
        argv = [os.path.join(release, "perfbench")] + run_args
        argv += ["--repro", os.path.join(release, "repro")]
        argv += ["--work", os.path.join(target, "perfbench")]
        status = subprocess.run(argv, cwd=ROOT, env=env).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
