#!/usr/bin/env python3
"""Build and run the repository's benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload rmat-topdown --seed 1 --seconds 10 --trace 0

builds `fastbfs` and the `perfbench` package (offline, into
$CARGO_TARGET_DIR, default .bench_build), prints a provenance line, the
metrics by name, and as the last line of standard output one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

Steadiness mode repeats a workload over consecutive seeds and prints each
metric's median, quartiles, min/max and spread (quartile distance over
median):

    python3 perfbench/run.py --workload road-deep --repeat 10 --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload in turn.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

WORKLOADS = ["rmat-topdown", "rmat-auto", "road-deep", "serve-mix"]
# One run must end within this; the first build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tree_hash(root, tops):
    """Hash of the source files under the given top-level paths."""
    h = hashlib.sha256()
    for top in tops:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        ]
        for f in sorted(files):
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(f, root).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:12]


def source_tree_id(root):
    """Git revision, or a hash of the sources when the checkout has no .git."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=root, capture_output=True, text=True, timeout=30,
            ).stdout.strip()
            if rev:
                return rev
        except (OSError, subprocess.SubprocessError):
            pass
    return "tree-" + tree_hash(root, ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"])


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip() or "rustc unknown"
    except (OSError, subprocess.SubprocessError):
        return "rustc unknown"


def build(root, target):
    """Builds the server binary and the benchmark; returns their paths."""
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        fail(f"{root} is not a checkout of the workspace (no Cargo.toml and crates/)")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "fastbfs"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=root, env=env, timeout=BUILD_TIMEOUT_S,
                                  stdout=sys.stderr)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "fastbfs"), os.path.join(release, "perfbench")


def run_once(root, binaries, workload, seed, seconds, trace, provenance):
    """Runs one workload and returns its output lines."""
    fastbfs, bench = binaries
    work = os.path.join(os.path.dirname(bench), "perfbench-work")
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--fastbfs", fastbfs,
           "--rev", provenance[0], "--rustc", provenance[1]]
    # Own process group, so stopping it also stops the server it started.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"{workload} seed {seed} exited with {proc.returncode}")
    return lines


def steadiness(results):
    """Per-metric median, quartiles, min/max and spread over runs."""
    names = list(results[0]["metrics"])
    print(f"{'metric':<38} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>8}")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<38} {unit:<6} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{min(vals):>12.4f} {max(vals):>12.4f} {spread:>8.3f}")
    failed = [r["failed"] / r["attempted"] for r in results]
    print(f"correct in every run: {all(r['correct'] for r in results)}; "
          f"failed share per run: {sorted(set(failed))}")


def main():
    # SIGTERM unwinds like an exception, so the run in flight is stopped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness mode: runs on this many consecutive seeds")
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binaries = build(root, target)
    provenance = (source_tree_id(root), rustc_version())
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    if a.repeat <= 0:
        if len(workloads) != 1:
            fail("--workload all needs --repeat")
        lines = run_once(root, binaries, workloads[0], a.seed, a.seconds, a.trace, provenance)
        print("\n".join(lines), flush=True)
        return
    for w in workloads:
        results = []
        for k in range(a.repeat):
            lines = run_once(root, binaries, w, a.seed + k, a.seconds, a.trace, provenance)
            if k == 0:
                print(lines[0], flush=True)
            result = json.loads(lines[-1])
            results.append(result)
            print(f"seed {a.seed + k}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        print(f"== {w}: {a.repeat} runs, seeds {a.seed}..{a.seed + a.repeat - 1}, "
              f"{a.seconds}s, trace {a.trace}")
        steadiness(results)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
