#!/usr/bin/env python3
"""Build smtflex and run one workload of its end-to-end benchmark.

    python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
simulator and the benchmark harness (Release) under $CARGO_TARGET_DIR,
or .bench_build when unset. Every run works in a fresh directory under
that build tree, checks the workload's outputs, checks that the
repository itself was left untouched, and prints one line per metric
followed, as the last line, by one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. The exit code is 0 only when every
check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_cold", "sim_long", "serve_mix", "fleet_sweep")
SOURCES = ("CMakeLists.txt", "src/CMakeLists.txt", "tools/smtflex_cli.cpp",
           "smtflex_cache.txt")
BUILD_TYPE = "Release"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(build_dir, env):
    """Configure (once) and build the simulator and the harness."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail(f"build failed (log: {log_path})")


def tree_state(skip_dir):
    """What the run must leave unchanged: the committed result cache,
    and either `git status` or a listing of every file outside the
    benchmark's build tree."""
    with open(os.path.join(ROOT, "smtflex_cache.txt"), "rb") as cache:
        state = {"smtflex_cache.txt": hashlib.sha256(cache.read()).hexdigest()}
    git = shutil.which("git")
    if git and os.path.isdir(os.path.join(ROOT, ".git")):
        status = subprocess.run([git, "status", "--porcelain",
                                 "--untracked-files=all"], cwd=ROOT,
                                capture_output=True, text=True)
        if status.returncode == 0:
            state["git status"] = status.stdout
            return state
    listing = []
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs
                   if os.path.join(top, d) != skip_dir and d != ".git"]
        for name in files:
            path = os.path.join(top, name)
            info = os.stat(path)
            listing.append((os.path.relpath(path, ROOT), info.st_size,
                            info.st_mtime_ns))
    state["files"] = sorted(listing)
    return state


def metric_spec(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        bench = json.load(spec)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def harness_timeout(seconds):
    """The harness measures for `seconds`; set-up, the output checks and
    the replays of a traced run come on top of that."""
    return 2 * seconds + 120


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        fail("smtflex sources not found next to perfbench/: " +
             ", ".join(missing))

    root = build_root()
    # The program sees only what the benchmark hands it: no SMTFLEX_*
    # settings leak in from the caller's environment, and temporary files
    # (the compiler's too) stay inside the build tree.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMTFLEX_")}
    env["TMPDIR"] = os.path.join(root, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build_dir = os.path.join(root, "perfbench")
    build(build_dir, env)
    harness = os.path.join(build_dir, "perfbench_harness")
    smtflex = os.path.join(build_dir, "smtflex_tools", "smtflex")

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = os.path.join(root, "runs", f"{tag}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)
    spans = os.path.join(root, "traces", f"{tag}.spans.jsonl")

    workers = max(1, min(2, os.cpu_count() or 1))
    before = tree_state(root)
    cmd = [harness, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir,
           "--seed-cache", os.path.join(ROOT, "smtflex_cache.txt"),
           "--smtflex", smtflex, "--workers", str(workers),
           "--spans", spans if args.trace else ""]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=run_dir,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=harness_timeout(args.seconds))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        print("perfbench: harness timed out", file=sys.stderr)
        sys.exit(1)
    shutil.rmtree(run_dir, ignore_errors=True)
    after = tree_state(root)

    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: harness failed (exit {proc.returncode})",
              file=sys.stderr)
        sys.exit(1)
    result = json.loads(lines[-1])

    attempted = result["attempted"] + 1
    failed = result["failed"]
    if before != after:
        failed += 1
        print("perfbench: the run changed the repository "
              "(smtflex_cache.txt or the working tree)", file=sys.stderr)
    spec = metric_spec(args.trace)
    measured = result["metrics"]
    wrong = [n for n, unit in spec.items()
             if n in measured and measured[n]["unit"] != unit]
    if wrong:
        print(f"perfbench: units differ from BENCHMARK.json for {wrong}",
              file=sys.stderr)
        sys.exit(1)
    if args.trace:
        # A layer the workload does not exercise reads 0.
        metrics = {n: measured.get(n, {"value": 0, "unit": u})
                   for n, u in spec.items()}
    else:
        missing = [n for n in spec if n not in measured]
        if missing:
            print(f"perfbench: harness did not report {missing}",
                  file=sys.stderr)
            sys.exit(1)
        metrics = {n: measured[n] for n in spec}

    context = dict(result["context"])
    context["build_dir"] = os.path.relpath(build_dir, ROOT)
    with open(os.path.join(root, "results", f"{tag}.json"), "w") as record:
        json.dump({"context": context, "attempted": attempted,
                   "failed": failed, "metrics": {**measured, **metrics}},
                  record, indent=1, sort_keys=True)

    print("context " + " ".join(f"{k}={v}" for k, v in sorted(context.items())
                                if not k.startswith("digest")))
    # Every metric of this mode is printed; the result line holds the
    # ones BENCHMARK.json names.
    per_layer = metric_spec(1)
    for name, m in sorted({**measured, **metrics}.items()):
        if args.trace == (name in per_layer):
            print(f"{name} {m['value']!r} {m['unit']}")
    for line in result["lines"]:
        print(line)
    print(f"failed_ratio {failed / attempted!r} ({failed} of {attempted} "
          "operations and checks failed)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
