#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check it, print the result.

    python3 perfbench/run.py --workload sweep|pipeline|serve --seed N \
        --seconds S --trace 0|1

Run from anywhere; paths resolve against the checkout that holds this file.
The first run configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later runs rebuild incrementally. The binary measures the workload (see
README.md next to this file); this script adds the checks that need files:
every output digest is compared with perfbench/expected_digests.json when
that file has the seed, and the metric names and units with BENCHMARK.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it give the run context and, for a
traced run, every per-layer metric with the end-to-end metric and workload
it should move. `--record` stores this run's digests as the expected ones.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "pipeline", "serve")
EXPECTED = os.path.join(HERE, "expected_digests.json")
# The binary reports a hang itself after 160 s; this kill is the backstop for
# a process that cannot even do that.
KILL_AFTER_S = 172


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this run's digests in expected_digests.json")
    return p.parse_args()


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    """Configure (once) and build the perfbench binary; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"no {needed} at {ROOT}: nothing to build")
            sys.exit(2)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(3)
    return os.path.join(build_dir, "perfbench")


def source_id():
    """git commit when the checkout is a repository, else a hash of the
    sources the benchmark builds from."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def failed_result(reason):
    log(reason)
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_binary(binary, args, work_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", source_id()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=KILL_AFTER_S)
    except subprocess.TimeoutExpired:
        return None, f"killed after {KILL_AFTER_S}s without a report (hang)"
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        return None, f"binary exited {done.returncode} without a report"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, "binary's last line is not JSON"


def load_json(path, default):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def check_digests(report, seed):
    """Failed-operation count of digests that differ from the recorded ones."""
    expected = load_json(EXPECTED, {})
    mismatches = 0
    for workload in WORKLOADS:
        want = expected.get(workload, {}).get(str(seed))
        if want is None:
            continue
        got = {k: v for k, v in report["digests"].items()
               if k.startswith(workload + "/")}
        if not got:
            continue  # this run did not execute the workload
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                mismatches += 1
                if mismatches <= 10:
                    log(f"digest differs from the recorded seed-{seed} output: {key}")
    return mismatches


def record_digests(report, seed):
    expected = load_json(EXPECTED, {})
    for workload in WORKLOADS:
        got = {k: v for k, v in report["digests"].items()
               if k.startswith(workload + "/")}
        if got:
            expected.setdefault(workload, {})[str(seed)] = got
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def contract_metrics(report, trace):
    """The metrics BENCHMARK.json lists for this run kind, or an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in listed:
        got = report["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            return None, f"metric {m['name']} missing or not finite"
        if got["unit"] != m["unit"]:
            return None, f"metric {m['name']} in {got['unit']}, listed in {m['unit']}"
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    extra = set(report["metrics"]) - set(out)
    if extra:
        return None, f"metrics not listed in BENCHMARK.json: {sorted(extra)}"
    return out, None


def main():
    args = parse_args()
    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    work_dir = os.path.join(root, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    t0 = time.monotonic()
    try:
        report, error = run_binary(binary, args, work_dir)
        if report is not None and args.trace:
            spans_dir = os.path.join(root, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(work_dir, "spans.json")
            if os.path.exists(spans):
                shutil.move(spans, os.path.join(
                    spans_dir, f"{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if report is None:
        print(json.dumps(failed_result(error)))
        return
    print("context: " + json.dumps(report["context"], sort_keys=True))
    for note in report["notes"]:
        log(note)
    if args.record:
        record_digests(report, args.seed)
    failed = report["failed"] + check_digests(report, args.seed)
    attempted = max(1, report["attempted"])
    metrics, error = contract_metrics(report, args.trace)
    if metrics is None:
        print(json.dumps(failed_result(error)))
        return
    if args.trace:
        for name, m in sorted(report["metrics"].items()):
            print(f"  {name:36s} {m['value']:>16.6g} {m['unit']:6s} "
                  f"moves {m.get('moves', '-')}")
    log(f"{args.workload} seed {args.seed}: {time.monotonic() - t0:.1f}s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": min(failed, attempted), "metrics": metrics}))


if __name__ == "__main__":
    main()
