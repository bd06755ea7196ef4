#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
hostbench/ (the simulator's libraries from src/ plus the hostbench binary) in
Release mode under $CARGO_TARGET_DIR (default .bench_build); later
runs rebuild incrementally. The hostbench binary runs in its own
process, so peak memory and allocator state stay per workload.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; units come from BENCHMARK.json. The
lines before it give each metric's kind (host or simulated), the
binary's notes and failures, and the build metadata.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "hostbench")


def build():
    """Configure (once) and build the hostbench binary; return its path."""
    out = build_dir()
    env = dict(os.environ)
    # Keep git (called by the simulator's CMake for a build id) from
    # searching above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    # Compiler temporaries stay inside the build tree too.
    env["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "hostbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, env=env)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def validate(raw, expected):
    """Check the binary's report against the expected metrics
    ({name: unit}); return the benchmark's result object."""
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in raw:
            raise ValueError("hostbench report lacks " + key)
    metrics = raw["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        raise ValueError("metric mismatch: missing %s, unexpected %s"
                         % (missing, extra))
    result = {}
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError("metric %s has no finite value" % name)
        result[name] = {"value": value, "unit": unit}
    attempted, failed = raw["attempted"], raw["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int)
            and attempted >= 1 and 0 <= failed <= attempted):
        raise ValueError("bad operation counts %r/%r" % (attempted, failed))
    return {"correct": bool(raw["correct"]) and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": result}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise ValueError("unknown workload %s (have %s)"
                             % (args.workload, ", ".join(names)))
        listed = spec["per_layer" if args.trace else "end_to_end"]
        expected = {m["name"]: m["unit"] for m in listed}
        binary = build()
        cmd = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("hostbench exited with %d" % proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError("hostbench printed nothing")
        raw = json.loads(lines[-1])
        result = validate(raw, expected)
    except (OSError, ValueError, RuntimeError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("hostbench: %s" % e)
        return 1

    meta = dict(raw.get("meta", {}), git_sha=git_sha())
    meta["release_build"] = meta.get("build_type") == "Release"
    if not meta["release_build"]:
        log("hostbench: WARNING: %s build; numbers are not comparable"
            % meta.get("build_type"))
    print("hostbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                            args.trace))
    for name in expected:
        m = raw["metrics"][name]
        print("  %-34s %16.6f %-9s %s" % (name, m["value"], expected[name],
                                         m.get("kind", "?")))
    for note in raw.get("notes", []):
        print("  note: " + note)
    for err in raw.get("errors", []):
        print("  FAILED: " + err)
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
