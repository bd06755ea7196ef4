#!/usr/bin/env python3
"""Self-tests of the host-time benchmark.

    python3 hostbench/selftest.py

Run from the repository root. Checks, in order:
  1. BENCHMARK.json against the benchmark contract (keys, name and
     unit alphabets, bounds, list sizes, set-up metric);
  2. run.py's validation of the binary's report (missing, extra and
     non-finite metrics, operation counts);
  3. the C++ self-test (`hostbench selftest`): the SHiP++ -> SHiPpp
     name mapping, span self-time arithmetic, and the traced
     hierarchy reproducing sim::runSingleCore exactly;
  4. a short run of every workload, untraced, and one traced run:
     the result line's schema, units and correctness.
Exits non-zero when any check fails.
"""

import json
import math
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (hostbench/run.py)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract's keys")
    cmd = spec["command"]
    expect(isinstance(cmd, list) and 1 <= len(cmd) <= 32
           and all(isinstance(c, str) and len(c) <= 200 for c in cmd),
           "command is a list of at most 32 short strings")
    expect(not any(c.startswith("/") or ".." in c.split("/") for c in cmd),
           "command names nothing outside the checkout")
    paths = spec["paths"]
    expect(1 <= len(paths) <= 16 and all(
        PATH.match(p) and ".." not in p.split("/")
        and os.path.isdir(os.path.join(run.ROOT, p)) for p in paths),
        "paths are 1-16 existing relative directories")
    rs = spec["run_seconds"]
    expect(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds in 1..60")

    workloads = spec["workloads"]
    expect(2 <= len(workloads) <= 8 and all(
        set(w) == {"name", "why"} and "\n" not in w["why"]
        and len(w["why"]) <= 200 for w in workloads),
        "2-8 workloads, each a name and a one-line why")
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    expect(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"}
        and 0 < m["bound"] <= 0.25 for m in e2e),
        "1-16 end-to-end metrics with bounds in (0, 0.25]")
    expect(1 <= len(layer) <= 128 and all(
        set(m) == {"name", "unit", "better"} for m in layer),
        "1-128 per-layer metrics without bounds")
    metrics = e2e + layer
    expect(all(m["better"] in ("lower", "higher") for m in metrics),
           "better is lower or higher")
    expect(all(UNIT.match(m["unit"]) for m in metrics), "units are valid")
    names = [w["name"] for w in workloads] + [m["name"] for m in metrics]
    expect(all(NAME.match(n) for n in names), "names are valid")
    expect(len(names) == len(set(names)), "names are used once")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in e2e),
           "setup_s is in s, lower is better, with the largest bound")
    expect(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json <= 64 KiB")


def rejects(raw, expected):
    try:
        run.validate(raw, expected)
    except ValueError:
        return True
    return False


def check_validate():
    expected = {"a": "s", "b": "%"}

    def report(**over):
        raw = {"correct": True, "attempted": 3, "failed": 0,
               "metrics": {"a": {"value": 1.5, "kind": "host"},
                           "b": {"value": 2, "kind": "simulated"}}}
        raw.update(over)
        return raw

    res = run.validate(report(), expected)
    expect(res == {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"a": {"value": 1.5, "unit": "s"},
                               "b": {"value": 2, "unit": "%"}}},
           "validate attaches units from BENCHMARK.json")
    expect(rejects(report(metrics={"a": {"value": 1.0}}), expected),
           "validate rejects a missing metric")
    expect(rejects(report(metrics={"a": {"value": 1.0}, "b": {"value": 1},
                                   "c": {"value": 1}}), expected),
           "validate rejects an unexpected metric")
    expect(rejects(report(metrics={"a": {"value": math.nan},
                                   "b": {"value": 1}}), expected),
           "validate rejects a non-finite value")
    expect(rejects(report(attempted=0), expected),
           "validate rejects zero attempted operations")
    expect(not run.validate(report(failed=1), expected)["correct"],
           "a failed operation makes the result incorrect")


def check_cpp_selftest():
    binary = run.build()
    proc = subprocess.run([binary, "selftest"], capture_output=True,
                          text=True)
    sys.stdout.write(proc.stdout)
    expect(proc.returncode == 0, "hostbench selftest passes")


def check_run(spec, workload, trace):
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT)
    label = "%s trace=%d" % (workload, trace)
    expect(proc.returncode == 0, label + " exits 0")
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        expect(False, label + " ends with a JSON line")
        return
    expect(set(res) == RESULT_KEYS, label + " result has exactly the keys")
    expect(res["correct"] is True and res["failed"] == 0
           and res["attempted"] >= 1, label + " is correct")
    expect(set(res["metrics"]) == set(units), label + " reports every metric")
    expect(all(v == {"value": v["value"], "unit": units[k]}
               and math.isfinite(v["value"])
               for k, v in res["metrics"].items()),
           label + " values are finite with BENCHMARK.json's units")


def main():
    spec = run.load_spec()
    check_spec(spec)
    check_validate()
    check_cpp_selftest()
    for w in spec["workloads"]:
        check_run(spec, w["name"], 0)
    check_run(spec, "llc_replay", 1)
    unknown = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         "no_such_workload", "--seed", "1", "--seconds", "1", "--trace",
         "0"], capture_output=True, text=True, cwd=run.ROOT)
    expect(unknown.returncode != 0 and not unknown.stdout.strip(),
           "an unknown workload fails without a result")
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
