#!/usr/bin/env python3
"""Smoke test of the repository benchmark, at tiny size (n = 72; 16 sessions).

    python3 repobench/smoke.py

Run from the root of a checkout. For every workload it runs the command
from BENCHMARK.json untraced and traced, and checks the result line, the
metric names and units against BENCHMARK.json, the correctness flags and
the result file. It then checks two ways the benchmark must fail: a
missing `colord` binary fails the run with `"correct": false`, and a
directory holding only BENCHMARK.json and the benchmark's files fails
without printing a result. Exits 0 when all of that holds.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)
    return ok


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(spec)}")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200, f"workload entry {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end_to_end entry {m}")
        names.append(m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer entry {m}")
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), f"metric entry {m}")
    check(all(NAME.match(n) for n in names), "a name breaks the naming rule")
    check(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must be in s, lower is better, with the largest bound")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    return spec


def run(spec, workload, trace, cwd=ROOT):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace, done):
    tag = f"{workload} trace {trace}"
    if not check(done.returncode == 0, f"{tag}: exit {done.returncode}\n{done.stderr[-3000:]}"):
        return
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag}: correctness {result['correct']} {result['attempted']} {result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    check(list(got) == [m["name"] for m in wanted], f"{tag}: metric names differ from BENCHMARK.json")
    for m in wanted:
        v = got.get(m["name"], {})
        check(v.get("unit") == m["unit"], f"{tag}: {m['name']} unit {v.get('unit')}")
        value = v.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{tag}: {m['name']} = {value}")
        if not trace:
            check(value != 0, f"{tag}: end-to-end {m['name']} is 0")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.join(ROOT, target, "repobench-results", f"{workload}-seed7-trace{trace}.json")
    with open(path) as f:
        doc = json.load(f)
    check(doc["host"]["nproc"] >= 1 and "loadavg_end" in doc["host"], f"{tag}: host record")
    if trace:
        check(len(doc.get("spans", [])) > 0, f"{tag}: no spans written")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            check_result(spec, workload, trace, run(spec, workload, trace))

    # A failed run: no colord binary to spawn.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bench = os.path.join(target, "release", "repobench")
    done = subprocess.run([bench, "--workload", "colord-serve", "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--size", "tiny", "--colord", os.path.join(target, "absent"),
                           "--out", os.path.join(target, "repobench-results")],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    last = done.stdout.strip().splitlines()[-1:]
    check(done.returncode != 0 and last and json.loads(last[0])["correct"] is False,
          "a run without colord must report correct: false and exit non-zero")

    # A bare directory: BENCHMARK.json and the benchmark's own files only.
    bare = os.path.join(target, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    done = run(spec, workloads[0], 0, cwd=bare)
    check(done.returncode != 0 and not done.stdout.strip(), "a bare directory must fail without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke: " + ("FAILED" if failures else f"ok ({len(workloads)} workloads, traced and untraced)"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
