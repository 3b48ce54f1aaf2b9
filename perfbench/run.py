#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

Run one workload (from the root of a checkout):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the TURL libraries plus the
turl_perfbench binary) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr. The last stdout line is the binary's JSON result.

Check the benchmark itself (every workload at minimal length):

  python3 perfbench/run.py --self-test
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds turl_perfbench; returns its path."""
    out = os.path.join(build_root(), "perfbench")
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "turl_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "turl_perfbench")


def child_env():
    """The program's defaults exactly as users run them: no TURL_* knobs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TURL_")}


def run_binary(binary, args, capture=False):
    cmd = [binary] + args + ["--scratch",
                             os.path.join(build_root(), "perfbench-tmp")]
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None, text=True)


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    inputs = [line.split(":", 1)[1].strip() for line in lines
              if line.startswith("inputs:")]
    return json.loads(lines[-1]), (inputs[0] if inputs else None)


def check_metrics(result, specs, where):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: outputs failed verification"
    assert result["attempted"] >= 1 and result["failed"] == 0, where
    metrics = result["metrics"]
    assert set(metrics) == {s["name"] for s in specs}, \
        f"{where}: metric names {sorted(metrics)}"
    for spec in specs:
        m = metrics[spec["name"]]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            f"{where}: {spec['name']} not finite"
        assert m["unit"] == spec["unit"] and m["unit"], \
            f"{where}: {spec['name']} unit {m['unit']!r}"


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        digests, schemas = [], []
        for seed in (1, 2):
            proc = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                       "--seconds", "1", "--trace", "0"],
                              capture=True)
            assert proc.returncode == 0, f"{workload} seed {seed}: exit {proc.returncode}"
            result, digest = parse_result(proc.stdout)
            check_metrics(result, bench["end_to_end"], f"{workload} seed {seed}")
            digests.append(digest)
            schemas.append(sorted((k, v["unit"]) for k, v in result["metrics"].items()))
        assert digests[0] and digests[0] != digests[1], \
            f"{workload}: seeds 1 and 2 gave the same inputs"
        assert schemas[0] == schemas[1], f"{workload}: schema differs across seeds"

        proc = run_binary(binary, ["--workload", workload, "--seed", "3",
                                   "--seconds", "2", "--trace", "1"], capture=True)
        assert proc.returncode == 0, f"{workload} traced: exit {proc.returncode}"
        check_metrics(parse_result(proc.stdout)[0], bench["per_layer"],
                      f"{workload} traced")

        proc = run_binary(binary, ["--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", "0",
                                   "--corrupt-reference"], capture=True)
        assert proc.returncode != 0, f"{workload}: corrupted reference passed"
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False
        print(f"self-test {workload}: ok", file=sys.stderr)
    print("self-test: ok")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        self_test(binary)
        return 0
    try:
        return run_binary(binary, sys.argv[1:]).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
