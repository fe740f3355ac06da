#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench/ (the zkphire library from ../src plus the zkbench program)
into .bench_build/perfbench, runs one workload in its own process, checks
its outputs, and prints the result as one JSON object on the last line of
standard output:

    python3 perfbench/run.py --workload prove_jellyfish_mu14 --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (Chrome trace written to .bench_out/). Extra modes:

    --workload all   every workload, each in its own process, one table
    --smoke          tiny sizes, every workload, trace writer and checks;
                     the benchmark's own test

Run it from the repository root. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
ZKBENCH = os.path.join(BUILD, "zkbench")

WORKLOADS = ["prove_jellyfish_mu14", "service_mixed_mu12",
             "sumcheck_tableI_mu18"]

# The bounded end-to-end metrics; every workload reports them. zkbench also
# prints latency_p90_ms, verify_geomean_ms and proof_kb, which are not
# bounded (see README.md).
END_TO_END = ["setup_s", "latency_p50_ms", "latency_geomean_ms",
              "proofs_per_s", "peak_rss_mb"]

RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on any failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "zkbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run zkbench once; returns (exit code, parsed result or None)."""
    cmd = [ZKBENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT, "%s-seed%s%s.trace.json" % (workload, seed,
                                             "-smoke" if smoke else ""))]
    if smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %ds" % (workload, RUN_TIMEOUT_S))
        return 1, None
    result = None
    for line in r.stdout.splitlines():
        if line.startswith("ZKBENCH_RESULT "):
            result = json.loads(line[len("ZKBENCH_RESULT "):])
        else:
            print(line)
    return r.returncode, result


def contract_json(result, code, trace):
    """The one-line result: end-to-end metrics untraced, per-layer traced."""
    metrics = result["metrics"]
    names = sorted(metrics) if trace else END_TO_END
    return {
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }


def run_all(seed, seconds):
    rows, ok = [], True
    for w in WORKLOADS:
        code, res = run_workload(w, seed, seconds, False)
        if res is None or code != 0 or not res["correct"]:
            ok = False
        if res is not None:
            rows.append((w, res))
    print("\n%-22s %-20s %14s %-6s %8s" % ("workload", "metric", "value",
                                          "unit", "samples"))
    for w, res in rows:
        for name, m in sorted(res["metrics"].items()):
            print("%-22s %-20s %14.6g %-6s %8d" % (w, name, m["value"],
                                                  m["unit"], m["samples"]))
        ratio = res["failed"] / max(res["attempted"], 1)
        print("%-22s %-20s %14.6g %-6s %8d" % (w, "fail_ratio", ratio,
                                              "ratio", res["attempted"]))
        print("%-22s %-20s %s" % (w, "digest", res["digest"]))
    print(json.dumps({"correct": ok, "workloads": {
        w: contract_json(res, 0, False) for w, res in rows}}))
    return 0 if ok and len(rows) == len(WORKLOADS) else 1


def smoke():
    """Every workload at tiny sizes, traced and untraced; checks the result
    shape against BENCHMARK.json when it is present."""
    declared = None
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as f:
            b = json.load(f)
        declared = ([m["name"] for m in b["end_to_end"]],
                    sorted(m["name"] for m in b["per_layer"]),
                    [w["name"] for w in b["workloads"]])
        if declared[2] != WORKLOADS:
            log("smoke: BENCHMARK.json workloads differ from run.py")
            return 1
        if declared[0] != END_TO_END:
            log("smoke: BENCHMARK.json end_to_end differs from run.py")
            return 1
    failures = 0
    for w in WORKLOADS:
        for trace in (False, True):
            code, res = run_workload(w, 7, 0.5, trace, smoke=True)
            if res is None or code != 0 or not res["correct"]:
                log("smoke: %s trace=%d failed" % (w, trace))
                failures += 1
                continue
            out = contract_json(res, code, trace)
            if trace and declared and sorted(out["metrics"]) != declared[1]:
                log("smoke: %s per-layer metrics differ from BENCHMARK.json"
                    % w)
                failures += 1
            if not trace and any(out["metrics"][n]["value"] <= 0
                                 for n in END_TO_END):
                log("smoke: %s has a non-positive end-to-end metric" % w)
                failures += 1
            if trace:
                path = os.path.join(OUT, "%s-seed7-smoke.trace.json" % w)
                with open(path) as f:
                    if not json.load(f)["traceEvents"]:
                        log("smoke: %s wrote an empty trace" % w)
                        failures += 1
    print("smoke: %s" % ("ok" if failures == 0 else "%d failures" % failures))
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if a.workload not in WORKLOADS + ["all"]:
        p.error("unknown workload %r; one of %s or all"
                % (a.workload, ", ".join(WORKLOADS)))
    if not build():
        return 1
    if a.smoke:
        return smoke()
    if a.workload == "all":
        return run_all(a.seed, a.seconds)
    code, res = run_workload(a.workload, a.seed, a.seconds, bool(a.trace))
    if res is None:
        log("perfbench: %s produced no result (exit %d)" % (a.workload, code))
        return 1
    out = contract_json(res, code, bool(a.trace))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
