#!/usr/bin/env python3
"""mpsocsim benchmark: build the harness, run one workload, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stbus-playback --seed 1 --seconds 10 --trace 0

builds the simulator and perfbench/harness.cpp as a Release build in
.bench_build/, runs the workload, checks every metric name against
BENCHMARK.json and prints, as the last line of stdout, one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of the separate traced
run (spans go to .bench_build/traces/).  Provenance (nproc, build type,
compiler, git rev, source hash) goes on the line before it, and every result
is appended with its provenance to .bench_build/results.jsonl.

Comparison of two result logs (parent first, change second), by the rule
"win at least 9 of 10 pairs and move the median by more than the parent's
IQR":

    python3 perfbench/run.py --compare parent.jsonl change.jsonl
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
BUILD_DIR = Path(".bench_build")
HARNESS = BUILD_DIR / "perfbench_harness"
HARNESS_TIMEOUT_S = 175
MIN_PAIRS = 10


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def cmake_cache(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def build():
    """Configure (once) and build the harness as Release; False on failure."""
    if cmake_cache("CMAKE_BUILD_TYPE") != "Release":
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode:
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_harness",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr, timeout=880).returncode == 0


def source_hash():
    """sha256 over the simulator sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*")):
        if path.is_file():
            h.update(str(path).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not Path(".git").exists():
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def provenance(info):
    return {
        "nproc": os.cpu_count(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": info.get("compiler"),
        "git_rev": git_rev(),
        "src_sha256": source_hash(),
    }


def check_names(result, spec, trace):
    """Every printed metric is declared in BENCHMARK.json, and vice versa."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    problems = []
    for name in sorted(set(declared) | set(printed)):
        if name not in printed:
            problems.append(f"{name}: declared but not printed")
        elif name not in declared:
            problems.append(f"{name}: printed but not declared")
        elif printed[name]["unit"] != declared[name]:
            problems.append(f"{name}: unit {printed[name]['unit']} != "
                            f"{declared[name]}")
        elif printed[name]["value"] is None:
            problems.append(f"{name}: no value")
    return problems


def report(result, prov):
    t = result
    base = max(t["attempted"], 1)
    log(f"{t['info']['workload']} seed {t['info']['seed']}: "
        f"fail_ratio {t['failed']}/{t['attempted']} = {t['failed'] / base:.4g}"
        f" (base {t['attempted']} operations)")
    samples = t.get("samples", {})
    for name, m in t["metrics"].items():
        n = len(samples.get(name, []))
        log(f"  {name:32s} {m['value']:>14.6g} {m['unit']:6s}"
            + (f" (median of {n})" if n else ""))
    log("  provenance " + json.dumps(prov, sort_keys=True))
    for err in t.get("errors", []):
        log("  FAIL " + err)


def run_workload(args):
    spec = load_spec()
    try:
        ok = build()
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1
    if not ok:
        log("build failed")
        return 1
    if not HARNESS.exists():
        log(f"no harness at {HARNESS}")
        return 1
    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    problems = check_names(result, spec, args.trace)
    if problems:
        for p in problems:
            log("metric mismatch: " + p)
        return 1
    prov = provenance(result["info"])
    report(result, prov)
    record = {"ts": started, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "result": result}
    with open(args.log or BUILD_DIR / "results.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


# --- comparison --------------------------------------------------------------


def load_log(path):
    records = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["trace"] == 0:
                records.setdefault(r["workload"], {})[r["seed"]] = r
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Classify one workload x metric from paired parent/change values."""
    n = len(parent)
    if n < MIN_PAIRS:
        return f"unresolved ({n} pairs < {MIN_PAIRS})"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if wins >= 0.9 * n and gain > p3 - p1:
        return f"improved ({wins}/{n} pairs)"
    if pm and (p3 - p1) / abs(pm) > bound:
        every_better = all(sign * (c - p) > 0 for c in change for p in parent)
        if not every_better:
            return "unresolved (parent spread exceeds bound)"
    if pm and -gain > bound * abs(pm):
        return f"worse (median {cm:.6g} vs {pm:.6g})"
    return "unchanged within bound"


def compare(parent_path, change_path):
    spec = load_spec()
    parent, change = load_log(parent_path), load_log(change_path)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        parent_first = [p_runs[s]["ts"] < c_runs[s]["ts"] for s in seeds]
        if seeds and not all(a != b for a, b in zip(parent_first,
                                                     parent_first[1:])):
            log(f"{workload}: pairs do not alternate which side runs first")
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [p_runs[s]["result"]["metrics"][name]["value"] for s in seeds]
            cv = [c_runs[s]["result"]["metrics"][name]["value"] for s in seeds]
            row = {"workload": workload, "metric": name, "pairs": len(seeds),
                   "verdict": verdict(pv, cv, m["better"], m["bound"])}
            if seeds:
                row["parent_q1_med_q3"] = quartiles(pv)
                row["change_q1_med_q3"] = quartiles(cv)
            rows.append(row)
    for row in rows:
        quart = ""
        if row["pairs"]:
            pq, cq = row["parent_q1_med_q3"], row["change_q1_med_q3"]
            quart = (f" parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                     f" change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]")
        print(f"{row['workload']:18s} {row['metric']:12s} "
              f"{row['verdict']}{quart}")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", help="append results here instead of "
                    ".bench_build/results.jsonl")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
