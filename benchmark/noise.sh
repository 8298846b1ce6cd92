#!/usr/bin/env bash
# Noise harness: two sets (A, B) of N full runs of the *same* build,
# alternating A1 B1 A2 B2 ..., every run with another --seed, for every
# workload of BENCHMARK.json.  Prints, per workload x end-to-end metric,
# each set's median and quartiles, the spread (IQR / median), the gap
# between the two medians in the "worse" direction, and PASS/FAIL against
# the metric's bound — the same acceptance rule the driver applies.
#
#   [NOISE_RAW=raw.json] benchmark/noise.sh [runs-per-set=5] [first-seed=100] [workload ...]
#
# Run from the repository root.  The table it prints is pasted into
# benchmark/README.md; bounds in BENCHMARK.json are set from it.
set -euo pipefail
exec python3 - "$@" <<'PY'
import json, os, statistics, subprocess, sys, time

spec = json.load(open("BENCHMARK.json"))
runs = int(sys.argv[1]) if len(sys.argv) > 1 else 5
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 100
only = sys.argv[3:]
workloads = [w["name"] for w in spec["workloads"] if not only or w["name"] in only]
metrics = spec["end_to_end"]

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.time()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
    result = json.loads(line)
    if done.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}, result {line}")
    print(f"# {workload} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}

# One throw-away run per workload so the build and the page cache are warm.
for w in workloads:
    run(w, seed - 1)

samples = {w: {"A": [], "B": []} for w in workloads}
for i in range(runs):
    for w in workloads:
        for k, label in enumerate("AB"):
            samples[w][label].append(run(w, seed + 2 * i + k))

if os.environ.get("NOISE_RAW"):  # every run's values, for a closer look
    json.dump(samples, open(os.environ["NOISE_RAW"], "w"))

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med

print(f"| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] | B spread | gap (worse +) | bound | verdict |")
print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
failed = 0
for w in workloads:
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a = summary([s[name] for s in samples[w]["A"]])
        b = summary([s[name] for s in samples[w]["B"]])
        gap = (b[0] - a[0]) / a[0] * (1 if m["better"] == "lower" else -1)
        spread_ok = name == "setup_s" or max(a[3], b[3]) <= bound
        ok = spread_ok and gap <= bound
        failed += not ok
        cell = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"
        print(f"| {w} | {name} ({m['unit']}) | {cell(a)} | {a[3]:.2%} | {cell(b)} | {b[3]:.2%} "
              f"| {gap:+.2%} | {bound:.0%} | {'PASS' if ok else 'FAIL'} |")
print(f"\n{runs} runs per set, seeds {seed}..{seed + 2 * runs - 1}, --seconds {spec['run_seconds']}: "
      f"{'all PASS' if not failed else f'{failed} FAIL'}")
sys.exit(1 if failed else 0)
PY
