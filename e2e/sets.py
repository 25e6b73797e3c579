#!/usr/bin/env python3
"""Two sets of runs of the same code, as the benchmark check makes them.

Run from the root of the repository:

    python3 e2e/sets.py --out e2e/BASELINE.json

For every workload in BENCHMARK.json it makes `--seeds` runs for set A and
as many for set B, alternating A and B run by run (and going round the
workloads, so both sets of every workload see the same hour of the host),
then `--traced` runs with `--trace 1`. For each end-to-end metric and
workload it prints the median, the quartiles (statistics.quantiles, n=4)
and the middle-half spread (q3 - q1 over the median) of each set against
the metric's bound. A pair whose spread exceeds the bound is *unresolved*:
two such sets cannot tell a regression from the weather, so they are not
called unchanged. Everything, with the state of the host while it ran, is
written to `--out`.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

STRETCH_LINE = re.compile(
    r"^e2e: (ops_per_s|lat_p50_us|lat_p95_us): best ([0-9.eE+-]+|inf) \(reported\), "
    r"median ([0-9.eE+-]+|inf), worst ([0-9.eE+-]+|inf)"
)


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except OSError:
        return None


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    dirty = subprocess.run(
        ["git", "status", "--porcelain"], capture_output=True, text=True
    ).stdout.strip()
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "parent_commit": commit or "unknown",
        "tree": "as committed" if not dirty else "parent commit plus this change",
        "kernel": os.uname().release,
    }


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    load = loadavg()
    started = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - started
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        sys.exit(f"{' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} operations failed")
    stretches = {}
    for line in proc.stderr.splitlines():
        m = STRETCH_LINE.match(line)
        if m:
            stretches[m.group(1)] = {"median": float(m.group(3)), "worst": float(m.group(4))}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": round(wall, 3),
        "loadavg_before": load,
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "stretches": stretches,
    }


def spread_of(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worse_by(first, second, better):
    """Share of `first` by which `second` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def verdict(a, b, metric):
    bound = metric["bound"]
    gated = metric["name"] != "setup_s"  # the check gates its median only
    widest = max(a["spread"], b["spread"])
    drift = worse_by(a["median"], b["median"], metric["better"])
    if gated and widest > bound:
        return "unresolved"
    if drift > bound:
        return "regressed"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="where to write the JSON record")
    ap.add_argument("--seeds", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--traced", type=int, default=2, help="--trace 1 runs per workload")
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=None, help="override run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]

    record = {
        "host": host(),
        "command": command,
        "run_seconds": seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_start": loadavg(),
    }
    # The first run builds; it is not part of any set.
    started = time.time()
    run(command, workloads[0], 1, 1, 0)
    record["first_run_with_build_s"] = round(time.time() - started, 1)

    runs = {"A": [], "B": []}
    for i in range(args.seeds):
        for w in workloads:
            for name, base in (("A", 100), ("B", 200)):
                r = run(command, w, base + i + 1, seconds, 0)
                runs[name].append(r)
                print(
                    f"set {name} {w:12s} seed {r['seed']:3d} wall {r['wall_s']:5.1f}s load {r['loadavg_before']}: "
                    + " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items()),
                    flush=True,
                )
    traced = [run(command, w, 300 + i + 1, seconds, 1) for w in workloads for i in range(args.traced)]

    summary = []
    estimators = []
    print(f"\n{'workload':12s} {'metric':12s} {'bound':>6s}  "
          f"{'A median':>11s} {'A q1':>11s} {'A q3':>11s} {'A spread':>8s}  "
          f"{'B median':>11s} {'B q1':>11s} {'B q3':>11s} {'B spread':>8s}  {'B vs A':>7s}  verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = spread_of([r["metrics"][name] for r in runs["A"] if r["workload"] == w])
            b = spread_of([r["metrics"][name] for r in runs["B"] if r["workload"] == w])
            row = {
                "workload": w,
                "metric": name,
                "bound": metric["bound"],
                "A": a,
                "B": b,
                "B_worse_than_A_by": worse_by(a["median"], b["median"], metric["better"]),
                "verdict": verdict(a, b, metric),
                "above_a_third_of_bound": max(a["spread"], b["spread"]) > metric["bound"] / 3,
                "above_half_of_bound": max(a["spread"], b["spread"]) > metric["bound"] / 2,
            }
            summary.append(row)
            print(
                f"{w:12s} {name:12s} {metric['bound']:6.2f}  "
                f"{a['median']:11.4f} {a['q1']:11.4f} {a['q3']:11.4f} {a['spread']:8.2%}  "
                f"{b['median']:11.4f} {b['q1']:11.4f} {b['q3']:11.4f} {b['spread']:8.2%}  "
                f"{row['B_worse_than_A_by']:+7.2%}  {row['verdict']}"
                + ("  (> bound/2)" if row["above_half_of_bound"] else
                   "  (> bound/3)" if row["above_a_third_of_bound"] else "")
            )
        # Why the best stretch is reported: the same runs, read through
        # the median of their stretches instead.
        for name in ("ops_per_s", "lat_p50_us", "lat_p95_us"):
            best = [r["metrics"][name] for s in "AB" for r in runs[s] if r["workload"] == w]
            med = [r["stretches"][name]["median"] for s in "AB" for r in runs[s] if r["workload"] == w]
            estimators.append({
                "workload": w,
                "metric": name,
                "runs": len(best),
                "best_stretch_spread": spread_of(best)["spread"],
                "median_stretch_spread": spread_of(med)["spread"],
            })
    print(f"\n{'workload':12s} {'metric':12s} {'best stretch':>13s} {'median stretch':>15s}   (spread over both sets)")
    for e in estimators:
        print(f"{e['workload']:12s} {e['metric']:12s} {e['best_stretch_spread']:13.2%} {e['median_stretch_spread']:15.2%}")

    # What the check's 4 + 22 x workloads runs would take at this pace.
    walls = {w: [r["wall_s"] for s in "AB" for r in runs[s] if r["workload"] == w] for w in workloads}
    mean_wall = {w: statistics.mean(v) for w, v in walls.items()}
    projected = sum(mean_wall.values()) * 23 + 2 * record["first_run_with_build_s"]
    print(f"\nmean wall per run: " + ", ".join(f"{w} {s:.1f}s" for w, s in mean_wall.items()))
    print(f"projected for 4 + 22 x {len(workloads)} runs and two builds: {projected:.0f}s of 3420s")

    loads = [r["loadavg_before"] or 0.0 for s in "AB" for r in runs[s]]
    record.update({
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_end": loadavg(),
        "loadavg_before_runs": {
            "min": min(loads), "median": statistics.median(loads), "max": max(loads),
        },
        "mean_wall_s": mean_wall,
        "projected_check_s": round(projected),
        "summary": summary,
        "estimators": estimators,
        "sets": runs,
        "traced": traced,
    })
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out}")
    if any(row["verdict"] != "unchanged" for row in summary):
        sys.exit("the two sets do not agree within the bounds")


if __name__ == "__main__":
    main()
