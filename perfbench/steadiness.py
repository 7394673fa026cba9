#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs two sets of invocations of every workload (untraced), each set one
invocation per seed, and prints for each workload and end-to-end metric
the median, the quartiles and IQR / median of each set next to the
metric's bound, and how far the second set's median moved from the
first's. It also separates the two noise sources:

* host drift: the pass-to-pass spread of wall time inside one process,
  where every pass repeats the same simulations, in host seconds and in
  the reference seconds the metrics use, plus the host speed the probe
  measured in each invocation (see src/clock.rs);
* seed-to-seed work: the spread across invocations of the simulated work
  in one pass, counted in frames sent (deterministic, so host-free).

Run from the root of the repository:

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
        [--json out.json]

Every set runs seeds 1 .. runs.

`--report out.json` prints the report again from a saved `--json` file
(every workload in it), against the bounds now in BENCHMARK.json, without
running anything.
"""

import argparse
import json
import statistics
import subprocess
import sys


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """IQR / median, as the acceptance rule computes it."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def range_share(values):
    """(max - min) / median: the spread of a handful of passes."""
    return (max(values) - min(values)) / statistics.median(values)


def invoke(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(l)["detail"] for l in lines if l.startswith('{"detail"'))
    return result, detail


def run_sets(command, workloads, seeds, seconds, sets):
    # Build once, so no invocation below pays for compilation.
    subprocess.run(command + ["--help"], capture_output=True)
    raw = {}
    failed = 0
    for s in range(sets):
        for w in workloads:
            for seed in seeds:
                result, detail = invoke(command, w, seed, seconds)
                failed += result["failed"]
                if not result["correct"]:
                    print(f"set {s + 1} {w} seed {seed}: INCORRECT {result}", file=sys.stderr)
                raw.setdefault(w, []).append({"set": s, "seed": seed,
                                              "result": result, "detail": detail})
                m = result["metrics"]
                print(f"  set {s + 1} {w:<15} seed {seed:>3}: "
                      + "  ".join(f"{k}={v['value']:.6g}" for k, v in m.items()),
                      file=sys.stderr, flush=True)
    return raw, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="invocations per set and workload")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json workloads")
    ap.add_argument("--json", help="also write every invocation's result here")
    ap.add_argument("--report", help="report on a saved --json file instead of running")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = list(range(1, 1 + args.runs))

    if args.report:
        with open(args.report) as f:
            raw = json.load(f)
        workloads = args.workloads.split(",") if args.workloads else list(raw)
        seeds = sorted({r["seed"] for rs in raw.values() for r in rs})
        args.runs = len(seeds)
        args.sets = 1 + max(r["set"] for rs in raw.values() for r in rs)
        failed = sum(r["result"]["failed"] for rs in raw.values() for r in rs)
    else:
        raw, failed = run_sets(command, workloads, seeds, seconds, args.sets)

    print(f"run_seconds {seconds}, {args.runs} seeds x {args.sets} sets per workload "
          f"(seeds {seeds[0]}..{seeds[-1]}), failed simulations: {failed}")
    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'IQR/med':>8} {'bound':>6} {'bound/3':>7} {'drift':>7}")
        for name, spec in bounds.items():
            medians = []
            for s in range(args.sets):
                values = [r["result"]["metrics"][name]["value"]
                          for r in raw[w] if r["set"] == s]
                q1, med, q3 = quartiles(values)
                sp = spread(values)
                medians.append(statistics.median(values))
                worse = medians[-1] / medians[0] - 1
                if spec["better"] == "higher":
                    worse = -worse
                flag = ""
                if sp >= spec["bound"] / 3:
                    flag = "  SPREAD"
                    ok = False
                if worse > spec["bound"]:
                    flag += "  DRIFT"
                    ok = False
                print(f"  {name:<14} {s + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{sp:>8.4f} {spec['bound']:>6} {spec['bound'] / 3:>7.4f} "
                      f"{worse:>+7.4f}{flag}")
        details = [r["detail"] for r in raw[w]]
        passes = [len(d["pass_wall_s"]) for d in details]
        host = [range_share(d["pass_host_wall_s"]) for d in details]
        ref = [range_share(d["pass_wall_s"]) for d in details]
        speed = [statistics.median(d["pass_speed"]) for d in details]
        frames = [r["detail"]["frames"] for r in raw[w] if r["set"] == 0]
        print(f"  host drift, pass to pass in one process ((max - min) / median over "
              f"{min(passes)}..{max(passes)} passes): host seconds median {statistics.median(host):.4f} "
              f"max {max(host):.4f}; reference seconds median {statistics.median(ref):.4f} "
              f"max {max(ref):.4f}")
        print(f"  host speed across invocations (probe, 1 = reference): "
              f"min {min(speed):.3f}, median {statistics.median(speed):.3f}, max {max(speed):.3f}")
        print(f"  seed-to-seed work (frames per pass across seeds): "
              f"median {statistics.median(frames):.0f}, IQR/median {spread(frames):.4f}")
    print("\nsteady: every spread below a third of its bound and every median within its bound"
          if ok else "\nNOT steady (see SPREAD / DRIFT flags)")
    if args.json and not args.report:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
