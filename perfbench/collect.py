"""Run the benchmark over several seeds and summarise each metric's spread.

From the root of a checkout:

    python3 perfbench/collect.py --seeds 1-10 [--workloads sweep,cli] \\
        [--trace 0] [--out FILE]

Runs `BENCHMARK.json`'s command once per workload and seed, one run at a
time, and prints (or writes to FILE) for every metric its values, median,
quartiles and spread (inter-quartile distance over the median, as
`statistics.quantiles(values, n=4)` gives them). For the end-to-end metrics
it also states whether the spread is below a third of the metric's bound;
the detail line's other end-to-end metrics are summarised beside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": None, "q3": None, "spread": None, "values": values}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None, help="comma list; default all")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds(args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed} exited {proc.returncode}")
            lines = proc.stdout.strip().split("\n")
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            runs.append({"seed": seed, "wall_s": wall, "result": result, "detail": detail})
            print(f"{name} seed {seed}: {wall:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        metrics = {}
        for key in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][key]["value"] for r in runs]
            m = summarise(vals)
            if key in bounds and m["spread"] is not None:
                m["bound"] = bounds[key]
                m["below_third_of_bound"] = m["spread"] < bounds[key] / 3.0
            metrics[key] = m
        # The detail line's end-to-end metrics that the result line leaves out.
        extra = {}
        if not args.trace:
            for key, val in runs[0]["detail"]["end_to_end"].items():
                vals = [r["detail"]["end_to_end"][key] for r in runs]
                if key not in metrics and isinstance(val, (int, float)) and None not in vals:
                    extra[key] = summarise(vals)
        summary["workloads"][name] = {
            "runs": [{"seed": r["seed"], "wall_s": r["wall_s"], "correct": r["result"]["correct"],
                      "attempted": r["result"]["attempted"], "failed": r["result"]["failed"]}
                     for r in runs],
            "metrics": metrics,
            "detail_metrics": extra,
            "details": [r["detail"] for r in runs],
        }
    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for name, w in summary["workloads"].items():
        for key, m in w["metrics"].items():
            if "bound" in m or args.trace:
                flag = "" if m.get("below_third_of_bound", True) else "  <-- spread >= bound/3"
                spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
                print(f"{name:9s} {key:36s} median {m['median']:.6g} spread {spread}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
